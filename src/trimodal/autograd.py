"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float32 numpy array (float64 in verification mode,
see :mod:`trimodal.gradcheck`).  Each operation records its input tensors
and a backward rule on the output; ``Tensor.backward`` replays the rules
in reverse creation order, which is a valid topological order because an
op's inputs always exist before its output.

Backward frees the graph as it replays it.  A rule never holds its own
output tensor, so a graph has no reference cycles and its buffers are
released by reference counting, without waiting for the cyclic garbage
collector.  Once a node's rule has run, the node drops its parents, its
gradient and its rule: non-leaf tensors keep no gradient, leaves
(parameters and tensors created with ``requires_grad=True``) keep theirs,
and a second backward through a freed node raises ``RuntimeError``.

The primitive set is closed on purpose: dense maps, 3-d convolution
(plain and transposed), global average pooling, pointwise nonlinearities,
softmax, reductions and shape plumbing: exactly what the fusion pipeline
needs.  Two fused ops outside this module, ``nn.LayerNorm`` and
``losses.sdm_loss``, record one node each through ``_make`` and
``_accum`` with a closed-form backward.  Both convolutions and their gradients run on one phase-grid
kernel of shifted GEMMs (see the conv section).  All accumulation happens
in numpy's fixed-order reductions, so repeated runs on the same inputs
are bit-identical; the conv kernel also gives the same bits at one or two
BLAS threads.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager

import numpy as np

_ids = itertools.count()
_grad_enabled = True


# Forward passes under ``no_grad`` over a whole cohort (calibration,
# imputation, scoring) run this many subjects at a time, so their memory
# does not grow with the cohort.  The bytes equal a one-batch forward over
# the cohort, short last chunk included: the conv GEMMs pad their grid to
# 64 columns, and the dense matmuls take rows in blocks of 4 from the
# first, so chunks that start at multiples of 4 keep every row's bits
# (chunk sizes that are not moved the fusion scores by ~1e-7).
INFERENCE_CHUNK = 64


@contextmanager
def no_grad():
    """Disable graph recording (inference / oracle evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Tensor:
    """N-dimensional float array with optional gradient-tape participation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            data = np.asarray(data, dtype=dtype)
        else:
            data = np.asarray(data)
            if data.dtype not in (np.float32, np.float64):
                data = data.astype(np.float32)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._id = next(_ids)

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def detach(self):
        """Same values, severed from the graph (stop-gradient)."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def backward(self):
        """Backpropagate from a scalar output through the recorded tape,
        freeing each node once its rule has run (see the module docstring)."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.data.shape}")
        # Reachable sub-tape, popped in reverse creation order.
        tape = []
        seen = {self._id}
        stack = [self]
        while stack:
            node = stack.pop()
            tape.append(node)
            for p in node._parents:
                if p._id not in seen and p._backward is not None:
                    seen.add(p._id)
                    stack.append(p)
        tape.sort(key=lambda n: n._id)
        self.grad = np.ones_like(self.data)
        while tape:
            node = tape.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = _freed

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            out = _make(self.data + other, (self,))
            if out._parents:
                out._backward = lambda g, a=self: _accum(a, _unbroadcast(g, a.data.shape))
            return out
        out = _make(self.data + other.data, (self, other))
        if out._parents:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    _accum(a, _unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    _accum(b, _unbroadcast(g, b.data.shape))
            out._backward = bwd
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            out = _make(self.data - other, (self,))
            if out._parents:
                out._backward = lambda g, a=self: _accum(a, _unbroadcast(g, a.data.shape))
            return out
        out = _make(self.data - other.data, (self, other))
        if out._parents:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    _accum(a, _unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    _accum(b, _unbroadcast(-g, b.data.shape), fresh=True)
            out._backward = bwd
        return out

    def __rsub__(self, other):
        out = _make(other - self.data, (self,))
        if out._parents:
            out._backward = lambda g, a=self: _accum(a, _unbroadcast(-g, a.data.shape), fresh=True)
        return out

    def __neg__(self):
        out = _make(-self.data, (self,))
        if out._parents:
            out._backward = lambda g, a=self: _accum(a, _unbroadcast(-g, a.data.shape), fresh=True)
        return out

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            out = _make(self.data * other, (self,))
            if out._parents:
                out._backward = lambda g, a=self, c=other: _accum(a, _unbroadcast(g * c, a.data.shape), fresh=True)
            return out
        out = _make(self.data * other.data, (self, other))
        if out._parents:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    _accum(a, _unbroadcast(g * b.data, a.data.shape), fresh=True)
                if b.requires_grad:
                    _accum(b, _unbroadcast(g * a.data, b.data.shape), fresh=True)
            out._backward = bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Tensor):
            return self * (1.0 / other)
        out = _make(self.data / other.data, (self, other))
        if out._parents:
            def bwd(g, a=self, b=other, y=out.data):
                if a.requires_grad:
                    _accum(a, _unbroadcast(g / b.data, a.data.shape), fresh=True)
                if b.requires_grad:
                    _accum(b, _unbroadcast(-g * y / b.data, b.data.shape), fresh=True)
            out._backward = bwd
        return out

    def __rtruediv__(self, other):
        out = _make(other / self.data, (self,))
        if out._parents:
            out._backward = lambda g, a=self, y=out.data: _accum(
                a, _unbroadcast(-g * y / a.data, a.data.shape), fresh=True)
        return out

    def __matmul__(self, other):
        return matmul(self, other)

    # -- pointwise ---------------------------------------------------------

    def abs(self):
        out = _make(np.abs(self.data), (self,))
        if out._parents:
            out._backward = lambda g, a=self: _accum(a, g * np.sign(a.data), fresh=True)
        return out

    def square(self):
        out = _make(self.data * self.data, (self,))
        if out._parents:
            out._backward = lambda g, a=self: _accum(a, g * (2.0 * a.data), fresh=True)
        return out

    def sqrt(self):
        out = _make(np.sqrt(self.data), (self,))
        if out._parents:
            out._backward = lambda g, a=self, y=out.data: _accum(a, g * (0.5 / y), fresh=True)
        return out

    def powf(self, c):
        """Elementwise x**c for a python float c (x > 0, or integer c)."""
        out = _make(self.data ** c, (self,))
        if out._parents:
            out._backward = lambda g, a=self, c=c: _accum(a, g * (c * a.data ** (c - 1.0)), fresh=True)
        return out

    def log(self):
        out = _make(np.log(self.data), (self,))
        if out._parents:
            out._backward = lambda g, a=self: _accum(a, g / a.data, fresh=True)
        return out

    def exp(self):
        out = _make(np.exp(self.data), (self,))
        if out._parents:
            out._backward = lambda g, y=out.data, a=self: _accum(a, g * y, fresh=True)
        return out

    def relu(self):
        out = _make(np.maximum(self.data, 0.0), (self,))
        if out._parents:
            out._backward = lambda g, a=self: _accum(a, g * (a.data > 0), fresh=True)
        return out

    def leaky_relu(self, alpha=0.2):
        out = _make(np.where(self.data > 0, self.data, alpha * self.data), (self,))
        if out._parents:
            out._backward = lambda g, a=self, al=alpha: _accum(
                a, g * np.where(a.data > 0, 1.0, al).astype(g.dtype), fresh=True)
        return out

    def tanh(self):
        out = _make(np.tanh(self.data), (self,))
        if out._parents:
            out._backward = lambda g, y=out.data, a=self: _accum(a, g * (1.0 - y * y), fresh=True)
        return out

    def sigmoid(self):
        out = _make(1.0 / (1.0 + np.exp(-self.data)), (self,))
        if out._parents:
            out._backward = lambda g, y=out.data, a=self: _accum(a, g * (y * (1.0 - y)), fresh=True)
        return out

    # -- shape -------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,))
        if out._parents:
            out._backward = lambda g, a=self: _accum(a, g.reshape(a.data.shape))
        return out

    def transpose(self, axes):
        axes = tuple(axes)
        out = _make(self.data.transpose(axes), (self,))
        if out._parents:
            inv = tuple(np.argsort(axes))
            out._backward = lambda g, a=self, inv=inv: _accum(a, g.transpose(inv))
        return out

    def __getitem__(self, key):
        out = _make(self.data[key], (self,))
        if out._parents:
            def bwd(g, a=self, key=key):
                gz = np.zeros_like(a.data)
                np.add.at(gz, key, g)  # repeated indices accumulate
                _accum(a, gz, fresh=True)
            out._backward = bwd
        return out

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            out._backward = lambda g, a=self, ax=axis, kd=keepdims: _accum(
                a, _spread(g, a.data.shape, ax, kd))
        return out

    def mean(self, axis=None, keepdims=False):
        out = _make(self.data.mean(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            n = self.data.size if axis is None else _axis_size(self.data.shape, axis)
            out._backward = lambda g, a=self, ax=axis, kd=keepdims, n=n: _accum(
                a, _spread(g / n, a.data.shape, ax, kd), fresh=True)
        return out


def _make(data, parents):
    """Wrap an op result; record parents only when the tape is live."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward = None
    out._id = next(_ids)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    else:
        out.requires_grad = False
        out._parents = ()
    return out


def _freed(g):
    """Rule left on a node whose graph an earlier ``backward()`` freed."""
    raise RuntimeError("backward() through a graph that an earlier backward() already freed")


def _accum(t, g, fresh=False):
    """Add gradient ``g`` into ``t.grad``.

    ``fresh`` marks arrays allocated inside the calling closure, which can
    be adopted without copying; pass-through arrays are copied on first
    assignment so later in-place accumulation cannot alias another node's
    gradient.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if fresh and g.base is None and g.flags.writeable:
            t.grad = g
        else:
            t.grad = g.copy()
    else:
        t.grad += g


def _axis_size(shape, axis):
    if isinstance(axis, int):
        return shape[axis]
    n = 1
    for ax in axis:
        n *= shape[ax]
    return n


def _spread(g, shape, axis, keepdims):
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b):
    """Batched matrix product with broadcasting over leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors of rank >= 2")
    out = _make(np.matmul(a.data, b.data), (a, b))
    if out._parents:
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                ga = np.matmul(g, b.data.swapaxes(-1, -2))
                _accum(a, _unbroadcast(ga, a.data.shape), fresh=True)
            if b.requires_grad:
                gb = np.matmul(a.data.swapaxes(-1, -2), g)
                _accum(b, _unbroadcast(gb, b.data.shape), fresh=True)
        out._backward = bwd
    return out


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _make(y, (x,))
    if out._parents:
        def bwd(g, a=x, y=y, ax=axis):
            dot = (g * y).sum(axis=ax, keepdims=True)
            _accum(a, y * (g - dot), fresh=True)
        out._backward = bwd
    return out


def concat(tensors, axis=0):
    """Concatenate tensors along ``axis``."""
    datas = [t.data for t in tensors]
    out = _make(np.concatenate(datas, axis=axis), tuple(tensors))
    if out._parents:
        sizes = [d.shape[axis] for d in datas]
        def bwd(g, ts=tuple(tensors), sizes=tuple(sizes), ax=axis):
            start = 0
            idx = [slice(None)] * g.ndim
            for t, n in zip(ts, sizes):
                idx[ax] = slice(start, start + n)
                if t.requires_grad:
                    _accum(t, g[tuple(idx)])
                start += n
        out._backward = bwd
    return out


def straight_through(x, values):
    """Emit ``values`` in the forward pass; backward is identity into ``x``.

    The estimator behind non-differentiable value replacement (e.g. vector
    quantization): the output carries ``values`` bit-exactly while ``x``
    receives the downstream gradient unchanged.
    """
    values = np.ascontiguousarray(values, dtype=x.data.dtype)
    if values.shape != x.data.shape:
        raise ValueError(f"straight_through shape mismatch: {values.shape} vs {x.data.shape}")
    out = _make(values, (x,))
    if out._parents:
        out._backward = lambda g, a=x: _accum(a, g)
    return out


def gather_rows(table, indices):
    """Select rows of a 2-d tensor by an integer index array.

    Backward scatter-adds into the table (fixed sequential order).
    """
    if table.data.ndim != 2:
        raise ValueError("gather_rows expects a 2-d table")
    idx = np.asarray(indices)
    out = _make(table.data[idx], (table,))
    if out._parents:
        def bwd(g, t=table, idx=idx):
            gz = np.zeros_like(t.data)
            np.add.at(gz, idx.reshape(-1), g.reshape(-1, t.data.shape[1]))
            _accum(t, gz, fresh=True)
        out._backward = bwd
    return out


# -- 3-d convolution ----------------------------------------------------------
#
# Both conv ops run on a phase ("space-to-depth") grid.  Pad the input by p
# and write every padded position as s*m + r per axis: the s**3 phases r
# join the channel axis and m indexes a coarse grid of side M.  A kernel
# zero-padded to s*Q taps per axis (Q = ceil(k/s)) is then a stride-1
# kernel of Q taps per axis on the coarse grid.  The grid is flattened into
# columns, one block of M**3 per sample, with a zero tail, so each of the
# Q**3 kernel shifts is one column slice at a fixed offset; M >= out + Q - 1
# keeps every valid output's taps inside its own sample's block.  Three
# primitives of Q**3 GEMMs each then cover both ops and all their gradients:
#
#   _corr     conv3d forward            conv_transpose3d input gradient
#   _adjoint  conv3d input gradient     conv_transpose3d forward
#   _wgrad    the kernel gradient of both


class _PhaseGrid:
    """Phase-grid geometry of a conv with input ``n``, kernel ``k`` (spatial
    triples), stride ``s`` and padding ``p``; independent of batch and
    channels."""

    def __init__(self, n, k, s, p):
        self.s = s
        self.q = tuple(-(-kk // s) for kk in k)
        self.out = tuple((nn + 2 * p - kk) // s + 1 for nn, kk in zip(n, k))
        self.m = tuple(max(-(-(nn + 2 * p) // s), o + q - 1) for nn, o, q in zip(n, self.out, self.q))
        _, mh, mw = self.m
        self.offs = tuple(a * mh * mw + b * mw + c for a, b, c in itertools.product(*map(range, self.q)))
        self.lead = self.offs[-1]  # the largest shift: zero columns beside each grid
        self.fine = _phase_slices(n, s, p)         # conv input  <-> grid, s**3 phases
        self.coarse = _phase_slices(self.out, 1, 0)  # conv output <-> grid, one phase

    def cols(self, batch):
        """Grid columns for ``batch`` samples, rounded up to a multiple of 64
        with zeros: OpenBLAS's GEMM bits then do not depend on the thread
        count (tested at 1 and 2 threads)."""
        return -(-batch * self.m[0] * self.m[1] * self.m[2] // 64) * 64

    def to_fine(self, a, cols):
        """[N, C, *n] -> [C*s**3, cols + lead], sample blocks from column 0."""
        return _to_grid(a, self.s, self.m, self.fine, cols + self.lead, 0)

    def to_coarse(self, a, cols):
        """[N, F, *out] -> [F, lead + cols], sample blocks from column lead."""
        return _to_grid(a, 1, self.m, self.coarse, cols + self.lead, self.lead)

    def from_fine(self, grid, shape):
        return _from_grid(grid, self.s, self.m, self.fine, shape)

    def from_coarse(self, grid, shape):
        return _from_grid(grid, 1, self.m, self.coarse, shape)

    def kernel(self, k):
        """[F, C, *k] -> [Q**3, F, C*s**3], zero taps beyond k."""
        taps, _ = _kernel_maps(self.s, self.q, k.shape)
        return np.concatenate((k.reshape(-1), np.zeros(1, k.dtype)))[taps]

    def unkernel(self, kq, shape):
        """Inverse of ``kernel``: [Q**3, F, C*s**3] -> [F, C, *k]."""
        _, slots = _kernel_maps(self.s, self.q, shape)
        return kq.reshape(-1)[slots]


@functools.lru_cache(maxsize=64)
def _kernel_maps(s, q, shape):
    """Flat index maps of ``_PhaseGrid.kernel`` (into the kernel with one
    zero appended, read by the taps beyond k) and of its inverse."""
    qd, qh, qw = q
    F, C, kd, kh, kw = shape
    r = np.arange(s)
    td = (s * np.arange(qd)[:, None] + r).reshape(qd, 1, 1, 1, 1, s, 1, 1)
    th = (s * np.arange(qh)[:, None] + r).reshape(1, qh, 1, 1, 1, 1, s, 1)
    tw = (s * np.arange(qw)[:, None] + r).reshape(1, 1, qw, 1, 1, 1, 1, s)
    fc = np.arange(F * C).reshape(1, 1, 1, F, C, 1, 1, 1)
    size = F * C * kd * kh * kw
    taps = np.where((td < kd) & (th < kh) & (tw < kw), ((fc * kd + td) * kh + th) * kw + tw, size)
    taps = taps.reshape(qd * qh * qw, F, C * s ** 3)
    slots = np.empty(size + 1, np.intp)
    slots[taps.reshape(-1)] = np.arange(taps.size)
    return taps, slots[:-1].reshape(shape)


@functools.lru_cache(maxsize=64)
def _phase_grid(n, k, s, p):
    return _PhaseGrid(n, k, s, p)


def _phase_slices(n, s, p):
    """(grid index, array index) pairs, one per phase, that map the array
    [N, C, *n] padded by ``p`` onto the grid view [N, C, Md, s, Mh, s, Mw, s]."""
    axes = []
    for size in n:
        axis = []
        for r in range(s):
            i0 = (r - p) % s  # first index whose padded position has phase r
            m0 = (i0 + p) // s
            axis.append(((slice(m0, m0 + len(range(i0, size, s))), r), slice(i0, None, s)))
        axes.append(axis)
    whole = (slice(None), slice(None))
    return tuple((whole + gd + gh + gw, whole + (ad, ah, aw))
                 for (gd, ad), (gh, ah), (gw, aw) in itertools.product(*axes))


def _grid_view(grid, s, m, batch, start):
    rows = grid.shape[0] // s ** 3
    cells = batch * m[0] * m[1] * m[2]
    view = grid[:, start:start + cells].reshape(rows, s, s, s, batch, *m)
    return view.transpose(4, 0, 5, 1, 6, 2, 7, 3)


def _to_grid(a, s, m, slices, width, start):
    grid = np.zeros((a.shape[1] * s ** 3, width), a.dtype)
    view = _grid_view(grid, s, m, a.shape[0], start)
    for gi, ai in slices:
        view[gi] = a[ai]
    return grid


def _from_grid(grid, s, m, slices, shape):
    view = _grid_view(grid, s, m, shape[0], 0)
    a = np.empty(shape, grid.dtype)
    for gi, ai in slices:
        a[ai] = view[gi]
    return a


def _corr(x, kq, offs, cols):
    """y[:, i] = sum_q kq[q] @ x[:, i + offs[q]] for i < cols."""
    y = kq[0] @ x[:, :cols]
    part = np.empty_like(y)
    for kk, off in zip(kq[1:], offs[1:]):
        np.matmul(kk, x[:, off:off + cols], out=part)
        y += part
    return y


def _adjoint(g, kq, offs, cols):
    """Adjoint of ``_corr`` for ``g`` whose columns start at offs[-1]."""
    lead = offs[-1]
    if kq.shape[1] == 1:
        # One output row makes each shift an outer product.  Broadcast
        # multiplies form it at a fraction of a K=1 GEMM's cost; summed
        # from +0, they give the GEMMs' bytes, which hold no -0.
        x = np.zeros((kq.shape[2], cols), np.result_type(kq, g))
        part = np.empty_like(x)
        for kk, off in zip(kq, offs):
            np.multiply(kk.T, g[:, lead - off:lead - off + cols], out=part)
            x += part
        return x
    x = kq[0].T @ g[:, lead:lead + cols]
    part = np.empty_like(x)
    for kk, off in zip(kq[1:], offs[1:]):
        np.matmul(kk.T, g[:, lead - off:lead - off + cols], out=part)
        x += part
    return x


def _wgrad(x, g, offs, cols):
    """Kernel gradient of ``_corr``: [Q**3, F, C'] from x and the output
    gradient ``g`` (columns from 0, zero wherever no output is)."""
    return np.stack([(x[:, off:off + cols] @ g.T).T for off in offs])


def conv3d(x, kernel, stride=1, padding=0):
    """3-d cross-correlation.

    ``x``: [N, C, D, H, W]; ``kernel``: [F, C, kd, kh, kw].
    Output spatial dims: (n + 2*padding - k) // stride + 1.
    """
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise ValueError(
            f"conv3d expects input [N,C,D,H,W] and kernel [F,C,kd,kh,kw], got {x.data.shape} and {kernel.data.shape}")
    if stride < 1:
        raise ValueError(f"conv3d stride must be >= 1, got {stride}")
    N, C, D, H, W = x.data.shape
    F, Ck, kd, kh, kw = kernel.data.shape
    if Ck != C:
        raise ValueError(f"conv3d channel mismatch: input has {C} channels, kernel expects {Ck}")
    if kd > D + 2 * padding or kh > H + 2 * padding or kw > W + 2 * padding:
        raise ValueError(
            f"conv3d kernel {kernel.data.shape[2:]} larger than padded input {(D + 2 * padding, H + 2 * padding, W + 2 * padding)}")
    pg = _phase_grid((D, H, W), (kd, kh, kw), stride, padding)
    cols = pg.cols(N)
    xg = pg.to_fine(x.data, cols)
    kq = pg.kernel(kernel.data)
    y = pg.from_coarse(_corr(xg, kq, pg.offs, cols), (N, F) + pg.out)
    out = _make(y, (x, kernel))
    if out._parents:
        def bwd(g, x=x, k=kernel, pg=pg, cols=cols, xg=xg, kq=kq):
            gg = pg.to_coarse(g, cols)
            if k.requires_grad:
                gk = _wgrad(xg, gg[:, pg.lead:], pg.offs, cols)
                _accum(k, pg.unkernel(gk, k.data.shape), fresh=True)
            if x.requires_grad:
                gx = _adjoint(gg, kq, pg.offs, cols)
                _accum(x, pg.from_fine(gx, x.data.shape), fresh=True)
        out._backward = bwd
    return out


def conv_transpose3d(x, kernel, stride=1, padding=0):
    """Transposed 3-d convolution (gradient of conv3d w.r.t. its input).

    ``x``: [N, C, d, h, w]; ``kernel``: [C, F, kd, kh, kw].
    Output spatial dims: (d - 1)*stride + k - 2*padding.
    """
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise ValueError(
            f"conv_transpose3d expects input [N,C,d,h,w] and kernel [C,F,kd,kh,kw], got {x.data.shape} and {kernel.data.shape}")
    if stride < 1:
        raise ValueError(f"conv_transpose3d stride must be >= 1, got {stride}")
    N, C, D, H, W = x.data.shape
    Ck, F, kd, kh, kw = kernel.data.shape
    if Ck != C:
        raise ValueError(f"conv_transpose3d channel mismatch: input has {C} channels, kernel expects {Ck}")
    Do = (D - 1) * stride + kd - 2 * padding
    Ho = (H - 1) * stride + kh - 2 * padding
    Wo = (W - 1) * stride + kw - 2 * padding
    if Do < 1 or Ho < 1 or Wo < 1:
        raise ValueError(f"conv_transpose3d output dims {(Do, Ho, Wo)} invalid for input {x.data.shape}")
    # The conv3d whose input gradient this is: input (Do, Ho, Wo), output (D, H, W).
    pg = _phase_grid((Do, Ho, Wo), (kd, kh, kw), stride, padding)
    cols = pg.cols(N)
    xg = pg.to_coarse(x.data, cols)
    kq = pg.kernel(kernel.data)
    y = pg.from_fine(_adjoint(xg, kq, pg.offs, cols), (N, F, Do, Ho, Wo))
    out = _make(y, (x, kernel))
    if out._parents:
        def bwd(g, x=x, k=kernel, pg=pg, cols=cols, xg=xg, kq=kq):
            gg = pg.to_fine(g, cols)
            if x.requires_grad:
                gx = _corr(gg, kq, pg.offs, cols)
                _accum(x, pg.from_coarse(gx, x.data.shape), fresh=True)
            if k.requires_grad:
                gk = _wgrad(gg, xg[:, pg.lead:], pg.offs, cols)
                _accum(k, pg.unkernel(gk, k.data.shape), fresh=True)
        out._backward = bwd
    return out


# -- pooling -------------------------------------------------------------------


def global_avg_pool(x):
    """Mean over the three spatial axes: [N,C,D,H,W] -> [N,C]."""
    if x.data.ndim != 5:
        raise ValueError(f"global_avg_pool expects [N,C,D,H,W], got {x.data.shape}")
    out = _make(x.data.mean(axis=(2, 3, 4)), (x,))
    if out._parents:
        n = x.data.shape[2] * x.data.shape[3] * x.data.shape[4]
        def bwd(g, a=x, n=n):
            _accum(a, np.broadcast_to((g / n)[:, :, None, None, None], a.data.shape))
        out._backward = bwd
    return out
