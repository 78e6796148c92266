"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float32 numpy array (float64 in verification mode,
see :mod:`trimodal.gradcheck`).  ``Tensor.backward`` replays the recorded
rules in reverse creation order, which is a valid topological order
because an op's inputs always exist before its output.

Recording a node.  Every op, ``nn.LayerNorm`` and ``losses.sdm_loss``
included, computes its forward value and one gradient rule per input, then
hands both to ``_node(data, parents, rules, share=None)``: ``rules[i]`` maps
the output gradient ``g`` to input i's gradient.  Only when the tape is
live (no ``no_grad`` in this thread and some input requires a gradient)
does the output keep its parents and a backward that runs, for each input
that requires a gradient, its rule and ``_accum``.  ``_accum`` adopts a
rule's result without a copy; it copies views, read-only arrays and the
rule's own argument passed through, so no two gradients share a buffer.
``share`` is for an intermediate that every input gradient starts from: the
backward computes ``share(g)`` once and hands it to each rule in place of
``g``.  The convolutions share the output gradient on the phase grid and
``sdm_loss`` the gradient of the similarity matrix.

Backward frees the graph as it replays it.  A rule never holds its own
output tensor (the rules exist before it does), so a graph has no
reference cycles and its buffers are released by reference counting,
without waiting for the cyclic garbage collector.  Once a node's rule has
run, the node drops its parents, its gradient and its rule: non-leaf
tensors keep no gradient, leaves (parameters and tensors created with
``requires_grad=True``) keep theirs, and a second backward through a
freed node raises ``RuntimeError``.

The primitive set is closed on purpose: dense maps, 3-d convolution
(plain and transposed), pointwise nonlinearities, softmax, reductions and
shape plumbing: exactly what the fusion pipeline needs.  Both
convolutions and their gradients run on one phase-grid kernel of shifted
GEMMs (see the conv section).  All accumulation happens in numpy's
fixed-order reductions, so repeated runs on the same inputs are
bit-identical; the conv kernel also gives the same bits at one or two
BLAS threads.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager

import numpy as np

_ids = itertools.count()


class _GradMode(threading.local):
    """Whether ops record the tape; each thread has its own switch."""
    enabled = True


_grad_mode = _GradMode()


# Forward passes under ``no_grad`` over a whole cohort (calibration,
# imputation, scoring) run this many subjects at a time, in two lanes (see
# ``map_chunks``), so at most two chunks are in flight and memory does not
# grow with the cohort.  Two lanes of 32 hold the 64 subjects that one lane
# of 64 held before.  The bytes equal a one-batch forward over the cohort,
# short last chunk included: the conv GEMMs pad their grid to 64 columns,
# and the dense matmuls take rows in blocks of 4 from the first, so chunks
# that start at multiples of 4 keep every row's bits (chunk sizes that are
# not moved the fusion scores by ~1e-7).
INFERENCE_CHUNK = 32


@contextmanager
def no_grad():
    """Disable graph recording in this thread (inference / oracle evaluation)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def map_chunks(fn, n):
    """``[fn(chunk) for chunk in slices of range(n), INFERENCE_CHUNK long]``,
    each call under ``no_grad``, run in two lanes: the calling thread takes
    the even chunks and one worker thread the odd ones.  NumPy releases the
    GIL inside its GEMMs and copies, so the lanes overlap.  Results come
    back in chunk order, so the bytes do not depend on the lanes.  One
    chunk runs inline and starts no thread.  The first error of either
    lane stops both and is raised here."""
    chunks = [slice(lo, min(lo + INFERENCE_CHUNK, n)) for lo in range(0, n, INFERENCE_CHUNK)]
    out = [None] * len(chunks)
    errors = []

    def lane(first):
        try:
            with no_grad():
                for i in range(first, len(chunks), 2):
                    if errors:
                        return
                    out[i] = fn(chunks[i])
        except BaseException as e:  # raised in the calling thread below
            errors.append(e)

    if len(chunks) > 1:
        worker = threading.Thread(target=lane, args=(1,), name="trimodal-chunks")
        worker.start()
        lane(0)
        worker.join()
    else:
        lane(0)
    if errors:
        raise errors[0]
    return out


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
            return _node(self.data + other, (self,), (lambda g: _unbroadcast(g, self.data.shape),))
        return _node(self.data + other.data, (self, other), (lambda g: _unbroadcast(g, self.data.shape),
                                                             lambda g: _unbroadcast(g, other.data.shape)))

    __radd__ = __add__

    # x - y == x + (-y) and -x == x * -1 exactly in IEEE arithmetic (±0 too)
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self * -1.0

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            return _node(self.data * other, (self,), (lambda g: _unbroadcast(g * other, self.data.shape),))
        return _node(self.data * other.data, (self, other), (lambda g: _unbroadcast(g * other.data, self.data.shape),
                                                             lambda g: _unbroadcast(g * self.data, other.data.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Tensor):
            return self * (1.0 / other)
        y = self.data / other.data
        return _node(y, (self, other), (lambda g: _unbroadcast(g / other.data, self.data.shape),
                                        lambda g: _unbroadcast(-g * y / other.data, other.data.shape)))

    def __rtruediv__(self, other):
        y = other / self.data
        return _node(y, (self,), (lambda g: _unbroadcast(-g * y / self.data, self.data.shape),))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- pointwise ---------------------------------------------------------

    def abs(self):
        return _node(np.abs(self.data), (self,), (lambda g: g * np.sign(self.data),))

    def square(self):
        return _node(self.data * self.data, (self,), (lambda g: g * (2.0 * self.data),))

    def sqrt(self):
        y = np.sqrt(self.data)
        return _node(y, (self,), (lambda g: g * (0.5 / y),))

    def powf(self, c):
        """Elementwise x**c for a python float c (x > 0, or integer c)."""
        return _node(self.data ** c, (self,), (lambda g: g * (c * self.data ** (c - 1.0)),))

    def log(self):
        return _node(np.log(self.data), (self,), (lambda g: g / self.data,))

    def exp(self):
        y = np.exp(self.data)
        return _node(y, (self,), (lambda g: g * y,))

    def relu(self):
        return _node(np.maximum(self.data, 0.0), (self,), (lambda g: g * (self.data > 0),))

    def leaky_relu(self, alpha=0.2):
        return _node(np.where(self.data > 0, self.data, alpha * self.data), (self,),
                     (lambda g: g * np.where(self.data > 0, 1.0, alpha).astype(g.dtype),))

    def tanh(self):
        y = np.tanh(self.data)
        return _node(y, (self,), (lambda g: g * (1.0 - y * y),))

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        return _node(y, (self,), (lambda g: g * (y * (1.0 - y)),))

    # -- shape -------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _node(self.data.reshape(shape), (self,), (lambda g: g.reshape(self.data.shape),))

    def transpose(self, axes):
        axes = tuple(a % self.data.ndim for a in axes)
        return _node(self.data.transpose(axes), (self,),
                     (lambda g: g.transpose([axes.index(i) for i in range(len(axes))]),))

    def __getitem__(self, key):
        def rule(g):
            gz = np.zeros_like(self.data)
            np.add.at(gz, key, g)  # repeated indices accumulate
            return gz
        return _node(self.data[key], (self,), (rule,))

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                     (lambda g: _spread(g, self.data.shape, axis, keepdims),))

    def mean(self, axis=None, keepdims=False):
        y = self.data.mean(axis=axis, keepdims=keepdims)
        n = self.data.size // y.size  # elements averaged into each output
        return _node(y, (self,), (lambda g: _spread(g / n, self.data.shape, axis, keepdims),))


def _make(data, parents):
    """Wrap an op result; record parents only when the tape is live."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward = None
    out._id = next(_ids)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    else:
        out.requires_grad = False
        out._parents = ()
    return out


def _node(data, parents, rules, share=None):
    """Record ``data`` as an op output whose input i gets the gradient
    ``rules[i](h)``, where ``h`` is ``share(g)`` computed once per backward,
    or the output gradient ``g`` itself without ``share`` (see the module
    docstring)."""
    out = _make(data, parents)
    if out._parents:
        def bwd(g):
            h = g if share is None else share(g)
            for p, rule in zip(parents, rules):
                if p.requires_grad:
                    r = rule(h)
                    _accum(p, r, r is not h)
        out._backward = bwd
    return out


def _freed(g):
    """Rule left on a node whose graph an earlier ``backward()`` freed."""
    raise RuntimeError("backward() through a graph that an earlier backward() already freed")


def _accum(t, g, fresh):
    """Add gradient ``g`` into ``t.grad``.

    A fresh array, allocated by the caller, is adopted without a copy.
    Views, read-only arrays and arrays the caller marks not fresh (a
    rule's argument passed through) are copied on first assignment, so
    later in-place accumulation cannot alias another node's gradient.
    """
    if t.grad is None:
        if fresh and g.base is None and g.flags.writeable:
            t.grad = g
        else:
            t.grad = g.copy()
    else:
        t.grad += g


def _spread(g, shape, axis, keepdims):
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is not None and not keepdims:
        axes = {a % len(shape) for a in ((axis,) if isinstance(axis, int) else axis)}
        g = g.reshape([1 if i in axes else n for i, n in enumerate(shape)])
    return np.broadcast_to(g, shape)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b):
    """Batched matrix product with broadcasting over leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors of rank >= 2")
    return _node(np.matmul(a.data, b.data), (a, b), (
        lambda g: _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape),
        lambda g: _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape)))


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    return _node(y, (x,), (lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True)),))


def concat(tensors, axis=0):
    """Concatenate tensors along ``axis``."""
    rules, start = [], 0
    for t in tensors:
        idx = [slice(None)] * t.data.ndim
        idx[axis] = slice(start, start + t.data.shape[axis])
        rules.append(lambda g, idx=tuple(idx): g[idx])  # bound now, one slice each
        start += t.data.shape[axis]
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), rules)


def straight_through(x, values):
    """Emit ``values`` in the forward pass; backward is identity into ``x``.

    The estimator behind non-differentiable value replacement (e.g. vector
    quantization): the output carries ``values`` bit-exactly while ``x``
    receives the downstream gradient unchanged.
    """
    values = np.ascontiguousarray(values, dtype=x.data.dtype)
    if values.shape != x.data.shape:
        raise ValueError(f"straight_through shape mismatch: {values.shape} vs {x.data.shape}")
    return _node(values, (x,), (lambda g: g,))


def gather_rows(table, indices):
    """Select rows of a 2-d tensor by an integer index array; backward
    scatter-adds into the table through ``Tensor.__getitem__``."""
    if table.data.ndim != 2:
        raise ValueError("gather_rows expects a 2-d table")
    return table[np.asarray(indices)]


def global_avg_pool(x):
    """Mean over the three spatial axes: [N,C,D,H,W] -> [N,C]."""
    if x.data.ndim != 5:
        raise ValueError(f"global_avg_pool expects [N,C,D,H,W], got {x.data.shape}")
    return x.mean(axis=(2, 3, 4))

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
    if stride < 1 or padding < 0:
        raise ValueError(f"conv3d needs stride >= 1 and padding >= 0, got stride {stride}, padding {padding}")
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
    return _node(y, (x, kernel), (
        lambda gg: pg.from_fine(_adjoint(gg, kq, pg.offs, cols), x.data.shape),
        lambda gg: pg.unkernel(_wgrad(xg, gg[:, pg.lead:], pg.offs, cols), kernel.data.shape)),
        share=lambda g: pg.to_coarse(g, cols))


def conv_transpose3d(x, kernel, stride=1, padding=0):
    """Transposed 3-d convolution (gradient of conv3d w.r.t. its input).

    ``x``: [N, C, d, h, w]; ``kernel``: [C, F, kd, kh, kw].
    Output spatial dims: (d - 1)*stride + k - 2*padding.
    """
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise ValueError(
            f"conv_transpose3d expects input [N,C,d,h,w] and kernel [C,F,kd,kh,kw], got {x.data.shape} and {kernel.data.shape}")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv_transpose3d needs stride >= 1 and padding >= 0, got stride {stride}, padding {padding}")
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
    return _node(y, (x, kernel), (
        lambda gg: pg.from_coarse(_corr(gg, kq, pg.offs, cols), x.data.shape),
        lambda gg: pg.unkernel(_wgrad(gg, xg[:, pg.lead:], pg.offs, cols), kernel.data.shape)),
        share=lambda g: pg.to_fine(g, cols))
