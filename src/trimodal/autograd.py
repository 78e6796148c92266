"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float32 numpy array (float64 in verification mode,
see :mod:`trimodal.gradcheck`).  Each operation records its input tensors
and a backward rule on the output; ``Tensor.backward`` replays the rules
in reverse creation order, which is a valid topological order because an
op's inputs always exist before its output.

The primitive set is closed on purpose: dense maps, 3-d convolution
(plain and transposed), pooling, pointwise nonlinearities, softmax,
reductions and shape plumbing: exactly what the fusion pipeline needs.
All accumulation happens in numpy's fixed-order reductions, so repeated
runs on the same inputs are bit-identical in single-threaded mode.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_ids = itertools.count()
_grad_enabled = True


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
        """Backpropagate from a scalar output through the recorded tape."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.data.shape}")
        # Reachable sub-tape, replayed in reverse creation order.
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
        tape.sort(key=lambda n: n._id, reverse=True)
        self.grad = np.ones_like(self.data)
        for node in tape:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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
            def bwd(g, a=self, b=other, y=out):
                if a.requires_grad:
                    _accum(a, _unbroadcast(g / b.data, a.data.shape), fresh=True)
                if b.requires_grad:
                    _accum(b, _unbroadcast(-g * y.data / b.data, b.data.shape), fresh=True)
            out._backward = bwd
        return out

    def __rtruediv__(self, other):
        out = _make(other / self.data, (self,))
        if out._parents:
            out._backward = lambda g, a=self, y=out: _accum(
                a, _unbroadcast(-g * y.data / a.data, a.data.shape), fresh=True)
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
            out._backward = lambda g, a=self, y=out: _accum(a, g * (0.5 / y.data), fresh=True)
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
            out._backward = lambda g, y=out, a=self: _accum(a, g * y.data, fresh=True)
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
            out._backward = lambda g, y=out, a=self: _accum(a, g * (1.0 - y.data * y.data), fresh=True)
        return out

    def sigmoid(self):
        out = _make(1.0 / (1.0 + np.exp(-self.data)), (self,))
        if out._parents:
            out._backward = lambda g, y=out, a=self: _accum(a, g * (y.data * (1.0 - y.data)), fresh=True)
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
                gz[key] += g
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


def _pad5(x, p):
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))


def _windows(xp, kshape, stride):
    """Strided sliding windows over the three spatial axes of a 5-d array."""
    w = sliding_window_view(xp, kshape, axis=(2, 3, 4))
    if stride > 1:
        w = w[:, :, ::stride, ::stride, ::stride]
    return w


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
    xp = _pad5(x.data, padding)
    win = _windows(xp, (kd, kh, kw), stride)
    y = np.tensordot(win, kernel.data, axes=([1, 5, 6, 7], [1, 2, 3, 4]))
    y = np.ascontiguousarray(np.moveaxis(y, -1, 1))
    out = _make(y, (x, kernel))
    if out._parents:
        def bwd(g, x=x, k=kernel, xp=xp, stride=stride, padding=padding):
            if k.requires_grad:
                win = _windows(xp, k.data.shape[2:], stride)
                gk = np.tensordot(g, win, axes=([0, 2, 3, 4], [0, 2, 3, 4]))
                _accum(k, gk, fresh=True)
            if x.requires_grad:
                _accum(x, _conv3d_input_grad(g, k.data, stride, padding, x.data.shape), fresh=True)
        out._backward = bwd
    return out


def _tap_scatter(src, k5, stride, full_spatial):
    """Sum of per-tap channel maps scattered at stride offsets.

    ``src``: [N, A, D, H, W]; ``k5``: [A, B, kd, kh, kw].  Returns
    [N, B, *full_spatial] where tap (a, b, c) adds src mapped through
    k5[:, :, a, b, c] at spatial offset (a, b, c) on the stride grid.
    One batched gemm covers all taps; only the adds stay in the loop.
    """
    N, A, D, H, W = src.shape
    _, B, kd, kh, kw = k5.shape
    s2 = np.ascontiguousarray(np.moveaxis(src, 1, -1)).reshape(-1, A)
    k2 = np.ascontiguousarray(k5).reshape(A, B * kd * kh * kw)
    ct = (s2 @ k2).reshape(N, D, H, W, B, kd, kh, kw)
    ct = np.ascontiguousarray(ct.transpose(5, 6, 7, 0, 4, 1, 2, 3))
    full = np.zeros((N, B) + tuple(full_spatial), dtype=src.dtype)
    for a in range(kd):
        for b in range(kh):
            for c in range(kw):
                full[:, :, a:a + stride * D:stride, b:b + stride * H:stride,
                     c:c + stride * W:stride] += ct[a, b, c]
    return full


def _conv3d_input_grad(g, k, stride, pad, in_shape):
    N, C, D, H, W = in_shape
    gxp = _tap_scatter(g, k, stride, (D + 2 * pad, H + 2 * pad, W + 2 * pad))
    if pad:
        return gxp[:, :, pad:pad + D, pad:pad + H, pad:pad + W]
    return gxp


def conv_transpose3d(x, kernel, stride=1, padding=0):
    """Transposed 3-d convolution (gradient of conv3d w.r.t. its input).

    ``x``: [N, C, d, h, w]; ``kernel``: [C, F, kd, kh, kw].
    Output spatial dims: (d - 1)*stride + k - 2*padding.
    """
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise ValueError(
            f"conv_transpose3d expects input [N,C,d,h,w] and kernel [C,F,kd,kh,kw], got {x.data.shape} and {kernel.data.shape}")
    N, C, D, H, W = x.data.shape
    Ck, F, kd, kh, kw = kernel.data.shape
    if Ck != C:
        raise ValueError(f"conv_transpose3d channel mismatch: input has {C} channels, kernel expects {Ck}")
    Do = (D - 1) * stride + kd - 2 * padding
    Ho = (H - 1) * stride + kh - 2 * padding
    Wo = (W - 1) * stride + kw - 2 * padding
    if Do < 1 or Ho < 1 or Wo < 1:
        raise ValueError(f"conv_transpose3d output dims {(Do, Ho, Wo)} invalid for input {x.data.shape}")
    y = _convt_forward(x.data, kernel.data, stride, padding)
    out = _make(y, (x, kernel))
    if out._parents:
        def bwd(g, x=x, k=kernel, stride=stride, padding=padding):
            gp = _pad5(g, padding)
            win = _windows(gp, k.data.shape[2:], stride)
            if x.requires_grad:
                gx = np.tensordot(win, k.data, axes=([1, 5, 6, 7], [1, 2, 3, 4]))
                _accum(x, np.ascontiguousarray(np.moveaxis(gx, -1, 1)), fresh=True)
            if k.requires_grad:
                gk = np.tensordot(x.data, win, axes=([0, 2, 3, 4], [0, 2, 3, 4]))
                _accum(k, gk, fresh=True)
        out._backward = bwd
    return out


def _convt_forward(x, k, stride, pad):
    N, C, D, H, W = x.shape
    _, F, kd, kh, kw = k.shape
    Df = (D - 1) * stride + kd
    Hf = (H - 1) * stride + kh
    Wf = (W - 1) * stride + kw
    full = _tap_scatter(x, k, stride, (Df, Hf, Wf))
    if pad:
        return np.ascontiguousarray(full[:, :, pad:Df - pad, pad:Hf - pad, pad:Wf - pad])
    return full


# -- pooling -------------------------------------------------------------------


def _pool_windows(x, k):
    N, C, D, H, W = x.shape
    if D % k or H % k or W % k:
        raise ValueError(f"pool window {k} must divide spatial dims {(D, H, W)}")
    r = x.reshape(N, C, D // k, k, H // k, k, W // k, k)
    return r.transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(N, C, D // k, H // k, W // k, k ** 3)


def _unpool_windows(gw, shape, k):
    N, C, D, H, W = shape
    g = gw.reshape(N, C, D // k, H // k, W // k, k, k, k)
    return g.transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(shape)


def maxpool3d(x, k=2):
    """Non-overlapping 3-d max pooling; ties route gradient to the first max."""
    w = _pool_windows(x.data, k)
    idx = w.argmax(axis=-1)
    y = np.take_along_axis(w, idx[..., None], axis=-1)[..., 0]
    out = _make(np.ascontiguousarray(y), (x,))
    if out._parents:
        def bwd(g, a=x, idx=idx, k=k, wshape=w.shape):
            gw = np.zeros(wshape, dtype=g.dtype)
            np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
            _accum(a, _unpool_windows(gw, a.data.shape, k), fresh=True)
        out._backward = bwd
    return out


def avgpool3d(x, k=2):
    """Non-overlapping 3-d average pooling."""
    w = _pool_windows(x.data, k)
    out = _make(np.ascontiguousarray(w.mean(axis=-1)), (x,))
    if out._parents:
        def bwd(g, a=x, k=k):
            gw = np.repeat((g / k ** 3)[..., None], k ** 3, axis=-1)
            _accum(a, _unpool_windows(gw, a.data.shape, k), fresh=True)
        out._backward = bwd
    return out


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
