"""Backward rules against central differences, plus the conv oracle.

All finite-difference checks run in float64; float32 rounding would
drown the h**2 truncation error of the central difference.
"""

import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import trimodal

from trimodal import autograd
from trimodal.autograd import (Tensor, concat, conv3d, conv_transpose3d,
                               gather_rows, global_avg_pool, matmul, no_grad,
                               softmax, straight_through)
from trimodal.gradcheck import check_grad, rel_error

TOL = 1e-6


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True, dtype=np.float64)


# -- forward oracles -----------------------------------------------------------


def conv3d_naive(x, k, stride, padding):
    """Direct six-loop convolution, the independent reference."""
    n, cin, d, h, w = x.shape
    cout, _, kd, kh, kw = k.shape
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    od = (d + 2 * p - kd) // stride + 1
    oh = (h + 2 * p - kh) // stride + 1
    ow = (w + 2 * p - kw) // stride + 1
    out = np.zeros((n, cout, od, oh, ow))
    for b in range(n):
        for co in range(cout):
            for z in range(od):
                for y in range(oh):
                    for xx in range(ow):
                        patch = xp[b, :, z * stride:z * stride + kd,
                                   y * stride:y * stride + kh,
                                   xx * stride:xx * stride + kw]
                        out[b, co, z, y, xx] = np.sum(patch * k[co])
    return out


def conv_transpose3d_naive(x, k, stride, padding):
    """Direct scatter loops: every input voxel adds its kernel-weighted
    copy at its stride offset, then the padding is cropped off."""
    n, cin, d, h, w = x.shape
    _, cout, kd, kh, kw = k.shape
    full = np.zeros((n, cout, (d - 1) * stride + kd, (h - 1) * stride + kh,
                     (w - 1) * stride + kw))
    for b in range(n):
        for ci in range(cin):
            for z in range(d):
                for y in range(h):
                    for xx in range(w):
                        full[b, :, z * stride:z * stride + kd, y * stride:y * stride + kh,
                             xx * stride:xx * stride + kw] += x[b, ci, z, y, xx] * k[ci]
    p = padding
    return full[:, :, p:full.shape[2] - p, p:full.shape[3] - p, p:full.shape[4] - p]


# (stride, padding, k) on a non-cubic 5x6x7 input; ids name stride-padding,
# plus the kernel size where it is not 3.
CONV_CASES = [pytest.param(s, p, k, id=f"{s}-{p}" if k == 3 else f"{s}-{p}-k{k}")
              for s, p, k in [(1, 0, 3), (1, 1, 3), (2, 1, 3), (2, 1, 4), (3, 1, 2), (2, 0, 1)]]


@pytest.mark.parametrize("stride,padding,k", CONV_CASES)
def test_conv3d_matches_naive_loops(rng, stride, padding, k):
    x = rng.standard_normal((2, 3, 5, 6, 7))
    kern = rng.standard_normal((4, 3, k, k, k))
    got = conv3d(Tensor(x, dtype=np.float64), Tensor(kern, dtype=np.float64),
                 stride=stride, padding=padding).data
    want = conv3d_naive(x, kern, stride, padding)
    assert got.shape == want.shape
    assert rel_error(got, want) < 1e-5


@pytest.mark.parametrize("stride,padding,k", CONV_CASES)
def test_conv_transpose3d_matches_naive_loops(rng, stride, padding, k):
    x = rng.standard_normal((2, 3, 5, 6, 7))
    kern = rng.standard_normal((3, 4, k, k, k))
    got = conv_transpose3d(Tensor(x, dtype=np.float64), Tensor(kern, dtype=np.float64),
                           stride=stride, padding=padding).data
    want = conv_transpose3d_naive(x, kern, stride, padding)
    assert got.shape == want.shape
    assert rel_error(got, want) < 1e-5


def test_conv3d_all_ones_kernel_hand_value():
    # 2x2x2 ones kernel over a 2x2x2 block of 0.5 sums to 4.0
    x = np.full((1, 1, 2, 2, 2), 0.5)
    k = np.ones((1, 1, 2, 2, 2))
    out = conv3d(Tensor(x), Tensor(k)).data
    assert out.shape == (1, 1, 1, 1, 1)
    assert abs(out.item() - 4.0) < 1e-6


def test_conv_transpose3d_inverts_shape(rng):
    x = rng.standard_normal((1, 2, 4, 4, 4))
    k = rng.standard_normal((2, 3, 4, 4, 4))
    out = conv_transpose3d(Tensor(x), Tensor(k), stride=2, padding=1).data
    assert out.shape == (1, 3, 8, 8, 8)


def test_conv_transpose3d_adjoint_of_conv3d(rng):
    """<conv(x), y> == <x, convT(y)> with the same kernel array: the
    transposed op must be the exact adjoint for its gradient rule to be
    right.  conv kernels are [F,C,...], convT kernels [C,F,...], and the
    adjoint pairing consumes the identical array in both layouts."""
    x = rng.standard_normal((1, 2, 6, 6, 6))
    k = rng.standard_normal((3, 2, 4, 4, 4))
    y = rng.standard_normal((1, 3, 3, 3, 3))
    cx = conv3d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64),
                stride=2, padding=1).data
    assert cx.shape == y.shape
    cty = conv_transpose3d(Tensor(y, dtype=np.float64), Tensor(k, dtype=np.float64),
                           stride=2, padding=1).data
    lhs = float(np.sum(cx * y))
    rhs = float(np.sum(x * cty))
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


# Hashes conv3d / conv_transpose3d outputs and both gradients at every
# default model layer shape; printed as one JSON object.
_LAYER_DIGESTS = """
import hashlib, json, sys
import numpy as np
from trimodal.autograd import Tensor, conv3d, conv_transpose3d
from trimodal.encoders import EncoderConfig, ImageEncoder
from trimodal.mmg import MmgConfig, MmgModel
from trimodal.nn import ConvTranspose3d

rng = np.random.default_rng(0)
m = MmgModel(rng, MmgConfig())
enc = ImageEncoder(rng, EncoderConfig())
d0 = m.volume_shape[0]
stacks = [(d0, (m.enc1, m.enc2, m.enc3)), (d0 // 8, (m.dec1, m.dec2, m.dec3)),
          (d0, (m.disc.c1, m.disc.c2, m.disc.c3)),
          (d0, (m.perceptual.c1, m.perceptual.c2, m.perceptual.c3)),
          (d0, (enc.c1, enc.c2, enc.c3))]
digests = {}
for batch in map(int, sys.argv[1:]):
    for stack, (d, layers) in enumerate(stacks):
        for i, layer in enumerate(layers):
            transpose = isinstance(layer, ConvTranspose3d)
            cin = layer.weight.data.shape[0 if transpose else 1]
            x = Tensor(rng.standard_normal((batch, cin, d, d, d)).astype(np.float32), requires_grad=True)
            k = Tensor(layer.weight.data.copy(), requires_grad=True)
            y = (conv_transpose3d if transpose else conv3d)(x, k, layer.stride, layer.padding)
            (y * rng.standard_normal(y.shape).astype(np.float32)).sum().backward()
            h = hashlib.sha256()
            for arr in (y.data, x.grad, k.grad):
                h.update(arr.tobytes())
            digests[f"{batch}/{stack}/{i}"] = h.hexdigest()
            d = d * 2 if transpose else d // 2
print(json.dumps(digests))
"""


def test_conv_layers_are_identical_at_one_and_two_blas_threads():
    """Every conv output and gradient at every default model layer shape
    has the same bytes whatever the BLAS thread count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trimodal.__file__)))
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _LAYER_DIGESTS, "8", "30", "100"], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests[threads] = json.loads(proc.stdout)
    assert len(digests["1"]) == 3 * 15
    assert digests["1"] == digests["2"]


def _adjoint_gemm_loop(g, kq, offs, cols):
    """``autograd._adjoint`` with one GEMM per shift, whatever the row count."""
    lead = offs[-1]
    x = kq[0].T @ g[:, lead:lead + cols]
    for kk, off in zip(kq[1:], offs[1:]):
        x += kk.T @ g[:, lead - off:lead - off + cols]
    return x


@pytest.mark.parametrize("batch", [1, 8, 30])
def test_single_row_adjoint_matches_gemm_loop_bytes(rng, batch):
    """The discriminator head (32 -> 1 at 4**3) forms its input gradient
    by broadcast multiplies; they must give the K=1 GEMMs' bytes, signed
    zeros included."""
    pg = autograd._phase_grid((4, 4, 4), (4, 4, 4), 2, 1)
    cols = pg.cols(batch)
    kq = pg.kernel(rng.standard_normal((1, 32, 4, 4, 4)).astype(np.float32))
    g = rng.standard_normal((batch, 1) + pg.out).astype(np.float32)
    g.reshape(-1)[::5] = 0.0
    g.reshape(-1)[1::5] = -0.0
    gg = pg.to_coarse(g, cols)
    assert kq.shape[1] == 1
    assert autograd._adjoint(gg, kq, pg.offs, cols).tobytes() == \
        _adjoint_gemm_loop(gg, kq, pg.offs, cols).tobytes()


@pytest.mark.parametrize("op, kshape", [(conv3d, (3, 2, 4, 4, 4)), (conv_transpose3d, (2, 3, 4, 4, 4))])
def test_conv_phases_its_kernel_once_per_forward_and_backward(rng, monkeypatch, op, kshape):
    """Backward reuses the phased kernel that forward built."""
    calls = []
    phase = autograd._PhaseGrid.kernel
    monkeypatch.setattr(autograd._PhaseGrid, "kernel", lambda pg, k: calls.append(1) or phase(pg, k))
    x = Tensor(rng.standard_normal((2, 2, 4, 4, 4)).astype(np.float32), requires_grad=True)
    k = Tensor(rng.standard_normal(kshape).astype(np.float32), requires_grad=True)
    op(x, k, stride=2, padding=1).sum().backward()
    assert len(calls) == 1 and x.grad is not None and k.grad is not None


# -- gradient checks -----------------------------------------------------------


def test_grad_matmul(rng):
    a0 = rng.standard_normal((3, 4))
    b = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
    err, _, _ = check_grad(lambda t: matmul(t, b).sum(), a0)
    assert err < TOL


def test_grad_matmul_batched(rng):
    a0 = rng.standard_normal((2, 3, 4))
    b = Tensor(rng.standard_normal((2, 4, 5)), dtype=np.float64)
    err, _, _ = check_grad(lambda t: (matmul(t, b) * matmul(t, b)).sum(), a0)
    assert err < TOL


@pytest.mark.parametrize("op", ["relu", "tanh", "sigmoid", "square", "sqrt", "exp", "log"])
def test_grad_pointwise(rng, op):
    x0 = rng.uniform(0.2, 2.0, size=(4, 5))  # positive domain covers sqrt/log
    err, _, _ = check_grad(lambda t: getattr(t, op)().sum(), x0)
    assert err < TOL


def test_grad_powf(rng):
    x0 = rng.uniform(0.5, 1.5, size=(6,))
    err, _, _ = check_grad(lambda t: t.powf(2.5).sum(), x0)
    assert err < TOL


def test_grad_broadcast_arithmetic(rng):
    x0 = rng.standard_normal((3, 4))
    b = Tensor(rng.standard_normal((4,)), dtype=np.float64)
    err, _, _ = check_grad(lambda t: ((t + b) * b - t / (b.square() + 2.0)).sum(), x0)
    assert err < TOL


def test_grad_reductions(rng):
    x0 = rng.standard_normal((3, 4, 2))
    err, _, _ = check_grad(
        lambda t: (t.mean(axis=1, keepdims=True) * t.sum(axis=(0, 2), keepdims=True)).sum(), x0)
    assert err < TOL


def test_grad_softmax(rng):
    x0 = rng.standard_normal((3, 5))
    w = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
    err, _, _ = check_grad(lambda t: (softmax(t, axis=-1) * w).sum(), x0)
    assert err < TOL


def test_grad_concat_and_shape_ops(rng):
    x0 = rng.standard_normal((2, 6))
    b = Tensor(rng.standard_normal((2, 6)), dtype=np.float64)
    def build(t):
        c = concat([t, b], axis=1)
        return c.reshape(2, 4, 3).transpose((0, 2, 1)).square().sum()
    err, _, _ = check_grad(build, x0)
    assert err < TOL


def test_grad_conv3d_input_and_kernel(rng):
    x0 = rng.standard_normal((1, 2, 5, 5, 5))
    k0 = rng.standard_normal((3, 2, 3, 3, 3))
    k = Tensor(k0, dtype=np.float64)
    err, _, _ = check_grad(lambda t: conv3d(t, k, stride=2, padding=1).square().sum(),
                           x0, sample=40, rng=rng)
    assert err < TOL
    x = Tensor(x0, dtype=np.float64)
    err, _, _ = check_grad(lambda t: conv3d(x, t, stride=2, padding=1).square().sum(),
                           k0, sample=40, rng=rng)
    assert err < TOL


def test_grad_conv_transpose3d(rng):
    x0 = rng.standard_normal((1, 2, 3, 3, 3))
    k0 = rng.standard_normal((2, 3, 4, 4, 4))
    k = Tensor(k0, dtype=np.float64)
    err, _, _ = check_grad(lambda t: conv_transpose3d(t, k, stride=2, padding=1).square().sum(),
                           x0, sample=40, rng=rng)
    assert err < TOL
    x = Tensor(x0, dtype=np.float64)
    err, _, _ = check_grad(lambda t: conv_transpose3d(x, t, stride=2, padding=1).square().sum(),
                           k0, sample=40, rng=rng)
    assert err < TOL


def test_grad_pooling(rng):
    x0 = rng.standard_normal((1, 2, 4, 4, 4))
    err, _, _ = check_grad(lambda t: global_avg_pool(t).square().sum(), x0)
    assert err < TOL


def test_grad_gather_rows(rng):
    table0 = rng.standard_normal((6, 3))
    idx = np.array([0, 2, 2, 5])
    err, _, _ = check_grad(lambda t: gather_rows(t, idx).square().sum(), table0)
    assert err < TOL


def test_gather_rows_accumulates_repeats():
    table = Tensor(np.eye(3, dtype=np.float64), requires_grad=True, dtype=np.float64)
    out = gather_rows(table, np.array([1, 1, 1]))
    out.sum().backward()
    assert np.allclose(table.grad[1], 3.0)
    assert np.allclose(table.grad[0], 0.0)


def test_getitem_accumulates_repeated_indices():
    x = t64(np.array([1.0, 2.0, 3.0]))
    x[np.array([0, 0, 1])].sum().backward()
    assert np.array_equal(x.grad, [2.0, 1.0, 0.0])


# -- graph mechanics -----------------------------------------------------------


def test_diamond_graph_accumulates():
    # x feeds two branches that rejoin: d/dx (x*x + 3x) = 2x + 3
    x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
    y = x * x + x * 3.0
    y.backward()
    assert np.allclose(x.grad, 7.0)


def test_reused_tensor_grad_sums(rng):
    x = Tensor(rng.standard_normal((3,)), requires_grad=True, dtype=np.float64)
    y = (x.relu() + x.tanh()).sum()
    x2 = Tensor(x.data.copy(), requires_grad=True, dtype=np.float64)
    y2a = x2.relu().sum()
    y2b = x2.tanh().sum()
    y.backward()
    y2a.backward()
    y2b.backward()
    assert np.allclose(x.grad, x2.grad)


def test_no_grad_blocks_taping():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y.requires_grad is False
    y.backward()   # nothing recorded, so nothing propagates
    assert x.grad is None


def test_straight_through_forward_and_backward():
    """Forward carries the hard values; gradient flows to the soft input."""
    soft = Tensor(np.array([0.3, 0.7]), requires_grad=True, dtype=np.float64)
    hard = np.array([0.0, 1.0])
    out = straight_through(soft, hard)
    assert np.allclose(out.data, hard)
    (out * np.array([2.0, 5.0])).sum().backward()
    assert np.allclose(soft.grad, [2.0, 5.0])


def test_detach_stops_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
    y = (x.detach() * x).sum()   # only the live factor differentiates
    y.backward()
    assert np.allclose(x.grad, 3.0)


def test_backward_requires_scalar(rng):
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


# -- tape release --------------------------------------------------------------


def _formerly_cyclic_ops(x):
    """A graph through the six ops whose backward rules read their own output."""
    return (2.0 / (x / (x.exp() + 1.0)).sqrt().tanh().sigmoid()).sum()


def test_dropped_graphs_leave_no_cyclic_garbage(rng):
    x = t64(rng.uniform(0.5, 1.5, (3, 4)))
    gc.collect()
    gc.disable()
    try:
        _formerly_cyclic_ops(x)           # dropped without a backward
        _formerly_cyclic_ops(x).backward()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert x.grad is not None


def test_backward_frees_non_leaf_grads_and_keeps_leaf_grads(rng):
    x = t64(rng.standard_normal((3, 4)))
    w = t64(rng.standard_normal((3, 4)))
    h = x * w
    e = h.exp()
    loss = e.sum()
    loss.backward()
    assert h.grad is None and e.grad is None and loss.grad is None
    assert np.array_equal(x.grad, np.exp(x.data * w.data) * w.data)
    assert np.array_equal(w.grad, np.exp(x.data * w.data) * x.data)
    assert np.array_equal(e.data, np.exp(x.data * w.data))  # forward values stay


def test_second_backward_through_freed_nodes_raises(rng):
    x = t64(rng.standard_normal((2, 3)))
    h = x.tanh()
    loss = h.sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="freed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="freed"):
        (h * 2.0).sum().backward()
