"""Self-check suite: gradient checks, oracle equivalences, loss identities,
and format contracts, each as a named pass/fail property.

Checks call library functions through their modules (late binding), so the
mutation mode can patch a function and prove the suite actually catches a
planted defect.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import losses, metrics, mmg, synthdata
from .autograd import Tensor, concat, conv3d, conv_transpose3d, gather_rows, \
    global_avg_pool, matmul, no_grad, softmax
from .checkpoint import load_checkpoint, save_checkpoint
from .encoders import EncoderConfig, ModalityEncoders, SelfAttention
from .fusion import CoAttention
from .gradcheck import check_grad
from .losses import LossConfig
from .nn import LayerNorm, Linear, Parameter
from .trainer import Adam

PRIMITIVE_TOL = 1e-6
COMPOSITE_TOL = 1e-5


class CheckFailure(AssertionError):
    pass


def _expect(cond, detail):
    if not cond:
        raise CheckFailure(detail)


def _expect_grad(loss, x0, tol, **kw):
    err, _, _ = check_grad(loss, x0, **kw)
    _expect(err < tol, f"rel error {err:.3e} >= {tol}")
    return err


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# -- gradient checks: primitives -------------------------------------------------


def check_grad_arithmetic():
    r = _rng(11)
    a = r.normal(size=(3, 4))
    c = r.normal(size=(4,)) + 3.0
    _expect_grad(lambda t: ((t * 2.0 + Tensor(c)) * (t.square() + 1.0).powf(-1.0) - t).sum(), a, PRIMITIVE_TOL)


def check_grad_pointwise():
    r = _rng(12)
    a = r.uniform(0.5, 2.0, size=(3, 3))
    _expect_grad(lambda t: (t.powf(0.5) + t.log() + t.square() * 0.1 + t.abs() + t.powf(1.7)).sum(), a,
                 PRIMITIVE_TOL)


def check_grad_activations():
    r = _rng(13)
    a = r.normal(size=(4, 5)) + 0.05
    _expect_grad(lambda t: (t.relu() + t.leaky_relu(0.2) * 0.5).sum(), a, PRIMITIVE_TOL)


def check_grad_softmax():
    r = _rng(14)
    a = r.normal(size=(3, 6))
    w = r.normal(size=(3, 6))
    _expect_grad(lambda t: (softmax(t, axis=-1) * Tensor(w)).sum(), a, PRIMITIVE_TOL)


def check_grad_matmul():
    r = _rng(15)
    a = r.normal(size=(2, 3, 4))
    b = r.normal(size=(4, 5))
    bb = r.normal(size=(2, 4, 5))  # batched right-hand side
    for rhs in (b, bb):
        _expect_grad(lambda t: matmul(t, Tensor(rhs)).square().sum(), a, PRIMITIVE_TOL)
        _expect_grad(lambda t: matmul(Tensor(a), t).square().sum(), rhs, PRIMITIVE_TOL)


def check_grad_shape_ops():
    r = _rng(16)
    a = r.normal(size=(2, 3, 4))
    c = Tensor(r.normal(size=(12, 1)), dtype=np.float64)  # a constant concat operand
    def build(t):
        u = t.reshape(2, 12).transpose((1, 0))
        v = concat([u, c, u * 2.0], axis=1)
        return (v[2:8] * v[2:8]).sum()
    _expect_grad(build, a, PRIMITIVE_TOL)


def check_grad_reductions():
    r = _rng(17)
    a = r.normal(size=(3, 4, 5))
    _expect_grad(lambda t: (t.sum(axis=1) * t.mean(axis=(0, 2), keepdims=True).sum()).sum(),
                 a, PRIMITIVE_TOL)


def check_grad_conv3d():
    r = _rng(18)
    x = r.normal(size=(2, 2, 6, 6, 6))
    k = r.normal(size=(3, 2, 3, 3, 3))
    x_odd = r.normal(size=(1, 2, 5, 5, 5))  # stride 2 leaves an edge row unread
    for seed, vol in ((0, x), (4, x_odd)):
        _expect_grad(lambda y: y.square().sum(), vol, PRIMITIVE_TOL, rng=_rng(seed), sample=24,
                     forward=lambda t: (conv3d(t, Tensor(k, dtype=np.float64), stride=2, padding=1),))
        _expect_grad(lambda t: conv3d(Tensor(vol, dtype=np.float64), t, stride=2, padding=1).square().sum(),
                     k, PRIMITIVE_TOL, rng=_rng(seed + 1), sample=24)


def check_grad_conv_transpose3d():
    r = _rng(19)
    x = r.normal(size=(2, 3, 3, 3, 3))
    k = r.normal(size=(3, 2, 4, 4, 4))
    _expect_grad(lambda y: y.square().sum(), x, PRIMITIVE_TOL, rng=_rng(2), sample=24,
                 forward=lambda t: (conv_transpose3d(t, Tensor(k, dtype=np.float64), stride=2, padding=1),))
    _expect_grad(lambda t: conv_transpose3d(Tensor(x, dtype=np.float64), t, stride=2, padding=1).square().sum(),
                 k, PRIMITIVE_TOL, rng=_rng(3), sample=24)


def check_grad_pooling():
    r = _rng(20)
    x = r.normal(size=(2, 2, 4, 4, 4))
    _expect_grad(lambda y: y.square().sum(), x, PRIMITIVE_TOL, rng=_rng(6), sample=24,
                 forward=lambda t: (global_avg_pool(t),))


def check_grad_gather_rows():
    r = _rng(21)
    table = r.normal(size=(6, 4))
    idx = np.array([0, 2, 2, 5, 1])
    w = r.normal(size=(5, 4))
    _expect_grad(lambda t: (gather_rows(t, idx) * Tensor(w)).sum(), table, PRIMITIVE_TOL)


def check_grad_layernorm_linear():
    """The loss is weighted by a fixed random w: with gamma = 1 and beta = 0
    each row of ln(.)**2 sums to about 5 whatever the input, so a squared
    loss would have a near-zero gradient.  gamma and beta are checked by
    passing a float64 tensor in place of each parameter."""
    r = _rng(22)
    x = r.normal(size=(3, 7))
    w = Tensor(r.normal(size=(3, 5)), dtype=np.float64)
    lin = Linear(_rng(100), 7, 5).to_dtype(np.float64)
    ln = LayerNorm(5).to_dtype(np.float64)
    _expect_grad(lambda t: (ln(lin(t)) * w).sum(), x, PRIMITIVE_TOL)
    h = lin(Tensor(x, dtype=np.float64)).detach()
    for name in ("gamma", "beta"):
        def build(t, name=name):
            norm = LayerNorm(5).to_dtype(np.float64)
            setattr(norm, name, t)
            return (norm(h) * w).sum()
        _expect_grad(build, getattr(ln, name).data, PRIMITIVE_TOL)


# -- gradient checks: composite paths --------------------------------------------


def check_grad_composite_mmg_loss():
    """Hybrid-loss pipeline with the quantizer in its local identity regime.

    The code snap is piecewise constant, so finite differences cannot see
    it; the composite check exercises every differentiable segment of the
    stage-1 loss (conv stack, decoder, commitment, perceptual, adversarial)
    with z_q == z_hat, while the straight-through contract and the
    quantize oracle cover the snap itself.
    """
    r = _rng(23)
    model = mmg.MmgModel(_rng(101), mmg.MmgConfig(codebook_size=8, d_code=4),
                         volume_shape=(8, 8, 8))
    model.to_dtype(np.float64)
    x0 = r.normal(size=(1, 1, 8, 8, 8)) * 0.5
    y = r.normal(size=(1, 1, 8, 8, 8)) * 0.5
    anchor = r.normal(size=(1, model.cfg.d_code, 1, 1, 1))

    with no_grad():
        f_true = model.perceptual(Tensor(y, dtype=np.float64))

    def forward(t):
        z_hat = model.encode(t)
        y_gen = model.decode(z_hat)
        return z_hat, y_gen, model.perceptual(y_gen), model.disc(y_gen)

    def loss(z_hat, y_gen, f_gen, scores):
        l1 = (y_gen - Tensor(y, dtype=np.float64)).abs().mean()
        commit = (z_hat - Tensor(anchor, dtype=np.float64)).square().mean()
        per = (f_gen - f_true).square().mean()
        adv = mmg.adversarial_gen_loss(scores)
        return l1 * 1.0 + commit * 0.25 + per * 0.1 + adv * 0.01

    _expect_grad(loss, x0, COMPOSITE_TOL, rng=_rng(7), sample=20, forward=forward)


def check_grad_quantization_loss():
    """Codebook gradient of the quantization objective.

    Finite differences cannot see stop-gradients, so the fd pass probes the
    codes with beta=0 (the code-pull term is the only sg-free path to the
    codebook); the commitment side is pinned by its closed-form gradient
    2*beta*(z_hat - picked)/numel, which encodes exactly where sg[] sits.
    """
    r = _rng(24)
    z0 = r.normal(size=(1, 4, 2, 2, 2))
    idx = r.integers(0, 6, size=(1, 2, 2, 2))
    codes0 = r.normal(size=(6, 4))

    def build(t):
        book = mmg.Codebook.__new__(mmg.Codebook)
        book.codes = t
        return mmg.quantization_loss(Tensor(z0, dtype=np.float64), book, idx, beta=0.0)

    _expect_grad(build, codes0, COMPOSITE_TOL)

    beta = 0.25
    z_hat = Tensor(z0, requires_grad=True, dtype=np.float64)
    book = mmg.Codebook.__new__(mmg.Codebook)
    book.codes = Tensor(codes0, dtype=np.float64)
    mmg.quantization_loss(z_hat, book, idx, beta=beta).backward()
    flat = np.moveaxis(z0, 1, -1).reshape(-1, 4)
    picked = codes0[idx.reshape(-1)]
    hand = 2.0 * beta * (flat - picked) / flat.size
    got = np.moveaxis(z_hat.grad, 1, -1).reshape(-1, 4)
    err = np.abs(got - hand).max()
    _expect(err < 1e-12, f"commitment gradient mismatch: max abs diff {err:.2e}")


def check_grad_composite_fusion():
    """Volume -> encoders -> co-attention -> classifier -> focal loss."""
    cfg = EncoderConfig(tokens=4, d_tok=4, heads=2, d_attn=16)
    enc = ModalityEncoders(_rng(102), cfg)
    from .fusion import TcafHead

    head = TcafHead(_rng(103), cfg)
    enc.to_dtype(np.float64)
    head.to_dtype(np.float64)
    r = _rng(25)
    mri0 = r.normal(size=(2, 1, 8, 8, 8)) * 0.5
    pet = Tensor(r.normal(size=(2, 1, 8, 8, 8)) * 0.5, dtype=np.float64)
    clin = Tensor(r.normal(size=(2, 7)), dtype=np.float64)
    y = np.array([0, 1])
    lcfg = LossConfig(alpha_focal=(1.0, 2.0))

    with no_grad():
        f_p = enc.attn_pet(enc.pet(pet)).data
        f_c = enc.attn_clin(enc.clin(clin)).data

    def forward(t):
        copies = len(t.data) // len(y)
        tiled = (Tensor(np.tile(f, (copies, 1, 1)), dtype=np.float64) for f in (f_p, f_c))
        return (head(enc.attn_mri(enc.mri(t)), *tiled)[1],)

    _expect_grad(lambda probs: losses.focal_loss(probs, y, lcfg), mri0, COMPOSITE_TOL,
                 rng=_rng(8), sample=20, forward=forward)


def check_grad_sdm():
    r = _rng(26)
    feats = r.normal(size=(5, 6))
    other = Tensor(r.normal(size=(5, 6)), dtype=np.float64)
    y = np.array([0, 1, 0, 1, 1])
    cfg = LossConfig(tau=0.5)
    _expect_grad(lambda t: losses.sdm_loss(t, other, y, cfg), feats, COMPOSITE_TOL)


# -- oracle equivalences ----------------------------------------------------------


def check_oracle_quantize_bruteforce():
    r = _rng(27)
    book = mmg.Codebook(_rng(104), 16, 6)
    z = Tensor(r.normal(size=(4, 6, 5, 5, 1)).astype(np.float32))
    _, idx = mmg.quantize(z, book)
    flat = np.moveaxis(z.data, 1, -1).reshape(-1, 6)
    codes = book.codes.data.astype(np.float64)
    # every (position, code) squared distance: [100 positions, 16 codes]
    dists = ((flat.astype(np.float64)[:, None, :] - codes[None, :, :]) ** 2).sum(axis=-1)
    best = np.argmin(dists, axis=1)  # ties go to the lowest index, as in quantize
    got = idx.reshape(-1)
    pos = int(np.argmax(best != got))  # the first mismatch, if there is one
    _expect(best[pos] == got[pos], f"position {pos}: oracle {best[pos]} != quantize {got[pos]}")


def check_oracle_conv3d_naive():
    r = _rng(28)
    x = r.normal(size=(2, 2, 5, 5, 5)).astype(np.float32)
    k = r.normal(size=(3, 2, 3, 3, 3)).astype(np.float32)
    got = conv3d(Tensor(x), Tensor(k), stride=2, padding=1).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    ref = np.zeros_like(got)
    for n in range(2):
        for f in range(3):
            for dz in range(got.shape[2]):
                for hy in range(got.shape[3]):
                    for wx in range(got.shape[4]):
                        patch = xp[n, :, 2 * dz:2 * dz + 3, 2 * hy:2 * hy + 3, 2 * wx:2 * wx + 3]
                        ref[n, f, dz, hy, wx] = float((patch.astype(np.float64)
                                                       * k[f].astype(np.float64)).sum())
    err = np.abs(got - ref).max()
    _expect(err <= 1e-5, f"conv3d vs naive loops: max abs diff {err:.2e} > 1e-5")


def check_oracle_coattention_loops():
    cfg = EncoderConfig(tokens=5, d_tok=6, heads=2, d_attn=16)
    co = CoAttention(_rng(105), cfg)
    r = _rng(29)
    feats = [Tensor(r.normal(size=(2, 5, 6)).astype(np.float32)) for _ in range(3)]
    hidden = co(*feats)

    wq, bq = co.wq.weight.data, co.wq.bias.data
    cat = np.concatenate([f.data for f in feats], axis=-1)
    for i in range(3):
        wk, bk = co.wk[i].weight.data, co.wk[i].bias.data
        wv, bv = co.wv[i].weight.data, co.wv[i].bias.data
        for n in range(2):
            q = cat[n].astype(np.float64) @ wq.astype(np.float64) + bq
            k = feats[i].data[n].astype(np.float64) @ wk.astype(np.float64) + bk
            v = feats[i].data[n].astype(np.float64) @ wv.astype(np.float64) + bv
            for t in range(5):
                scores = np.array([q[t] @ k[j] for j in range(5)]) / np.sqrt(6.0)
                e = np.exp(scores - scores.max())
                att = e / e.sum()
                ref = sum(att[j] * v[j] for j in range(5))
                err = np.abs(hidden[i].data[n, t] - ref).max()
                _expect(err < 1e-5, f"modality {i} subject {n} token {t}: diff {err:.2e}")


def check_oracle_selfattention_loops():
    cfg = EncoderConfig(tokens=5, d_tok=6, heads=2, d_attn=16)
    att = SelfAttention(_rng(109), cfg)
    r = _rng(38)
    x = r.normal(size=(2, 5, 6)).astype(np.float32)
    got = att(Tensor(x)).data

    def affine(lin, z):
        return z @ lin.weight.data.astype(np.float64) + lin.bias.data
    dh = cfg.d_attn // cfg.heads
    gamma, beta, eps = att.norm.gamma.data, att.norm.beta.data, att.norm.eps
    for n in range(2):
        xn = x[n].astype(np.float64)
        q, k, v = affine(att.wq, xn), affine(att.wk, xn), affine(att.wv, xn)
        merged = np.zeros((5, cfg.d_attn))
        for h in range(cfg.heads):
            cols = slice(h * dh, (h + 1) * dh)
            for t in range(5):
                scores = np.array([q[t, cols] @ k[j, cols] for j in range(5)]) / np.sqrt(dh)
                e = np.exp(scores - scores.max())
                weights = e / e.sum()
                merged[t, cols] = sum(weights[j] * v[j, cols] for j in range(5))
        y = xn + affine(att.wo, merged)
        for t in range(5):
            mu = y[t].mean()
            ref = (y[t] - mu) / np.sqrt(((y[t] - mu) ** 2).mean() + eps) * gamma + beta
            err = np.abs(got[n, t] - ref).max()
            _expect(err < 1e-5, f"subject {n} token {t}: diff {err:.2e}")


def check_oracle_auc_pairwise():
    r = _rng(30)
    scores = np.round(r.normal(size=30), 1)  # coarse grid forces ties
    y = (r.uniform(size=30) < 0.5).astype(int)
    y[:2] = [0, 1]
    got = metrics.auc(scores, y)
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg)
    ref = wins / (len(pos) * len(neg))
    _expect(got == ref, f"auc {got!r} != exhaustive pairwise {ref!r}")
    _expect(metrics.auc(scores, y) + metrics.auc(-scores, y) == 1.0,
            "auc(s) + auc(-s) != 1 exactly")


def check_oracle_focal_hand_value():
    probs = np.array([[0.1, 0.9]], dtype=np.float64)
    got = float(losses.focal_loss(Tensor(probs), np.array([1]),
                                  LossConfig(gamma=2.0, alpha_focal=(1.0, 1.0))).data)
    ref = 0.01 * -np.log(0.9)
    _expect(abs(got - ref) < 1e-9, f"focal hand value {got} != {ref}")


# -- loss identities ---------------------------------------------------------------


def check_identity_focal_ce():
    r = _rng(31)
    logits = r.normal(size=(16, 2))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    y = (r.uniform(size=16) < 0.4).astype(int)
    got = float(losses.focal_loss(Tensor(probs), y,
                                  LossConfig(gamma=0.0, alpha_focal=(1.0, 1.0))).data)
    ce = float(-np.log(probs[np.arange(16), y]).mean())
    _expect(abs(got - ce) < 1e-7, f"focal(gamma=0) {got} != cross-entropy {ce}")


def check_identity_triple_endpoints():
    vals = (0.2, 0.4, 0.6)
    _expect(abs(losses.triple_loss(*vals, 1.0) - 0.3) < 1e-12, "lam=1 endpoint")
    _expect(abs(losses.triple_loss(*vals, 0.0) - 0.6) < 1e-12, "lam=0 endpoint")
    _expect(abs(losses.triple_loss(*vals, 0.5) - 0.45) < 1e-12, "lam=0.5 hand value")


def check_identity_total_alpha0():
    _expect(losses.total_loss(0.5, 123.0, 0.0) == 0.5, "alpha=0 must return focal alone")
    _expect(abs(losses.total_loss(0.5, 0.25, 1.0) - 0.75) < 1e-12, "alpha=1 hand value")


def check_identity_hybrid_single_weight():
    r = _rng(32)
    y_true = Tensor(r.normal(size=(2, 1, 4, 4, 4)).astype(np.float32))
    y_gen = Tensor(r.normal(size=(2, 1, 4, 4, 4)).astype(np.float32))
    z_hat = Tensor(r.normal(size=(2, 3, 1, 1, 1)).astype(np.float32))
    book = mmg.Codebook(_rng(108), 4, 3)
    z_q, idx = mmg.quantize(z_hat, book)
    total, comps = mmg.hybrid_loss(y_true, y_gen, z_hat, None, (0.7, 0.3, 0.0, 0.0),
                                   codebook=book, indices=idx)
    l1 = float(np.abs(y_gen.data - y_true.data).mean())
    qua = float(((z_hat.data - z_q.data) ** 2).mean() * (1 + 0.25))
    _expect(abs(float(total.data) - (0.7 * l1 + 0.3 * qua)) < 1e-6,
            f"hybrid {float(total.data)} != 0.7*L1 + 0.3*LQua = {0.7 * l1 + 0.3 * qua}")
    _expect(abs(comps["l1"] - l1) < 1e-7, "reported L1 differs from independent recompute")


def check_identity_sdm_zero_nonneg():
    y = np.array([1, 1, 1, 1])
    feats = Tensor(np.ones((4, 3), dtype=np.float32))
    zero = float(losses.sdm_loss(feats, feats, y, LossConfig()).data)
    _expect(abs(zero) < 1e-7, f"same-label identical features should give 0, got {zero}")
    r = _rng(33)
    a = Tensor(r.normal(size=(6, 5)).astype(np.float32))
    b = Tensor(r.normal(size=(6, 5)).astype(np.float32))
    val = float(losses.sdm_loss(a, b, np.array([0, 1, 0, 1, 0, 1]), LossConfig()).data)
    _expect(val >= -1e-7, f"sdm loss negative: {val}")


def check_identity_layernorm_hand_value():
    ln = LayerNorm(4).to_dtype(np.float64)
    ln.gamma.data[:] = [1.0, 2.0, 0.5, -1.0]
    ln.beta.data[:] = [0.0, 0.1, -0.2, 0.3]
    got = ln(Tensor(np.array([[0.01, 0.02, 0.04, 0.05]]), dtype=np.float64)).data[0]
    # mean 0.03, variance 2.5e-4: small enough that eps inside the square
    # root and eps beside it differ by 2%
    xhat = np.array([-0.02, -0.01, 0.01, 0.02]) / np.sqrt(2.5e-4 + 1e-5)
    ref = xhat * [1.0, 2.0, 0.5, -1.0] + [0.0, 0.1, -0.2, 0.3]
    err = np.abs(got - ref).max()
    _expect(err < 1e-9, f"layernorm {got} != hand value {ref} (max abs diff {err:.2e})")


def check_straight_through_contract():
    r = _rng(34)
    z_hat = Tensor(r.normal(size=(2, 4, 2, 2, 2)).astype(np.float32), requires_grad=True)
    book = mmg.Codebook(_rng(106), 8, 4)
    z_q, idx = mmg.quantize(z_hat, book)
    w = r.normal(size=z_q.data.shape).astype(np.float32)
    (z_q * Tensor(w)).sum().backward()
    _expect(np.array_equal(z_hat.grad, w), "straight-through grad must equal downstream grad")
    rows = np.moveaxis(z_q.data, 1, -1).reshape(-1, 4)
    _expect(all(np.array_equal(rows[p], book.codes.data[idx.reshape(-1)[p]])
                for p in range(rows.shape[0])), "z_q positions must be exact codebook rows")


def check_softmax_rows():
    cfg = EncoderConfig()
    att = SelfAttention(_rng(107), cfg)
    r = _rng(35)
    x = Tensor(r.normal(size=(3, cfg.tokens, cfg.d_tok)).astype(np.float32))
    _, weights = att(x, return_weights=True)
    sums = weights.sum(axis=-1)
    _expect(np.abs(sums - 1.0).max() < 1e-6, "attention rows must sum to 1")


# -- formats, splits, optimizer ------------------------------------------------------


def check_format_volume_roundtrip():
    r = _rng(36)
    vol = r.normal(size=(16, 16, 16)).astype(np.float32)
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "v.vol")
        synthdata.write_volume(vol, path)
        back = synthdata.read_volume(path)
        _expect(np.array_equal(vol, back), "volume roundtrip not bitwise identical")
        with open(path, "r+b") as f:
            f.write(b"XOL1")
        try:
            synthdata.read_volume(path)
            raise CheckFailure("bad magic accepted")
        except synthdata.VolumeFormatError:
            pass


def check_format_checkpoint_roundtrip():
    r = _rng(37)
    tensors = {"a.w": r.normal(size=(3, 4)).astype(np.float32),
               "b.bias": r.normal(size=(5,)).astype(np.float32)}
    meta = {"seed": 7, "hash": "abc"}
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "c.itck")
        save_checkpoint(path, tensors, meta)
        back, meta2 = load_checkpoint(path)
        _expect(set(back) == set(tensors), "names differ after roundtrip")
        _expect(all(np.array_equal(tensors[k], back[k]) for k in tensors),
                "tensor bytes differ after roundtrip")
        _expect(meta2 == meta, "metadata differs after roundtrip")


def check_format_kfold():
    folds = synthdata.split_kfold([f"s{i}" for i in range(11)], 5, seed=3)
    sizes = sorted(len(f) for f in folds)
    _expect(sizes == [2, 2, 2, 2, 3], f"fold sizes {sizes} != [2,2,2,2,3]")
    flat = sorted(x for f in folds for x in f)
    _expect(flat == sorted(f"s{i}" for i in range(11)), "folds must partition the ids")
    again = synthdata.split_kfold([f"s{i}" for i in range(11)], 5, seed=3)
    _expect(folds == again, "same seed must give identical folds")


def check_adam_zero_grad():
    p = Parameter(np.array([1.5, -2.0], dtype=np.float32))
    opt = Adam([("p", p)], lr=0.1)
    p.grad = np.zeros(2, dtype=np.float32)
    before = p.data.copy()
    opt.step()
    _expect(np.array_equal(p.data, before), "zero gradient must leave parameters unchanged")


ALL_CHECKS = [
    ("grad/arithmetic", check_grad_arithmetic),
    ("grad/pointwise", check_grad_pointwise),
    ("grad/activations", check_grad_activations),
    ("grad/softmax", check_grad_softmax),
    ("grad/matmul", check_grad_matmul),
    ("grad/shape-ops", check_grad_shape_ops),
    ("grad/reductions", check_grad_reductions),
    ("grad/conv3d", check_grad_conv3d),
    ("grad/conv-transpose3d", check_grad_conv_transpose3d),
    ("grad/pooling", check_grad_pooling),
    ("grad/gather-rows", check_grad_gather_rows),
    ("grad/layernorm-linear", check_grad_layernorm_linear),
    ("grad/composite-mmg-loss", check_grad_composite_mmg_loss),
    ("grad/quantization-loss", check_grad_quantization_loss),
    ("grad/composite-fusion-focal", check_grad_composite_fusion),
    ("grad/sdm", check_grad_sdm),
    ("oracle/quantize-bruteforce", check_oracle_quantize_bruteforce),
    ("oracle/conv3d-naive", check_oracle_conv3d_naive),
    ("oracle/coattention-loops", check_oracle_coattention_loops),
    ("oracle/selfattention-loops", check_oracle_selfattention_loops),
    ("oracle/auc-pairwise", check_oracle_auc_pairwise),
    ("oracle/focal-hand-value", check_oracle_focal_hand_value),
    ("identity/focal-ce", check_identity_focal_ce),
    ("identity/triple-endpoints", check_identity_triple_endpoints),
    ("identity/total-alpha0", check_identity_total_alpha0),
    ("identity/hybrid-single-weight", check_identity_hybrid_single_weight),
    ("identity/sdm-zero-nonneg", check_identity_sdm_zero_nonneg),
    ("identity/layernorm-hand-value", check_identity_layernorm_hand_value),
    ("contract/straight-through", check_straight_through_contract),
    ("contract/attention-rows", check_softmax_rows),
    ("format/volume-roundtrip", check_format_volume_roundtrip),
    ("format/checkpoint-roundtrip", check_format_checkpoint_roundtrip),
    ("format/kfold-splits", check_format_kfold),
    ("optimizer/adam-zero-grad", check_adam_zero_grad),
]

MUTATIONS = {"focal_sign"}


def apply_mutation(name):
    """Plant a defect so the suite can prove it catches one (testing mode)."""
    if name not in MUTATIONS:
        raise ValueError(f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}")
    original = losses.focal_loss

    def mutated(probs, labels, cfg):
        return -original(probs, labels, cfg)

    losses.focal_loss = mutated
    return lambda: setattr(losses, "focal_loss", original)


def run_all(mutate=None, out=None):
    """Run every named check; returns (results, all_passed).

    results: list of (name, passed, detail).  Prints a pass/fail table to
    ``out`` (stdout by default).
    """
    restore = apply_mutation(mutate) if mutate else None
    results = []
    try:
        for name, fn in ALL_CHECKS:
            try:
                fn()
                results.append((name, True, ""))
            except CheckFailure as e:
                results.append((name, False, str(e)))
            except Exception as e:  # an unexpected crash is also a failure
                results.append((name, False, f"{type(e).__name__}: {e}"))
    finally:
        if restore:
            restore()
    width = max(len(n) for n, _, _ in results)
    lines = []
    for name, ok, detail in results:
        mark = "PASS" if ok else "FAIL"
        line = f"{name:<{width}}  {mark}"
        if detail:
            line += f"  {detail}"
        lines.append(line)
    n_pass = sum(ok for _, ok, _ in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    text = "\n".join(lines)
    print(text, file=out) if out is not None else print(text)
    return results, n_pass == len(results)
