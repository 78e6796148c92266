"""Fusion-stage tests: co-attention against a plain-loop oracle, the
interleaved concatenation, and both classifier heads."""

import numpy as np
import pytest

from trimodal.autograd import Tensor
from trimodal.encoders import EncoderConfig
from trimodal.fusion import Classifier, CoAttention, ConcatHead, TcafHead, cross_concat


def _softmax_rows(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_coattention_matches_explicit_loop(rng):
    cfg = EncoderConfig(tokens=3, d_tok=4)
    mod = CoAttention(rng, cfg)
    feats = [
        Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32)) for _ in range(3)
    ]
    hidden = mod(*feats)

    # recompute with nothing but numpy and the module's own weights
    f_cat = np.concatenate([f.data for f in feats], axis=-1)
    q = f_cat @ mod.wq.weight.data + mod.wq.bias.data
    scale = 1.0 / np.sqrt(cfg.d_tok)
    for i, f in enumerate(feats):
        k = f.data @ mod.wk[i].weight.data + mod.wk[i].bias.data
        v = f.data @ mod.wv[i].weight.data + mod.wv[i].bias.data
        want = np.empty_like(v)
        for n in range(2):
            attn = _softmax_rows(q[n] @ k[n].T * scale)
            want[n] = attn @ v[n]
        np.testing.assert_allclose(hidden[i].data, want, atol=1e-5)


def test_coattention_weights_row_stochastic(rng):
    cfg = EncoderConfig(tokens=5, d_tok=4)
    mod = CoAttention(rng, cfg)
    feats = [
        Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32)) for _ in range(3)
    ]
    hidden, weights = mod(*feats, return_weights=True)
    assert len(hidden) == 3 and len(weights) == 3
    for w in weights:
        assert w.shape == (2, 5, 5)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)


def test_coattention_rejects_mixed_shapes(rng):
    cfg = EncoderConfig(tokens=3, d_tok=4)
    mod = CoAttention(rng, cfg)
    a = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
    b = Tensor(np.zeros((2, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        mod(a, a, b)


def test_cross_concat_interleaves_then_appends():
    f1 = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
    f2 = Tensor(np.array([[10.0, 20.0]], dtype=np.float32))
    f3 = Tensor(np.array([[100.0, 200.0]], dtype=np.float32))
    out = cross_concat(f1, f2, f3)
    np.testing.assert_array_equal(
        out.data, [[1.0, 10.0, 2.0, 20.0, 100.0, 200.0]])


def test_cross_concat_token_inputs_flatten(rng):
    feats = [
        Tensor(rng.standard_normal((4, 3, 2)).astype(np.float32)) for _ in range(3)
    ]
    out = cross_concat(*feats)
    assert out.data.shape == (4, 18)
    # even slots of the woven block come from f1, odd slots from f2
    np.testing.assert_array_equal(out.data[:, 0:12:2], feats[0].data.reshape(4, 6))
    np.testing.assert_array_equal(out.data[:, 1:12:2], feats[1].data.reshape(4, 6))
    np.testing.assert_array_equal(out.data[:, 12:], feats[2].data.reshape(4, 6))


def test_cross_concat_rejects_mixed_shapes():
    a = Tensor(np.zeros((1, 4), dtype=np.float32))
    b = Tensor(np.zeros((1, 6), dtype=np.float32))
    with pytest.raises(ValueError):
        cross_concat(a, a, b)


def test_classifier_probability_rows(rng):
    clf = Classifier(rng, in_features=6)
    logits, probs = clf(Tensor(rng.standard_normal((5, 6)).astype(np.float32)))
    assert logits.data.shape == (5, 2)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)
    assert (probs.data > 0).all()


def test_classifier_rejects_wrong_width(rng):
    clf = Classifier(rng, in_features=6)
    with pytest.raises(ValueError):
        clf(Tensor(np.zeros((5, 7), dtype=np.float32)))


def test_tcaf_head_shapes(rng):
    cfg = EncoderConfig()
    head = TcafHead(rng, cfg)
    feats = [
        Tensor(rng.standard_normal((3, cfg.tokens, cfg.d_tok)).astype(np.float32))
        for _ in range(3)
    ]
    logits, probs = head(*feats)
    assert logits.data.shape == (3, 2)
    assert probs.data.shape == (3, 2)


def test_concat_head_shapes_and_pooling(rng):
    cfg = EncoderConfig()
    head = ConcatHead(rng, cfg)
    assert head.classifier.in_features == 3 * cfg.d_tok
    feats = [
        Tensor(rng.standard_normal((3, cfg.tokens, cfg.d_tok)).astype(np.float32))
        for _ in range(3)
    ]
    logits, probs = head(*feats)
    assert logits.data.shape == (3, 2)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


def test_tcaf_head_gradients_reach_all_projections(rng):
    cfg = EncoderConfig(tokens=2, d_tok=4)
    head = TcafHead(rng, cfg)
    feats = [
        Tensor(rng.standard_normal((2, 2, 4)).astype(np.float32)) for _ in range(3)
    ]
    logits, _ = head(*feats)
    logits.sum().backward()
    for lin in [head.coattn.wq, *head.coattn.wk, *head.coattn.wv]:
        assert lin.weight.grad is not None
        assert np.abs(lin.weight.grad).max() > 0
