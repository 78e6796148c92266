"""Objective tests: focal reduces to cross-entropy, hand-computed values,
SDM identities, and the two mixing formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimodal.autograd import Tensor
from trimodal.gradcheck import check_grad
from trimodal.losses import (
    LossConfig,
    focal_loss,
    inverse_class_weights,
    sdm_loss,
    total_loss,
    triple_loss,
)


def _valid_probs(rng, n):
    p1 = rng.uniform(0.02, 0.98, size=n)
    return np.stack([1.0 - p1, p1], axis=1)


def test_focal_gamma_zero_is_cross_entropy(rng):
    probs = _valid_probs(rng, 12)
    labels = rng.integers(0, 2, size=12)
    got = focal_loss(probs, labels, LossConfig(gamma=0.0)).data
    want = -np.log(probs[np.arange(12), labels]).mean()
    assert abs(float(got) - want) < 1e-7


def test_focal_hand_value():
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    labels = np.array([0, 1])
    got = float(focal_loss(probs, labels, LossConfig(gamma=2.0)).data)
    # p_t = (0.9, 0.8); (1-p_t)^2 = (0.01, 0.04)
    want = (0.01 * -np.log(0.9) + 0.04 * -np.log(0.8)) / 2.0
    assert abs(got - want) < 1e-9


def test_focal_class_weights_scale_terms():
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    labels = np.array([0, 1])
    cfg = LossConfig(gamma=2.0, alpha_focal=(2.0, 0.5))
    got = float(focal_loss(probs, labels, cfg).data)
    want = (2.0 * 0.01 * -np.log(0.9) + 0.5 * 0.04 * -np.log(0.8)) / 2.0
    assert abs(got - want) < 1e-9


def test_focal_downweights_confident_examples(rng):
    probs = _valid_probs(rng, 20)
    probs[:, 1] = np.clip(probs[:, 1], 0.9, 0.98)  # confidently class 1
    probs[:, 0] = 1.0 - probs[:, 1]
    labels = np.ones(20, dtype=int)
    easy = float(focal_loss(probs, labels, LossConfig(gamma=2.0)).data)
    plain = float(focal_loss(probs, labels, LossConfig(gamma=0.0)).data)
    assert easy < plain * 0.05


def test_focal_survives_saturated_probability():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([1, 1])  # first row has p_t exactly 0
    got = float(focal_loss(probs, labels, LossConfig(gamma=2.0)).data)
    assert np.isfinite(got)
    assert got > 1.0  # the floored -log(1e-12) term dominates


@pytest.mark.parametrize(
    "probs,labels",
    [
        (np.zeros((3, 3)), np.zeros(3, dtype=int)),       # 3 columns
        (np.full((3, 2), 0.5), np.array([0, 1, 2])),      # label outside {0,1}
        (np.array([[1.2, -0.2]]), np.array([0])),         # not a probability
    ],
)
def test_focal_input_validation(probs, labels):
    with pytest.raises(ValueError):
        focal_loss(probs, labels, LossConfig())


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma=-1.0),
        dict(lam=1.5),
        dict(tau=0.0),
        dict(alpha_total=-0.1),
        dict(eps=0.0),
        dict(alpha_focal=(1.0, -1.0)),
        dict(alpha_focal=(1.0, 2.0, 3.0)),
    ],
)
def test_loss_config_validation(kwargs):
    with pytest.raises(ValueError):
        LossConfig(**kwargs).validate()


def test_inverse_class_weights_values():
    w0, w1 = inverse_class_weights([0, 0, 0, 1])
    assert abs(w0 - 4.0 / 6.0) < 1e-12
    assert abs(w1 - 2.0) < 1e-12
    assert inverse_class_weights([0, 1, 0, 1]) == (1.0, 1.0)


def test_sdm_zero_when_p_matches_q():
    # identical unit rows and a single shared label: similarity rows are
    # constant so p is uniform, and q is uniform too
    f = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    y = np.array([1, 1, 1])
    got = float(sdm_loss(f, f, y, LossConfig()).data)
    assert abs(got) < 1e-7


def test_sdm_is_symmetric_in_its_arguments(rng):
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    y = np.array([0, 1, 0, 1, 1, 0])
    cfg = LossConfig()
    ab = float(sdm_loss(a, b, y, cfg).data)
    ba = float(sdm_loss(b, a, y, cfg).data)
    assert abs(ab - ba) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
def test_sdm_nonnegative(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 5))
    b = rng.standard_normal((n, 5))
    y = rng.integers(0, 2, size=n)
    got = float(sdm_loss(a, b, y, LossConfig()).data)
    assert got > -1e-6


def test_sdm_prefers_label_aligned_features(rng):
    # features clustered by label should score lower than shuffled ones
    y = np.array([0, 0, 0, 1, 1, 1])
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    tight = centers[y] + 0.01 * rng.standard_normal((6, 2))
    scrambled = tight[rng.permutation(6)]
    cfg = LossConfig()
    aligned = float(sdm_loss(tight, tight, y, cfg).data)
    broken = float(sdm_loss(scrambled, scrambled, y[::-1], cfg).data)
    assert aligned < broken


@pytest.mark.parametrize(
    "a,b,y",
    [
        (np.zeros((3, 2)), np.ones((3, 2)), [0, 1, 0]),   # zero-norm rows
        (np.ones((1, 2)), np.ones((1, 2)), [0]),          # single sample
        (np.ones((3, 2)), np.ones((3, 3)), [0, 1, 0]),    # shape mismatch
        (np.full((2, 2), np.nan), np.ones((2, 2)), [0, 1]),
    ],
)
def test_sdm_input_validation(a, b, y):
    with pytest.raises(ValueError):
        sdm_loss(a, b, np.asarray(y), LossConfig())


def test_sdm_gradient_matches_finite_differences(rng):
    b = Tensor(rng.standard_normal((5, 4)))
    y = np.array([0, 1, 1, 0, 1])
    cfg = LossConfig(tau=0.5)
    a0 = rng.standard_normal((5, 4))
    err, _, _ = check_grad(lambda t: sdm_loss(t, b, y, cfg), a0)
    assert err < 1e-5


def test_sdm_gradient_reaches_both_arguments(rng):
    a = Tensor(rng.standard_normal((5, 4)))
    y = np.array([0, 1, 1, 0, 1])
    cfg = LossConfig(tau=0.3)
    b0 = rng.standard_normal((5, 4))
    err, _, _ = check_grad(lambda t: sdm_loss(a, t, y, cfg), b0)
    assert err < 1e-5
    err, _, _ = check_grad(lambda t: sdm_loss(t, t, y, cfg), b0)  # one tensor, both sides
    assert err < 1e-5


def test_saturated_losses_and_gradients_stay_float32():
    # focal: p_t is exactly 0 in the first row, so the log floor lifts it
    probs = Tensor(np.array([[1.0, 0.0], [0.3, 0.7]], dtype=np.float32), requires_grad=True)
    focal = focal_loss(probs, np.array([1, 1]), LossConfig(gamma=2.0))
    focal.backward()
    assert focal.dtype == np.float32 and probs.grad.dtype == np.float32
    # SDM: cosines of +-1 at tau = 1e-3 underflow the off-diagonal softmax
    # entries (exp(-2000) == 0), so the p*log(p) floor lifts them
    a = Tensor(np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32), requires_grad=True)
    b = Tensor(np.array([[2.0, 0.0], [-1.0, 0.0]], dtype=np.float32), requires_grad=True)
    sdm = sdm_loss(a, b, np.array([0, 1]), LossConfig(tau=1e-3))
    sdm.backward()
    assert sdm.dtype == np.float32 and np.isfinite(sdm.data)
    for t in (a, b):
        assert t.grad.dtype == np.float32 and np.isfinite(t.grad).all()


def test_triple_loss_mixing():
    assert abs(triple_loss(0.2, 0.4, 0.6, lam=1.0) - 0.3) < 1e-12
    assert abs(triple_loss(0.2, 0.4, 0.6, lam=0.0) - 0.6) < 1e-12
    assert abs(triple_loss(0.2, 0.4, 0.6, lam=0.5) - 0.45) < 1e-12
    with pytest.raises(ValueError):
        triple_loss(0.2, 0.4, 0.6, lam=-0.1)


def test_total_loss_mixing():
    assert total_loss(0.5, 2.5, alpha=0.0) == 0.5
    assert abs(total_loss(0.5, 2.5, alpha=0.1) - 0.75) < 1e-12
    with pytest.raises(ValueError):
        total_loss(0.5, 2.5, alpha=-1.0)
