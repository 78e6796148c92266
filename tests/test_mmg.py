"""Vector-quantized generator: codebook, losses, calibration, inference."""

import numpy as np
import pytest

from trimodal.autograd import Tensor, no_grad
from trimodal.mmg import (Codebook, MmgConfig, MmgModel, OutputCalibration,
                          PatchDiscriminator, adversarial_gen_loss,
                          discriminator_loss, hybrid_loss, perceptual_loss,
                          quantization_loss, quantize)


@pytest.fixture
def model(rng):
    return MmgModel(rng, MmgConfig(codebook_size=8, d_code=4), volume_shape=(8, 8, 8))


# -- quantize ----------------------------------------------------------------


def test_quantize_matches_bruteforce(rng):
    """Nearest codebook row per latent position, against a direct scan."""
    book = Codebook(rng, 16, 6)
    z = Tensor(rng.standard_normal((4, 6, 5, 5, 1)).astype(np.float32))
    with no_grad():
        _, idx = quantize(z, book)
    flat = np.moveaxis(z.data, 1, -1).reshape(-1, 6)
    codes = book.codes.data
    picks = idx.reshape(-1)
    # 100 random positions, each checked exhaustively
    sel = np.random.default_rng(1).choice(len(flat), size=100, replace=True)
    for i in sel:
        d = ((flat[i][None, :] - codes) ** 2).sum(axis=1)
        assert d[picks[i]] <= d.min() + 1e-12


def test_quantize_tie_breaks_to_lowest_index():
    book = Codebook(np.random.default_rng(0), 2, 2)
    book.codes.data[:] = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32)
    z = Tensor(np.full((1, 2, 1, 1, 1), 0.5, dtype=np.float32))
    with no_grad():
        _, idx = quantize(z, book)
    assert idx.reshape(-1)[0] == 0


def test_quantize_output_is_code_rows(rng):
    book = Codebook(rng, 8, 3)
    z = Tensor(rng.standard_normal((2, 3, 4, 4, 4)).astype(np.float32))
    with no_grad():
        z_q, idx = quantize(z, book)
    flat_q = np.moveaxis(z_q.data, 1, -1).reshape(-1, 3)
    assert np.allclose(flat_q, book.codes.data[idx.reshape(-1)], atol=1e-6)


def test_quantize_straight_through_gradient(rng):
    """The encoder output receives the decoder gradient unchanged."""
    book = Codebook(rng, 8, 3)
    z = Tensor(rng.standard_normal((1, 3, 2, 2, 2)), requires_grad=True, dtype=np.float64)
    book.codes.data = book.codes.data.astype(np.float64)
    z_q, _ = quantize(z, book)
    (z_q * 2.0).sum().backward()
    assert np.allclose(z.grad, 2.0)


# -- losses --------------------------------------------------------------------


def test_quantization_loss_hand_value():
    """One position, one code: codes term (z-c)^2 plus beta times the same."""
    book = Codebook(np.random.default_rng(0), 1, 1)
    book.codes.data[:] = 2.0
    z = Tensor(np.full((1, 1, 1, 1, 1), 5.0, dtype=np.float32))
    idx = np.zeros((1, 1, 1, 1), dtype=np.int64)
    loss = quantization_loss(z, book, idx, beta=0.25)
    assert abs(loss.item() - (9.0 + 0.25 * 9.0)) < 1e-5


def test_quantization_loss_beta_scaling(rng):
    book = Codebook(rng, 4, 2)
    z = Tensor(rng.standard_normal((1, 2, 2, 2, 2)).astype(np.float32))
    with no_grad():
        _, idx = quantize(z, book)
    l0 = quantization_loss(z, book, idx, beta=0.0).item()
    l1 = quantization_loss(z, book, idx, beta=1.0).item()
    assert abs(l1 - 2.0 * l0) < 1e-5   # codes and commit terms are equal-valued


def test_quantization_loss_gradient_split(rng):
    """Codes feel only the pull term; the encoder feels only the commit term."""
    book = Codebook(rng, 4, 2)
    book.codes.data = book.codes.data.astype(np.float64)
    z = Tensor(rng.standard_normal((1, 2, 2, 2, 2)), requires_grad=True, dtype=np.float64)
    with no_grad():
        _, idx = quantize(z, book)
    beta = 0.7
    loss = quantization_loss(z, book, idx, beta=beta)
    loss.backward()
    flat = np.moveaxis(z.data, 1, -1).reshape(-1, 2)
    picked = book.codes.data[idx.reshape(-1)]
    hand_z = 2.0 * beta * (flat - picked) / flat.size
    got_z = np.moveaxis(z.grad, 1, -1).reshape(-1, 2)
    assert np.allclose(got_z, hand_z, atol=1e-12)


def test_discriminator_loss_least_squares():
    real = Tensor(np.array([[1.0]], dtype=np.float32))
    fake = Tensor(np.array([[0.0]], dtype=np.float32))
    assert abs(discriminator_loss(real, fake).item()) < 1e-7
    assert abs(adversarial_gen_loss(Tensor(np.array([[1.0]]))).item()) < 1e-7
    assert abs(adversarial_gen_loss(Tensor(np.array([[0.0]]))).item() - 1.0) < 1e-6


def test_hybrid_loss_single_weight_recovers_component(rng, model):
    x = Tensor(rng.standard_normal((2, 1, 8, 8, 8)).astype(np.float32))
    y_true = Tensor(rng.standard_normal((2, 1, 8, 8, 8)).astype(np.float32))
    z_hat = model.encode(x)
    z_q, idx = quantize(z_hat, model.codebook)
    y_gen = model.decode(z_q)
    scores = model.disc(y_gen)
    names = ("l1", "qua", "per", "adv")
    for pos in range(4):
        weights = tuple(1.0 if i == pos else 0.0 for i in range(4))
        total, comps = hybrid_loss(y_true, y_gen, z_hat, scores, weights,
                                   codebook=model.codebook, indices=idx,
                                   beta=0.25, perceptual_net=model.perceptual)
        assert abs(total.item() - comps[names[pos]]) < 1e-5


@pytest.mark.parametrize("pos, missing", [(2, "perceptual_net"), (3, "disc_scores")])
def test_hybrid_loss_rejects_a_weighted_term_without_its_input(rng, model, pos, missing):
    y_true = Tensor(rng.standard_normal((1, 1, 8, 8, 8)).astype(np.float32))
    z_hat = model.encode(y_true)
    z_q, idx = quantize(z_hat, model.codebook)
    y_gen = model.decode(z_q)
    weights = tuple(0.5 if i in (0, pos) else 0.0 for i in range(4))
    with pytest.raises(ValueError, match=missing):
        hybrid_loss(y_true, y_gen, z_hat, None, weights, codebook=model.codebook,
                    indices=idx, perceptual_net=None)


def test_l1_component_hand_value(rng, model):
    """Constant offset of 0.5 everywhere gives an L1 term of exactly 0.5."""
    y_gen_arr = rng.standard_normal((1, 1, 8, 8, 8)).astype(np.float32)
    x = Tensor(y_gen_arr.copy())
    z_hat = model.encode(x)
    z_q, idx = quantize(z_hat, model.codebook)
    y_gen = model.decode(z_q)
    y_true = Tensor(y_gen.data + 0.5)
    scores = model.disc(y_gen)
    total, comps = hybrid_loss(y_true, y_gen, z_hat, scores, (1.0, 0.0, 0.0, 0.0),
                               codebook=model.codebook, indices=idx,
                               beta=0.25, perceptual_net=model.perceptual)
    assert abs(comps["l1"] - 0.5) < 1e-5


def test_perceptual_loss_zero_on_identical(rng, model):
    v = Tensor(rng.standard_normal((1, 1, 8, 8, 8)).astype(np.float32))
    assert perceptual_loss(model.perceptual, v, v).item() < 1e-10


# -- codebook management ---------------------------------------------------------


def test_codebook_usage_and_reseed(rng):
    book = Codebook(rng, 4, 2)
    book.record_usage(np.array([0, 0, 1]))
    assert book.usage.tolist() == [2, 1, 0, 0]
    pool = np.full((10, 2), 7.0, dtype=np.float32)
    moved = book.reseed_dead(pool, np.random.default_rng(0))
    assert moved == 2
    assert np.allclose(book.codes.data[2:], 7.0)
    book.reset_usage()
    assert book.usage.sum() == 0


# -- output calibration -----------------------------------------------------------


def test_calibration_recovers_affine(rng):
    gen = rng.standard_normal((20, 1, 8, 8, 8))
    real = 1.7 * gen + 0.3
    calib = OutputCalibration()
    calib.fit(real, gen)
    shift, scale, resid = calib.affine.data
    assert abs(scale - 1.7) < 1e-4
    assert abs(shift - 0.3) < 1e-4
    assert resid < 1e-3
    assert np.allclose(calib.apply(gen.astype(np.float32)), real, atol=1e-4)


def test_calibration_measures_residual_noise(rng):
    gen = rng.standard_normal((40, 1, 8, 8, 8))
    real = gen + 0.5 * rng.standard_normal(gen.shape)
    calib = OutputCalibration()
    calib.fit(real, gen)
    assert abs(calib.residual_sd - 0.5) < 0.02


# -- inference ---------------------------------------------------------------------


def test_generate_pet_shape_and_determinism(rng, model):
    mri = rng.standard_normal((3, 1, 8, 8, 8)).astype(np.float32)
    a = model.generate_pet(mri)
    b = model.generate_pet(mri.copy())
    assert a.shape == (3, 1, 8, 8, 8)
    assert np.array_equal(a, b)


def test_generate_pet_applies_calibration(rng, model):
    mri = rng.standard_normal((2, 1, 8, 8, 8)).astype(np.float32)
    raw = model.generate_pet(mri)
    model.calib.affine.data[:] = (1.0, 2.0, 0.0)
    assert np.allclose(model.generate_pet(mri), 2.0 * raw + 1.0, atol=1e-5)


def test_generate_pet_rejects_wrong_shape(model):
    with pytest.raises(ValueError):
        model.generate_pet(np.zeros((1, 1, 16, 16, 16), dtype=np.float32))


def test_volume_dims_must_be_divisible_by_eight(rng):
    with pytest.raises(ValueError):
        MmgModel(rng, MmgConfig(), volume_shape=(12, 12, 12))
