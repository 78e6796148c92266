"""Missing-modal generation: PET volumes synthesized from MRI.

A small vector-quantized encoder/decoder: three stride-2 conv blocks map a
volume to a latent grid, each latent position snaps to its nearest codebook
row, and a mirrored transposed-conv decoder reconstructs the PET volume.
Training optimizes a four-term hybrid objective (reconstruction L1,
quantization/commitment, perceptual feature distance, least-squares
adversarial) against a 3-layer 3-d patch discriminator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, gather_rows, map_chunks, straight_through
from .nn import Conv3d, ConvTranspose3d, Module, Parameter, run_stack, stack


@dataclass
class MmgConfig:
    codebook_size: int = 64
    d_code: int = 32
    beta: float = 0.25            # commitment weight inside the quantization term
    lambda_l1: float = 1.0
    lambda_qua: float = 1.0
    lambda_per: float = 0.1
    lambda_adv: float = 0.01

    def validate(self):
        if self.codebook_size < 1 or self.d_code < 1:
            raise ValueError("codebook_size and d_code must be positive")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        for name in ("lambda_l1", "lambda_qua", "lambda_per", "lambda_adv"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        return self

    def weights(self):
        return (self.lambda_l1, self.lambda_qua, self.lambda_per, self.lambda_adv)


class Codebook(Module):
    """M learned code vectors of dimension d_code plus usage counters."""

    def __init__(self, rng, m, d_code):
        self.codes = Parameter(rng.normal(0.0, 1.0, size=(m, d_code)).astype(np.float32))
        self.usage = np.zeros(m, dtype=np.int64)

    def record_usage(self, indices):
        np.add.at(self.usage, np.asarray(indices).reshape(-1), 1)

    def reset_usage(self):
        self.usage[:] = 0

    def reseed_dead(self, pool, rng):
        """Replace codes unused since the last reset with rows drawn from
        ``pool`` (encoder outputs, [n, d_code]); returns how many moved."""
        dead = np.flatnonzero(self.usage == 0)
        if dead.size == 0 or len(pool) == 0:
            return 0
        picks = rng.integers(0, len(pool), size=dead.size)
        self.codes.data[dead] = np.asarray(pool)[picks].astype(self.codes.data.dtype)
        return int(dead.size)


def quantize(z_hat, codebook: Codebook):
    """Snap each latent position to its nearest code (L2, lowest index wins).

    Returns (z_q, indices): z_q has straight-through backward (gradient is
    passed to z_hat unchanged; codes receive none here, they learn only
    through the quantization loss), and each z_q position is bitwise a row
    of the codebook.
    """
    codes = codebook.codes
    if z_hat.data.ndim != 5:
        raise ValueError(f"z_hat must be [N, d_code, d, h, w], got {z_hat.data.shape}")
    n, c, d, h, w = z_hat.data.shape
    if c != codes.data.shape[1]:
        raise ValueError(f"latent dim {c} != code dim {codes.data.shape[1]}")
    flat = np.moveaxis(z_hat.data, 1, -1).reshape(-1, c)
    diff = flat[:, None, :] - codes.data[None, :, :]
    indices = np.argmin((diff * diff).sum(axis=2), axis=1)
    picked = codes.data[indices]
    z_q_data = np.moveaxis(picked.reshape(n, d, h, w, c), -1, 1)
    z_q = straight_through(z_hat, z_q_data)
    return z_q, indices.reshape(n, d, h, w)


def quantization_loss(z_hat, codebook: Codebook, indices, beta):
    """|| sg[z_hat] - z_q ||^2 + beta * || z_hat - sg[z_q] ||^2 (means).

    The first term moves codes toward encoder outputs, the second commits
    the encoder to its chosen codes.  Differentiable path to the codebook
    goes through a row gather, so only selected codes receive gradient.
    """
    c = z_hat.data.shape[1]
    flat = z_hat.transpose((0, 2, 3, 4, 1)).reshape(-1, c)
    picked = gather_rows(codebook.codes, np.asarray(indices).reshape(-1))
    codes_term = (flat.detach() - picked).square().mean()
    commit_term = (flat - picked.detach()).square().mean()
    return codes_term + commit_term * beta


class OutputCalibration(Module):
    """Voxelwise linear recalibration of generated volumes, fitted on the
    training pairs (generated, acquired).

    Regression to noisy targets under-disperses its output, so raw decoder
    volumes run at a smaller dynamic range than acquired ones.  The least
    squares slope/intercept of acquired on generated realigns the mean
    prediction; the residual spread is kept so downstream consumers can
    noise-match imputed volumes to the acquired population.
    """

    def __init__(self):
        # (shift, scale, residual_sd)
        self.affine = Parameter(np.array([0.0, 1.0, 0.0], dtype=np.float32))

    def fit(self, real_volumes, generated_volumes):
        real = np.asarray(real_volumes, dtype=np.float64).reshape(-1)
        gen = np.asarray(generated_volumes, dtype=np.float64).reshape(-1)
        var_gen = max(float(gen.var()), 1e-12)
        scale = float(np.mean((real - real.mean()) * (gen - gen.mean())) / var_gen)
        shift = float(real.mean() - scale * gen.mean())
        resid_var = max(float(real.var()) - scale * scale * var_gen, 0.0)
        self.affine.data[:] = (shift, scale, np.sqrt(resid_var))

    def apply(self, volumes):
        shift, scale, _ = (float(v) for v in self.affine.data)
        return scale * volumes + shift

    @property
    def residual_sd(self):
        return float(self.affine.data[2])


class MmgModel(Module):
    """Encoder, codebook, decoder, patch discriminator, frozen perceptual net."""

    def __init__(self, rng, cfg: MmgConfig, volume_shape=(16, 16, 16)):
        cfg.validate()
        self.cfg = cfg
        self.volume_shape = tuple(volume_shape)
        for dim in self.volume_shape:
            if dim % 8:
                raise ValueError(f"volume dims must be divisible by 8, got {self.volume_shape}")
        dc = cfg.d_code
        self.enc1, self.enc2, self.enc3 = stack(rng, Conv3d, (1, 16, 32, dc), 4)
        self.codebook = Codebook(rng, cfg.codebook_size, dc)
        self.dec1, self.dec2, self.dec3 = stack(rng, ConvTranspose3d, (dc, 32, 16, 1), 4)
        self.disc = PatchDiscriminator(rng)
        self.perceptual = PerceptualNet(rng)
        self.calib = OutputCalibration()

    def encode(self, x):
        return run_stack((self.enc1, self.enc2, self.enc3), x, Tensor.relu)

    def decode(self, z_q):
        return run_stack((self.dec1, self.dec2, self.dec3), z_q, Tensor.relu)

    def generator_parameters(self):
        """Everything the generator step updates (encoder, codebook, decoder)."""
        skip = ("disc.", "perceptual.", "calib.")
        return [(n, p) for n, p in self.named_parameters() if not n.startswith(skip)]

    def generate_pet(self, mri_batch):
        """[N,1,D,H,W] MRI -> PET of the same shape; pure inference, run
        ``INFERENCE_CHUNK`` volumes at a time in the two lanes of
        ``map_chunks`` (a batch of one chunk runs inline)."""
        if mri_batch.shape[2:] != self.volume_shape:
            raise ValueError(f"volume shape {mri_batch.shape[2:]} != configured {self.volume_shape}")

        def generate(chunk):
            x = np.ascontiguousarray(mri_batch[chunk], dtype=np.float32)
            z_q, _ = quantize(self.encode(Tensor(x)), self.codebook)
            return self.calib.apply(self.decode(z_q).data)

        return np.concatenate(map_chunks(generate, len(mri_batch)))


class PatchDiscriminator(Module):
    """3 stride-2 convs with leaky-relu; emits a grid of patch scores."""

    def __init__(self, rng):
        self.c1, self.c2, self.c3 = stack(rng, Conv3d, (1, 16, 32, 1), 4)

    def forward(self, x):
        return run_stack((self.c1, self.c2, self.c3), x, lambda h: h.leaky_relu(0.2))

    def set_trainable(self, flag):
        for p in self.parameters():
            p.requires_grad = flag


class PerceptualNet(Module):
    """Frozen random 3-layer conv feature extractor for the perceptual term."""

    def __init__(self, rng):
        self.c1, self.c2, self.c3 = stack(rng, Conv3d, (1, 8, 16, 16), 3)
        for p in self.parameters():
            p.requires_grad = False

    def forward(self, x):
        return run_stack((self.c1, self.c2, self.c3), x, Tensor.relu)


def perceptual_loss(net: PerceptualNet, y_true, y_gen):
    """Mean squared distance between frozen conv features of the two volumes."""
    f_true = net(y_true if isinstance(y_true, Tensor) else Tensor(y_true)).detach()
    f_gen = net(y_gen)
    return (f_gen - f_true).square().mean()


def adversarial_gen_loss(disc_scores):
    """Least-squares generator objective: mean (D(fake) - 1)^2."""
    return (disc_scores - 1.0).square().mean()


def discriminator_loss(scores_real, scores_fake):
    """Least-squares discriminator objective (bounded, no log of zero)."""
    return ((scores_real - 1.0).square().mean() + scores_fake.square().mean()) * 0.5


def hybrid_loss(y_true, y_gen, z_hat, disc_scores, w, *, codebook, indices,
                beta=0.25, perceptual_net=None):
    """total = w_l1*L1 + w_qua*LQua + w_per*LPer + w_adv*LAdv.

    The quantization term is built from ``indices`` (as returned by
    ``quantize``) through a differentiable gather of ``codebook`` rows, so
    its gradient reaches the codebook rather than leaking through the
    straight-through estimator.  Only a nonzero weight needs its term's input.
    Returns (total, components) with components as named python floats.
    """
    w = tuple(float(x) for x in w)
    if len(w) != 4 or any(x < 0 for x in w):
        raise ValueError(f"need four non-negative weights, got {w}")
    w_l1, w_qua, w_per, w_adv = w
    if w_per != 0.0 and perceptual_net is None:
        raise ValueError(f"perceptual weight {w_per} needs a perceptual_net")
    if w_adv != 0.0 and disc_scores is None:
        raise ValueError(f"adversarial weight {w_adv} needs disc_scores")
    if not isinstance(y_true, Tensor):
        y_true = Tensor(y_true)
    if y_true.data.shape != y_gen.data.shape:
        raise ValueError(f"shape mismatch: {y_true.data.shape} vs {y_gen.data.shape}")

    l1 = (y_gen - y_true).abs().mean()
    qua = quantization_loss(z_hat, codebook, indices, beta)
    zero = Tensor(np.zeros((), dtype=y_gen.data.dtype))
    per = perceptual_loss(perceptual_net, y_true, y_gen) if w_per != 0.0 else zero
    adv = adversarial_gen_loss(disc_scores) if w_adv != 0.0 else zero

    total = l1 * w_l1 + qua * w_qua + per * w_per + adv * w_adv
    components = {
        "l1": float(l1.data), "qua": float(qua.data),
        "per": float(per.data), "adv": float(adv.data),
    }
    return total, components
