"""Per-modality encoders into a shared token space.

Every modality ends up as t tokens of dimension d_tok per subject
(default 8x8, flat dimension d = 64): a three-block stride-2 conv stack
with global average pooling for each imaging volume, a two-layer
perceptron for the 7 standardized clinical attributes.  Each modality's
tokens are then refined by multi-head self-attention with a residual
connection and layer normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, global_avg_pool, matmul, softmax
from .nn import Conv3d, LayerNorm, Linear, Module, run_stack, stack


@dataclass
class EncoderConfig:
    tokens: int = 8        # t
    d_tok: int = 8         # per-token width; d = tokens * d_tok
    heads: int = 4         # self-attention heads over width d_attn
    d_attn: int = 64       # internal attention width
    n_clinical: int = 7

    @property
    def d(self):
        return self.tokens * self.d_tok

    def validate(self):
        if self.tokens < 1 or self.d_tok < 1:
            raise ValueError("tokens and d_tok must be positive")
        if self.d_attn % self.heads != 0:
            raise ValueError(f"attention width {self.d_attn} not divisible by {self.heads} heads")
        if self.d_attn // self.heads < 8:
            raise ValueError(
                f"head_dim {self.d_attn // self.heads} < 8; use fewer heads or a wider d_attn")
        return self


class ImageEncoder(Module):
    """Volume [N,1,D,H,W] -> tokens [N,t,d_tok]: 3 stride-2 conv blocks,
    global average pool, linear to d, reshaped to a token sequence."""

    def __init__(self, rng, cfg: EncoderConfig):
        self.cfg = cfg
        self.c1, self.c2, self.c3 = stack(rng, Conv3d, (1, 8, 16, 32), 4)
        self.proj = Linear(rng, 32, cfg.d)

    def forward(self, x):
        if x.data.ndim != 5:
            raise ValueError(f"expected [N,1,D,H,W], got {x.data.shape}")
        h = run_stack((self.c1, self.c2, self.c3), x, Tensor.relu).relu()
        f = self.proj(global_avg_pool(h))
        n = f.data.shape[0]
        return f.reshape(n, self.cfg.tokens, self.cfg.d_tok)


class TabularEncoder(Module):
    """Standardized clinical rows [N,7] -> tokens [N,t,d_tok] via 7->64->d MLP."""

    def __init__(self, rng, cfg: EncoderConfig):
        self.cfg = cfg
        self.fc1, self.fc2 = stack(rng, Linear, (cfg.n_clinical, 64, cfg.d))

    def forward(self, x):
        if x.data.ndim != 2 or x.data.shape[1] != self.cfg.n_clinical:
            raise ValueError(f"expected [N,{self.cfg.n_clinical}], got {x.data.shape}")
        f = run_stack((self.fc1, self.fc2), x, Tensor.relu)
        n = f.data.shape[0]
        return f.reshape(n, self.cfg.tokens, self.cfg.d_tok)


class SelfAttention(Module):
    """Multi-head self-attention over the token axis, residual + layernorm.

    Tokens are projected from d_tok up to an internal width d_attn, split
    across heads (scores scaled by sqrt(head_dim)), recombined, projected
    back to d_tok, then added to the input and layer-normalized.
    """

    def __init__(self, rng, cfg: EncoderConfig):
        cfg.validate()
        self.cfg = cfg
        self.wq = Linear(rng, cfg.d_tok, cfg.d_attn)
        self.wk = Linear(rng, cfg.d_tok, cfg.d_attn)
        self.wv = Linear(rng, cfg.d_tok, cfg.d_attn)
        self.wo = Linear(rng, cfg.d_attn, cfg.d_tok)
        self.norm = LayerNorm(cfg.d_tok)

    def forward(self, x, return_weights=False):
        n, t, _ = x.data.shape
        h = self.cfg.heads
        dh = self.cfg.d_attn // h

        def split(z):  # [N,t,d_attn] -> [N,h,t,dh]
            return z.reshape(n, t, h, dh).transpose((0, 2, 1, 3))

        q, k, v = split(self.wq(x)), split(self.wk(x)), split(self.wv(x))
        scores = matmul(q, k.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
        attn = softmax(scores, axis=-1)
        mixed = matmul(attn, v)  # [N,h,t,dh]
        merged = mixed.transpose((0, 2, 1, 3)).reshape(n, t, self.cfg.d_attn)
        out = self.norm(x + self.wo(merged))
        if return_weights:
            return out, attn.data
        return out


class ModalityEncoders(Module):
    """The full encoding stage: per-modality encoders + attention refiners."""

    def __init__(self, rng, cfg: EncoderConfig):
        cfg.validate()
        self.cfg = cfg
        self.mri = ImageEncoder(rng, cfg)
        self.pet = ImageEncoder(rng, cfg)
        self.clin = TabularEncoder(rng, cfg)
        self.attn_mri = SelfAttention(rng, cfg)
        self.attn_pet = SelfAttention(rng, cfg)
        self.attn_clin = SelfAttention(rng, cfg)

    def forward(self, mri_batch, pet_batch, clin_batch):
        """Arrays/Tensors in, three refined token features [N,t,d_tok] out."""
        if not isinstance(mri_batch, Tensor):
            mri_batch = Tensor(np.ascontiguousarray(mri_batch, dtype=np.float32))
        if not isinstance(pet_batch, Tensor):
            pet_batch = Tensor(np.ascontiguousarray(pet_batch, dtype=np.float32))
        if not isinstance(clin_batch, Tensor):
            clin_batch = Tensor(np.ascontiguousarray(clin_batch, dtype=np.float32))
        f_m = self.attn_mri(self.mri(mri_batch))
        f_p = self.attn_pet(self.pet(pet_batch))
        f_c = self.attn_clin(self.clin(clin_batch))
        return f_m, f_p, f_c


def pool_tokens(f):
    """Mean over the token axis: [N,t,d_tok] -> [N,d_tok]."""
    return f.mean(axis=1)
