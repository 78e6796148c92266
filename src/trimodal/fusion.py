"""Triple-modal co-attention fusion and the classification head.

A shared query is computed from the concatenation of all three modality
features; each modality contributes its own keys and values.  The three
attended outputs are fused by cross-concatenation (interleave the two
imaging modalities along the flattened feature axis, then append the
clinical features) and classified by a two-layer head.

A plain-concat baseline head (pooled per-modality features, no
co-attention) implements the fusion-off ablation mode.
"""

from __future__ import annotations

import math

from .autograd import concat, matmul, softmax
from .nn import Linear, Module
from .encoders import EncoderConfig, pool_tokens


class CoAttention(Module):
    """Shared-query cross-modal attention over token sequences.

    Q = W_q([f1; f2; f3]) from the feature-axis concatenation; each
    modality i has K_i = W_k_i(f_i), V_i = W_v_i(f_i), and the hidden
    output is softmax(Q K_i^T / sqrt(d_tok)) V_i, all projections d_tok wide.
    """

    def __init__(self, rng, cfg: EncoderConfig):
        self.cfg = cfg
        d = cfg.d_tok
        self.wq = Linear(rng, 3 * d, d)
        self.wk = [Linear(rng, d, d) for _ in range(3)]
        self.wv = [Linear(rng, d, d) for _ in range(3)]

    def forward(self, f_mri, f_pet, f_clin, return_weights=False):
        feats = (f_mri, f_pet, f_clin)
        shapes = {f.data.shape for f in feats}
        if len(shapes) != 1:
            raise ValueError(f"modality features must share shape, got {sorted(shapes)}")
        q = self.wq(concat(feats, axis=-1))
        scale = 1.0 / math.sqrt(self.cfg.d_tok)
        hidden, weights = [], []
        for i, f in enumerate(feats):
            k = self.wk[i](f)
            v = self.wv[i](f)
            attn = softmax(matmul(q, k.transpose((0, 2, 1))) * scale, axis=-1)
            hidden.append(matmul(attn, v))
            weights.append(attn.data)
        if return_weights:
            return tuple(hidden), weights
        return tuple(hidden)


def cross_concat(f1, f2, f3):
    """Interleave flattened f1/f2 (a1,b1,a2,b2,...), then append f3.

    Inputs [N,t,d] (or [N,L]); output [N, 3*t*d].
    """
    shapes = {f.data.shape for f in (f1, f2, f3)}
    if len(shapes) != 1:
        raise ValueError(f"cross_concat inputs must share shape, got {sorted(shapes)}")
    n = f1.data.shape[0]
    length = f1.data.size // n
    a = f1.reshape(n, length, 1)
    b = f2.reshape(n, length, 1)
    woven = concat([a, b], axis=2).reshape(n, 2 * length)
    return concat([woven, f3.reshape(n, length)], axis=1)


class Classifier(Module):
    """Two dense layers (in -> 64 -> 2) with relu; emits logits and probs."""

    def __init__(self, rng, in_features):
        self.in_features = in_features
        self.fc1 = Linear(rng, in_features, 64)
        self.fc2 = Linear(rng, 64, 2)

    def forward(self, f_global):
        if f_global.data.ndim != 2 or f_global.data.shape[1] != self.in_features:
            raise ValueError(
                f"classifier expects [N,{self.in_features}], got {f_global.data.shape}")
        logits = self.fc2(self.fc1(f_global).relu())
        return logits, softmax(logits, axis=-1)


class TcafHead(Module):
    """co_attention -> cross_concat -> classifier."""

    def __init__(self, rng, cfg: EncoderConfig):
        self.coattn = CoAttention(rng, cfg)
        self.classifier = Classifier(rng, 3 * cfg.tokens * cfg.d_tok)

    def forward(self, f_mri, f_pet, f_clin):
        h1, h2, h3 = self.coattn(f_mri, f_pet, f_clin)
        return self.classifier(cross_concat(h1, h2, h3))


class ConcatHead(Module):
    """Fusion-off baseline: pooled modality features concatenated directly."""

    def __init__(self, rng, cfg: EncoderConfig):
        self.classifier = Classifier(rng, 3 * cfg.d_tok)

    def forward(self, f_mri, f_pet, f_clin):
        pooled = concat([pool_tokens(f) for f in (f_mri, f_pet, f_clin)], axis=1)
        return self.classifier(pooled)
