"""Classification-side objectives: focal, SDM alignment, and their combination.

The total objective is

    total = focal + alpha_total * triple
    triple = lam * (L_mt + L_pt) / 2 + (1 - lam) * L_mp

where L_xy are pairwise similarity-distribution-matching (SDM) losses
between pooled modality features (m = MRI, p = PET, t = tabular/clinical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, _node


@dataclass
class LossConfig:
    gamma: float = 2.0           # focal focusing exponent
    alpha_focal: tuple | None = None  # per-class weights; None = uniform
    tau: float = 0.1             # SDM softmax temperature
    lam: float = 0.5             # pairwise/triple mixing weight
    alpha_total: float = 0.1     # weight of the triple term in the total
    eps: float = 1e-8            # SDM label-distribution floor

    def validate(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.alpha_total < 0:
            raise ValueError(f"alpha_total must be >= 0, got {self.alpha_total}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.alpha_focal is not None:
            a = np.asarray(self.alpha_focal, dtype=np.float64)
            if a.shape != (2,) or (a < 0).any():
                raise ValueError(f"alpha_focal must be two non-negative weights, got {self.alpha_focal}")
        return self


def inverse_class_weights(labels):
    """Per-class focal weights n / (2 * n_c), computed on the training fold."""
    y = np.asarray(labels)
    n = len(y)
    n1 = int((y == 1).sum())
    n0 = n - n1
    return (n / (2.0 * max(n0, 1)), n / (2.0 * max(n1, 1)))


# Floor for p_t inside the log; keeps a saturated softmax from emitting
# -inf without disturbing identity tests at their stated tolerances.
_P_FLOOR = 1e-12
# Floor for the SDM softmax rows inside p * log(p).
_SDM_FLOOR = 1e-30


def focal_loss(probs, labels, cfg: LossConfig):
    """Mean of -alpha_y * (1 - p_y)^gamma * log(p_y) over the batch."""
    cfg.validate()
    if not isinstance(probs, Tensor):
        probs = Tensor(probs)
    y = np.asarray(labels)
    if probs.data.ndim != 2 or probs.data.shape[1] != 2:
        raise ValueError(f"probs must be [N, 2], got {probs.data.shape}")
    if y.shape != (probs.data.shape[0],) or not set(np.unique(y)) <= {0, 1}:
        raise ValueError("labels must be a length-N vector of 0/1")
    if (probs.data < -1e-6).any() or (probs.data > 1 + 1e-6).any():
        raise ValueError("probs outside [0, 1]")
    n = probs.data.shape[0]
    p_t = probs[np.arange(n), y.astype(np.int64)]
    lift = (p_t.data < _P_FLOOR) * p_t.data.dtype.type(_P_FLOOR)
    if lift.any():
        p_t = p_t + lift
    alpha = np.ones(2) if cfg.alpha_focal is None else np.asarray(cfg.alpha_focal, dtype=np.float64)
    a_y = alpha[y.astype(np.int64)].astype(probs.data.dtype)
    nll = -(p_t.log())
    if cfg.gamma == 0.0:
        return (nll * a_y).mean()
    focus = (1.0 - p_t).powf(cfg.gamma)
    return (focus * nll * a_y).mean()


def sdm_loss(feat_a, feat_b, labels, cfg: LossConfig):
    """Symmetrized KL between cosine-similarity softmax rows and the
    label-match distribution.

    p_i = softmax_j(cos(a_i, b_j) / tau); q_i proportional to
    max(1[y_i == y_j], eps).  Returns the mean of the a->b and b->a
    directions; non-negative up to float noise by Gibbs' inequality.
    """
    cfg.validate()
    if not isinstance(feat_a, Tensor):
        feat_a = Tensor(feat_a)
    if not isinstance(feat_b, Tensor):
        feat_b = Tensor(feat_b)
    y = np.asarray(labels)
    n = feat_a.data.shape[0]
    if n < 2:
        raise ValueError(f"sdm_loss needs at least 2 samples, got {n}")
    if feat_a.data.shape != feat_b.data.shape:
        raise ValueError(f"feature shapes differ: {feat_a.data.shape} vs {feat_b.data.shape}")
    if not (np.isfinite(feat_a.data).all() and np.isfinite(feat_b.data).all()):
        raise ValueError("features must be finite")
    match = (y[:, None] == y[None, :]).astype(np.float64)
    q = np.maximum(match, cfg.eps)
    q /= q.sum(axis=1, keepdims=True)
    log_q = np.log(q.astype(feat_a.data.dtype))
    a_hat, a_norm = _unit_rows(feat_a.data)
    b_hat, b_norm = _unit_rows(feat_b.data)
    sim = a_hat @ b_hat.T
    p_ab, r_ab, kl_ab = _softmax_kl_rows(sim, log_q, cfg.tau)
    p_ba, r_ba, kl_ba = _softmax_kl_rows(sim.T, log_q, cfg.tau)

    def d_sim(g):
        # d/dsim of 0.5 * (mean_i KL_i(ab) + mean_j KL_j(ba)): each
        # softmax row contributes p * (r - sum(p * r)), r = log p - log q.
        d_ab = p_ab * (r_ab - (p_ab * r_ab).sum(axis=1, keepdims=True))
        d_ba = p_ba * (r_ba - (p_ba * r_ba).sum(axis=1, keepdims=True))
        return (d_ab + d_ba.T) * (g * (0.5 / (n * cfg.tau)))

    return _node((kl_ab.mean() + kl_ba.mean()) * 0.5, (feat_a, feat_b), (
        lambda d: _unit_rows_grad(d @ b_hat, a_hat, a_norm),
        lambda d: _unit_rows_grad(d.T @ a_hat, b_hat, b_norm)), share=d_sim)


def _unit_rows(x):
    """Rows of ``x`` scaled to unit length, and their norms [N, 1]."""
    norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
    if (norm == 0).any():
        raise ValueError(f"zero-norm feature vector at row {int(np.argmin(norm))}")
    return x / norm, norm


def _unit_rows_grad(g_hat, x_hat, norm):
    """Gradient through ``_unit_rows`` given the gradient of its rows."""
    return (g_hat - x_hat * (g_hat * x_hat).sum(axis=1, keepdims=True)) / norm


def _softmax_kl_rows(sim, log_q, tau):
    """Row softmax p of sim / tau, r = log p - log q, and each row's KL."""
    z = sim * (1.0 / tau)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    lifted = p + (p < _SDM_FLOOR) * p.dtype.type(_SDM_FLOOR)
    r = np.log(lifted) - log_q
    return p, r, (lifted * r).sum(axis=1)


def triple_loss(l_mt, l_pt, l_mp, lam):
    """lam * (L_mt + L_pt) / 2 + (1 - lam) * L_mp."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    return (l_mt + l_pt) * (lam * 0.5) + l_mp * (1.0 - lam)


def total_loss(l_focal, l_triple, alpha):
    """L_focal + alpha * L_triple."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return l_focal + l_triple * alpha
