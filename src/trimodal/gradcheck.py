"""Finite-difference verification of backward rules.

Runs in float64: callers promote their inputs (and module parameters)
before checking, otherwise the h**2 truncation error of the central
difference drowns in float32 rounding noise.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, no_grad

STEP = 1e-5  # the central-difference step of every gradient check


def numeric_grad(f, x, entries=None):
    """Central-difference gradient of scalar-valued ``f`` at array ``x``.

    ``entries``: optional 1-d array of flat indices to probe (for large
    inputs); the returned array holds zeros elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    idxs = range(flat.size) if entries is None else np.asarray(entries, dtype=np.int64)
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + STEP
        fp = float(f(x))
        flat[i] = orig - STEP
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * STEP)
    return g


def rel_error(a, b):
    """max_i |a-b| / max(|a|, |b|, 1e-8), elementwise then reduced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_grad(build, x0, rng=None, sample=None):
    """Compare analytic and numeric gradients of ``build`` at ``x0``.

    ``build(t)`` takes a Tensor and returns a scalar Tensor; it must be a
    pure function of its input.  Returns (rel_err, analytic, numeric).
    ``sample``: probe only this many randomly chosen entries (needs rng).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    entries = None
    if sample is not None:
        if rng is None:
            raise ValueError("sample requires an rng")
        entries = rng.choice(x0.size, size=min(sample, x0.size), replace=False)
    t = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    out = build(t)
    out.backward()
    analytic = t.grad.copy()

    def value(arr):
        with no_grad():  # forward values only: no tape to record
            return build(Tensor(arr, dtype=np.float64)).item()

    numeric = numeric_grad(value, x0, entries=entries)
    a, n = analytic.reshape(-1), numeric.reshape(-1)
    if entries is not None:
        a, n = a[entries], n[entries]
    return rel_error(a, n), analytic, numeric
