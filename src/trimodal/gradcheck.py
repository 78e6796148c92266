"""Finite-difference verification of backward rules.

Runs in float64: callers promote their inputs (and module parameters)
before checking, otherwise the h**2 truncation error of the central
difference drowns in float32 rounding noise.

The checked function is ``loss(*forward(t))``, where ``forward`` maps each
sample along axis 0 on its own (by default it is ``t -> (t,)``).  The
probes of one check, ``x + STEP`` and ``x - STEP`` at each probed entry,
are stacked along axis 0 and run through ``forward`` once; ``loss`` then
runs once per probe, on that probe's rows of each output.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, no_grad

STEP = 1e-5  # the central-difference step of every gradient check


def rel_error(a, b):
    """max_i |a-b| / max(|a|, |b|, 1e-8), elementwise then reduced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_grad(loss, x0, rng=None, sample=None, forward=None):
    """Compare analytic and numeric gradients of ``loss(*forward(t))`` at ``x0``.

    The function must be pure and return a scalar Tensor; ``x0`` needs at
    least one axis.  Returns (rel_err, analytic, numeric).  ``sample``:
    probe only this many randomly chosen entries (needs rng); ``numeric``
    holds zeros elsewhere.
    """
    forward = forward or (lambda t: (t,))
    x0 = np.asarray(x0, dtype=np.float64)
    idxs = np.arange(x0.size)
    if sample is not None:
        if rng is None:
            raise ValueError("sample requires an rng")
        idxs = rng.choice(x0.size, size=min(sample, x0.size), replace=False)
    t = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    loss(*forward(t)).backward()
    analytic = t.grad.copy()

    # rows 2j and 2j+1 of the stack are x0 with entry idxs[j] moved by +STEP and -STEP
    stack = np.repeat(x0.reshape(1, -1), 2 * idxs.size, axis=0)
    rows = np.arange(idxs.size)
    stack[2 * rows, idxs] += STEP
    stack[2 * rows + 1, idxs] -= STEP
    n = len(x0)
    with no_grad():  # forward values only: no tape to record
        outs = forward(Tensor(stack.reshape(-1, *x0.shape[1:]), dtype=np.float64))
        vals = np.array([loss(*(o[i * n:(i + 1) * n] for o in outs)).item()
                         for i in range(2 * idxs.size)])
    numeric = np.zeros_like(x0)
    numeric.reshape(-1)[idxs] = (vals[0::2] - vals[1::2]) / (2.0 * STEP)
    return rel_error(analytic.reshape(-1)[idxs], numeric.reshape(-1)[idxs]), analytic, numeric
