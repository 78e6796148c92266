"""Finite-difference verification of backward rules.

Runs in float64: callers promote their inputs (and module parameters)
before checking, otherwise the h**2 truncation error of the central
difference drowns in float32 rounding noise.

The probes of one check are built as one stack, ``x + STEP`` and
``x - STEP`` at each probed entry, and handed to one evaluator that
returns their values.  By default the evaluator runs ``build`` once per
probe.  A check whose function maps the samples of a batch independently
can pass ``values``, which runs its modules once on the whole stack and
forms each probe's loss from that probe's slice.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, no_grad

STEP = 1e-5  # the central-difference step of every gradient check


def numeric_grad(values, x, entries=None):
    """Central-difference gradient at array ``x`` of a scalar function.

    The probes are one ``[2k, *x.shape]`` float64 stack: rows 2j and 2j+1
    are ``x`` with entry ``entries[j]`` moved by +STEP and -STEP.
    ``values(stack)`` returns the function's value at each probe.
    ``entries``: optional 1-d array of flat indices to probe (for large
    inputs: the stack holds 2k copies of ``x``); the returned array holds
    zeros elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    idxs = np.arange(x.size) if entries is None else np.asarray(entries, dtype=np.int64)
    stack = np.repeat(x.reshape(1, -1), 2 * idxs.size, axis=0)
    rows = np.arange(idxs.size)
    stack[2 * rows, idxs] += STEP
    stack[2 * rows + 1, idxs] -= STEP
    vals = np.asarray(values(stack.reshape(-1, *x.shape)), dtype=np.float64)
    g = np.zeros_like(x)
    g.reshape(-1)[idxs] = (vals[0::2] - vals[1::2]) / (2.0 * STEP)
    return g


def rel_error(a, b):
    """max_i |a-b| / max(|a|, |b|, 1e-8), elementwise then reduced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_grad(build, x0, rng=None, sample=None, values=None):
    """Compare analytic and numeric gradients of ``build`` at ``x0``.

    ``build(t)`` takes a Tensor and returns a scalar Tensor; it must be a
    pure function of its input.  Returns (rel_err, analytic, numeric).
    ``sample``: probe only this many randomly chosen entries (needs rng).
    ``values(stack)``: ``build``'s value at each probe of the stack, for a
    check that can evaluate them together; by default ``build`` runs once
    per probe.
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

    if values is None:
        def values(stack):
            with no_grad():  # forward values only: no tape to record
                return [build(Tensor(p, dtype=np.float64)).item() for p in stack]

    numeric = numeric_grad(values, x0, entries=entries)
    a, n = analytic.reshape(-1), numeric.reshape(-1)
    if entries is not None:
        a, n = a[entries], n[entries]
    return rel_error(a, n), analytic, numeric
