"""The check registry: a check that is defined but not registered would
never run, in the tests, in ``trimodal verify`` or in the benchmark's
set-up gate."""

import copy
import inspect

import pytest

from trimodal import verify


def test_every_check_function_is_registered_once_under_a_unique_name():
    defined = sorted(name for name, fn in vars(verify).items()
                     if name.startswith("check_") and inspect.isfunction(fn)
                     and fn.__module__ == verify.__name__)
    names = [name for name, _ in verify.ALL_CHECKS]
    assert len(set(names)) == len(names), "duplicate check names"
    assert sorted(fn.__name__ for _, fn in verify.ALL_CHECKS) == defined
    assert all(getattr(verify, fn.__name__) is fn for _, fn in verify.ALL_CHECKS)


# The gradient checks that hand ``check_grad`` a ``forward``, found in their
# source.
STACKED = [(name, fn) for name, fn in verify.ALL_CHECKS
           if name.startswith("grad/") and "forward=" in inspect.getsource(fn)]


def test_the_composite_checks_evaluate_their_probes_stacked():
    names = [name for name, _ in STACKED]
    assert "grad/composite-mmg-loss" in names
    assert "grad/composite-fusion-focal" in names


@pytest.mark.parametrize("fn", [fn for _, fn in STACKED], ids=[name for name, _ in STACKED])
def test_stacked_values_equal_the_per_probe_loop_bit_for_bit(monkeypatch, fn):
    """Running ``forward`` once on the probe stack must give the numeric
    gradient that running ``loss(*forward(t))`` once per probe gives, from
    the same sampled entries."""
    real = verify.check_grad
    compared = []

    def twin(loss, x0, rng=None, sample=None, forward=None):
        if forward is None:
            return real(loss, x0, rng=rng, sample=sample)
        state = copy.deepcopy(rng.bit_generator.state) if rng is not None else None
        out = real(loss, x0, rng=rng, sample=sample, forward=forward)
        if rng is not None:
            rng.bit_generator.state = state
        loop = real(lambda t: loss(*forward(t)), x0, rng=rng, sample=sample)
        assert out[2].tobytes() == loop[2].tobytes(), "stacked and looped numeric gradients differ"
        compared.append(loss)
        return out

    monkeypatch.setattr(verify, "check_grad", twin)
    fn()
    assert compared, "the check passed no forward"
