"""The check registry: a check that is defined but not registered would
never run, in the tests, in ``trimodal verify`` or in the benchmark's
set-up gate."""

import inspect

from trimodal import verify


def test_every_check_function_is_registered_once_under_a_unique_name():
    defined = sorted(name for name, fn in vars(verify).items()
                     if name.startswith("check_") and inspect.isfunction(fn)
                     and fn.__module__ == verify.__name__)
    names = [name for name, _ in verify.ALL_CHECKS]
    assert len(set(names)) == len(names), "duplicate check names"
    assert sorted(fn.__name__ for _, fn in verify.ALL_CHECKS) == defined
    assert all(getattr(verify, fn.__name__) is fn for _, fn in verify.ALL_CHECKS)
