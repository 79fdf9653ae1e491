"""Fixtures shared by the test modules."""

import sys

import pytest

from upperset import geometry, simplex


@pytest.fixture
def lp_calls(monkeypatch) -> list:
    """(calling function's name, arguments) of every LP solved, whichever
    module calls ``solve_lp``."""
    calls = []
    real = simplex.solve_lp

    def counting(*args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, args))
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "upperset" and getattr(module, "solve_lp", None) is real:
            monkeypatch.setattr(module, "solve_lp", counting)
    return calls


@pytest.fixture
def dd_passes(monkeypatch) -> list:
    """(rows, dim) of every double-description pass run."""
    calls = []
    real = geometry._double_description

    def counting(rows, dim):
        calls.append((tuple(rows), dim))
        return real(rows, dim)

    monkeypatch.setattr(geometry, "_double_description", counting)
    return calls
