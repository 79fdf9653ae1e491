"""Fixtures shared by the test modules."""

import sys

import pytest

from upperset import simplex


@pytest.fixture
def lp_calls(monkeypatch) -> list:
    """Arguments of every LP solved, whichever module calls ``solve_lp``."""
    calls = []
    real = simplex.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "upperset" and getattr(module, "solve_lp", None) is real:
            monkeypatch.setattr(module, "solve_lp", counting)
    return calls
