"""Rational vector helpers, and the exact linear solves of ``geometry``'s
integer elimination."""

import json

import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from upperset.geometry import _affine_point, _integer_row, _kernel, rank
from upperset.linalg import (
    HashedVec,
    Vec,
    dot,
    format_scalar,
    frac,
    from_json,
    norm1,
    norm2_sq,
    parse_scalar,
    to_json,
    vec,
    POS_INF,
    NEG_INF,
)

from linalg_oracle import _row_reduce


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def matrix_rank(a) -> int:
    rows = [list(r) for r in a]
    _, pivots = _row_reduce(rows)
    return len(pivots)


def solve(a, b):
    """``(particular, kernel basis)`` of ``A x = b`` by the integer
    elimination; particular is None when the system is inconsistent."""
    rows = [_integer_row(vec(ai) + (frac(bi),)) for ai, bi in zip(a, b)]
    return _affine_point(rows, len(a[0])), _kernel([r[:-1] for r in rows], len(a[0]))


def test_frac_accepts_strings_and_ints():
    assert frac("3/7") == Fraction(3, 7)
    assert frac("0.25") == Fraction(1, 4)
    assert frac(5) == Fraction(5)
    with pytest.raises(TypeError):
        frac(0.25)


def test_dot_dimension_check():
    with pytest.raises(ValueError):
        dot(vec([1, 2]), vec([1]))


def test_norms():
    v = vec([3, -4])
    assert norm1(v) == 7
    assert norm2_sq(v) == 25


def test_solve_affine_unique():
    a = [vec([2, 1]), vec([1, -1])]
    sol, basis = solve(a, [frac(3), frac(0)])
    assert sol == (Fraction(1), Fraction(1))
    assert basis == []


def test_solve_affine_underdetermined():
    a = [vec([1, 1, 0])]
    sol, basis = solve(a, [frac(2)])
    assert sol is not None
    assert dot(a[0], sol) == 2
    assert len(basis) == 2
    for d in basis:
        assert dot(a[0], d) == 0


def test_solve_affine_inconsistent():
    a = [vec([1, 1]), vec([2, 2])]
    sol, _ = solve(a, [frac(1), frac(3)])
    assert sol is None


def test_rank_and_nullspace():
    assert rank([vec([1, 2]), vec([2, 4])]) == 1
    ns = _kernel([(1, 2)], 2)
    assert len(ns) == 1
    assert dot(vec([1, 2]), ns[0]) == 0


def test_scalar_formatting_round_trip():
    for x in (Fraction(3, 7), Fraction(-2), POS_INF, NEG_INF):
        assert parse_scalar(format_scalar(x)) == x
    assert [format_scalar(x) for x in (POS_INF, -POS_INF, NEG_INF)] == ["+inf", "-inf", "-inf"]
    for x in (0.5, 0.0, float("nan")):
        with pytest.raises(ValueError):
            format_scalar(x)


EXACT_SCALARS = st.fractions() | st.sampled_from([POS_INF, NEG_INF])
NESTED_TUPLES = st.recursive(EXACT_SCALARS, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=20)


@given(NESTED_TUPLES)
def test_json_codec_round_trip(x):
    assert from_json(json.loads(json.dumps(to_json(x), allow_nan=False))) == x


def test_json_codec_passes_other_values_through():
    data = {"x": (Fraction(1, 2), POS_INF), "note": "held", "resolution": 3, "exact": True, "witness": None}
    assert to_json(data) == {"x": ["1/2", "+inf"], "note": "held", "resolution": 3, "exact": True, "witness": None}
    with pytest.raises(ValueError):
        to_json([Fraction(1), 0.5])


def test_vec_passes_fractions_through():
    q = Fraction(2, 3)
    v = vec([q, 1, "1/4"])
    assert type(v) is tuple and v == (q, Fraction(1), Fraction(1, 4))
    assert v[0] is q and all(type(c) is Fraction for c in v)
    for bad in ([0.5], [True]):
        with pytest.raises(TypeError):
            vec(bad)


def test_hashed_vec_hashes_each_fraction_once(monkeypatch):
    hashed = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashed.append(q) or real(q))
    x = HashedVec((Fraction(1, 3), Fraction(-2, 7)))
    assert len({hash(x) for _ in range(5)}) == 1
    assert hashed == list(x)
    assert x == tuple(x) and hash(x) == hash(tuple(x))


def test_solve_affine_stays_exact_on_int_input():
    sol, basis = solve([(1, 2), (3, 4)], [1, 1])
    assert sol == (-1, 1) and basis == []
    assert all(type(x) is Fraction for x in sol)
    sol, _ = solve([(3, 0), (0, 1)], [1, 1])
    assert sol == (Fraction(1, 3), Fraction(1))
    # The kernel basis is integral: primitive int vectors, no rounding.
    ns = _kernel([(2, 4, 0)], 3)
    assert all(type(x) is int for d in ns for x in d)
    assert all(dot((2, 4, 0), d) == 0 for d in ns)


def test_matrix_rank_exact_on_large_ints():
    # Floats would round 10**17 + 1 to 10**17 and read rank 1.
    assert rank([(10**17, 1), (10**17 + 1, 1)]) == 2
    assert rank([(10**17, 1), (2 * 10**17, 2)]) == 1
