"""Rational vector helpers and exact linear solves."""

import pytest
from fractions import Fraction

from upperset.linalg import (
    Vec,
    _row_reduce,
    dot,
    format_scalar,
    frac,
    norm1,
    norm2_sq,
    nullspace,
    parse_scalar,
    solve_affine,
    vec,
    POS_INF,
    NEG_INF,
)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def matrix_rank(a) -> int:
    rows = [list(r) for r in a]
    _, pivots = _row_reduce(rows)
    return len(pivots)


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
    sol, basis = solve_affine(a, [frac(3), frac(0)])
    assert sol == (Fraction(1), Fraction(1))
    assert basis == []


def test_solve_affine_underdetermined():
    a = [vec([1, 1, 0])]
    sol, basis = solve_affine(a, [frac(2)])
    assert sol is not None
    assert dot(a[0], sol) == 2
    assert len(basis) == 2
    for d in basis:
        assert dot(a[0], d) == 0


def test_solve_affine_inconsistent():
    a = [vec([1, 1]), vec([2, 2])]
    sol, _ = solve_affine(a, [frac(1), frac(3)])
    assert sol is None


def test_rank_and_nullspace():
    assert matrix_rank([vec([1, 2]), vec([2, 4])]) == 1
    ns = nullspace([vec([1, 2])])
    assert len(ns) == 1
    assert dot(vec([1, 2]), ns[0]) == 0


def test_scalar_formatting_round_trip():
    for x in (Fraction(3, 7), Fraction(-2), POS_INF, NEG_INF):
        assert parse_scalar(format_scalar(x)) == x


def test_solve_affine_stays_exact_on_int_input():
    sol, basis = solve_affine([(1, 2), (3, 4)], [1, 1])
    assert sol == (-1, 1) and basis == []
    assert all(type(x) is Fraction for x in sol)
    sol, _ = solve_affine([(3, 0), (0, 1)], [1, 1])
    assert sol == (Fraction(1, 3), Fraction(1))
    ns = nullspace([(2, 4, 0)])
    assert all(type(x) is Fraction for d in ns for x in d)
    assert all(dot((2, 4, 0), d) == 0 for d in ns)


def test_matrix_rank_exact_on_large_ints():
    # Floats would round 10**17 + 1 to 10**17 and read rank 1.
    assert matrix_rank([(10**17, 1), (10**17 + 1, 1)]) == 2
    assert matrix_rank([(10**17, 1), (2 * 10**17, 2)]) == 1
