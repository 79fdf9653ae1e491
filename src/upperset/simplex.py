"""Exact rational linear programming.

One caller is left: ``duality._attained_dual_vector`` poses the dual
program of its marginal LP and reads an attained dual vector off its
optimal point.  It stays until the epigraph of the marginal replaces it: a
double-description read of y* keeps every check, but the benchmark cannot
yet tell it apart from a peak-RSS regression, since its RSS reading counts
the garbage that each pass's re-import leaves, and a pass that allocates
less collects that garbage later.  Base certification
(``scalarize.certify_base``) reads the polar cone of the base off one
double description instead, and every point the geometry returns is read
off a V-form (``geometry.Polyhedron.lowest_point``), never off this solver.

A two-phase tableau simplex over the rationals with Bland's pivoting rule
throughout, so runs terminate and are deterministic: the same instance
always yields the same optimal vertex, which makes every downstream witness
reproducible.  Problem sizes here are desk scale (a handful of variables, a
few dozen constraints).

The tableau is updated sparsely and in place: a pivot divides only the
pivot row's nonzeros and updates the other rows over those columns alone.
The reduced-cost row is computed once per phase and carried through each
pivot as one more row.  Both skip only arithmetic whose exact result is
already known, so every reduced cost and ratio equals the dense Bland
tableau's, and the pivot sequence, vertex and ray are exactly those a
dense tableau would produce.

Every tableau entry is a reduced pair of ints (n, d) for n / d, with d > 0
and gcd(n, d) = 1.  ``_simplex_standard`` converts its Fraction inputs once
and builds the basic values and ray entries back into Fractions; between
the two, no Fraction is built: an update ``x - f * y`` is one integer
numerator over one positive denominator, divided by their gcd, and the
ratio test compares ``rhs / a`` by integer cross-multiplication.  Such a
pair is unique, so every entry equals the one the Fraction operators would
give, and the pivot sequence, vertex and ray are still the dense Bland
tableau's.

The public entry point solves

    maximize / minimize  c . z    subject to    n_i . z >= b_i

with free variables z, reporting an exact optimum, an unbounded improving
ray, or infeasibility.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .linalg import ONE, ZERO, Constraint, Ext, Vec, dot, frac, vec


# A tableau entry: the reduced integer pair (n, d) of n / d, with d > 0.
Pair = tuple[int, int]


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


class LPResult(NamedTuple):
    """Outcome of an exact LP solve.

    For OPTIMAL: ``value`` is the optimal objective in the requested sense and
    ``point`` an optimal vertex.  For UNBOUNDED, ``ray`` is a feasible
    direction improving the objective.
    """

    status: LPStatus
    value: Ext | None = None
    point: Vec | None = None
    ray: Vec | None = None


def _pivot(tableau: list[list[Pair]], basis: list[int], row: int, col: int) -> None:
    """Pivot on (row, col) in place, touching only the pivot row's nonzeros.

    ``tableau`` may carry the reduced-cost row after the constraint rows; it
    is updated like any other row.  Zeros of the pivot row leave every other
    row unchanged, so skipping them yields the same values as a dense pivot.
    Every entry is a reduced pair (n, d), d > 0 and gcd(n, d) = 1, and so is
    every pair stored here: a negative pivot's sign goes to the numerators,
    and each new pair is divided by its gcd.
    """
    pr = tableau[row]
    pn, pd = pr[col]
    if pn < 0:
        pn, pd = -pn, -pd
    terms = []
    for j, (xn, xd) in enumerate(pr):
        if xn:
            if pn != pd:
                xn, xd = xn * pd, xd * pn
                g = gcd(xn, xd)
                xn, xd = xn // g, xd // g
                pr[j] = (xn, xd)
            terms.append((j, xn, xd))
    for r in tableau:
        f = r[col]
        if f[0] and r is not pr:
            _subtract_multiple(r, f, terms)
    basis[row] = col


def _subtract_multiple(r: list[Pair], f: Pair, terms: list[tuple[int, int, int]]) -> None:
    """``r[j] -= f * y`` for each ``(j, yn, yd)`` in ``terms``, y = yn / yd:
    the difference over the denominator ``xd * fd * yd``, divided by its gcd,
    is stored as one new reduced pair per entry."""
    fn, fd = f
    for j, yn, yd in terms:
        xn, xd = r[j]
        d = fd * yd
        n = xn * d - fn * yn * xd
        d *= xd
        g = gcd(n, d)
        r[j] = (n // g, d // g)


def _bland_step(tableau: list[list[Pair]], basis: list[int]) -> int | None:
    """One simplex step under Bland's rule on a tableau of reduced pairs
    whose last row holds the reduced costs.

    An entry's sign is its numerator's, as every denominator is positive.
    The ratio ``r[-1] / a`` of a row is kept as its integer numerator and
    positive denominator and compared by cross-multiplication.  Returns the entering column when the step is unbounded (no leaving row),
    ``None`` after a successful pivot; raises StopIteration at optimality.
    """
    reduced = tableau[-1]
    enter = next((j for j in range(len(reduced) - 1) if reduced[j][0] < 0), None)
    if enter is None:
        raise StopIteration
    leave = None
    best_n = best_d = 0
    for i in range(len(basis)):
        r = tableau[i]
        an, ad = r[enter]
        if an > 0:
            rn, rd = r[-1]
            n, d = rn * ad, rd * an
            if leave is not None:
                lhs, other = n * best_d, best_n * d
                if lhs > other or (lhs == other and basis[i] > basis[leave]):
                    continue
            best_n, best_d, leave = n, d, i
    if leave is None:
        return enter
    _pivot(tableau, basis, leave, enter)
    return None


def _reduced_costs(tableau: list[list[Pair]], basis: list[int], c: list[Pair]) -> list[Pair]:
    """The reduced-cost row ``c - c_B B^-1 A`` with ``-c_B x_B`` in the
    right-hand-side slot, for a tableau in canonical form over ``basis``;
    the tableau, ``c`` and the row are reduced pairs."""
    red = list(c) + [(0, 1)]
    for i, bi in enumerate(basis):
        cb = c[bi]
        if cb[0]:
            terms = [(j, n, d) for j, (n, d) in enumerate(tableau[i]) if n]
            _subtract_multiple(red, cb, terms)
    return red


def _pairs(xs: list[Fraction]) -> list[Pair]:
    return [(x.numerator, x.denominator) for x in xs]


def _simplex_standard(
    c: list[Fraction], a: list[list[Fraction]], b: list[Fraction]
) -> tuple[LPStatus, list[Fraction] | None]:
    """min c.x s.t. A x = b, x >= 0, for A of full row rank.  Returns
    (status, x or improving ray).  Each entry of c, A and b is converted to
    a reduced pair once, and the values returned are built back into
    Fractions."""
    m = len(a)
    n = len(c)
    rows = []
    for i in range(m):
        r = _pairs(a[i]) + [(0, 1)] * m + _pairs([b[i]])
        if b[i] < 0:
            r = [(-x, d) for x, d in r]
        rows.append(r)
    for i in range(m):
        rows[i][n + i] = (1, 1)
    basis = [n + i for i in range(m)]

    rows.append(_reduced_costs(rows, basis, [(0, 1)] * n + [(1, 1)] * m))
    while True:
        try:
            if _bland_step(rows, basis) is not None:
                raise AssertionError("phase-1 objective is bounded below by zero")
        except StopIteration:
            break
    # The phase-1 row's right-hand side is minus the total infeasibility.
    if rows.pop()[-1][0] < 0:
        return LPStatus.INFEASIBLE, None
    # Drive artificials out of the basis, then drop the artificial columns.
    # A has full row rank (solve_lp's standard form carries a -I slack
    # block), so the row of a basic artificial always has a nonzero original
    # entry to pivot on, and no row is redundant.
    for i in range(m):
        if basis[i] >= n:
            _pivot(rows, basis, i, next(j for j in range(n) if rows[i][j][0]))
    rows = [r[:n] + [r[-1]] for r in rows]

    rows.append(_reduced_costs(rows, basis, _pairs(c)))
    while True:
        try:
            enter = _bland_step(rows, basis)
        except StopIteration:
            break
        if enter is not None:
            ray = [ZERO] * n
            ray[enter] = ONE
            for i, bi in enumerate(basis):
                xn, xd = rows[i][enter]
                ray[bi] = Fraction(-xn, xd)
            return LPStatus.UNBOUNDED, ray
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = Fraction(*rows[i][-1])
    return LPStatus.OPTIMAL, x


def solve_lp(objective, constraints: list[Constraint], sense: str = "max") -> LPResult:
    """Solve ``opt c.z  s.t.  n_i.z >= b_i`` with free z, exactly."""
    c_obj = vec(objective)
    dim = len(c_obj)
    cons = [(vec(n), frac(b)) for n, b in constraints]
    for n, _ in cons:
        if len(n) != dim:
            raise ValueError("constraint dimension mismatch")
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    negate = sense == "max"
    m = len(cons)
    if m == 0:
        if all(x == 0 for x in c_obj):
            return LPResult(LPStatus.OPTIMAL, ZERO, (ZERO,) * dim)
        ray = c_obj if negate else vec([-x for x in c_obj])
        return LPResult(LPStatus.UNBOUNDED, ray=ray)

    # Standard form: z = u - w with u, w >= 0 and one slack s_i >= 0 per row,
    #   n_i.(u - w) - s_i = b_i.
    c_std = [(-x if negate else x) for x in c_obj]
    c_std += [(x if negate else -x) for x in c_obj]
    c_std += [ZERO] * m
    a_std: list[list[Fraction]] = []
    b_std: list[Fraction] = []
    for i, (n, b) in enumerate(cons):
        row = list(n) + [-x for x in n] + [ZERO] * m
        row[2 * dim + i] = -ONE
        a_std.append(row)
        b_std.append(b)

    status, xs = _simplex_standard(c_std, a_std, b_std)
    if status is LPStatus.INFEASIBLE:
        return LPResult(LPStatus.INFEASIBLE)
    if status is LPStatus.UNBOUNDED:
        assert xs is not None
        ray = tuple(xs[j] - xs[dim + j] for j in range(dim))
        return LPResult(LPStatus.UNBOUNDED, ray=ray)
    assert xs is not None
    point = tuple(xs[j] - xs[dim + j] for j in range(dim))
    return LPResult(LPStatus.OPTIMAL, dot(c_obj, point), point)
