"""Exact rational vectors and small dense linear algebra.

Every geometric computation in this package runs over the rationals so that
lattice and duality identities can be checked exactly.  Vectors are plain
tuples of :class:`fractions.Fraction`; matrices are tuples of row vectors.
Extended values (suprema of unbounded programs, empty-set conventions) are
represented by ``math.inf`` / ``-math.inf``, which order correctly against
Fractions, so "extended rational" means ``Fraction | float`` with only the
two infinities allowed as floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
Ext = Union[Fraction, float]
Constraint = tuple[Vec, Fraction]  # (normal n, offset b) meaning n.z >= b

POS_INF: float = math.inf
NEG_INF: float = -math.inf

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints, strings like ``"3/7"`` or ``"0.25"``, and Fractions.

    Floats are rejected: binary floats silently denormalize rational data.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def vec(values: Iterable) -> Vec:
    return tuple(frac(v) for v in values)


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), ZERO)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vscale(t: Fraction, a: Vec) -> Vec:
    t = frac(t)
    return tuple(t * x for x in a)


def norm1(a: Vec) -> Fraction:
    return sum((abs(x) for x in a), ZERO)


def norminf(a: Vec) -> Fraction:
    return max((abs(x) for x in a), default=ZERO)


def norm2_sq(a: Vec) -> Fraction:
    return sum((x * x for x in a), ZERO)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def scale_to_canonical(a: Vec) -> Vec:
    """Canonical representative of a ray direction.

    Divides by the largest absolute entry, keeping orientation; used to
    deduplicate generators.  Zero vectors pass through unchanged.
    """
    m = norminf(a)
    if m == 0:
        return a
    return tuple(x / m for x in a)


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place fraction-exact Gauss-Jordan; returns (reduced rows, pivot cols).

    Entries may be ints or Fractions: each pivot is made a Fraction before
    its row is divided by it, so int input never turns into floats.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = Fraction(rows[r][c])
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_affine(a: Sequence[Vec], b: Sequence[Fraction]) -> tuple[Vec | None, list[Vec]]:
    """Solve ``A x = b`` exactly.

    Returns ``(particular, nullspace_basis)``; particular is ``None`` when the
    system is inconsistent.  Deterministic pivoting (first nonzero column).
    """
    m = len(a)
    if m == 0:
        raise ValueError("empty system has unknown variable count")
    n = len(a[0])
    aug = [list(a[i]) + [b[i]] for i in range(m)]
    rows, pivots = _row_reduce(aug)
    # Inconsistent iff a pivot lands in the rhs column.
    if n in pivots:
        return None, []
    pivot_set = set(pivots)
    particular = [ZERO] * n
    for i, c in enumerate(pivots):
        particular[c] = rows[i][n]
    basis: list[Vec] = []
    for free in range(n):
        if free in pivot_set:
            continue
        direction = [ZERO] * n
        direction[free] = ONE
        for i, c in enumerate(pivots):
            direction[c] = -rows[i][free]
        basis.append(tuple(direction))
    return tuple(particular), basis


def nullspace(a: Sequence[Vec], n: int | None = None) -> list[Vec]:
    """Basis of the nullspace of A (rows over n columns)."""
    if not a:
        if n is None:
            raise ValueError("need explicit dimension for empty row set")
        return [unit(n, i) for i in range(n)]
    zero_rhs = [ZERO] * len(a)
    _, basis = solve_affine(a, zero_rhs)
    return basis


def format_scalar(x: Ext) -> str:
    """Stable string form for reports: '3/7', '2', '+inf', '-inf'."""
    if isinstance(x, float):
        if x == POS_INF:
            return "+inf"
        if x == NEG_INF:
            return "-inf"
        raise ValueError(f"non-infinite float {x!r} in exact context")
    return str(x)


def parse_scalar(s) -> Ext:
    if isinstance(s, str) and s in ("+inf", "inf"):
        return POS_INF
    if isinstance(s, str) and s == "-inf":
        return NEG_INF
    if isinstance(s, float):
        if math.isinf(s):
            return s
        raise ValueError("floats are not accepted as rational input")
    return frac(s)
