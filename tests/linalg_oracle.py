"""Fraction Gauss-Jordan elimination: the test oracle for the package's
integer elimination (``geometry._eliminate`` and its back-elimination).

Not a test module; the geometry, scalarize and linalg tests import it.
"""

from fractions import Fraction
from typing import Sequence

from upperset.linalg import ONE, ZERO, Vec


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
        return [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
    zero_rhs = [ZERO] * len(a)
    _, basis = solve_affine(a, zero_rhs)
    return basis
