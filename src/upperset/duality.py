"""Marginal maps, weak duality, and the fundamental duality formula.

For a bivariate map f on X x Y with upper closed values, the marginal map

    f_X(y) = cl union_x f(x, y)

plays the role of the scalar infimal value function.  Weak duality places
f_X(0) inside every negative-conjugate value (-f*)((0, y*), z*); the
fundamental duality formula upgrades this to equality of f_X(0) with the
intersection over all dual pairs, and produces one maximizing y* per proper
scalarization direction, provided the scalarizations of the slice f(x0, .)
are upper semicontinuous at the origin for every direction.

A map accepted here has one leaf, with a polyhedral graph, so each slice
scalarization is polyhedral convex, continuous on dom f(x0, .) and +inf off
it (Rockafellar 1970, Thm 10.2).  Regularity then holds exactly when 0 is
interior to that domain: no row of dom f with a nonzero y-part is tight at
(x0, 0).  No sampled checker runs.

Everything here runs on exact piecewise-linear closed forms.  The partial
infimum is a conjugate: inf_x phi(x, y) = -(phi(., y))*(0) (Rockafellar
1970), the slice cut by ``PiecewiseLinearFn.fix_tail`` and its conjugate
read from the supports of each piece's region, with no LP.  Since (x0, 0)
lies in dom f, phi(x0, 0) < +inf, so each base direction is "improper"
(phi takes -inf somewhere), "unbounded" (the infimum at y = 0 is -inf) or
"proper" (finite); the first two contribute the whole space.  For a proper
direction the attained dual vector is a Lagrange multiplier of y = 0 in
the LP of the marginal value v: its dual program is posed and solved
directly (the one LP left here; the primal is never solved, since v is
known), its optimum must equal v, and the vector is re-verified against the
conjugate identity.  Equality of the two sides is certified by support
values on the direction base.  There is no sampled fallback: a map whose
scalarizations have no closed form (a tilting normal or a scaled base) is
refused with DualityError, by ``marginal_scalarization`` as by every other
entry point here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .conjugate import PiecewiseLinearFn, scalar_conjugate
from .geometry import Cone, Polyhedron
from .linalg import ONE, ZERO, Constraint, Ext, Vec, dot, format_scalar, vec
from .maps import SetValuedMap
from .scalarize import DirectionBase, piecewise_scalarization
from .sets import UpperSet, hausdorff_sq_window, lattice_sup
from .simplex import LPStatus, solve_lp
from .verdict import Verdict, Witness


class DualityError(ValueError):
    """The duality pipeline refuses to run (precondition violated)."""


class BivariateMap:
    """A set-valued map on X x Y with the split of coordinates recorded:
    X = R^n and Y = R^p."""

    def __init__(self, map: SetValuedMap, n: int, p: int):
        if map.domain_dim != n + p:
            raise ValueError("split dimensions do not match the underlying map")
        self.map = map
        self.n = n
        self.p = p

    @property
    def cone(self) -> Cone:
        return self.map.cone

    def evaluate(self, x, y) -> UpperSet:
        return self.map.evaluate(tuple(vec(x)) + tuple(vec(y)))


def marginal_scalarization(f: BivariateMap, zstar, y) -> Ext:
    """inf over x of the scalarization phi at (x, y), exactly: the negated
    conjugate at 0 of the slice phi(., y).  It is -inf when a minus-infinity
    region of phi is reachable at this y, and +inf when no x puts (x, y) in
    dom phi.
    """
    phi = piecewise_scalarization(f.map, vec(zstar))
    if phi is None:
        raise DualityError("marginal scalarization needs a closed form")
    return -scalar_conjugate(phi.fix_tail(y), (ZERO,) * f.n)


def weak_duality_check(f: BivariateMap, pairs: Sequence[tuple[Vec, Vec]]) -> Verdict:
    """f_X(0) inside (-f*)((0, y*), z*) for every pair, exactly.

    A failure here indicates an implementation bug, not a mathematical
    possibility, and is reported with error-grade detail.
    """
    y0 = (ZERO,) * f.p
    checked = 0
    for ystar, zstar in pairs:
        ys, zs = vec(ystar), vec(zstar)
        phi = piecewise_scalarization(f.map, zs)
        if phi is None:
            raise DualityError("marginal scalarization needs a closed form")
        # sup of z*.z over f_X(0) is the negated marginal scalarization, the
        # conjugate at 0 of the slice at y = 0; a Fraction compares exactly
        # with +-inf.
        sup_lhs = scalar_conjugate(phi.fix_tail(y0), (ZERO,) * f.n)
        offset = scalar_conjugate(phi, (ZERO,) * f.n + ys)
        if not sup_lhs <= offset:
            return Verdict.fails(
                Witness(
                    direction=zs,
                    detail=(
                        "weak duality violated: support "
                        f"{format_scalar(sup_lhs)} exceeds conjugate offset "
                        f"{format_scalar(offset)} at y*={ys}; this is an "
                        "implementation bug"
                    ),
                ),
                resolution=checked,
            )
        checked += 1
    return Verdict.holds(resolution=checked, note="inclusion exact on all pairs")


class DualFamily:
    """One maximizing y* per proper scalarization direction."""

    def __init__(self):
        self.entries: dict[Vec, Vec] = {}
        self.properness: dict[Vec, str] = {}

    def to_json(self):
        return {
            "entries": [
                {
                    "zstar": [format_scalar(c) for c in zs],
                    "ystar": [format_scalar(c) for c in ys],
                }
                for zs, ys in self.entries.items()
            ],
            "properness": {
                " ".join(format_scalar(c) for c in zs): status
                for zs, status in self.properness.items()
            },
        }


class DualityReport:
    def __init__(
        self,
        x0: Vec,
        lhs: UpperSet,
        rhs: UpperSet,
        family: DualFamily,
        gap_sq: Ext,
        regularity: dict,
        support_table: list[dict],
    ):
        self.x0 = x0
        self.lhs = lhs
        self.rhs = rhs
        self.family = family
        self.gap_sq = gap_sq
        self.regularity = regularity
        self.support_table = support_table

    def to_json(self):
        return {
            "x0": [format_scalar(c) for c in self.x0],
            "family": self.family.to_json(),
            "gap_sq": format_scalar(self.gap_sq),
            "regularity": self.regularity,
            "support_table": self.support_table,
        }


def fundamental_duality(
    f: BivariateMap,
    x0,
    base: DirectionBase | None = None,
) -> DualityReport:
    """Verifies f_X(0) = intersection of (-f*)((0, y*_{z*}), z*) over the
    proper directions of the base, with one attained y* per direction; the
    gap of the two sides is measured on the box [-10, 10]^m.

    Preconditions checked before running: (x0, 0) lies in dom f, and every
    scalarization of the slice f(x0, .) is upper semicontinuous at 0, which
    for a map of one leaf with a polyhedral graph means that no row of dom f
    with a nonzero y-part is tight at (x0, 0); a violation refuses with a
    diagnostic.  Improper directions contribute the whole space and drop
    out; directions whose scalar infimum is unbounded below are flagged and
    likewise contribute the whole space.
    """
    x0 = vec(x0)
    base = base or DirectionBase.default(f.cone, 16)
    y0 = (ZERO,) * f.p
    if f.evaluate(x0, y0).is_empty:
        raise DualityError(f"(x0, 0) = ({x0}, {y0}) lies outside dom f")
    leaves = f.map.leaves
    if len(leaves) != 1 or leaves[0].graph_rows is None:
        raise DualityError("slices require a map of one leaf with a polyhedral graph")
    for piece in f.map.domain_pieces():
        for n, b in piece.rows:
            if any(n[f.n :]) and dot(n, x0 + y0) == b:
                raise DualityError(
                    "regularity precondition violated: the row "
                    f"({', '.join(format_scalar(c) for c in n)}).(x, y) >= {format_scalar(b)} "
                    "of dom f has a nonzero y-part and is tight at (x0, 0), so 0 lies on "
                    "the boundary of dom f(x0, .) and some slice scalarization is not "
                    "upper semicontinuous there"
                )
    regularity = {"slice_usc": "holds", "x0_in_dom": True}

    family = DualFamily()
    halfspaces: list[UpperSet] = []
    support_table: list[dict] = []
    # Support values of f_X(0) in the proper directions.
    supports: list[tuple[Vec, Ext]] = []
    for zs in base.directions:
        phi = piecewise_scalarization(f.map, zs)
        row: dict = {"zstar": [format_scalar(c) for c in zs]}
        if phi.minus_inf_regions:
            family.properness[zs] = "improper"
            row["status"] = "improper"
            support_table.append(row)
            continue
        # phi(x0, 0) < +inf, so the infimum is finite or -inf.
        v = -scalar_conjugate(phi.fix_tail(y0), (ZERO,) * f.n)
        if type(v) is float and v < 0:
            family.properness[zs] = "unbounded"
            row["status"] = "unbounded"
            support_table.append(row)
            continue
        family.properness[zs] = "proper"
        ystar = _attained_dual_vector(phi, f.n, f.p, v)
        if ystar is None:
            raise DualityError(
                f"scalar dual attainment failed for direction {zs}; "
                "the exact solver should never reach this"
            )
        family.entries[zs] = ystar
        # _attained_dual_vector verified phi*(0, y*) = -v, the offset of the
        # negative conjugate's halfspace at ((0, y*), z*).
        halfspaces.append(UpperSet.from_supports(f.cone, [(zs, -v)]))
        supports.append((zs, -v))
        row.update(
            {
                "status": "proper",
                "ystar": [format_scalar(c) for c in ystar],
                "marginal_value": format_scalar(v),
                "conjugate_offset": format_scalar(-v),
            }
        )
        support_table.append(row)

    lhs = UpperSet.from_supports(f.cone, supports)
    rhs = lattice_sup(halfspaces) if halfspaces else UpperSet.universal(f.cone)
    win = Polyhedron.box([(-10, 10)] * f.cone.dim)
    gap_sq = hausdorff_sq_window(lhs, rhs, win)
    return DualityReport(
        x0=x0,
        lhs=lhs,
        rhs=rhs,
        family=family,
        gap_sq=gap_sq,
        regularity=regularity,
        support_table=support_table,
    )


def _attained_dual_vector(
    phi: PiecewiseLinearFn, n: int, p: int, value: Fraction
) -> Optional[Vec]:
    """A vector y* with phi*(0, y*) = -value, from the exact dual program.

    The primal is min t over {(x, y, t) : t >= a_j.(x,y) + c_j on each
    piece, its region's closure, y = 0}, rows N w >= b in that order; its
    optimal value is the marginal value, already known.  Only its dual is
    solved: max b.lam s.t. N^T lam = e_t (each equality as a pair of rows),
    lam >= 0.  Its optimum must equal value (strong duality); the
    multipliers on the y = 0 rows give the candidate, re-verified against
    the conjugate identity before a few deterministic probes around it are
    tried.
    """
    rows: list[Constraint] = []
    dim = n + p + 1
    for piece in phi.pieces:
        normal = tuple(-c for c in piece.coeffs) + (ONE,)
        rows.append((normal, piece.const))
        for rn, rb in piece.region.closure.rows:
            rows.append((tuple(rn) + (ZERO,), rb))
    eq_start = len(rows)
    for k in range(p):
        e = [ZERO] * dim
        e[n + k] = ONE
        rows.append((tuple(e), ZERO))
        e[n + k] = -ONE
        rows.append((tuple(e), ZERO))
    m = len(rows)
    dual_rows: list[Constraint] = []
    for j in range(dim):
        col = tuple(row[0][j] for row in rows)
        c = ONE if j == dim - 1 else ZERO
        dual_rows += [(col, c), (tuple(-x for x in col), -c)]
    for i in range(m):
        dual_rows.append((tuple(ONE if k == i else ZERO for k in range(m)), ZERO))
    res = solve_lp(tuple(b for _, b in rows), dual_rows, sense="max")
    if res.status is not LPStatus.OPTIMAL or res.value != value:
        return None
    lam = res.point
    candidate = [lam[eq_start + 2 * k] - lam[eq_start + 2 * k + 1] for k in range(p)]
    for probe in _dual_probes(candidate):
        target = (ZERO,) * n + probe
        if scalar_conjugate(phi, target) == -value:
            return probe
    return None


def _dual_probes(candidate: Sequence[Fraction]) -> list[Vec]:
    """The candidate itself first, then a small deterministic search around it."""
    probes: list[Vec] = []
    deltas = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    if len(candidate) == 1:
        for d in deltas:
            probes.append((candidate[0] + d,))
        probes.append((ZERO,))
    else:
        probes.append(tuple(candidate))
        probes.append(tuple(ZERO for _ in candidate))
    return probes
