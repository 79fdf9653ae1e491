"""Marginal maps, weak duality, and the fundamental duality formula.

For a bivariate map f on X x Y with upper closed values, the marginal map

    f_X(y) = cl union_x f(x, y)

plays the role of the scalar infimal value function.  Weak duality places
f_X(0) inside every negative-conjugate value (-f*)((0, y*), z*); the
fundamental duality formula upgrades this to equality of f_X(0) with the
intersection over all dual pairs, and produces one maximizing y* per proper
scalarization direction, provided the scalarizations of the slice f(x0, .)
are upper semicontinuous at the origin for every direction.

Everything here runs on exact piecewise-linear closed forms: the per
direction scalar values are supports of each piece's region, read from its
V-form with no LP; the attained dual vector is read off the exact LP dual
(the one LP left here, since it needs multipliers) and re-verified against
the conjugate identity, and equality of the two sides is certified by
support values on the direction base.  There is no sampled fallback: a
map whose scalarizations have no closed form (a tilting normal or a scaled
base) is refused with DualityError, by ``marginal`` as by every other entry
point here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .conjugate import PiecewiseLinearFn, neg_conjugate_scalar_route, scalar_conjugate
from .geometry import Cone, DualPair, Polyhedron
from .linalg import NEG_INF, POS_INF, ZERO, Ext, Vec, dot, format_scalar, vec
from .maps import AffineBody, SetValuedMap
from .scalarize import DirectionBase, piecewise_scalarization
from .sets import UpperSet, hausdorff_sq_window, lattice_sup
from .simplex import Constraint, LPStatus, solve_lp
from .verdict import Status, Verdict, Witness


class DualityError(ValueError):
    """The duality pipeline refuses to run (precondition violated)."""


@dataclass(frozen=True)
class BivariateMap:
    """A set-valued map on X x Y with the split of coordinates recorded."""

    map: SetValuedMap
    n: int  # dimension of X
    p: int  # dimension of Y

    def __post_init__(self):
        if self.map.domain_dim != self.n + self.p:
            raise ValueError("split dimensions do not match the underlying map")

    @property
    def cone(self) -> Cone:
        return self.map.cone

    def evaluate(self, x, y) -> UpperSet:
        return self.map.evaluate(tuple(vec(x)) + tuple(vec(y)))

    def slice_at(self, x0) -> SetValuedMap:
        """The map y -> f(x0, y) for constant-normal affine bodies."""
        body = self.map.body
        if not isinstance(body, AffineBody) or not body.fixed_normals:
            raise DualityError("slices require a constant-normal affine body")
        x0 = vec(x0)
        offsets = []
        y_coeffs = []
        for i in range(len(body.normals)):
            lx = body.x_coeffs[i][: self.n]
            ly = body.x_coeffs[i][self.n :]
            offsets.append(body.offsets[i] + dot(lx, x0))
            y_coeffs.append(ly)
        return SetValuedMap(
            self.p,
            self.cone,
            AffineBody(
                normals=body.normals,
                offsets=tuple(offsets),
                x_coeffs=tuple(y_coeffs),
            ),
            name=f"{self.map.name or 'bivariate'}-slice",
        )


def marginal_scalarization(f: BivariateMap, zstar, y) -> Ext:
    """inf over x of the scalarization at (x, y), exactly.

    With the closed piecewise-linear form phi this is the least piece value
    over the slices of the piece regions at this y; the infimum is -inf when
    a minus-infinity region of phi is reachable at this y, and +inf when no
    x puts (x, y) in dom phi.
    """
    zs = vec(zstar)
    yv = vec(y)
    phi = piecewise_scalarization(f.map, zs)
    if phi is None:
        raise DualityError("marginal scalarization needs a closed form")
    return _pl_partial_infimum(phi, f.n, yv)


def _pl_partial_infimum(phi: PiecewiseLinearFn, n_free: int, fixed: Vec) -> Ext:
    """inf over the first n_free coordinates with the rest fixed: the least
    piece value over its region's slice, read from the slice's V-form."""
    for r in phi.minus_inf_regions:
        if not Polyhedron(n_free, _fix_tail(r.rows, n_free, fixed)).is_empty:
            return NEG_INF
    best: Ext = POS_INF
    for piece in phi.pieces:
        region = Polyhedron(n_free, _fix_tail(piece.region.rows, n_free, fixed))
        if region.is_empty:
            continue
        s = region.support(tuple(-c for c in piece.coeffs[:n_free]))
        if s == POS_INF:
            return NEG_INF
        best = min(best, -s + dot(piece.coeffs[n_free:], fixed) + piece.const)
    return best


def _fix_tail(rows: Sequence[Constraint], n_free: int, fixed: Vec) -> list[Constraint]:
    out: list[Constraint] = []
    for n, b in rows:
        head = n[:n_free]
        tail = n[n_free:]
        out.append((head, b - dot(tail, fixed)))
    return out


def marginal(f: BivariateMap, y, base: DirectionBase | None = None) -> UpperSet:
    """The marginal value f_X(y), assembled from the marginal scalarization
    offsets over the base.

    Exact whenever the base contains the facet normals, which holds for
    every packaged fixture.  Raises DualityError, as marginal_scalarization
    does, for a map with no closed-form scalarization.
    """
    yv = vec(y)
    base = base or DirectionBase.default(f.cone, 16)
    return UpperSet.from_supports(
        f.cone, ((u, -marginal_scalarization(f, u, yv)) for u in base.directions)
    )


def weak_duality_check(f: BivariateMap, pairs: Sequence[tuple[Vec, Vec]]) -> Verdict:
    """f_X(0) inside (-f*)((0, y*), z*) for every pair, exactly.

    A failure here indicates an implementation bug, not a mathematical
    possibility, and is reported with error-grade detail.
    """
    y0 = (ZERO,) * f.p
    checked = 0
    for ystar, zstar in pairs:
        ys, zs = vec(ystar), vec(zstar)
        lhs_support = marginal_scalarization(f, zs, y0)
        # sup of z*.z over f_X(0) is the negated marginal scalarization.
        sup_lhs: Ext
        if lhs_support == POS_INF:
            sup_lhs = NEG_INF
        elif lhs_support == NEG_INF:
            sup_lhs = POS_INF
        else:
            sup_lhs = -lhs_support
        xstar = (ZERO,) * f.n + tuple(ys)
        conj = neg_conjugate_scalar_route(f.map, DualPair.of(xstar, zs))
        if not _ext_leq(sup_lhs, conj.offset):
            return Verdict.fails(
                Witness(
                    direction=zs,
                    detail=(
                        "weak duality violated: support "
                        f"{format_scalar(sup_lhs)} exceeds conjugate offset "
                        f"{format_scalar(conj.offset)} at y*={ys}; this is an "
                        "implementation bug"
                    ),
                ),
                resolution=checked,
            )
        checked += 1
    return Verdict.holds(resolution=checked, note="inclusion exact on all pairs")


def _ext_leq(a: Ext, b: Ext) -> bool:
    if a == NEG_INF or b == POS_INF:
        return True
    if b == NEG_INF:
        return a == NEG_INF
    if a == POS_INF:
        return False
    return a <= b


@dataclass
class DualFamily:
    """One maximizing y* per proper scalarization direction."""

    entries: dict[Vec, Vec] = field(default_factory=dict)
    properness: dict[Vec, str] = field(default_factory=dict)

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


@dataclass
class DualityReport:
    x0: Vec
    lhs: UpperSet
    rhs: UpperSet
    family: DualFamily
    gap_sq: Ext
    regularity: dict
    support_table: list[dict]

    def to_json(self):
        return {
            "x0": [format_scalar(c) for c in self.x0],
            "family": self.family.to_json(),
            "gap_sq": format_scalar(self.gap_sq) if not isinstance(self.gap_sq, float) else self.gap_sq,
            "regularity": self.regularity,
            "support_table": self.support_table,
        }


def fundamental_duality(
    f: BivariateMap,
    x0,
    base: DirectionBase | None = None,
    window: Fraction = Fraction(10),
) -> DualityReport:
    """Verifies f_X(0) = intersection of (-f*)((0, y*_{z*}), z*) over the
    proper directions of the base, with one attained y* per direction.

    Preconditions checked before running: (x0, 0) lies in dom f, and every
    scalarization of the slice f(x0, .) is upper semicontinuous at 0; a
    violation refuses with a diagnostic.  Improper directions contribute the
    whole space and drop out; directions whose scalar infimum is unbounded
    below are flagged and likewise contribute the whole space.
    """
    from .continuity import CheckerConfig, check_scalar_semicontinuity

    x0 = vec(x0)
    base = base or DirectionBase.default(f.cone, 16)
    y0 = (ZERO,) * f.p
    if f.evaluate(x0, y0).is_empty:
        raise DualityError(f"(x0, 0) = ({x0}, {y0}) lies outside dom f")
    slice_map = f.slice_at(x0)
    slice_verdict = check_scalar_semicontinuity(
        slice_map, y0, base, CheckerConfig(), "usc"
    )
    regularity = {
        "slice_usc": slice_verdict.status.value,
        "x0_in_dom": True,
    }
    if slice_verdict.status is Status.FAILS:
        raise DualityError(
            "regularity precondition violated: a slice scalarization is not "
            f"upper semicontinuous at 0 (direction {slice_verdict.witness.direction})"
        )

    family = DualFamily()
    halfspaces: list[UpperSet] = []
    support_table: list[dict] = []
    # Support values of f_X(0) in the directions that bound it; -inf makes it empty.
    supports: list[tuple[Vec, Ext]] = []
    for zs in base.directions:
        phi = piecewise_scalarization(f.map, zs)
        if phi is None:
            raise DualityError("fundamental duality needs closed-form scalarizations")
        row: dict = {"zstar": [format_scalar(c) for c in zs]}
        if phi.improper_below:
            family.properness[zs] = "improper"
            row["status"] = "improper"
            support_table.append(row)
            continue
        if phi.never_finite:
            family.properness[zs] = "degenerate"
            row["status"] = "degenerate"
            support_table.append(row)
            supports.append((zs, NEG_INF))
            continue
        v = _pl_partial_infimum(phi, f.n, (ZERO,) * f.p)
        if v == NEG_INF:
            family.properness[zs] = "unbounded"
            row["status"] = "unbounded"
            support_table.append(row)
            continue
        if v == POS_INF:
            family.properness[zs] = "infeasible-at-0"
            row["status"] = "infeasible-at-0"
            support_table.append(row)
            supports.append((zs, NEG_INF))
            continue
        family.properness[zs] = "proper"
        ystar = _attained_dual_vector(phi, f.n, f.p, v)
        if ystar is None:
            raise DualityError(
                f"scalar dual attainment failed for direction {zs}; "
                "the exact solver should never reach this"
            )
        family.entries[zs] = ystar
        pair = DualPair.of((ZERO,) * f.n + tuple(ystar), zs)
        conj = neg_conjugate_scalar_route(f.map, pair)
        if conj.offset != -v:
            raise DualityError(
                f"conjugate identity failed for direction {zs}: "
                f"{format_scalar(conj.offset)} vs {format_scalar(-v)}"
            )
        halfspaces.append(conj.value)
        supports.append((zs, -v))
        row.update(
            {
                "status": "proper",
                "ystar": [format_scalar(c) for c in ystar],
                "marginal_value": format_scalar(v),
                "conjugate_offset": format_scalar(conj.offset),
            }
        )
        support_table.append(row)

    lhs = UpperSet.from_supports(f.cone, supports)
    rhs = lattice_sup(halfspaces) if halfspaces else UpperSet.universal(f.cone)
    win = Polyhedron.box([(-window, window)] * f.cone.dim)
    # The gap is zero when a direction certified f_X(0) empty.
    lhs_empty = any(s == NEG_INF for _, s in supports)
    gap_sq = ZERO if lhs_empty else hausdorff_sq_window(lhs, rhs, win)
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
    """A vector y* with phi*(0, y*) = -value, from the exact LP dual.

    The primal is min t over {(x, y, t) : t >= a_j.(x,y) + c_j on each
    piece, dom rows, y = 0}; the multipliers on the y = 0 rows give the
    candidate, which is then re-verified against the conjugate identity
    (both orientations are tried, making the sign convention irrelevant).
    """
    rows: list[Constraint] = []
    dim = n + p + 1
    for piece in phi.pieces:
        normal = tuple(-c for c in piece.coeffs) + (Fraction(1),)
        rows.append((normal, piece.const))
        for rn, rb in piece.region.rows:
            rows.append((tuple(rn) + (ZERO,), rb))
    eq_start = len(rows)
    for k in range(p):
        e = [ZERO] * dim
        e[n + k] = Fraction(1)
        rows.append((tuple(e), ZERO))
        e[n + k] = Fraction(-1)
        rows.append((tuple(e), ZERO))
    obj = (ZERO,) * (n + p) + (Fraction(1),)
    res = solve_lp(obj, rows, sense="min", want_dual=True)
    if res.status is not LPStatus.OPTIMAL or res.dual is None:
        return None
    if res.value != value:
        return None
    candidate = []
    for k in range(p):
        lam_pos = res.dual[eq_start + 2 * k]
        lam_neg = res.dual[eq_start + 2 * k + 1]
        candidate.append(lam_pos - lam_neg)
    for sign in (1, -1):
        ystar = tuple(sign * c for c in candidate)
        target = (ZERO,) * n + ystar
        if scalar_conjugate(phi, target) == -value:
            return ystar
    # Fall back to a small deterministic search around the candidate.
    for probe in _dual_probes(candidate):
        target = (ZERO,) * n + probe
        if scalar_conjugate(phi, target) == -value:
            return probe
    return None


def _dual_probes(candidate: Sequence[Fraction]) -> list[Vec]:
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
