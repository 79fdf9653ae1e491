"""Set-valued maps into the lattice of upper closed sets.

Maps are drawn from a closed constructor family rather than arbitrary code:

* ``AffineBody``: f(x) = {z : (n_i + sum_k x_k m_ik) . z >= q_i + l_i . x}.
  With constant normals (no m terms) the graph is a polyhedron, hence the
  map is convex; the optional x-dependent normal terms cover tilting
  halfspace families, which are generally not convex.
* ``ScaledBody``: f(x) = alpha(x) . A for an upper closed convex base A and
  an affine nonnegative alpha, with the convention 0 . A = C (so scaled
  families stay defined at the parameter boundary).
* ``PiecewiseBody``: a single affine guard inequality selecting between two
  sub-bodies; the guard-true branch wins on the boundary.  Used for
  "empty below a threshold" style maps.

Every constructor instance evaluates to a value in the lattice, and the
upper-closedness of values is a spot-checkable invariant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .geometry import Cone, Polyhedron, dual_cone, project_out
from .linalg import (
    ONE,
    ZERO,
    Constraint,
    Mat,
    Vec,
    dot,
    format_scalar,
    frac,
    norm1,
    parse_scalar,
    vec,
)
from .sets import (
    UpperSet,
    embed_point,
    member,
    minkowski_sum,
    scale,
    set_order_leq,
    check_upper_closed,
)
from .verdict import Verdict, Witness


class MapError(ValueError):
    pass


@dataclass(frozen=True)
class AffineForm:
    """alpha(x) = coeffs . x + const."""

    coeffs: Vec
    const: Fraction

    def __call__(self, x: Vec) -> Fraction:
        return dot(self.coeffs, x) + self.const

    @staticmethod
    def of(coeffs, const) -> "AffineForm":
        return AffineForm(vec(coeffs), frac(const))


@dataclass(frozen=True)
class AffineBody:
    """Halfspace family {z : N(x) z >= q + L x} with affine N(x)."""

    normals: Mat                      # n_i, one row per constraint, z-space
    offsets: Vec                      # q_i
    x_coeffs: Mat                     # l_i, one row per constraint, x-space
    x_normals: Optional[tuple[Mat, ...]] = None  # per row: one z-vector per x-coord

    def __post_init__(self):
        rows = len(self.normals)
        if len(self.offsets) != rows or len(self.x_coeffs) != rows:
            raise MapError("row count mismatch in affine body")
        if self.x_normals is not None and len(self.x_normals) != rows:
            raise MapError("x-normal count mismatch in affine body")

    @property
    def fixed_normals(self) -> bool:
        if self.x_normals is None:
            return True
        return all(
            all(all(c == 0 for c in v) for v in per_row) for per_row in self.x_normals
        )

    def normal_at(self, i: int, x: Vec) -> Vec:
        n = self.normals[i]
        if self.x_normals is None:
            return n
        acc = list(n)
        for k, xv in enumerate(x):
            if xv != 0:
                mv = self.x_normals[i][k]
                acc = [a + xv * m for a, m in zip(acc, mv)]
        return tuple(acc)

    def rows_at(self, x: Vec) -> list[Constraint]:
        return [
            (self.normal_at(i, x), self.offsets[i] + dot(self.x_coeffs[i], x))
            for i in range(len(self.normals))
        ]

    def graph_rows(self) -> list[Constraint]:
        """The graph {(x, z) : N z >= q + L x} of a constant-normal body, as
        rows (-l_i, n_i) . (x, z) >= q_i."""
        return [
            (tuple(-c for c in l) + tuple(n), q)
            for n, q, l in zip(self.normals, self.offsets, self.x_coeffs)
        ]


@dataclass(frozen=True)
class ScaledBody:
    base: UpperSet
    alpha: AffineForm


@dataclass(frozen=True)
class PiecewiseBody:
    guard: Constraint            # g . x >= h; true branch wins on the boundary
    when_true: "Body"
    when_false: "Body"


Body = AffineBody | ScaledBody | PiecewiseBody


def _body_leaves(
    body: Body, region_rows: Sequence[Constraint] = (), strict: tuple[bool, ...] = ()
) -> Iterator[tuple[list[Constraint], tuple[bool, ...], Body]]:
    """(region rows, strictness, leaf body) for every leaf of the guard tree,
    true branch first: the true branch's region gains the guard row, the
    false branch's its negation, which holds strictly there (g.x < h)."""
    if isinstance(body, PiecewiseBody):
        g, h = body.guard
        yield from _body_leaves(body.when_true, [*region_rows, (g, h)], (*strict, False))
        yield from _body_leaves(
            body.when_false, [*region_rows, (tuple(-c for c in g), -h)], (*strict, True)
        )
    else:
        yield list(region_rows), strict, body


def _region_nonempty(rows: Sequence[Constraint], strict: Sequence[bool], n: int) -> bool:
    """Whether some x in R^n satisfies the rows, strictly where flagged: the
    largest margin s <= 1 on the strict rows is positive."""
    lifted = [(tuple(g) + (-ONE if st else ZERO,), h) for (g, h), st in zip(rows, strict)]
    lifted.append(((ZERO,) * n + (-ONE,), -ONE))
    return Polyhedron(n + 1, lifted).support((ZERO,) * n + (ONE,)) > 0


def _guard_side(guard: Constraint, x0: Vec, r: Fraction) -> Optional[bool]:
    """The guard's value on the whole l-inf box of radius r around x0, or
    None when the box straddles the guard."""
    g, h = guard
    center, reach = dot(g, x0), r * norm1(g)
    if center - reach >= h:
        return True
    if center + reach < h:
        return False
    return None


def _body_convex(body: Body) -> bool:
    if isinstance(body, AffineBody):
        return body.fixed_normals
    if isinstance(body, ScaledBody):
        # alpha(x) A has a convex graph exactly when the base A is convex.
        return body.base.is_convex
    # A piecewise map with one constant-empty branch is convex exactly when
    # the other branch is: empty values make the convexity condition vacuous.
    t_empty = _is_constant_empty(body.when_true)
    f_empty = _is_constant_empty(body.when_false)
    if t_empty and f_empty:
        return True
    if t_empty:
        return _body_convex(body.when_false)
    if f_empty:
        return _body_convex(body.when_true)
    return False


def _body_convex_valued(body: Body) -> bool:
    """Affine values are single polyhedra and scaled values are copies of the
    base; only a polyhedral base with several pieces can be non-convex."""
    if isinstance(body, AffineBody):
        return True
    if isinstance(body, ScaledBody):
        return body.base.is_convex
    return _body_convex_valued(body.when_true) and _body_convex_valued(body.when_false)


def _is_constant_empty(body: Body) -> bool:
    if not isinstance(body, AffineBody):
        return False
    if not body.fixed_normals:
        return False
    for i, n in enumerate(body.normals):
        if all(c == 0 for c in n) and all(c == 0 for c in body.x_coeffs[i]):
            if body.offsets[i] > 0:
                return True
    return False


def constant_empty_body(n: int, m: int) -> AffineBody:
    """A body evaluating to the empty set everywhere (0 . z >= 1)."""
    return AffineBody(
        normals=((tuple([ZERO] * m)),),
        offsets=(Fraction(1),),
        x_coeffs=((tuple([ZERO] * n)),),
    )


def constant_cone_body(cone: Cone, n: int) -> AffineBody:
    """A body evaluating to the ordering cone C everywhere."""
    return AffineBody(
        normals=tuple(cone.halfspaces),
        offsets=tuple(ZERO for _ in cone.halfspaces),
        x_coeffs=tuple(tuple([ZERO] * n) for _ in cone.halfspaces),
    )


class SetValuedMap:
    """A map from R^n into the upper closed sets over a fixed cone."""

    def __init__(
        self,
        domain_dim: int,
        cone: Cone,
        body: Body,
        name: str = "",
        convex: Optional[bool] = None,
    ):
        self.domain_dim = domain_dim
        self.cone = cone
        self.body = body
        self.name = name
        self.convex = _body_convex(body) if convex is None else convex
        self.convex_valued = _body_convex_valued(body)
        self._value_cache: dict[Vec, UpperSet] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"SetValuedMap({self.name or type(self.body).__name__}, n={self.domain_dim})"

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x) -> UpperSet:
        xv = vec(x)
        if len(xv) != self.domain_dim:
            raise MapError(f"expected x of dimension {self.domain_dim}")
        if xv in self._value_cache:
            return self._value_cache[xv]
        value = self._evaluate_body(self.body, xv)
        self._value_cache[xv] = value
        return value

    def _evaluate_body(self, body: Body, x: Vec) -> UpperSet:
        if isinstance(body, AffineBody):
            rows = body.rows_at(x)
            dual = dual_cone(self.cone)
            for n, _ in rows:
                if not dual.contains(tuple(-c for c in n)):
                    raise MapError(
                        "value is not upper closed at this point: "
                        f"normal {n} leaves the positive dual cone"
                    )
            return UpperSet(self.cone, pieces=[Polyhedron(self.cone.dim, rows)])
        if isinstance(body, ScaledBody):
            a = body.alpha(x)
            if a < 0:
                return UpperSet.empty(self.cone)
            return scale(body.base, a)
        n, b = body.guard
        branch = body.when_true if dot(n, x) >= b else body.when_false
        return self._evaluate_body(branch, x)

    # -- domain --------------------------------------------------------------

    def domain_pieces(self) -> list[Polyhedron]:
        """Nonempty polyhedra whose union is dom f = {x : f(x) nonempty}."""
        pieces = [self._domain_of(leaf, rows) for rows, _, leaf in _body_leaves(self.body)]
        return [p for p in pieces if p is not None and not p.is_empty]

    def _domain_of(self, body: Body, region_rows: list[Constraint]) -> Optional[Polyhedron]:
        """Where a leaf's value is nonempty within its region; None when the
        leaf is empty throughout."""
        n = self.domain_dim
        if isinstance(body, ScaledBody):
            p = Polyhedron(n, region_rows + [(body.alpha.coeffs, -body.alpha.const)])
            return None if p.is_empty or body.base.is_empty else p
        if _is_constant_empty(body):
            return None
        if not body.fixed_normals:
            return Polyhedron(n, region_rows)
        pad = (ZERO,) * self.cone.dim
        lifted = body.graph_rows() + [(tuple(r) + pad, b) for r, b in region_rows]
        return project_out(Polyhedron(n + self.cone.dim, lifted), list(range(n, n + self.cone.dim)))

    def in_domain(self, x) -> bool:
        return not self.evaluate(x).is_empty

    # -- exact box certificates (constant-normal affine branches) ------------

    def box_value_intersection(self, x0: Vec, radius: Fraction) -> Optional[Polyhedron]:
        """Exact polyhedron contained in every f(x), x in the box around x0.

        Available when a single constant-normal affine branch covers the box;
        row-wise the worst case of q + l.x over an l-inf box is rational.
        Returns None when no exact certificate is available (the caller then
        falls back to sampled intersections).
        """
        body = self.body
        while isinstance(body, PiecewiseBody):
            side = _guard_side(body.guard, x0, radius)
            if side is None:
                return None
            body = body.when_true if side else body.when_false
        if not isinstance(body, AffineBody) or not body.fixed_normals:
            return None
        if _is_constant_empty(body):
            return Polyhedron.empty(self.cone.dim)
        rows: list[Constraint] = []
        for i, n in enumerate(body.normals):
            worst = body.offsets[i] + dot(body.x_coeffs[i], x0) + radius * norm1(body.x_coeffs[i])
            rows.append((n, worst))
        return Polyhedron(self.cone.dim, rows)


# -- invariants, convexity, graph interior -------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic, seeded sample coordinates (dyadic rationals)."""

    seed: int = 0
    count: int = 24
    radius: Fraction = Fraction(4)

    def points(self, dim: int) -> list[Vec]:
        rng = random.Random(self.seed)
        out = []
        denom = 8
        bound = math.floor(denom * self.radius)
        for _ in range(self.count):
            out.append(tuple(Fraction(rng.randint(-bound, bound), denom) for _ in range(dim)))
        return out

    def weights(self) -> list[Fraction]:
        rng = random.Random(self.seed + 1)
        return [Fraction(rng.randint(1, 7), 8) for _ in range(self.count)]


def upper_closedness_spotcheck(f: SetValuedMap, plan: SamplePlan | None = None) -> bool:
    plan = plan or SamplePlan()
    for x in plan.points(f.domain_dim):
        if not check_upper_closed(f.evaluate(x)):
            return False
    return True


def convexity_check(f: SetValuedMap, plan: SamplePlan | None = None) -> Verdict:
    """Sampled midpoint test of f(t x1 + (1-t) x2) <= t f(x1) + (1-t) f(x2).

    Rejects union-valued maps.  Returns a witness triple on the first
    violation; holds is at sample resolution for oracle-backed values and
    exact per sample otherwise.
    """
    plan = plan or SamplePlan()
    pts = plan.points(f.domain_dim)
    ts = plan.weights()
    examined = 0
    for i in range(0, len(pts) - 1, 2):
        x1, x2 = pts[i], pts[i + 1]
        t = ts[i // 2] if i // 2 < len(ts) else Fraction(1, 2)
        v1, v2 = f.evaluate(x1), f.evaluate(x2)
        if not v1.is_convex or not v2.is_convex:
            raise MapError("convexity check rejects union-valued maps")
        if v1.is_empty or v2.is_empty:
            continue
        mid = tuple(t * a + (1 - t) * b for a, b in zip(x1, x2))
        rhs = minkowski_sum(scale(v1, t), scale(v2, 1 - t))
        cmpres = set_order_leq(f.evaluate(mid), rhs)
        examined += 1
        if not cmpres.value:
            return Verdict.fails(
                Witness(
                    x=mid,
                    z=cmpres.witness if cmpres.witness and len(cmpres.witness) == f.cone.dim else None,
                    detail=f"midpoint condition violated for x1={x1}, x2={x2}, t={t}",
                ),
                resolution=examined,
            )
    return Verdict.holds(resolution=examined, note="sampled midpoint grid")


def _box_in_graph(f: SetValuedMap, x0: Vec, z0: Vec, r: Fraction) -> bool:
    """Exact check that box(x0, r) x box(z0, r) lies inside the graph of f:
    every leaf of the guard tree whose region (strict on false sides) meets
    the x-box must contain the box.  A leaf whose region misses the x-box
    cannot matter, even where the box straddles one of its guards."""
    box = Polyhedron.box([(c - r, c + r) for c in x0]).rows
    return all(
        _leaf_box_in_graph(f, leaf, x0, z0, r)
        for rows, strict, leaf in _body_leaves(f.body)
        if _region_nonempty([*rows, *box], (*strict,) + (False,) * len(box), f.domain_dim)
    )


def _leaf_box_in_graph(f: SetValuedMap, body: Body, x0: Vec, z0: Vec, r: Fraction) -> bool:
    """Whether every value of the leaf ``body`` over the x-box contains the z-box."""
    if isinstance(body, AffineBody):
        if _is_constant_empty(body):
            return False
        if not body.fixed_normals:
            # Conservative interval bound on the bilinear row terms.
            for i in range(len(body.normals)):
                margin = dot(body.normals[i], z0) - body.offsets[i] - dot(body.x_coeffs[i], x0)
                slack = r * (norm1(body.normals[i]) + norm1(body.x_coeffs[i]))
                if body.x_normals is not None:
                    for k in range(f.domain_dim):
                        mv = body.x_normals[i][k]
                        margin += x0[k] * dot(mv, z0)
                        slack += r * (abs(x0[k]) * norm1(mv) + abs(dot(mv, z0)) + r * norm1(mv))
                if margin < slack:
                    return False
            return True
        for i, n in enumerate(body.normals):
            lhs = dot(n, z0) - r * norm1(n)
            rhs = body.offsets[i] + dot(body.x_coeffs[i], x0) + r * norm1(body.x_coeffs[i])
            if lhs < rhs:
                return False
        return True
    if isinstance(body, ScaledBody):
        # alpha is affine, the base convex with 0 in it, so values grow with
        # alpha; checking the z-box corners at the smallest alpha is exact.
        amin = body.alpha(x0) - r * norm1(body.alpha.coeffs)
        if amin < 0:
            return False
        val = scale(body.base, amin) if amin > 0 else embed_point((ZERO,) * f.cone.dim, f.cone)
        m = f.cone.dim
        corners = _box_corners(z0, r, m)
        return all(member(val, c) for c in corners)
    raise MapError("unknown body kind")


def _box_corners(center: Vec, r: Fraction, dim: int) -> list[Vec]:
    out = []
    for mask in range(2**dim):
        out.append(
            tuple(center[i] + (r if (mask >> i) & 1 else -r) for i in range(dim))
        )
    return out


def graph_interior_witness(f: SetValuedMap, x0) -> Verdict:
    """Searches for (z0, r), r = 2^-k for k = 0..8, with a product box around
    (x0, z0) inside gr f."""
    x0 = vec(x0)
    radii = [Fraction(1, 2**k) for k in range(0, 9)]
    v0 = f.evaluate(x0)
    if v0.is_empty:
        return Verdict.fails(
            Witness(x=x0, detail="value at the point is empty"), note="x0 outside dom f"
        )
    if v0.is_polyhedral:
        piece_dims = [p.affine_dim for p in v0.pieces]
        if max(piece_dims) < f.cone.dim:
            return Verdict.fails(
                Witness(x=x0, detail="value has empty interior (low affine dimension)"),
            )
    # Exact failure: x0 lies in the closure of a nonempty region where the
    # map is constant-empty, so every x-ball around x0 meets empty values.
    for rows, strict, leaf in _body_leaves(f.body):
        if (
            _is_constant_empty(leaf)
            and all(dot(g, x0) >= h for g, h in rows)
            and _region_nonempty(rows, strict, f.domain_dim)
        ):
            return Verdict.fails(
                Witness(x=x0, detail="empty values on one side of the guard"),
            )
    candidates = _interior_candidates(f, x0, radii[0])
    for z0 in candidates:
        for r in radii:
            if _box_in_graph(f, x0, z0, r):
                return Verdict.holds(
                    witness=Witness(x=x0, z=z0, radius=r),
                    note="product box certified inside the graph",
                )
    return Verdict.inconclusive(
        note="no interior witness found among candidates", resolution=len(radii)
    )


def _interior_candidates(f: SetValuedMap, x0: Vec, r: Fraction) -> list[Vec]:
    out: list[Vec] = []
    samples = [x0]
    for i in range(f.domain_dim):
        for s in (r, -r):
            samples.append(tuple(x0[j] + (s if j == i else 0) for j in range(f.domain_dim)))
    stacked: list[Constraint] = []
    polyhedral = True
    for x in samples:
        v = f.evaluate(x)
        if v.is_empty:
            polyhedral = False
            break
        if not v.is_polyhedral:
            polyhedral = False
            break
        for p in v.pieces:
            stacked.extend(p.rows)
    if polyhedral and stacked:
        common = Polyhedron(f.cone.dim, stacked)
        ip = common.interior_point()
        if ip is not None:
            out.append(ip)
    v0 = f.evaluate(x0)
    if not v0.is_polyhedral:
        # Nudge a membership-certified point up along an interior cone
        # direction, when the cone has one.
        base_pts = [
            vec([1, 2]),
            vec([0, 1]),
            vec([2, 2]),
            (ZERO,) * f.cone.dim,
        ]
        bump = None
        if f.cone.has_interior:
            gsum = [ZERO] * f.cone.dim
            for g in f.cone.generators:
                gsum = [a + b for a, b in zip(gsum, g)]
            bump = tuple(gsum)
        for p in base_pts:
            if len(p) != f.cone.dim:
                continue
            if member(v0, p):
                out.append(p)
                if bump is not None:
                    out.append(tuple(a + b for a, b in zip(p, bump)))
    elif v0.is_polyhedral and not out:
        for p in v0.pieces:
            ip = p.interior_point()
            if ip is not None:
                out.append(ip)
    return list(dict.fromkeys(out))


# -- JSON fixture schema --------------------------------------------------------


def body_to_json(body: Body):
    if isinstance(body, AffineBody):
        out = {
            "kind": "affine_halfspace",
            "normals": [[format_scalar(c) for c in n] for n in body.normals],
            "offsets": [format_scalar(b) for b in body.offsets],
            "x_coeffs": [[format_scalar(c) for c in l] for l in body.x_coeffs],
        }
        if body.x_normals is not None:
            out["x_normals"] = [
                [[format_scalar(c) for c in v] for v in per_row] for per_row in body.x_normals
            ]
        return out
    if isinstance(body, ScaledBody):
        if not body.base.is_polyhedral:
            from .corpus import ParabolaOracle

            if not isinstance(body.base.oracle, ParabolaOracle):
                raise MapError(
                    f"no JSON form for oracle {type(body.base.oracle).__name__}"
                )
            base = {"kind": "parabola"}
        else:
            base = {
                "kind": "polyhedral",
                "pieces": [
                    [[[format_scalar(c) for c in n], format_scalar(b)] for n, b in p.rows]
                    for p in body.base.pieces
                ],
            }
        return {
            "kind": "scaled_base",
            "base": base,
            "alpha": {
                "coeffs": [format_scalar(c) for c in body.alpha.coeffs],
                "const": format_scalar(body.alpha.const),
            },
        }
    return {
        "kind": "piecewise",
        "guard": [[format_scalar(c) for c in body.guard[0]], format_scalar(body.guard[1])],
        "when_true": body_to_json(body.when_true),
        "when_false": body_to_json(body.when_false),
    }


def body_from_json(data, cone: Cone):
    kind = data["kind"]
    if kind == "affine_halfspace":
        x_normals = None
        if "x_normals" in data:
            x_normals = tuple(
                tuple(vec([parse_scalar(c) for c in v]) for v in per_row)
                for per_row in data["x_normals"]
            )
        return AffineBody(
            normals=tuple(vec([parse_scalar(c) for c in n]) for n in data["normals"]),
            offsets=vec([parse_scalar(b) for b in data["offsets"]]),
            x_coeffs=tuple(vec([parse_scalar(c) for c in l]) for l in data["x_coeffs"]),
            x_normals=x_normals,
        )
    if kind == "scaled_base":
        base_data = data["base"]
        if base_data["kind"] == "parabola":
            from .corpus import parabola_upper_set

            base = parabola_upper_set(cone)
        else:
            pieces = [
                Polyhedron(
                    cone.dim,
                    [(vec([parse_scalar(c) for c in n]), parse_scalar(b)) for n, b in rows],
                )
                for rows in base_data["pieces"]
            ]
            base = UpperSet(cone, pieces=pieces)
        alpha = AffineForm(
            vec([parse_scalar(c) for c in data["alpha"]["coeffs"]]),
            parse_scalar(data["alpha"]["const"]),
        )
        return ScaledBody(base, alpha)
    if kind == "piecewise":
        guard = (
            vec([parse_scalar(c) for c in data["guard"][0]]),
            parse_scalar(data["guard"][1]),
        )
        return PiecewiseBody(
            guard,
            body_from_json(data["when_true"], cone),
            body_from_json(data["when_false"], cone),
        )
    raise MapError(f"unknown body kind {kind!r}")


def map_to_json(f: SetValuedMap):
    out = {
        "cone": {
            "dim": f.cone.dim,
            "generators": [[format_scalar(c) for c in g] for g in f.cone.generators],
        },
        "domain_dim": f.domain_dim,
        "body": body_to_json(f.body),
        "convex": f.convex,
    }
    if f.name:
        out["name"] = f.name
    return out


def map_from_json(data) -> SetValuedMap:
    cone = Cone.from_generators(
        [vec([parse_scalar(c) for c in g]) for g in data["cone"]["generators"]]
    )
    body = body_from_json(data["body"], cone)
    return SetValuedMap(
        domain_dim=data["domain_dim"],
        cone=cone,
        body=body,
        name=data.get("name", ""),
        convex=data.get("convex"),
    )
