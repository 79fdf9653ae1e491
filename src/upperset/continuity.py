"""Point-wise checkers for the semicontinuity notions of set-valued maps.

Eight notions are checked at a point x0: upper and lower continuity, their
Hausdorff variants, efficiency, lattice boundedness above, lower and upper
lattice semicontinuity, plus semicontinuity of all scalarizations and its
uniform strengthening over a direction base.  A finite procedure cannot
decide statements quantified over all neighborhoods, so every checker works
on geometric grids of box neighborhoods in X and Euclidean enlargements in
Z and reports three-valued verdicts:

* ``fails`` carries a witness that re-verifies by direct evaluation, and is
  only claimed when violations persist at every grid level and at extra
  confirmation levels below the grid;
* ``holds`` is claimed when the finest levels are clean, descending as many
  levels again below the grid when an exists-a-radius quantifier needs
  more room;
* anything else is ``inconclusive`` at the examined resolution.

Upper continuity quantifies over arbitrary open supersets; the checker works
relative to the enlargement family f(x0) + eps B plus complement-of-point
probes for values with empty interior, and says so in its verdict note.

The epsilon grid is shallower than the x-radius grid by default (headroom):
with equal depths any map whose modulus exceeds one would be misclassified,
since no x-radius below the finest epsilon would remain to certify the
exists-delta side.

Every sampled checker starts from one per-point context, ``_Scan(f, x0,
cfg)``: the resolved config, x0 as a vector, the map, the direction fan of
C^- and the x-directions, with f(x0) evaluated on first use.  The
x-samples of each radius level are built once per map and x0 and kept on
the map with x0 (``_Scan.samples``), so every scan of a matrix, and of a
later matrix at the same point, reads the same objects; ``_Scan.level`` and
``_Scan.sampled_xs`` both read them.  x0 and the samples carry their hash
(``linalg.HashedVec``): they compare and hash like plain tuples, but the
memos that the checkers key on x (phi per direction, ``gap_at``,
``dist_sq_at``) and the map's value cache hash each of them once, not once
per read, and the value cache, keyed by the samples themselves, matches a
hit by identity.  The base directions are ``HashedVec``s too, and each
keeps the integer form of its first support read.  ``_Scan.level`` flags
one x-radius level, ``_Scan.classify`` turns the level flags into
persistent, clean or mixed, and ``_Scan.first(family, run)`` is the
for-all loop: it runs each member of a family up to the first run that is
not clean.  ``_Scan.sweep`` is ``first`` over the epsilon grid; lc runs it
over the points z0 of f(x0), the scalar check over the base directions.
One rule, ``_verdict``, turns a kind into a verdict: persistent fails with
the checker's witness, mixed is inconclusive with its note, clean holds.

The per-direction and the uniform scalar checks run the same
multi-direction scan (``_scalar_scan``).  Each epsilon fixes one bound per
direction from phi(x0), and leaves out the directions that cannot break
(``_scalar_bounds``); a sample then breaks a direction when phi(x) reaches
its bound, one comparison (``_broken_direction``), which also names a
persistent witness's direction.  phi(x) reads the support of f(x) at z*
without checking z* again: the direction base checked each of its
directions once.

The side condition (BN) of the implication diagram, some bounded B and
neighborhood V of zero with V <= B - C, holds in every finite-dimensional
space (such spaces are locally bounded), so the matrix records it as the
constant True.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .geometry import Cone, Polyhedron
from .linalg import (
    POS_INF,
    ZERO,
    Ext,
    HashedVec,
    Vec,
    dot,
    norm2_sq,
    vec,
    zeros,
)
from .maps import SetValuedMap, graph_interior_witness
from .scalarize import DirectionBase, certify_base, scalarization_value
from .sets import UpperSet, member, outer_polyhedron
from .verdict import Verdict, Witness


# Half-width of the box that clips sampled values and bounds box searches.
_WINDOW = Fraction(10)


class Grid:
    """Dyadic radius grid {2^-k : k = 0..levels}."""

    def __init__(self, levels: int = 12):
        if levels < 0:
            raise ValueError("a radius grid needs levels >= 0")
        self.levels = levels

    def values(self, extra: int = 0) -> list[Fraction]:
        return [Fraction(1, 2**k) for k in range(self.levels + 1 + extra)]


class CheckerConfig(NamedTuple):
    radii: Grid = Grid()
    z_radii: Grid = Grid(levels=6)
    # The direction base's size in every m: z_fan bounds the total number
    # of small simplices its cells of C^- are cut into, and z_tails the
    # dyadic tails along each cell edge.
    z_fan: int = 32
    z_tails: int = 24
    confirm_levels: int = 4

    def light(self) -> "CheckerConfig":
        """Coarser settings for large sweeps."""
        return self._replace(
            radii=Grid(levels=8),
            z_radii=Grid(levels=4),
            z_fan=8,
            z_tails=10,
            confirm_levels=3,
        )


def default_config() -> CheckerConfig:
    return CheckerConfig()


# -- sampling helpers -----------------------------------------------------------


def _x_dirs(n: int) -> list[Vec]:
    dirs: list[Vec] = []
    for i in range(n):
        e = [ZERO] * n
        e[i] = Fraction(1)
        dirs.append(tuple(e))
        e[i] = Fraction(-1)
        dirs.append(tuple(e))
    if n >= 2:
        for mask in range(2**n):
            dirs.append(tuple(Fraction(1) if (mask >> i) & 1 else Fraction(-1) for i in range(n)))
    return list(dict.fromkeys(dirs))


def _level_samples(x0: Vec, delta: Fraction, dirs: Sequence[Vec]) -> list[Vec]:
    return [HashedVec(a + delta * d for a, d in zip(x0, dd)) for dd in dirs]


class _Scan:
    """The context of one checker at one point x0, and the scans it runs.

    It resolves the config, converts x0 and holds the map, the direction
    fan of C^- and the x-directions; f(x0) is evaluated on first use.
    """

    def __init__(self, f: SetValuedMap, x0, cfg: CheckerConfig | None):
        self.f = f
        x0 = HashedVec(vec(x0))
        # The first scan at x0 stores its x0 with the samples, and every
        # later scan at x0 reads that object.
        self.x0, self._samples = f.x_samples.setdefault(x0, (x0, {}))
        self.cfg = cfg or default_config()
        self.dirs = _x_dirs(f.domain_dim)

    @cached_property
    def v0(self) -> UpperSet:
        return self.f.evaluate(self.x0)

    @cached_property
    def fan(self) -> tuple[Vec, ...]:
        return DirectionBase.default(self.f.cone, self.cfg.z_fan, self.cfg.z_tails).directions

    def samples(self, k: int) -> list[Vec]:
        """The x-samples of level k, x0 + 2^-k d over the x-directions d;
        built once per map and x0 and kept on the map, so every scan at x0
        reads the same objects."""
        xs = self._samples.get(k)
        if xs is None:
            xs = self._samples[k] = _level_samples(self.x0, Fraction(1, 2**k), self.dirs)
        return xs

    def sampled_xs(self, k: int) -> list[Vec]:
        """x0 and the samples of levels k, k + 1 and k + 2."""
        return [self.x0, *self.samples(k), *self.samples(k + 1), *self.samples(k + 2)]

    def common_values(self, k: int) -> Optional[list[UpperSet]]:
        """The values at ``sampled_xs(k)``, or None when one is empty (the
        values then share no point)."""
        values = [self.f.evaluate(x) for x in self.sampled_xs(k)]
        return None if any(v.is_empty for v in values) else values

    def stacked(self, values: Iterable[UpperSet]) -> Optional[Polyhedron]:
        """A polyhedron containing the intersection of the values: a
        one-piece value gives its own rows, any other its outer
        approximation on the fan.  None at the first empty value, since then
        the values share no point."""
        rows = []
        for v in values:
            if v.is_empty:
                return None
            one_piece = v.is_polyhedral and len(v.pieces) == 1
            rows.extend((v.pieces[0] if one_piece else outer_polyhedron(v, self.fan)).rows)
        return Polyhedron(self.f.cone.dim, rows)

    def level(
        self, k: int, violated: Callable[[Vec], Optional[bool]]
    ) -> tuple[Optional[bool], Optional[Witness]]:
        """Flag of x-radius level k: True with a witness at the first violated
        sample, otherwise None if some sample was undecidable, else False."""
        flag: Optional[bool] = False
        for x in self.samples(k):
            r = violated(x)
            if r is True:
                return True, Witness(x=x, radius=Fraction(1, 2**k))
            if r is None:
                flag = None
        return flag, None

    def classify(self, violated: Callable[[Vec], Optional[bool]]) -> tuple[str, Optional[Witness], int]:
        """Returns (kind, witness, levels examined).

        kind is 'persistent' when every base level and every confirmation
        level shows a violation, 'clean' when a clean level certifies the
        exists-delta side (descending as many levels again below the grid
        when needed), and 'mixed' otherwise.  A violated() result of None
        (undecidable sample) blocks both decisive outcomes at its level.
        """
        K = self.cfg.radii.levels
        flags: list[Optional[bool]] = []
        witness: Optional[Witness] = None
        for k in range(K + 1):
            flag, hit = self.level(k, violated)
            flags.append(flag)
            witness = hit or witness
        examined = K + 1
        if all(fl is True for fl in flags):
            # Confirm below the grid before claiming persistence; violations
            # that vanish below the grid let the exists-delta side win.
            for k in range(K + 1, K + 1 + self.cfg.confirm_levels):
                examined += 1
                flag, hit = self.level(k, violated)
                if flag is None:
                    return "mixed", witness, examined
                if flag is False:
                    return "clean", None, examined
                witness = hit
            return "persistent", witness, examined
        if flags[-1] is False:
            return "clean", None, examined
        # The finest base level is violated or undecided; descend K more
        # levels to see whether a smaller radius clears it.
        for k in range(K + 1, 2 * K + 1):
            examined += 1
            if self.level(k, violated)[0] is False:
                return "clean", None, examined
        return "mixed", witness, examined

    def first(self, family: Iterable, run: Callable[..., tuple]) -> tuple:
        """The for-all loop: run(item) for each item of family, every run
        returning a tuple (kind, ..., levels), up to the first run whose kind
        is not clean.  Returns (that item, its run's result, the largest
        level count so far), or (None, a clean result, that count) when every
        run is clean.
        """
        examined = 0
        for item in family:
            result = run(item)
            examined = max(examined, result[-1])
            if result[0] != "clean":
                return item, result, examined
        return None, ("clean", None, None, 0), examined

    def sweep(
        self, violated_at: Callable[[Fraction], Callable[[Vec], Optional[bool]]]
    ) -> tuple[str, Optional[Witness], Optional[Fraction], int]:
        """Classifies violated_at(eps) down the epsilon grid: (kind, witness,
        eps, examined) at the first eps that is not clean, eps None when every
        eps is clean."""
        eps, (kind, witness, *_), examined = self.first(
            self.cfg.z_radii.values(), lambda eps: self.classify(violated_at(eps))
        )
        return kind, witness, eps, examined


def _verdict(
    kind: str, levels: int, witness: Callable[[], Witness], note: str, fails_note="", holds_note=""
) -> Verdict:
    """The three-valued rule of a scan: persistent fails with the checker's
    witness (built only then), mixed is inconclusive with its note, and
    clean holds."""
    if kind == "persistent":
        return Verdict.fails(witness(), resolution=levels, note=fails_note)
    if kind == "mixed":
        return Verdict.inconclusive(note=note, resolution=levels)
    return Verdict.holds(resolution=levels, note=holds_note)


def _value_sample_points(v: UpperSet) -> tuple[Vec, ...]:
    """Representative points of a value, clipped to the window; found once
    per value and kept on it."""
    memo = v.__dict__.get("_sample_points")
    if memo is not None:
        return memo
    dim = v.cone.dim
    pts: list[Vec] = []
    if v.is_polyhedral:
        win = Polyhedron.box([(-_WINDOW, _WINDOW)] * dim)
        for p in v.pieces:
            pts.extend(p.minimal_face_points)
            cut = p.intersect(win)
            if not cut.is_empty:
                ip = cut.interior_point()
                if ip is not None:
                    pts.append(ip)
    else:
        grid = [Fraction(k) for k in (-2, -1, 0, 1, 2, 4)]
        inside = (z for z in itertools.product(grid, repeat=dim) if max(map(abs, z)) <= _WINDOW)
        pts = list(itertools.islice((z for z in inside if member(v, z)), 8))
    memo = v.__dict__["_sample_points"] = tuple(dict.fromkeys(pts))[:8]
    return memo


# -- enlargement containment ------------------------------------------------------


def _support_gap_sq(
    support_a: Callable[[Vec], Ext], support_b: Callable[[Vec], Ext], fan: Sequence[Vec]
) -> tuple[Ext, Optional[Vec]]:
    """Worst squared normalized support excess of a over b on fan directions.

    For convex upper closed sets, a <= b + eps*Ball holds exactly when the
    support excess stays below eps on every unit direction of C^-; on a
    finite fan a positive excess certifies non-containment while agreement
    is containment at fan resolution.
    """
    worst: Ext = ZERO
    direction: Optional[Vec] = None
    for u in fan:
        sa, sb = support_a(u), support_b(u)
        if type(sa) is float and sa < 0:
            return ZERO, None
        if type(sb) is float and sb > 0:
            continue
        # What is left infinite is sa = +inf or sb = -inf.
        if type(sa) is float or type(sb) is float:
            return POS_INF, u
        gap = sa - sb
        if gap <= 0:
            continue
        g = gap * gap / norm2_sq(u)
        if g > worst:
            worst = g
            direction = u
    return worst, direction


def _enlargement_gap_sq(
    a: UpperSet, b: UpperSet, fan: Sequence[Vec]
) -> tuple[Ext, Optional[Witness]]:
    """Squared Hausdorff-style excess of a over b: sup_{z in a} dist(z, b)^2.

    Exact for polyhedral representations: the largest ``excess_sq`` of a
    piece of a over the convex b, witnessed by the escaping recession
    direction or by the first point reaching it.  Fan-based for oracles.
    """
    if a.is_empty:
        return ZERO, None
    if b.is_empty:
        return POS_INF, Witness(detail="nonempty value against empty reference")
    if a.is_polyhedral and b.is_polyhedral and len(b.pieces) == 1:
        worst: Ext = ZERO
        wit: Optional[Witness] = None
        for pa in a.pieces:
            value, at = pa.excess_sq(b.pieces[0])
            if type(value) is float:
                return POS_INF, Witness(direction=at, detail="recession escape")
            if value > worst:
                worst, wit = value, Witness(z=at)
        return worst, wit
    gap, u = _support_gap_sq(a.support, b.support, fan)
    return gap, (Witness(direction=u, detail="support separation") if u is not None else None)


# -- individual checkers ----------------------------------------------------------


def check_huc(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> Verdict:
    """Hausdorff upper continuity: f(x) inside f(x0) + eps Ball near x0."""
    return _hausdorff_check(f, x0, cfg, upper=True)


def check_hlc(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> Verdict:
    """Hausdorff lower continuity: f(x0) inside f(x) + eps Ball near x0."""
    return _hausdorff_check(f, x0, cfg, upper=False)


def _hausdorff_check(f: SetValuedMap, x0, cfg: CheckerConfig | None, upper: bool) -> Verdict:
    """The enlargement test of huc (f(x) against f(x0)) and, with the pair in
    the other order, of hlc."""
    s = _Scan(f, x0, cfg)
    inner, outer = ("f(x)", "f(x0)") if upper else ("f(x0)", "f(x)")

    @cache
    def gap_at(x: Vec) -> tuple[Ext, Optional[Witness]]:
        pair = (f.evaluate(x), s.v0) if upper else (s.v0, f.evaluate(x))
        return _enlargement_gap_sq(*pair, s.fan)

    kind, wit, eps, examined = s.sweep(lambda eps: lambda x, _e=eps * eps: gap_at(x)[0] > _e)

    def witness() -> Witness:
        detail = gap_at(wit.x)[1] or Witness()
        escape = f"{inner} escapes the enlargement of {outer}"
        return wit._replace(z=detail.z, radius=eps, direction=detail.direction, detail=escape)

    undecided = f"violations at radius {eps} neither persist nor vanish"
    return _verdict(kind, examined, witness, undecided)


def check_uc(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> Verdict:
    """Upper continuity relative to the enlargement base plus point probes.

    Quantifying over every open superset is not finitely decidable; the
    checker tests the family f(x0) + eps Ball and, for values with empty
    interior, open sets of the form Z minus a point.
    """
    s = _Scan(f, x0, cfg)
    note = "relative to the enlargement base"
    if s.v0.is_empty:
        kind, wit, levels = s.classify(lambda x: not f.evaluate(x).is_empty)
        approach = "nonempty values approach a point outside dom f"
        held = "empty on a neighborhood; " + note
        return _verdict(kind, levels, lambda: wit._replace(detail=approach), note, holds_note=held)
    huc = check_huc(f, s.x0, s.cfg)
    enlargement = Verdict(huc.status, huc.witness, huc.resolution, note)
    if enlargement.is_fails:
        return enlargement
    if s.v0.is_polyhedral and max(p.affine_dim for p in s.v0.pieces) < f.cone.dim:
        for p in _complement_probes(s.v0):
            kind, wit, levels = s.classify(lambda x: member(f.evaluate(x), p))
            if kind != "clean":
                hit = "a fixed outside point is hit arbitrarily close"
                return _verdict(
                    kind, levels, lambda: wit._replace(z=p, detail=hit), note, fails_note=note
                )
    return enlargement


def _complement_probes(v0: UpperSet) -> list[Vec]:
    dim = v0.cone.dim
    probes: list[Vec] = []
    for p in _value_sample_points(v0):
        for i in range(dim):
            for s in (Fraction(1, 4), Fraction(-1, 4), Fraction(1), Fraction(-1)):
                q = tuple(p[j] + (s if j == i else 0) for j in range(dim))
                if not member(v0, q):
                    probes.append(q)
    return list(dict.fromkeys(probes))[:10]


def check_lc(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> Verdict:
    """Lower continuity: every neighborhood of every z0 in f(x0) keeps
    meeting f(x) for x near x0."""
    s = _Scan(f, x0, cfg)
    if s.v0.is_empty:
        return Verdict.holds(note="holds by force outside dom f")

    def ball_test(z0: Vec):
        dist_sq_at = cache(lambda x: _point_gap_sq(f.evaluate(x), z0, s.fan))
        return s.sweep(lambda eps: lambda x, _e=eps * eps: dist_sq_at(x) > _e)

    z0, (kind, wit, eps, _), examined = s.first(_value_sample_points(s.v0), ball_test)
    return _verdict(
        kind,
        examined,
        lambda: wit._replace(z=z0, radius=eps, detail="values miss a ball around z0"),
        "undecided ball test",
    )


def _point_gap_sq(v: UpperSet, z0: Vec, fan: Sequence[Vec]) -> Ext:
    """Squared distance from z0 to the value: exact for polyhedra, a
    separation lower bound through oracles (zero when no fan direction
    separates, so oracle routes can never produce a spurious failure)."""
    if v.is_empty:
        return POS_INF
    if v.is_polyhedral:
        return v.dist_sq(z0)
    if member(v, z0):
        return ZERO
    # On C^- the support of the upper set z0 + C is u . z0.
    return _support_gap_sq(partial(dot, z0), v.support, fan)[0]


def check_eff(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> Verdict:
    """Efficiency: one bounded box meets every nearby value."""
    s = _Scan(f, x0, cfg)
    anchors = [] if s.v0.is_empty else list(_value_sample_points(s.v0))
    anchors.append((ZERO,) * f.cone.dim)
    sizes = sorted({_WINDOW, _WINDOW / 4, Fraction(1)}, reverse=True)
    examined = 0
    persistent = True
    for anchor in anchors:
        for size in sizes:
            box = Polyhedron.box([(a - size, a + size) for a in anchor])
            kind, wit, levels = s.classify(lambda x: _box_misses_value(f.evaluate(x), box, s.fan))
            examined = max(examined, levels)
            if kind == "clean":
                return Verdict.holds(
                    resolution=examined,
                    note=f"box of radius {size} around {anchor} meets nearby values",
                )
            persistent = persistent and kind == "persistent"
            if size == _WINDOW:
                # The last anchor is the origin, so this ends as the witness
                # of the window box itself.
                window_wit = wit
    if persistent:
        return Verdict.fails(
            window_wit._replace(detail="nearby values miss every window-scale box"),
            resolution=examined,
            note="bounded sets searched up to window scale",
        )
    return Verdict.inconclusive(resolution=examined, note="box search exhausted")


def _box_misses_value(v: UpperSet, box: Polyhedron, fan: Sequence[Vec]) -> Optional[bool]:
    if v.is_empty:
        return True
    if v.is_polyhedral:
        return all(p.intersect(box).is_empty for p in v.pieces)
    # The box's vertices and their centroid.
    probes = list(box.minimal_face_points)
    if probes:
        probes.append(tuple(sum(p[i] for p in probes) / len(probes) for i in range(box.dim)))
    for p in probes:
        if member(v, p):
            return False
    # Separation: some direction puts the whole box strictly outside.
    for u in fan:
        s = v.support(u)
        if isinstance(s, float):
            continue
        if all(dot(u, p) > s for p in probes):
            return True
    return None


def check_lba(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> Verdict:
    """Lattice boundedness above near x0: one point inside all nearby values."""
    s = _Scan(f, x0, cfg)
    levels = s.cfg.radii.values(s.cfg.confirm_levels)
    # Exists-a-neighborhood search, descending through the radius grid.
    for k, delta in enumerate(levels):
        certified = f.box_value_intersection(s.x0, delta)
        if certified is None:
            values = s.common_values(k)
            a = None if values is None else _sampled_common_point(s, values)
            note = "common point verified at sampled x"
        else:
            a = certified.lowest_point(zeros(f.cone.dim))
            note = "row-wise box certificate"
        if a is not None:
            return Verdict.holds(witness=Witness(z=a, radius=delta), note=note, resolution=k)
    # Failure side: sampled intersections stay empty at the finest level and
    # at every confirmation level below it.
    for k in range(s.cfg.radii.levels, len(levels)):
        common = s.stacked(map(f.evaluate, s.sampled_xs(k)))
        if common is not None and not common.is_empty:
            return Verdict.inconclusive(note="no common point found, emptiness not certified")
    return Verdict.fails(
        Witness(x=s.x0, radius=levels[-1], detail="sampled values share no point"),
        resolution=len(levels),
    )


def _sampled_common_point(s: _Scan, values: Sequence[UpperSet]) -> Optional[Vec]:
    """A point of every value: the lowest point of their stacked rows if it
    lies in each, else the first sample point of the first value that does."""
    candidates: list[Vec] = []
    a = s.stacked(values).lowest_point(zeros(s.f.cone.dim))
    if a is not None:
        candidates.append(a)
    candidates.extend(_value_sample_points(values[0]))
    for a in candidates:
        if all(member(v, a) for v in values):
            return a
    return None


def check_uls(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> Verdict:
    """Upper lattice semicontinuity: points of f(x0) are approximated by
    points common to all nearby values."""
    s = _Scan(f, x0, cfg)
    if s.v0.is_empty:
        return Verdict.holds(note="vacuous outside dom f")
    examined = 0
    for z0 in _value_sample_points(s.v0):
        for eps in s.cfg.z_radii.values():
            found, levels = _uls_search(s, z0, eps)
            examined = max(examined, levels)
            if found:
                continue
            # Failure side at this (z0, eps): the sampled common set stays
            # farther than eps from z0 at every level plus confirmation.
            for k in range(s.cfg.radii.levels + 1 + s.cfg.confirm_levels):
                common = s.stacked(map(f.evaluate, s.sampled_xs(k)))
                if common is not None and common.dist_sq(z0) <= eps * eps:
                    return Verdict.inconclusive(
                        resolution=examined, note="common-point search undecided"
                    )
            return Verdict.fails(
                Witness(x=s.x0, z=z0, radius=eps, detail="no common point near z0"),
                resolution=examined,
            )
    return Verdict.holds(resolution=examined)


def _uls_search(s: _Scan, z0: Vec, eps: Fraction) -> tuple[bool, int]:
    levels = s.cfg.radii.values(s.cfg.radii.levels)
    for k, delta in enumerate(levels):
        certified = s.f.box_value_intersection(s.x0, delta)
        if certified is not None and not certified.is_empty:
            if certified.dist_sq(z0) <= eps * eps:
                return True, k
            continue
        values = s.common_values(k)
        if values is None:
            continue
        for cand in _ball_candidates(z0, eps, s.f.cone):
            if all(member(v, cand) for v in values):
                return True, k
    return False, len(levels)


def _ball_candidates(z0: Vec, eps: Fraction, cone: Cone) -> list[Vec]:
    out = [z0]
    gsum = [ZERO] * cone.dim
    for g in cone.generators:
        gsum = [a + b for a, b in zip(gsum, g)]
    shifts = [tuple(gsum)] + [tuple(g) for g in cone.generators]
    for s in shifts:
        m = max((abs(c) for c in s), default=ZERO)
        if m == 0:
            continue
        for t in (eps / 2, eps / 4, eps / 8):
            out.append(tuple(z + t * c / m for z, c in zip(z0, s)))
    return list(dict.fromkeys(out))


def check_lls(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> Verdict:
    """Lower lattice semicontinuity: no point outside f(x0) is approached by
    nearby values arbitrarily closely."""
    s = _Scan(f, x0, cfg)
    examined = 0
    for z0 in _outside_probes(s):
        # Failure side first: exact membership of z0 in values arbitrarily
        # close to x0 (persistence plus confirmation).
        kind, wit, levels = s.classify(lambda x: member(f.evaluate(x), z0))
        examined = max(examined, levels)
        if kind == "persistent":
            return Verdict.fails(
                wit._replace(z=z0, detail="outside point belongs to values arbitrarily close"),
                resolution=examined,
            )
        # Holds side: some (delta, eps) separates z0 from all nearby values.
        for eps in s.cfg.z_radii.values():
            kind, _, levels = s.classify(
                lambda x, _e=eps * eps: _point_gap_sq(f.evaluate(x), z0, s.fan) <= _e
            )
            examined = max(examined, levels)
            if kind == "clean":
                break
        else:
            return Verdict.inconclusive(resolution=examined, note=f"probe {z0} undecided")
    return Verdict.holds(resolution=examined)


def _outside_probes(s: _Scan) -> list[Vec]:
    """Points outside f(x0).  First up to 14: its sample points moved back
    along each cone generator by a unit step, then the grid
    {-4, -2, -1, 0, 1, 2, 4}^m.  Then the same moves by each z-radius but 1
    and the finest, kept where they lie farther than twice the finest
    z-radius from f(x0); a nearer probe may only separate from nearby
    values below the finest z-radius."""
    v0, radii = s.v0, s.cfg.z_radii.values()
    points = () if v0.is_empty else _value_sample_points(v0)

    def moved(step: Fraction) -> Iterable[Vec]:
        for p in points:
            for g in s.f.cone.generators:
                if any(g):
                    yield tuple(a - step * c / max(map(abs, g)) for a, c in zip(p, g))

    grid = itertools.product([Fraction(k) for k in (-4, -2, -1, 0, 1, 2, 4)], repeat=s.f.cone.dim)
    probes: dict[Vec, None] = {}
    for q in itertools.chain(moved(Fraction(1)), grid):
        if len(probes) == 14:
            break
        if q not in probes and not member(v0, q):
            probes[q] = None
    floor = (2 * radii[-1]) ** 2
    for q in itertools.chain.from_iterable(map(moved, radii[1:-1])):
        if q not in probes and _point_gap_sq(v0, q, s.fan) > floor:
            probes[q] = None
    return list(probes)


# phi(x) breaks the threshold of each mode at phi(x) >= bound (usc) or
# phi(x) <= bound (lsc).
_BREAKS = {"usc": operator.ge, "lsc": operator.le}


def _scalarizations(
    f: SetValuedMap, base: DirectionBase, mode: str
) -> dict[Vec, Callable[[Vec], Ext]]:
    """The memoized scalarization x -> phi_z*(x) of every base direction z*,
    once mode is checked.  The base has checked that each z* lies in
    C^- \\ {0}, so phi reads the support of f(x) at z* directly."""
    if mode not in _BREAKS:
        raise ValueError("mode must be 'usc' or 'lsc'")
    return {zs: cache(partial(scalarization_value, f, zs)) for zs in base.directions}


def check_scalar_semicontinuity(
    f: SetValuedMap,
    x0,
    base: DirectionBase,
    cfg: CheckerConfig | None = None,
    mode: str = "usc",
) -> Verdict:
    """Upper/lower semicontinuity of every scalarization over the base."""
    phis = _scalarizations(f, base, mode)
    s = _Scan(f, x0, cfg)
    zs, (kind, wit, eps, _), examined = s.first(
        (zs for zs, phi in phis.items() if not _automatic(phi(s.x0), mode)),
        lambda zs: _scalar_scan(s, {zs: phis[zs]}, mode),
    )
    return _verdict(
        kind,
        examined,
        lambda: wit._replace(detail=f"{mode} gap of at least {eps} persists"),
        f"direction {zs} undecided",
        fails_note=f"direction {zs}",
    )


def check_uniform(
    f: SetValuedMap,
    x0,
    base: DirectionBase,
    cfg: CheckerConfig | None = None,
    mode: str = "usc",
) -> Verdict:
    """Uniform semicontinuity of the scalarizations over a certified base:
    one radius must serve every base direction simultaneously."""
    phis = _scalarizations(f, base, mode)
    if not certify_base(base):
        return Verdict.inconclusive(note="direction base failed certification")
    kind, wit, eps, examined = _scalar_scan(_Scan(f, x0, cfg), phis, mode)
    return _verdict(
        kind,
        examined,
        lambda: wit._replace(radius=eps, detail="no shared radius serves the base"),
        "uniform condition undecided",
    )


# (z*, phi, a value of phi): a base direction, its memoized scalarization
# and that scalarization at x0 or, once eps is fixed, the bound it breaks at.
_Scalar = tuple[Vec, Callable[[Vec], Ext], Ext]


def _automatic(v0: Ext, mode: str) -> bool:
    """Whether phi(x0) = v0 makes phi semicontinuous at x0 in mode whatever
    phi does nearby: +inf is automatically usc, -inf automatically lsc."""
    return type(v0) is float and (v0 > 0) == (mode == "usc")


def _scalar_bounds(at_x0: Iterable[_Scalar], mode: str, eps: Fraction) -> list[_Scalar]:
    """The bound of each direction that can break the eps threshold, from
    its value v0 = phi(x0).

    usc breaks at phi(x) >= v0 + eps (>= -1/eps when v0 = -inf) and lsc at
    phi(x) <= v0 - eps (<= 1/eps when v0 = +inf); a direction whose v0 is
    ``_automatic`` never breaks, so it is left out.
    """
    if mode == "usc":
        return [
            (zs, phi, -1 / eps if type(v0) is float else v0 + eps)
            for zs, phi, v0 in at_x0
            if not _automatic(v0, mode)
        ]
    return [
        (zs, phi, 1 / eps if type(v0) is float else v0 - eps)
        for zs, phi, v0 in at_x0
        if not _automatic(v0, mode)
    ]


def _broken_direction(bounds: Iterable[_Scalar], mode: str, x: Vec) -> Optional[Vec]:
    """The first direction of bounds whose phi(x) breaks its bound, or None.

    An infinite phi(x) breaks by its sign alone: +inf breaks usc and -inf
    lsc.  A finite one is compared with its bound, a Fraction, cross-
    multiplied over the positive denominators, as Fraction's own comparison
    does without its ``numbers`` ABC checks; the scans run this thousands
    of times per matrix.
    """
    breaks = _BREAKS[mode]
    for zs, phi, bound in bounds:
        v = phi(x)
        if type(v) is float:
            if (v > 0) == (mode == "usc"):
                return zs
        elif breaks(v.numerator * bound.denominator, bound.numerator * v.denominator):
            return zs
    return None


def _scalar_scan(
    scan: _Scan, phis: dict[Vec, Callable[[Vec], Ext]], mode: str
) -> tuple[str, Optional[Witness], Optional[Fraction], int]:
    """Sweeps the scalar threshold of mode over the scalarizations phis (one
    per direction) at once: x is violated at eps when some direction is.
    Each eps fixes the bounds once, so a sample costs one comparison per
    direction.  Returns the sweep's (kind, witness, eps, examined); a
    persistent witness names the first direction violated at its x."""
    at_x0 = [(zs, phi, phi(scan.x0)) for zs, phi in phis.items()]

    def violated_at(eps: Fraction) -> Callable[[Vec], bool]:
        bounds = _scalar_bounds(at_x0, mode, eps)
        return lambda x: _broken_direction(bounds, mode, x) is not None

    kind, wit, eps, examined = scan.sweep(violated_at)
    if kind == "persistent":
        bounds = _scalar_bounds(at_x0, mode, eps)
        wit = wit._replace(direction=_broken_direction(bounds, mode, wit.x))
    return kind, wit, eps, examined


# -- the matrix -------------------------------------------------------------------


MATRIX_KEYS = (
    "uc",
    "lc",
    "huc",
    "hlc",
    "eff",
    "lba",
    "lls",
    "uls",
    "cminus_usc",
    "cminus_lsc",
    "uniform_usc",
    "uniform_lsc",
    "graph_interior",
)


class VerdictMatrix:
    def __init__(self, entries: dict[str, Verdict], side: dict[str, bool]):
        self.entries = entries
        self.side = side
        self.artifacts: list[str] = []

    def to_json(self):
        return {
            "entries": {k: v.to_json() for k, v in self.entries.items()},
            "side_conditions": dict(self.side),
            "artifacts": list(self.artifacts),
        }


# (implication name, guard on side conditions, antecedent key, consequent key)
IMPLICATIONS = (
    ("uls implies lc", lambda s: True, "uls", "lc"),
    ("lc implies uls under interior cone", lambda s: s["int_c"], "lc", "uls"),
    ("lba implies uls for convex maps", lambda s: s["convex"], "lba", "uls"),
    ("eff implies lc for convex maps", lambda s: s["convex"], "eff", "lc"),
    ("lc implies eff under (BN) on dom", lambda s: s["bn"] and s["in_dom"], "lc", "eff"),
    ("huc implies lls", lambda s: True, "huc", "lls"),
    ("uls implies lba on dom", lambda s: s["in_dom"], "uls", "lba"),
    ("graph interior implies lba", lambda s: True, "graph_interior", "lba"),
    ("lba implies graph interior under interior cone", lambda s: s["int_c"], "lba", "graph_interior"),
    ("lc implies scalar usc", lambda s: True, "lc", "cminus_usc"),
    ("huc implies scalar lsc", lambda s: True, "huc", "cminus_lsc"),
    ("scalar lsc implies lls for convex values", lambda s: s["convex_valued"], "cminus_lsc", "lls"),
    ("uniform usc implies lc", lambda s: s["base_certified"], "uniform_usc", "lc"),
    ("uniform lsc implies huc", lambda s: s["base_certified"], "uniform_lsc", "huc"),
    ("lc implies lls for convex maps on dom", lambda s: s["convex"] and s["in_dom"], "lc", "lls"),
)


def verdict_matrix(f: SetValuedMap, x0, cfg: CheckerConfig | None = None) -> VerdictMatrix:
    """Runs every checker at x0 and cross-validates the implication diagram.

    The scalarization checkers run over the default direction base of
    ``cfg.z_fan`` and ``cfg.z_tails``, the one base kept on f's cone, so its
    certification runs once per cone and fan, not once per matrix.  Violated
    implications among decisive entries are resolution artifacts: both
    offending verdicts are downgraded to inconclusive and the event is
    recorded on the matrix.
    """
    cfg = cfg or default_config()
    x0 = vec(x0)
    base = DirectionBase.default(f.cone, cfg.z_fan, cfg.z_tails)
    certified = certify_base(base)
    entries = {
        "uc": check_uc(f, x0, cfg),
        "lc": check_lc(f, x0, cfg),
        "huc": check_huc(f, x0, cfg),
        "hlc": check_hlc(f, x0, cfg),
        "eff": check_eff(f, x0, cfg),
        "lba": check_lba(f, x0, cfg),
        "lls": check_lls(f, x0, cfg),
        "uls": check_uls(f, x0, cfg),
        "cminus_usc": check_scalar_semicontinuity(f, x0, base, cfg, "usc"),
        "cminus_lsc": check_scalar_semicontinuity(f, x0, base, cfg, "lsc"),
        "uniform_usc": check_uniform(f, x0, base, cfg, "usc"),
        "uniform_lsc": check_uniform(f, x0, base, cfg, "lsc"),
        "graph_interior": graph_interior_witness(f, x0),
    }
    side = {
        "convex": bool(f.convex),
        "convex_valued": f.convex_valued,
        "int_c": f.cone.has_interior,
        # (BN) holds in every finite-dimensional space; see the module docstring.
        "bn": True,
        "in_dom": not f.evaluate(x0).is_empty,
        "base_certified": certified,
    }
    matrix = VerdictMatrix(entries=entries, side=side)
    enforce_diagram(matrix)
    return matrix


def _implication_violated(matrix: VerdictMatrix, implication) -> bool:
    _, guard, ante, cons = implication
    return guard(matrix.side) and matrix.entries[ante].is_holds and matrix.entries[cons].is_fails


def enforce_diagram(matrix: VerdictMatrix) -> list[str]:
    """Downgrades verdict pairs that contradict a proven implication.

    Implications are applied in IMPLICATIONS order, each to the entries as
    the earlier ones left them, so a pair downgraded early can keep a later
    implication from firing.
    """
    violations: list[str] = []
    for implication in IMPLICATIONS:
        if not _implication_violated(matrix, implication):
            continue
        name, _, ante, cons = implication
        violations.append(name)
        matrix.artifacts.append(
            f"implication violated at resolution: {name}; both entries downgraded"
        )
        for key in (ante, cons):
            matrix.entries[key] = Verdict.inconclusive(
                note=f"downgraded: {name}", resolution=matrix.entries[key].resolution
            )
    return violations


def diagram_violations(matrix: VerdictMatrix) -> list[str]:
    """Names of implications violated by decisive entries (no downgrading)."""
    return [imp[0] for imp in IMPLICATIONS if _implication_violated(matrix, imp)]
