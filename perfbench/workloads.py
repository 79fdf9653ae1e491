"""The benchmark's workloads: seeded item lists and their reference checks.

An item is a unit of work on the package (``run``) plus a check of its
output (``check``).  ``run`` holds every package call the item makes and is
the timed part; ``check`` compares the output with a reference and makes no
package call.  Items are rebuilt from the seed for every pass, so each pass
starts on fresh map and polyhedron objects whose per-instance caches are
cold, as a caller's first call is.

Reference checks never skip a known defect.  A failed check that matches
the signature of a defect listed in ROADMAP.md counts against
``correct_share`` and is named in the report; a failed check that matches
no known defect marks the run incorrect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Known defects (ROADMAP "Verified defects") by the signature they leave.
DEFECT_PL_PROFILE = "fundamental_duality crashes on pl-profile (DualityError: scalar dual attainment failed)"
DEFECT_OUTER_M3 = "minkowski_sum / upper_closure are outer approximations when m >= 3"
DOWNGRADE_DEFECTS = {
    "uniform usc implies lc": "two verdicts depend on config depth: tilted-halfplane lc is downgraded under light()",
}


@dataclass
class Score:
    """What one item's output earned against its reference."""

    digest: str = ""
    checks: int = 0
    correct: int = 0
    verdicts: int = 0
    decided: int = 0
    downgrades: int = 0
    defects: list[tuple[str, str]] = field(default_factory=list)  # (defect, check)
    unexpected: list[str] = field(default_factory=list)
    raised: bool = False

    @property
    def failed(self) -> bool:
        return self.raised or self.correct < self.checks

    def expect(self, ok: bool, what: str, defect: str | None) -> None:
        """One reference check; ``defect`` names the known defect that
        explains a failure of this check, or None when none does."""
        self.checks += 1
        if ok:
            self.correct += 1
        elif defect:
            self.defects.append((defect, what))
        else:
            self.unexpected.append(what)


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Score]


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(map(str, v)) + ")"
    return str(v)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _raised(item: str, exc: BaseException, defect: str | None, verdicts: int) -> Score:
    s = Score(digest=digest(f"{type(exc).__name__}: {exc}"), raised=True, verdicts=verdicts)
    what = f"{item} raised {type(exc).__name__}: {exc}"
    if defect is None:
        what += "\n" + "".join(traceback.format_exception(exc))
    s.expect(False, what, defect)
    return s


# -- verdict matrices ------------------------------------------------------------


def _matrix_item(U, name: str, fmap, x0, labels: dict[str, str] | None) -> Item:
    cfg = U.continuity.default_config().light()

    def run():
        return U.continuity.verdict_matrix(fmap, x0, cfg)

    def check(out) -> Score:
        if isinstance(out, BaseException):
            return _raised(name, out, None, len(U.continuity.MATRIX_KEYS))
        js = out.to_json()
        s = Score(digest=digest(js), downgrades=len(out.artifacts))
        s.verdicts = len(out.entries)
        s.decided = sum(v.decisive for v in out.entries.values())
        if set(out.entries) != set(U.continuity.MATRIX_KEYS):
            s.unexpected.append(f"{name}: matrix keys {sorted(out.entries)}")
        for key, want in (labels or {}).items():
            got = out.entries[key]
            defect = None
            if got.status.value == "inconclusive":
                implication = got.note.removeprefix("downgraded: ")
                # inconclusive is never wrong; a label it misses counts
                # against correct_share but never makes the run incorrect.
                defect = DOWNGRADE_DEFECTS.get(implication, f"undecided under light(): {got.note}")
            s.expect(got.status.value == want, f"{name} {key} = {got.status.value}, label {want}", defect)
        return s

    return Item(name, run, check)


def matrix_affine(U, seed: int) -> list[Item]:
    """Polyhedral values: tall certify_base LPs, then the sampled scans.

    ray-translate's matrices (14-23 s each) and parabola-dilation's (4-16 s)
    are left out: a run could hold a single pass of them, and one pass is
    one sample of the machine's noise.
    """
    rng = random.Random(seed)
    c = U.corpus
    items = []
    for fx in (c.orthant_halfline_fixture(), c.tilted_halfplane_fixture()):
        for pt in fx.points:
            items.append(_matrix_item(U, f"{fx.id}@{pt.at[0]}", fx.map, pt.at, pt.expect))
    rand = c.random_convex_affine_maps(seed, 1)[0]
    x0 = (Fraction(rng.randint(-8, 8), 4),)
    items.append(_matrix_item(U, f"{rand.name}@{x0[0]}", rand, x0, None))
    return items


# -- duality ---------------------------------------------------------------------

DUALITY_FIXTURES = ("abs-bivariate", "pl-profile", "abs-pair-2d")
# A dual pair's cost varies several-fold with the seed; few pairs keep the
# seeded part from swamping the fixed fundamental_duality calls.
DUAL_PAIRS = 2
DUAL_PAIR_POOL = 16
# abs-pair-2d's default 17-direction base costs 51-67 s per call at the seed
# commit; its 3-direction base keeps every code path at a run-sized cost.
ABS_PAIR_FAN = 2


def dual_pairs(U, seed: int, cone, p: int) -> list:
    """DUAL_PAIRS seeded (y*, z*) pairs: the first with z* on a face of C^-
    (a zero coordinate), the first with z* off every face, then the next
    ones drawn.  On abs-pair-2d a pair on a face costs about 1 ms and one
    off the faces about 0.1 s, so pairs drawn freely moved that item by
    12 % with the seed."""
    pool = U.corpus.random_dual_pairs(seed, DUAL_PAIR_POOL, cone, p)
    first = [next((pr for pr in pool if (0 in pr[1]) == on_face), None) for on_face in (True, False)]
    picked = [pr for pr in first if pr is not None]
    return (picked + [pr for pr in pool if pr not in picked])[:DUAL_PAIRS]


def _duality_item(U, fx, seed: int) -> Item:
    """fundamental_duality at 0 on one fixture, its dual family re-checked
    through the conjugate identity, then weak_duality_check on seeded pairs."""
    f = fx.map
    base = U.scalarize.DirectionBase.default(f.cone, ABS_PAIR_FAN) if fx.id == "abs-pair-2d" else None
    x0 = (Fraction(0),) * f.n
    y0 = (Fraction(0),) * f.p
    pairs = dual_pairs(U, seed, f.cone, f.p)

    def run():
        identities = []
        try:
            report = U.duality.fundamental_duality(f, x0, base)
        except Exception as exc:  # an outcome to check; the weak check still runs
            report = exc
        else:
            for zs, ys in report.family.entries.items():
                pair = U.geometry.DualPair.of(x0 + tuple(ys), zs)
                offset = U.conjugate.neg_conjugate_scalar_route(f.map, pair).offset
                identities.append((zs, offset, U.duality.marginal_scalarization(f, zs, y0)))
        return report, identities, U.duality.weak_duality_check(f, pairs)

    def check(out) -> Score:
        if isinstance(out, BaseException):
            return _raised(f"weak_duality_check {fx.id}", out, None, verdicts=2)
        report, identities, weak = out
        name = f"fundamental_duality {fx.id}"
        if isinstance(report, BaseException):
            known = fx.id == "pl-profile" and "scalar dual attainment failed" in str(report)
            s = _raised(name, report, DEFECT_PL_PROFILE if known else None, verdicts=1)
        else:
            s = Score(digest=digest(report.to_json()), verdicts=1)
            s.decided = int(report.regularity["slice_usc"] != "inconclusive")
            s.expect(report.gap_sq == 0, f"{name} gap_sq = {report.gap_sq}", None)
            for zs, offset, value in identities:
                s.expect(offset == -value, f"{name} conjugate identity at z*={_fmt(zs)}: {offset} vs {-value}", None)
        s.verdicts += 1
        s.decided += int(weak.decisive)
        s.expect(weak.is_holds, f"weak_duality_check {fx.id} = {weak.status.value}", None)
        s.digest = digest([s.digest, weak.to_json()])
        return s

    return Item(fx.id, run, check)


def duality(U, seed: int) -> list[Item]:
    """The closed-form route: Fourier-Motzkin, dual LPs, conjugates."""
    fixtures = {fx.id: fx for fx in U.corpus.builtin_fixtures()}
    return [
        _duality_item(U, fixtures[fid], seed * len(DUALITY_FIXTURES) + i)
        for i, fid in enumerate(DUALITY_FIXTURES)
    ]


# -- lattice operations ----------------------------------------------------------

LATTICE_PAIRS = 32
LATTICE_DIMS = (2, 3)
LATTICE_DIRECTIONS = 7
WINDOW = Fraction(10)


def random_polytope(
    rng: random.Random, m: int, shape: random.Random | None = None
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """H-rows n.z >= b of a box around a random centre cut by 2-3 random
    halfspaces through points near it; bounded, and nonempty (it holds the
    centre).  The centre is drawn from ``rng``, the box and the cuts from
    ``shape`` (``rng`` itself when None)."""
    shape = shape or rng
    centre = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
    rows = []
    for i in range(m):
        r = Fraction(shape.randint(1, 3))
        e = [Fraction(0)] * m
        e[i] = Fraction(1)
        rows.append((tuple(e), centre[i] - r))
        e[i] = Fraction(-1)
        rows.append((tuple(e), -centre[i] - r))
    for _ in range(shape.randint(2, 3)):
        n = [Fraction(0)] * m
        while not any(n):
            n = [Fraction(shape.randint(-2, 2)) for _ in range(m)]
        slack = Fraction(shape.randint(0, 4), 2)
        rows.append((tuple(n), sum(a * c for a, c in zip(n, centre)) - slack))
    return rows


def _solve_square(a: list[list[Fraction]], b: list[Fraction]):
    """The unique solution of a x = b by exact Gauss-Jordan, or None."""
    m = len(a)
    rows = [list(r) + [v] for r, v in zip(a, b)]
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                k = rows[r][col]
                rows[r] = [v - k * w for v, w in zip(rows[r], rows[col])]
    return [rows[r][m] for r in range(m)]


def vertices(rows, m: int) -> list[tuple[Fraction, ...]]:
    """Vertices of a bounded H-polytope by brute force over row subsets;
    independent of the package's simplex and geometry."""
    out = set()
    for subset in itertools.combinations(rows, m):
        z = _solve_square([list(n) for n, _ in subset], [b for _, b in subset])
        if z is not None and all(sum(a * c for a, c in zip(n, z)) >= b for n, b in rows):
            out.add(tuple(z))
    return sorted(out)


def _support_ref(verts, u) -> Fraction:
    return max(sum(a * c for a, c in zip(u, v)) for v in verts)


def _lattice_case(U, rng: random.Random, shape: random.Random, m: int, name: str):
    """The operations on one seeded polytope pair in R^m: a ``run`` making
    the package calls and a ``check`` adding their reference checks to a
    score and returning the part of the output that goes into the digest."""
    cone = U.geometry.Cone.from_generators(
        [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    )
    p_rows, q_rows = random_polytope(rng, m, shape), random_polytope(rng, m, shape)
    dirs = []
    while len(dirs) < LATTICE_DIRECTIONS:
        u = tuple(Fraction(-rng.randint(0, 3)) for _ in range(m))
        if any(u):
            dirs.append(u)
    P = U.geometry.Polyhedron(m, p_rows)
    Q = U.geometry.Polyhedron(m, q_rows)
    window = U.geometry.Polyhedron.box([(-WINDOW, WINDOW)] * m)

    def run():
        sets = U.sets
        A, B = sets.upper_closure(P, cone), sets.upper_closure(Q, cone)
        S = sets.minkowski_sum(A, B)
        inf, sup = sets.lattice_inf([A, B]), sets.lattice_sup([A, B])
        return {
            "supports": [(A.support(u), B.support(u), S.support(u)) for u in dirs],
            "orders": [sets.set_order_leq(inf, A), sets.set_order_leq(A, sup)],
            "hausdorff_sq": sets.hausdorff_sq_window(A, B, window),
        }

    def check(out, s: Score):
        vp, vq = vertices(p_rows, m), vertices(q_rows, m)
        outer = DEFECT_OUTER_M3 if m >= 3 else None
        for u, (sa, sb, ss) in zip(dirs, out["supports"]):
            ref_a, ref_b = _support_ref(vp, u), _support_ref(vq, u)
            s.expect(sa == ref_a, f"{name} sigma_cl(P+C){_fmt(u)} = {sa}, sigma_P = {ref_a}", outer if sa > ref_a else None)
            s.expect(sb == ref_b, f"{name} sigma_cl(Q+C){_fmt(u)} = {sb}, sigma_Q = {ref_b}", outer if sb > ref_b else None)
            s.expect(ss == sa + sb, f"{name} sigma_A+B{_fmt(u)} = {ss}, sigma_A + sigma_B = {sa + sb}", outer if ss > sa + sb else None)
        inf_leq_a, a_leq_sup = out["orders"]
        s.expect(inf_leq_a.value, f"{name} inf(A, B) <= A", None)
        s.expect(a_leq_sup.value, f"{name} A <= sup(A, B)", None)
        s.verdicts += 2
        s.decided += inf_leq_a.exact + a_leq_sup.exact
        return {
            "supports": out["supports"],
            "orders": [(o.value, o.exact) for o in out["orders"]],
            "hausdorff_sq": out["hausdorff_sq"],
        }

    return run, check


def _lattice_item(U, rng: random.Random, k: int) -> Item:
    """One polytope pair in the plane and one in space: the median item then
    has the same make-up whatever the seed.  Item k's shapes are the same
    for every seed, which places them and picks the directions: with seeded
    shapes too, the seed alone moved ``wall_s`` by 8 % (interquartile range
    over the median, 12 seeds), and with fixed shapes by 4 %."""
    name = f"lattice-{k}"
    shape = random.Random(k)
    cases = [_lattice_case(U, rng, shape, m, f"{name} m={m}") for m in LATTICE_DIMS]

    def run():
        return [case_run() for case_run, _ in cases]

    def check(out) -> Score:
        if isinstance(out, BaseException):
            return _raised(name, out, None, verdicts=2 * len(cases))
        s = Score()
        s.digest = digest([case_check(o, s) for (_, case_check), o in zip(cases, out)])
        return s

    return Item(name, run, check)


def lattice(U, seed: int) -> list[Item]:
    """Many small LPs: closures, sums, lattice operations in m = 2 and 3."""
    rng = random.Random(seed)
    return [_lattice_item(U, rng, k) for k in range(LATTICE_PAIRS)]


WORKLOADS = {
    "matrix-affine": matrix_affine,
    "duality": duality,
    "lattice": lattice,
}
