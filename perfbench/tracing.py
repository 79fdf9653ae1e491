"""Per-layer tracing of the ``upperset`` package from outside.

The tracer wraps every public function and public method of the layer
modules and patches each name wherever a module of the package imported it
(``from .simplex import solve_lp`` binds ``solve_lp`` in the importer, so
patching ``upperset.simplex`` alone would miss those calls).  Each wrapped
call is a span; a layer's self time is the time of its spans minus the time
of the spans they caused.  Counts and wasted-work ratios are taken from the
call arguments at the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from functools import cached_property
from time import perf_counter

LAYERS = (
    "simplex",
    "geometry",
    "sets",
    "maps",
    "scalarize",
    "conjugate",
    "continuity",
    "duality",
)

# The 13 verdict-matrix keys and the checker call that computes each one.
CHECKER_KEYS = {
    "continuity.check_uc": "uc",
    "continuity.check_lc": "lc",
    "continuity.check_huc": "huc",
    "continuity.check_hlc": "hlc",
    "continuity.check_eff": "eff",
    "continuity.check_lba": "lba",
    "continuity.check_lls": "lls",
    "continuity.check_uls": "uls",
    "maps.graph_interior_witness": "graph_interior",
}
MODE_CHECKERS = {
    "continuity.check_scalar_semicontinuity": "cminus_",
    "continuity.check_uniform": "uniform_",
}
MATRIX_KEYS = (
    "uc", "lc", "huc", "hlc", "eff", "lba", "lls", "uls",
    "cminus_usc", "cminus_lsc", "uniform_usc", "uniform_lsc", "graph_interior",
)

# A solve_lp call is "tall" when its constraint count reaches this many rows;
# certify_base's separation LPs (2 variables, 29-53 rows) are tall, the
# per-piece support LPs of the lattice operations are small.
TALL_ROWS = 16


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _bits(value) -> int:
    try:
        return value.numerator.bit_length() + value.denominator.bit_length()
    except AttributeError:  # +-inf or None
        return 0


class _Stat:
    __slots__ = ("calls", "s", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.active = 0


class Tracer:
    """Spans and counters for one traced phase of a run.

    ``install`` patches the currently imported package in place; the
    benchmark installs it once, after its untraced passes, and sets
    ``enabled`` only while an item's package calls run, so building inputs
    and checking outputs leave no spans.
    """

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.shapes: dict[tuple[int, int, bool], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[list[float]] = []
        self._seen: dict[str, set[int]] = defaultdict(set)

    # -- items -----------------------------------------------------------------

    def begin_item(self) -> None:
        """Repeat shares count repeated arguments within one item only."""
        self._seen.clear()

    def _repeat(self, kind: str, key) -> None:
        seen = self._seen[kind]
        h = hash(key)
        self.counters[kind + ".calls"] += 1
        if h in seen:
            self.counters[kind + ".repeats"] += 1
        else:
            seen.add(h)

    # -- observers -----------------------------------------------------------

    def _observe(self, name: str, args, kwargs, result, dt: float) -> None:
        if name == "simplex.solve_lp":
            objective = _arg(args, kwargs, 0, "objective")
            constraints = _arg(args, kwargs, 1, "constraints")
            sense = _arg(args, kwargs, 2, "sense", "max")
            want_dual = bool(_arg(args, kwargs, 3, "want_dual", False))
            rows = len(constraints)
            shape = (len(objective), rows, want_dual)
            bucket = self.shapes.setdefault(shape, [0, 0.0])
            bucket[0] += 1
            bucket[1] += dt
            kind = "dual" if want_dual else ("tall" if rows >= TALL_ROWS else "small")
            self.counters[f"simplex.solve_lp.{kind}.calls"] += 1
            self.counters[f"simplex.solve_lp.{kind}.s"] += dt
            c = self.counters
            c["simplex.solve_lp.rows_max"] = max(c["simplex.solve_lp.rows_max"], rows)
            c["simplex.solve_lp.value_bits_max"] = max(
                c["simplex.solve_lp.value_bits_max"], _bits(result.value)
            )
            key = (
                tuple(objective),
                tuple((tuple(n), b) for n, b in constraints),
                sense,
                want_dual,
            )
            self._repeat("simplex.solve_lp", key)
        elif name == "scalarize.certify_base":
            base = _arg(args, kwargs, 0, "base")
            radius = _arg(args, kwargs, 1, "window_radius", 1)
            self._repeat("scalarize.certify_base", (base.cone, base.directions, radius))
        elif name == "maps.SetValuedMap.evaluate":
            self._repeat("maps.SetValuedMap.evaluate", (id(args[0]), tuple(_arg(args, kwargs, 1, "x"))))
        elif name == "geometry.project_out":
            c = self.counters
            c["geometry.project_out.rows_out_max"] = max(
                c["geometry.project_out.rows_out_max"], len(result.rows)
            )
        if name in CHECKER_KEYS:
            self.counters[f"continuity.{CHECKER_KEYS[name]}.s"] += dt
        elif name in MODE_CHECKERS:
            mode = _arg(args, kwargs, 4, "mode", "usc")
            self.counters[f"continuity.{MODE_CHECKERS[name]}{mode}.s"] += dt

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        stat = self.stats[name]
        stack = self._stack
        layer_self = self.layer_self
        observe = self._observe

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            result = ok = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.active -= 1
                layer_self[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                if not stat.active:
                    stat.s += dt
                    if ok:
                        # Bookkeeping time goes to no layer: it is left out
                        # of the caller's self time and shows in bench.self_s.
                        t1 = perf_counter()
                        observe(name, args, kwargs, result, dt)
                        if stack:
                            stack[-1][0] += perf_counter() - t1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wraps every public function and method of the layer modules."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"upperset.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    replaced[id(obj)] = wrapped
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # Rebind names that other modules imported from the layer modules.
        for modname, mod in list(sys.modules.items()):
            if modname != "upperset" and not modname.startswith("upperset."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, layer, member))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, layer, member.__func__)))
            elif isinstance(member, property) and member.fget is not None:
                setattr(cls, attr, property(self._wrap(name, layer, member.fget), member.fset, member.fdel))
            elif isinstance(member, cached_property):
                member.func = self._wrap(name, layer, member.func)

    # -- report ----------------------------------------------------------------

    def metrics(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics per pass, for ``passes`` traced passes that took
        ``wall_s`` seconds in all.  Times and call counts are divided by
        ``passes``; maxima and shares are not."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer] / passes
        out["bench.self_s"] = (wall_s - sum(self.layer_self.values())) / passes

        def calls_s(name: str, with_calls: bool = True) -> None:
            st = self.stats.get(name, _Stat())
            if with_calls:
                out[f"{name}.calls"] = st.calls / passes
            out[f"{name}.s"] = st.s / passes

        def repeat_share(name: str) -> None:
            calls = self.counters[name + ".calls"]
            out[f"{name}.repeat_share"] = self.counters[name + ".repeats"] / calls if calls else 0.0

        c = self.counters
        calls_s("simplex.solve_lp")
        for kind in ("tall", "small", "dual"):
            out[f"simplex.solve_lp.{kind}.calls"] = c[f"simplex.solve_lp.{kind}.calls"] / passes
            out[f"simplex.solve_lp.{kind}.s"] = c[f"simplex.solve_lp.{kind}.s"] / passes
        out["simplex.solve_lp.rows_max"] = c["simplex.solve_lp.rows_max"]
        repeat_share("simplex.solve_lp")
        out["simplex.solve_lp.value_bits_max"] = c["simplex.solve_lp.value_bits_max"]

        calls_s("geometry.Polyhedron.dist_sq")
        calls_s("geometry.Polyhedron.support")
        calls_s("geometry.project_out")
        out["geometry.project_out.rows_out_max"] = c["geometry.project_out.rows_out_max"]
        calls_s("geometry.dual_cone", with_calls=False)

        calls_s("sets.UpperSet.support")
        calls_s("sets.member")
        for fn in ("minkowski_sum", "upper_closure", "lattice_sup", "hausdorff_sq_window", "outer_polyhedron"):
            calls_s(f"sets.{fn}", with_calls=False)

        calls_s("maps.SetValuedMap.evaluate")
        repeat_share("maps.SetValuedMap.evaluate")
        calls_s("maps.graph_interior_witness", with_calls=False)

        calls_s("scalarize.certify_base")
        repeat_share("scalarize.certify_base")
        calls_s("scalarize.scalarize_eval")
        calls_s("scalarize.piecewise_scalarization")

        calls_s("conjugate.scalar_conjugate", with_calls=False)
        calls_s("conjugate.neg_conjugate_scalar_route", with_calls=False)

        for key in MATRIX_KEYS:
            out[f"continuity.{key}.s"] = c[f"continuity.{key}.s"] / passes

        calls_s("duality.fundamental_duality", with_calls=False)
        calls_s("duality.weak_duality_check", with_calls=False)
        return out

    def shape_histogram(self) -> list[dict]:
        """solve_lp calls and time by (variables, rows, want_dual)."""
        return [
            {"vars": v, "rows": r, "want_dual": d, "calls": n, "s": round(s, 6)}
            for (v, r, d), (n, s) in sorted(self.shapes.items())
        ]
