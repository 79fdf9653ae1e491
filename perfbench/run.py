"""Benchmark of the ``upperset`` package: one workload, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process calls the package from one thread; each call starts when the
previous one returned.  A set-up is a fresh import of the package plus its
fixtures and seeded inputs.  A run sets up 5 times, then
runs whole passes over the workload's items, at least 3 and more until
``--seconds`` have passed, each after a set-up of its own, so every pass
starts on cold caches, module-level ones included.  Every timing is a
median over the run: ``setup_s`` the median set-up, ``wall_s`` the sum over
the items of each item's median time over the passes, and ``item_p50_s`` (a
per-layer metric) the median of those item times.

Every timing is taken at the reference speed.  The shared machine changes
the speed of the same code by up to 2 times, in spells of seconds to
minutes, so a fixed pure-Python task of exact rational arithmetic that
makes no package call is timed before and after each timed call and every
``TICK_S`` seconds within it, and each stretch of the call is scaled by
``REFERENCE_CAL_S`` over the mean of the two calibrations around it.
A change to the package does not change the task, so it moves the scaled
time as it moves the raw one; the raw times are kept in the detail line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time (at least one), then as many traced passes on the
last import, and prints the per-layer metrics per traced pass, the tracing
overhead, and a ``solve_lp`` shape histogram.  Every pass must reproduce
the first pass's verdict digests exactly, traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
items whose output matched no reference and no known defect; known defects
are counted in ``failed_share`` and ``correct_share`` instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, random_polytope, vertices  # noqa: E402

PACKAGE_MODULES = LAYERS + ("corpus",)
SETUP_REPEATS = 5
MIN_PASSES = 3
# The calibration task: the vertices of one fixed polytope in R^3, by brute
# force over row subsets.  REFERENCE_CAL_S is its time in the fast state of
# the reference machine (2-vCPU KVM guest, Intel Xeon, Python 3.11), rounded.
CAL_POLYTOPE = random_polytope(random.Random(0), 3)
REFERENCE_CAL_S = 0.006
TICK_S = 0.25


def calibrate() -> float:
    t0 = perf_counter()
    vertices(CAL_POLYTOPE, 3)
    return perf_counter() - t0


class Stopwatch:
    """Times a call at the reference speed.

    The calibration task runs at ``start`` and ``stop`` and, while the watch
    runs, from a SIGALRM handler every ``tick_s`` seconds (never, if 0), so
    the machine's speed is sampled within each spell of it.  Each stretch
    between two calibrations is scaled by ``REFERENCE_CAL_S`` over their
    mean; the calibrations themselves are left out of both times.
    """

    def __init__(self, tick_s: float):
        self.tick_s = tick_s
        self.running = False
        if tick_s:
            signal.signal(signal.SIGALRM, self._tick)

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self.cal = calibrate()
        self.mark = perf_counter()
        self.running = True
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, self.tick_s)

    def stop(self) -> tuple[float, float]:
        """(raw seconds, seconds at the reference speed) since ``start``."""
        self.running = False
        now = perf_counter()
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._lap(now)
        return self.raw, self.scaled

    def _tick(self, signum, frame) -> None:
        # One-shot timer, re-armed here: a handler never runs inside another.
        if self.running:
            self._lap(perf_counter())
            self.mark = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, self.tick_s)

    def _lap(self, now: float) -> None:
        cal = calibrate()
        self.raw += now - self.mark
        self.scaled += (now - self.mark) * 2 * REFERENCE_CAL_S / (self.cal + cal)
        self.cal = cal


def import_package():
    """A fresh import of the package; earlier imports are dropped first."""
    for name in [n for n in sys.modules if n == "upperset" or n.startswith("upperset.")]:
        del sys.modules[name]
    return argparse.Namespace(
        **{m: importlib.import_module(f"upperset.{m}") for m in PACKAGE_MODULES}
    )


def set_up(build, seed: int, watch: Stopwatch):
    """Fresh import and freshly built items; returns (package, items, seconds
    at the reference speed)."""
    watch.start()
    U = import_package()
    items = build(U, seed)
    return U, items, watch.stop()[1]


def run_items(items, watch: Stopwatch, tracer: Tracer | None):
    """One pass; returns (item times at the reference speed, item names,
    scores, raw item times)."""
    times, raw, outputs = [], [], []
    for item in items:
        if tracer is not None:
            tracer.begin_item()
            tracer.enabled = True
        watch.start()
        try:
            out = item.run()
        except Exception as exc:  # a raising item is an outcome, not a harness error
            out = exc
        seconds, at_reference = watch.stop()
        if tracer is not None:
            tracer.enabled = False
        raw.append(seconds)
        times.append(at_reference)
        outputs.append(out)
    scores = [item.check(out) for item, out in zip(items, outputs)]
    return times, [item.name for item in items], scores, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "upperset" / "__init__.py").is_file():
        print(f"no upperset package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    build = WORKLOADS[args.workload]

    watch = Stopwatch(TICK_S)
    setup = [set_up(build, args.seed, watch)[2] for _ in range(SETUP_REPEATS)]
    budget = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    passes = []
    started = perf_counter()
    while len(passes) < min_passes or perf_counter() - started < budget:
        U, items, seconds = set_up(build, args.seed, watch)
        setup.append(seconds)
        passes.append(run_items(items, watch, None))
    traced = []
    tracer = None
    if args.trace:
        # Patches the package imported last; traced passes do not re-import.
        # No ticks: a tick's calibration would land in some layer's self time.
        tracer = Tracer()
        tracer.install()
        for _ in passes:
            traced.append(run_items(build(U, args.seed), Stopwatch(0), tracer))

    names = passes[0][1]
    first = [s.digest for s in passes[0][2]]
    mismatches = sum([s.digest for s in p[2]] != first for p in passes[1:] + traced)
    scores = [s for p in passes + traced for s in p[2]]
    attempted = len(scores)
    unexpected = sum(bool(s.unexpected) for s in scores)
    checks = sum(s.checks for s in scores)
    verdicts = sum(s.verdicts for s in scores)
    # Each item's time is its median over the passes: a slow spell of the
    # machine that covers fewer than half of an item's passes moves nothing.
    item_s = [statistics.median(p[0][i] for p in passes) for i in range(len(names))]
    samples = len(passes) * len(names)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "item_samples": samples,
        "setup_samples_s": [round(s, 4) for s in setup],
        "items": [
            {
                "name": n,
                "median_s": round(item_s[i], 4),
                "samples_s": [round(p[0][i], 4) for p in passes],
                "raw_samples_s": [round(p[3][i], 4) for p in passes],
                "digest": s.digest,
                "checks": s.checks,
                "correct": s.correct,
                "known_defects": [f"{what}: {defect}" for defect, what in s.defects],
                "unexpected": s.unexpected,
            }
            for i, (n, s) in enumerate(zip(names, passes[0][2]))
        ],
        "digest_mismatches": mismatches,
    }
    correct_share = sum(s.correct for s in scores) / checks if checks else 1.0
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(item_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_share": (correct_share, "share"),
        "decided_share": (sum(s.decided for s in scores) / verdicts if verdicts else 1.0, "share"),
    }
    item_p50_s = statistics.median(item_s)
    failed_share = sum(s.failed for s in scores) / attempted
    downgrades = sum(s.downgrades for s in scores) / (len(passes) + len(traced))
    print(f"{args.workload} seed={args.seed}: {len(passes)} untraced pass(es), "
          f"{len(traced)} traced, {len(names)} items per pass, {samples} item samples")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    print(f"  item_p50_s     {item_p50_s:.6g} s ({samples} samples)")
    print(f"  failed_share   {failed_share:.6g} share (known defects included)")
    print(f"  downgrades     {downgrades:.6g} count per pass")
    shown = {}
    for s in passes[0][2]:
        for defect, what in s.defects:
            shown.setdefault(defect, []).append(what)
        for u in s.unexpected:
            print(f"  UNEXPECTED: {u}")
    for defect, whats in shown.items():
        print(f"  known defect, {len(whats)} failed check(s) per pass: {defect}; e.g. {whats[0]}")
    if mismatches:
        print(f"  DIGEST MISMATCH in {mismatches} pass(es)")

    if args.trace:
        # The tracer's self times are raw, so the walls they add up to are
        # too; the overhead compares passes at the reference speed.
        traced_walls = [sum(p[3]) for p in traced]
        traced_wall = statistics.fmean(traced_walls)
        overhead = statistics.fmean(sum(p[0]) for p in traced) / statistics.fmean(
            sum(p[0]) for p in passes
        ) - 1
        layer = tracer.metrics(len(traced), sum(traced_walls))
        layer.update(
            {
                "item_p50_s": item_p50_s,
                "failed_share": failed_share,
                "downgrades": downgrades,
                "bench.traced_wall_s": traced_wall,
                "bench.trace_overhead": overhead,
            }
        )
        detail["solve_lp_shapes"] = tracer.shape_histogram()
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps(detail, default=str))
    print(
        json.dumps(
            {
                "correct": unexpected == 0 and mismatches == 0,
                "attempted": attempted,
                "failed": unexpected,
                "metrics": metrics,
            }
        )
    )
    return 0


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "_max", "downgrades")):
        return "count"
    if name.endswith(("_share", "overhead")):
        return "share"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
