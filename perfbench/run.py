"""Run one blockosc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload models --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository: the library is imported from its
``src`` directory.  The run compiles the sources to bytecode, then imports
blockosc and builds the workload's inputs from the seed several times (the
set-up), then runs the workload's fixed task list in whole rounds until
``--seconds`` have passed.  Every round starts with the library's lru caches
cleared, as in a fresh user process.  Every time is scaled to a reference
speed by calibration slices run between the tasks (see ``Clock``).  After
the timed rounds every output is checked; an output that raised, fails its
check, or differs from the same task's output in the first round, counts
as a failed operation and makes the run incorrect.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the library's layer functions
are wrapped for the timed rounds, and the metrics are the per-layer ones.
Details (round times, per-kind task times, traced wall time) go to
``.perfbench_out/results/``; the traced run's spans go to
``.perfbench_out/spans/`` (first round only).
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import fractions
import gc
import importlib
import importlib.util
import json
import resource
import statistics
import sys
import time
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PACKAGE = "blockosc"
LIB_MODULES = ("sets", "barriers", "blocks", "normspace", "closedform", "oscillation",
               "ramsey", "models")
SETUP_REPEATS = 15
# A task's speed estimate is the median slice within this many seconds of it.
LOCAL_S = 0.5


def _workloads():
    from perfbench.cli_tasks import build_cli
    from perfbench.workloads import build_models, build_scans, build_tables
    return {
        "models": (build_models, LIB_MODULES, fraction_slice),
        "tables": (build_tables, LIB_MODULES, fraction_slice),
        "scans": (build_scans, LIB_MODULES, fraction_slice),
        "cli": (build_cli, LIB_MODULES + ("serialize", "cli"), integer_slice),
    }


def _purge() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def _import(modules: tuple[str, ...]) -> SimpleNamespace:
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in modules})


def _lru_caches() -> list[Any]:
    found: dict[int, Any] = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


class Clock:
    """Times stretches of work and scales them to the reference speed.

    After each timed stretch it runs a calibration slice: fixed work in the
    standard library that shares nothing with blockosc, so neither a change
    to the library nor the traced run's wrappers can move it.  On a shared
    host the same work was seen to take up to 1.85x as long, for tens of
    seconds at a time, while other tenants were busy.  A stretch's scaled
    time is its measured time times the slice's reference time over the
    median slice measured within LOCAL_S seconds of it.
    """

    def __init__(self, calibration_slice):
        self.slice = calibration_slice
        self.slices: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spans: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        self.slice()
        t1 = time.perf_counter()
        self.slices.append(((t0 + t1) / 2, t1 - t0))

    def record(self, t0: float, t1: float) -> int:
        """Keep a stretch measured from t0 to t1, then calibrate; its index."""
        self.spans.append(((t0 + t1) / 2, t1 - t0))
        self.calibrate()
        return len(self.spans) - 1

    def scaled(self) -> list[float]:
        """Every recorded stretch, scaled to the reference speed."""
        marks = [m for m, _ in self.slices]
        out = []
        lo = hi = 0
        for mid, dt in self.spans:
            while lo < len(marks) and marks[lo] < mid - LOCAL_S:
                lo += 1
            while hi < len(marks) and marks[hi] <= mid + LOCAL_S:
                hi += 1
            near = [s for _, s in self.slices[lo:hi]]
            if len(near) < 5:  # a long stretch: take the nearest five slices
                near = [s for _, s in sorted(self.slices, key=lambda x: abs(x[0] - mid))[:5]]
            out.append(dt * self.slice.reference_s / statistics.median(near))
        return out


def _private_fraction() -> type:
    """Fraction from a private copy of the standard fractions module.

    blockosc never sees this copy, and the traced run's wrapper on
    ``fractions.Fraction.__new__`` does not reach it.
    """
    spec = importlib.util.spec_from_file_location("_perfbench_fractions", fractions.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Fraction


_CalibrationFraction = _private_fraction()


# The slices.  Each is timed side by side with the library's tasks under
# changing host load; the workloads use the one whose time tracked theirs
# best.  ``reference_s`` is a slice's time on this host with no neighbour
# contending for its cores: reported times are scaled to that speed.


def fraction_slice() -> None:
    """Fixed Fraction arithmetic, the library's own kind of work.

    Against the library workloads' tasks, the median ratio of task time to
    slice time moved 1.2% between 20-second stretches of changing load,
    against 6% for ``integer_slice`` and 13% unscaled.
    """
    total, kept = _CalibrationFraction(0), []
    for i in range(1, 500):
        total += _CalibrationFraction(i % 13, i % 97 + 1)
        if i % 50 == 0:
            kept.append(total)
    sorted(kept)


fraction_slice.reference_s = 0.00135


def integer_slice() -> None:
    """Fixed integer, dict and sorting work, closer to argument parsing.

    Under load the command-line tasks slowed about as much as this slice
    (an elasticity of 0.96) and less than ``fraction_slice`` (0.76).
    """
    for _ in range(3):
        acc, seen = 0, {}
        for i in range(1, 400):
            n, d = i * 7919 % 1009 + 1, i % 97 + 1
            acc = (acc * 31 + n // gcd(n, d)) % 1000003
            key = (i % 61, d)
            seen[key] = seen.get(key, 0) + 1
            if i % 100 == 0:
                sorted(seen.items(), key=lambda kv: (-kv[1], kv[0]))
                str(acc)


integer_slice.reference_s = 0.0012


def import_slice() -> None:
    """Fixed import work, the set-up's own kind: two standard modules loaded
    from their cached bytecode into private module objects, and six frozen
    dataclasses made (blockosc's import makes about forty).

    Over the same set-ups in separate processes, the set-up time scaled by
    this slice spread about a third as much as when scaled by
    ``fraction_slice``.
    """
    for module in (argparse, fractions):
        spec = importlib.util.spec_from_file_location("_perfbench_" + module.__name__,
                                                      module.__file__)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    for i in range(6):
        dataclasses.dataclass(frozen=True)(type(f"Slice{i}", (), {
            "__annotations__": {"a": "int", "b": "str", "c": "tuple"}, "c": ()}))


import_slice.reference_s = 0.0059


class Raised:
    """A task's exception, kept as its output so rounds can be compared."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.text == self.text


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run a workload and return the result object (plus a ``detail`` key)."""
    build, modules, calibration_slice = _workloads()[workload]

    # the set-up is mostly import work, so it has a slice of its own
    setup_clock = Clock(import_slice)
    for _ in range(SETUP_REPEATS):
        _purge()
        gc.collect()
        for _ in range(4):
            setup_clock.calibrate()
        t0 = time.perf_counter()
        mods = _import(modules)
        tasks = build(mods, seed)
        setup_clock.record(t0, time.perf_counter())

    clock = Clock(calibration_slice)
    for _ in range(10):
        clock.calibrate()

    tracer = None
    if trace:
        from perfbench.tracer import Tracer
        tracer = Tracer(PACKAGE)
    caches = _lru_caches()

    first: list[Any] = []
    bad_rounds = [0] * len(tasks)  # rounds whose output differs from round 1
    round_ids: list[list[int]] = []  # clock indices of each round's tasks
    round_times: list[float] = []  # raw, including the calibration slices
    if tracer:
        tracer.install()
    started = time.perf_counter()
    try:
        while True:
            if tracer:
                tracer.harvest_caches()
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            outputs, ids = [], []
            r0 = time.perf_counter()
            for task in tasks:
                t0 = time.perf_counter()
                try:
                    out = tracer.run_task(task.call) if tracer else task.call()
                except Exception as exc:  # a failed operation, judged below
                    out = Raised(exc)
                ids.append(clock.record(t0, time.perf_counter()))
                outputs.append(out)
            round_times.append(time.perf_counter() - r0)
            round_ids.append(ids)
            if tracer:
                tracer.recording = False  # later rounds repeat round 1's spans
            if not first:
                first = outputs
            else:
                for i, (a, b) in enumerate(zip(first, outputs)):
                    if not a == b:
                        bad_rounds[i] += 1
            del outputs
            if time.perf_counter() - started >= seconds:
                break
        if tracer:
            tracer.harvest_caches()
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks_started = time.perf_counter()

    rounds = len(round_times)
    failed = 0
    wrong = 0
    messages = []
    for i, (task, out) in enumerate(zip(tasks, first)):
        if isinstance(out, Raised):
            failed += rounds
            wrong += rounds
            messages.append(f"{task.kind}: raised {out.text}")
            continue
        try:
            msg = task.check(out)
        except Exception as exc:  # a check that cannot read the output
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            failed += rounds
            wrong += rounds
            messages.append(f"{task.kind}: {msg}")
        elif bad_rounds[i]:
            failed += bad_rounds[i]
            wrong += bad_rounds[i]
            messages.append(f"{task.kind}: output changed between rounds")

    check_s = time.perf_counter() - checks_started
    scaled = clock.scaled()
    setup_scaled = setup_clock.scaled()
    round_scaled = [sum(scaled[i] for i in ids) for ids in round_ids]
    task_scaled = [scaled[i] for ids in round_ids for i in ids]
    # the task list once: each task at its median over the rounds, so a
    # burst of load in one round moves no more than that task's share
    task_medians = [statistics.median(scaled[ids[t]] for ids in round_ids)
                    for t in range(len(tasks))]
    kind_times: dict[str, list[float]] = {}
    for ids in round_ids:
        for task, i in zip(tasks, ids):
            kind_times.setdefault(task.kind, []).append(scaled[i])
    wall_s = sum(task_medians)
    if tracer:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in tracer.metrics().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "task_p50_ms": {"value": statistics.median(task_scaled) * 1e3, "unit": "ms"},
            "task_p90_ms": {"value": p90(task_scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "tasks_per_round": len(tasks), "wall_s": wall_s,
        "raw_round_s": statistics.median(round_times),
        "raw_setup_s": statistics.median(dt for _, dt in setup_clock.spans),
        "round_times_s": round_times, "round_scaled_s": round_scaled,
        "setup_scaled_s": setup_scaled,
        "calibration_median_s": statistics.median(s for _, s in clock.slices),
        "setup_calibration_median_s": statistics.median(s for _, s in setup_clock.slices),
        "peak_rss_mb": peak_rss_mb, "check_s": check_s,
        "task_ms_by_kind": {k: {"count": len(v), "p50": statistics.median(v) * 1e3,
                                "max": max(v) * 1e3} for k, v in sorted(kind_times.items())},
        "python": sys.version.split()[0],
        "failures": messages[:20],
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if tracer:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        detail["spans"] = tracer.write_spans(str(OUT / "spans" / f"{tag}.csv.gz"))
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps({"metrics": metrics, "detail": detail}, indent=1) + "\n")
    return {"correct": wrong == 0, "attempted": rounds * len(tasks), "failed": failed,
            "metrics": metrics, "detail": detail}


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("models", "tables", "scans", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"no {PACKAGE} sources under {SRC}; run from a checkout\n")
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {detail['rounds']} rounds "
          f"of {detail['tasks_per_round']} tasks, median round {detail['wall_s']:.4f} s")
    for msg in detail["failures"]:
        print(f"# FAILED {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
