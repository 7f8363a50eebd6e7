"""Spans and counts at blockosc's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper at
every module that binds it (``oscillation.psi_eval`` and
``models.psi_eval`` are separate bindings of one function, so both get the
same wrapper), and wraps ``FiniteSet.__init__`` and ``Fraction.__new__`` on
their classes to count constructions.  ``uninstall`` puts every original
back.  Spans (name, start, end, parent span) are kept in flat arrays in
memory while ``recording`` is set, and written out once, when the run
ends; the counts and times behind the metrics cover every call.

A layer's ``self_s`` is the sum of its spans' durations minus the time of
the traced spans nested directly inside them.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, Optional

# (metric prefix, defining module, attribute, extra count)
# The extra count, when named, is accumulated from each call's result.
SPANNED = (
    ("barriers.front", "barriers", "front", None),
    ("barriers.contains", "barriers", "contains", None),
    ("barriers.enumerate_up_to", "barriers", "enumerate_up_to", None),
    ("blocks.enumerate_blocks", "blocks", "enumerate_blocks", "blocks_out"),
    ("blocks.from_concat", "blocks", "from_concat", None),
    ("normspace.norm_eval", "normspace", "norm_eval", None),
    ("normspace.norm_eval_multiset", "normspace", "norm_eval_multiset", None),
    ("oscillation.psi_eval", "oscillation", "psi_eval", None),
    ("oscillation.oscillation_gap", "oscillation", "oscillation_gap", None),
    ("oscillation.asymptotic_stability_check", "oscillation",
     "asymptotic_stability_check", None),
    ("oscillation.find_stable_subsequence", "oscillation", "find_stable_subsequence", None),
    ("ramsey.find_monochromatic", "ramsey", "find_monochromatic", None),
    ("ramsey.metric_stabilize", "ramsey", "metric_stabilize", None),
    ("ramsey.diagonal_stabilize", "ramsey", "diagonal_stabilize", None),
    ("models.model_eval", "models", "model_eval", None),
    ("models.verify_section6", "models", "verify_section6", None),
    ("models.spreading_check", "models", "spreading_check", None),
    ("models.equivalence_constants", "models", "equivalence_constants", None),
    ("models.consistency_check", "models", "consistency_check", None),
    ("serialize.dumps", "serialize", "dumps", "bytes_out"),
    ("cli.main", "cli", "main", None),
    ("cli.build_parser", "cli", "build_parser", None),
)

# Layers that aggregate every public function of a module (or every
# parse_* codec) under one prefix.
GROUPED = (
    ("closedform", "closedform", lambda name: not name.startswith("_")),
    ("serialize.parse", "serialize", lambda name: name.startswith("parse_")),
)

# lru caches whose hit ratio is reported: metric -> (module, attribute)
CACHES = {
    "barriers.enumerate_up_to.hit_ratio": ("barriers", "_enumerate_cached"),
    "blocks.enumerate_blocks.hit_ratio": ("blocks", "_enumerate_blocks_cached"),
    "oscillation.indicator_norm.hit_ratio": ("oscillation", "_indicator_norm"),
    "models.probe_blocks.hit_ratio": ("models", "_probe_blocks"),
}

COUNTED = ("sets.FiniteSet.calls", "fractions.Fraction.calls")

# Every per-layer metric, in report order; a layer a workload never reaches
# reports zero.
METRICS = (
    "sets.FiniteSet.calls",
    "barriers.front.calls", "barriers.front.self_s", "barriers.contains.calls",
    "barriers.enumerate_up_to.calls", "barriers.enumerate_up_to.self_s",
    "barriers.enumerate_up_to.hit_ratio",
    "blocks.enumerate_blocks.calls", "blocks.enumerate_blocks.self_s",
    "blocks.enumerate_blocks.hit_ratio", "blocks.enumerate_blocks.blocks_out",
    "blocks.from_concat.calls", "blocks.from_concat.self_s",
    "normspace.norm_eval.calls", "normspace.norm_eval.self_s",
    "normspace.norm_eval_multiset.calls", "normspace.norm_eval_multiset.self_s",
    "fractions.Fraction.calls",
    "closedform.calls", "closedform.self_s",
    "oscillation.psi_eval.calls", "oscillation.psi_eval.self_s",
    "oscillation.indicator_norm.hit_ratio", "oscillation.oscillation_gap.self_s",
    "oscillation.asymptotic_stability_check.self_s",
    "oscillation.find_stable_subsequence.calls", "oscillation.find_stable_subsequence.self_s",
    "ramsey.find_monochromatic.calls", "ramsey.find_monochromatic.self_s",
    "ramsey.metric_stabilize.calls", "ramsey.metric_stabilize.self_s",
    "ramsey.diagonal_stabilize.calls", "ramsey.diagonal_stabilize.self_s",
    "models.model_eval.calls", "models.model_eval.self_s", "models.probe_blocks.hit_ratio",
    "models.verify_section6.self_s", "models.spreading_check.self_s",
    "models.equivalence_constants.self_s", "models.consistency_check.self_s",
    "serialize.parse.calls", "serialize.parse.self_s", "serialize.dumps.calls",
    "serialize.dumps.self_s", "serialize.dumps.bytes_out",
    "cli.main.calls", "cli.main.self_s", "cli.build_parser.self_s",
)


def _size_of(result: Any, kind: str) -> int:
    if kind == "bytes_out":
        return len(result.encode("utf-8"))
    return len(result)


class Tracer:
    """Wraps blockosc's layer functions and aggregates what they record."""

    def __init__(self, package: str = "blockosc"):
        self.package = package
        self.names: list[str] = ["task"]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, int] = {}
        self.counts = {name: 0 for name in COUNTED}
        self.cache_hits: dict[str, list[int]] = {m: [0, 0] for m in CACHES}
        # span arrays: name id, start, end, parent span (-1 for a task root)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: list[list] = []  # [span id or -1, child seconds]
        self.recording = True  # keep span records; aggregates always count
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name_id: int) -> tuple[int, float]:
        sid = -1
        if self.recording:
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([sid, 0.0])
        return sid, perf_counter()

    def _leave(self, sid: int, prefix: Optional[str], t0: float) -> None:
        t1 = perf_counter()
        _, child = self._stack.pop()
        dur = t1 - t0
        if sid >= 0:
            self.span_start[sid] = t0
            self.span_end[sid] = t1
        if self._stack:
            self._stack[-1][1] += dur
        if prefix is not None:
            self.calls[prefix] += 1
            self.self_s[prefix] += dur - child

    def run_task(self, fn: Callable[[], Any]) -> Any:
        """Run one task under a root span shared by the calls it makes."""
        sid, t0 = self._enter(0)
        try:
            return fn()
        finally:
            self._leave(sid, None, t0)

    def _spanned(self, prefix: str, fn: Callable, extra: Optional[str]) -> Callable:
        name_id = len(self.names)
        self.names.append(prefix)
        self.calls.setdefault(prefix, 0)
        self.self_s.setdefault(prefix, 0.0)
        if extra:
            self.extra.setdefault(f"{prefix}.{extra}", 0)
        enter, leave, extras = self._enter, self._leave, self.extra

        def wrapper(*args, **kwargs):
            sid, t0 = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid, prefix, t0)
            if extra:
                extras[f"{prefix}.{extra}"] += _size_of(result, extra)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, metric: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _modules(self) -> list[Any]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _rebind(self, original: Any, wrapper: Any) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function of the modules imported so far."""
        pkg = self.package
        mod = lambda short: sys.modules.get(f"{pkg}.{short}")  # noqa: E731
        for prefix, short, attr, extra in SPANNED:
            original = getattr(mod(short), attr, None)
            if callable(original):
                self._rebind(original, self._spanned(prefix, original, extra))
        for prefix, short, keep in GROUPED:
            m = mod(short)
            if m is None:
                continue
            for attr, original in list(vars(m).items()):
                if (keep(attr) and callable(original) and not isinstance(original, type)
                        and getattr(original, "__module__", None) == m.__name__):
                    self._rebind(original, self._spanned(prefix, original, None))
        finite_set = getattr(mod("sets"), "FiniteSet", None)
        if finite_set is not None and "__init__" in vars(finite_set):
            self._restore.append((finite_set, "__init__", finite_set.__dict__["__init__"]))
            finite_set.__init__ = self._counted("sets.FiniteSet.calls", finite_set.__init__)
        self._restore.append((Fraction, "__new__", Fraction.__dict__["__new__"]))
        Fraction.__new__ = staticmethod(self._counted("fractions.Fraction.calls",
                                                      Fraction.__new__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def harvest_caches(self) -> None:
        """Add the named caches' hits and misses so far; call before clearing."""
        pkg = self.package
        for metric, (short, attr) in CACHES.items():
            fn = getattr(sys.modules.get(f"{pkg}.{short}"), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self.cache_hits[metric][0] += info.hits
                self.cache_hits[metric][1] += info.misses

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every name in METRICS with its value; zero where nothing ran."""
        seen: dict[str, float] = {}
        for prefix, calls in self.calls.items():
            seen[f"{prefix}.calls"] = calls
            seen[f"{prefix}.self_s"] = self.self_s[prefix]
        seen.update(self.extra)
        seen.update(self.counts)
        for metric, (hits, misses) in self.cache_hits.items():
            seen[metric] = hits / (hits + misses) if hits + misses else 0.0
        return {name: seen.get(name, 0) for name in METRICS}

    def write_spans(self, path: str) -> int:
        """Write every span as CSV (id,name,start_s,end_s,parent); return the count."""
        n = len(self.span_name)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            names, ids, starts, ends, parents = (self.names, self.span_name, self.span_start,
                                                 self.span_end, self.span_parent)
            for i in range(n):
                fh.write(f"{i},{names[ids[i]]},{starts[i]:.9f},{ends[i]:.9f},{parents[i]}\n")
        return n
