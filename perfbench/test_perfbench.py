"""Tests of the benchmark itself: its oracles on hand-worked cases, its
metric names against BENCHMARK.json, and one short pass of each workload."""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from perfbench import oracles
from perfbench.tracer import METRICS
from perfbench.workloads import EVEN_PAIR_TERMS, SEC6_TERMS

ROOT = Path(__file__).resolve().parent.parent


def test_eight_ones_under_section6():
    ones = {i: F(1) for i in range(1, 9)}
    assert oracles.brute_norm(SEC6_TERMS, ones) == F(9, 2)
    assert oracles.multiset_norm(SEC6_TERMS, [(F(1), 8)]) == F(9, 2)


def test_two_pair_blocks_at_ones():
    assert oracles.psi(SEC6_TERMS, ((1, 2), (3, 4)), (F(1), F(1))) == F(3, 2)
    assert oracles.model_value(SEC6_TERMS, (2, 2), (F(1), F(1))) == F(3, 2)
    assert oracles.model_value(SEC6_TERMS, (2, 2, 8, 8), (0, 0, F(1), F(1))) == F(1)


def test_even_pair_fixture_by_parity():
    # unit vectors keep norm one; two evens give 3/2, mixed 5/4, two odds 1
    assert oracles.brute_norm(EVEN_PAIR_TERMS, {3: F(1)}) == 1
    assert oracles.psi(EVEN_PAIR_TERMS, ((2,), (4,)), (F(1), F(1))) == F(3, 2)
    assert oracles.psi(EVEN_PAIR_TERMS, ((1,), (4,)), (F(1), F(1))) == F(5, 4)
    assert oracles.psi(EVEN_PAIR_TERMS, ((1,), (3,)), (F(1), F(1))) == 1


def test_knapsack_agrees_with_exhaustive_oracle():
    rng = random.Random(5)
    terms = ((F(2, 3), 3, None), (F(5, 9), 5, None))
    for _ in range(200):
        parts, vec, at = [], {}, 1
        for _ in range(rng.randint(1, 4)):
            v, c = F(rng.randint(0, 9), rng.randint(1, 5)), rng.randint(1, 3)
            parts.append((v, c))
            for i in range(at, at + c):
                vec[i] = v
            at += c
        assert oracles.multiset_norm(terms, parts) == oracles.brute_norm(terms, vec)


def test_bitmask_monochromatic_oracle():
    pairs = [((a, b), "red") for a in range(1, 6) for b in range(a + 1, 6)]
    assert oracles.largest_monochromatic(list(range(1, 6)), pairs) == (5, (1, 2, 3, 4, 5))
    pairs = [(p, "blue" if p == (1, 2) else "red") for p, _ in pairs]
    assert oracles.largest_monochromatic(list(range(1, 6)), pairs) == (4, (1, 3, 4, 5))


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(METRICS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_s", "task_p50_ms", "task_p90_ms", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == ["models", "tables", "scans", "cli"]


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The run module, writing to a temporary directory with one set-up.

    The run re-imports blockosc; the suite's modules are put back afterwards.
    """
    saved = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "blockosc"}
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import run
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    try:
        yield run
    finally:
        sys.path.remove(str(ROOT / "src"))
        for name in [n for n in sys.modules if n.split(".")[0] == "blockosc"]:
            del sys.modules[name]
        sys.modules.update(saved)


def _only(monkeypatch, bench, workload, build):
    """Make ``workload`` run the tasks ``build(mods, seed)`` gives."""
    _, modules, calibration_slice = bench._workloads()[workload]
    monkeypatch.setattr(bench, "_workloads",
                        lambda: {workload: (build, modules, calibration_slice)})


# a short pass: one round (seconds=0) over every few tasks of each workload
@pytest.mark.parametrize("workload,stride,trace", [
    ("models", 4, False), ("tables", 6, True), ("scans", 6, False), ("cli", 8, True)])
def test_short_pass(bench, monkeypatch, workload, stride, trace):
    build = bench._workloads()[workload][0]
    _only(monkeypatch, bench, workload, lambda mods, seed: build(mods, seed)[::stride])
    result = bench.run(workload, seed=2, seconds=0, trace=trace)
    assert result["detail"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if trace:
        assert list(result["metrics"]) == list(METRICS)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_task_that_raises_makes_the_run_incorrect(bench, monkeypatch):
    from perfbench.workloads import Task
    _only(monkeypatch, bench, "models", lambda mods, seed: [
        Task("fine", lambda: 1, lambda out: None),
        Task("raises", lambda: 1 // 0, lambda out: None)])
    result = bench.run("models", seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["detail"]["failures"] == ["raises: raised ZeroDivisionError: "
                                            "integer division or modulo by zero"]
