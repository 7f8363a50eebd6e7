"""Run a set of benchmark runs, and compare sets against BENCHMARK.json's bounds.

    python3 perfbench/spread.py run --workload models --seeds 1-10 --out A.jsonl
    python3 perfbench/spread.py summary A.jsonl [B.jsonl]

``run`` starts ``perfbench/run.py`` once per seed, one run at a time, and
appends each run's result line to the output file.  ``summary`` prints, per
workload and end-to-end metric, the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  A spread must stay within the metric's bound; under
a third of it is the target.  Given a second set, it also prints how much
worse the second median is than the first, as a share of the first,
against the bound, and whether the share of failed operations is the same
in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def collect(workload: str, seeds: list[int], seconds: int, trace: int, out: Path) -> None:
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with out.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} {vals}",
              flush=True)


def _load(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summarize(a: Path, b: Path | None) -> bool:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [_load(a)] + ([_load(b)] if b else [])
    ok = True
    for workload in sets[0]:
        for i, runs in enumerate(sets):
            rs = runs.get(workload, [])
            share = sorted({r["failed"] / r["attempted"] for r in rs})
            print(f"{workload} set {i + 1}: {len(rs)} runs, failed share {share}")
        for name, bound in bounds.items():
            line = f"  {name:12s} bound {bound:.2f}"
            medians = []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs.get(workload, [])]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians.append(statistics.median(vals))
                flag = "" if spread < bound / 3 else (
                    "  <-- over a third of the bound" if spread <= bound else "  <-- OVER BOUND")
                ok &= spread <= bound
                line += f" | median {statistics.median(vals):.5g} spread {spread:.4f}{flag}"
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                line += f" | second worse by {worse:+.4f}"
                ok &= worse <= bound
            print(line)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("summary")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path, nargs="?")
    args = parser.parse_args()
    if args.cmd == "run":
        collect(args.workload, _seeds(args.seeds), args.seconds, args.trace, args.out)
        return 0
    return 0 if summarize(args.first, args.second) else 1


if __name__ == "__main__":
    sys.exit(main())
