"""The ``cli`` workload: a seeded batch of commands through ``cli.main``.

Every command runs in-process with its standard output and error captured.
A check gets the exit code and both streams.  It parses the report (JSON
or CSV) and judges it with ``oracles.py``, ``closedform`` or counts from
``math.comb``.  Commands that should exit 1 (a negative outcome) or 2
(invalid input) succeed when they do.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Callable, Optional, Union

from . import oracles
from .workloads import (
    C11,
    EVEN_PAIR,
    EVEN_PAIR_TERMS,
    SEC6_TERMS,
    SECTION6,
    SEQ8,
    SEQ228,
    SHAPE_SEED,
    OracleTable,
    Task,
    _equivalence_oracle,
    coefficient_tuples,
    expect,
    increasing,
    oracle_blocks,
    parity_pattern,
    parity_run,
)

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "section6_golden.json"


def js(x: Any) -> str:
    return json.dumps(x, separators=(",", ":"))


CUBE = lambda k: {"type": "cube", "k": k}  # noqa: E731
SEQ8_JSON = {"prefix": [], "tail": CUBE(8)}
SEQ228_JSON = {"prefix": [CUBE(2), CUBE(2)], "tail": CUBE(8)}


def invoke(mods, argv: list[str]) -> tuple[Any, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = mods.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parse(fmt: str, command: str, out: str) -> tuple[Optional[dict], Optional[str]]:
    """The report (JSON) or its dotted rows (CSV), after the envelope checks."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != ["key", "value"]:
            return None, "csv header missing"
        flat = {k: v for k, v in rows[1:]}
        if flat.get("schema_version") != "1" or flat.get("command") != command:
            return None, "csv envelope"
        return {k[len("report."):]: v for k, v in flat.items() if k.startswith("report.")}, None
    payload = json.loads(out)
    if payload.get("schema_version") != 1 or payload.get("command") != command:
        return None, "json envelope"
    return payload["report"], None


def lazy(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Compute ``fn()`` on first use, so oracles run in the checks, not in set-up."""
    memo: list = []

    def get():
        if not memo:
            memo.append(fn())
        return memo[0]

    return get


def command_task(argv: list[str], code: Union[int, Callable[[], int]], fmt: Optional[str],
                 check: Optional[Callable[[dict], Optional[str]]], mods) -> Task:
    command = " ".join(a for a in argv[:2] if not a.startswith("-"))
    if argv[0] == "verify-section6":
        command = "verify-section6"
    full = argv + (["--format", fmt] if fmt == "csv" else [])

    def judge(result) -> Optional[str]:
        got, out, err = result
        want = code if isinstance(code, int) else code()
        if got != want:
            return f"{' '.join(argv)[:80]}: exit {got} != {want}: {err[:200]}"
        if want == 2:
            return expect(out == "" and err != "", "invalid input must only write stderr")
        report, bad = _parse(fmt or "json", command, out)
        if bad:
            return bad
        return check(report) if check else None

    return Task(f"cli:{command}", lambda argv=full: invoke(mods, argv), judge)


# ---------------------------------------------------------------------------
# Builtin colorings, rebuilt from their documented rules


def coloring_rule(name: str) -> Callable[[tuple], str]:
    if name == "parity-of-sum":
        return lambda s: "even" if sum(s) % 2 == 0 else "odd"
    if name == "parity-of-min":
        return lambda s: "even" if min(s) % 2 == 0 else "odd"
    if name == "size-parity":
        return lambda s: "even" if len(s) % 2 == 0 else "odd"
    if name.startswith("contains:"):
        pivot = int(name.split(":", 1)[1])
        return lambda s: "yes" if pivot in s else "no"
    value = name.split(":", 1)[1]
    return lambda s: value


def _rand_vector(rng: random.Random, size: int, top: int) -> dict[int, F]:
    idx = rng.sample(range(1, top + 1), size)
    return {i: F(rng.randint(-12, 12) or 1, rng.randint(1, 6)) for i in idx}


def build_cli(mods, seed: int) -> list[Task]:
    """Command shapes (sizes, bounds, formats) come from SHAPE_SEED; the seed
    picks elements, values and coefficients."""
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    cf = mods.closedform
    tasks: list[Task] = []

    def add(argv, code=0, fmt="json", check=None):
        tasks.append(command_task(argv, code, fmt, check, mods))

    def fmt_pick(i: int) -> str:
        return "csv" if i % 3 == 2 else "json"

    # barrier: members (counts against math.comb), front, rank, axioms
    for i in range(12):
        k, bound = shape.randint(1, 3), shape.randint(5, 10)
        fmt = fmt_pick(i)

        def check(r, k=k, bound=bound, fmt=fmt):
            if fmt == "csv":
                return expect(r["count"] == str(comb(bound, k)), "member count")
            ok = all(len(m) == k and max(m) <= bound for m in r["members"])
            return expect(r["count"] == comb(bound, k) == len(r["members"]) and ok,
                          "member count")

        add(["barrier", "members", "--descriptor", js(CUBE(k)), "--bound", str(bound)],
            fmt=fmt, check=check)
    for i in range(12):
        start, step = rng.randint(1, 6), rng.randint(1, 4)
        progression = [start + step * j for j in range(12)]
        if i % 2:
            desc, want = {"type": "schreier"}, progression[:start]
        else:
            k = rng.randint(1, 5)
            desc, want = CUBE(k), progression[:k]
        add(["barrier", "front", "--descriptor", js(desc), "--set",
             js({"kind": "arithmetic", "start": start, "step": step})],
            check=lambda r, want=want: expect(r["front"] == want, f"front {r['front']}"))
    for i in range(6):
        k = rng.randint(1, 6)
        want = "w" if k == 1 else f"w^{k}"
        desc = CUBE(k) if i % 3 else {"type": "schreier"}
        want = want if i % 3 else "≥w^w"
        add(["barrier", "rank", "--descriptor", js(desc)],
            check=lambda r, want=want: expect(r["rank"] == want and r["confirmed"]
                                              and r["method"] == "structural",
                                              f"rank {r['rank']}"))
    for _ in range(3):
        k, bound = shape.randint(1, 3), shape.randint(6, 8)
        add(["barrier", "axioms", "--descriptor", js(CUBE(k)), "--bound", str(bound),
             "--seed", str(rng.randint(0, 99))],
            check=lambda r: expect(r["sperner_ok"] and r["cover_ok"] and not r["violations"],
                                   "cube axioms"))

    # blocks: enumerate, split (exit 0 and 1), compare, join
    for _ in range(10):
        a, b, bound = shape.randint(1, 3), shape.randint(1, 3), shape.randint(6, 9)
        add(["blocks", "enumerate", "--family", js([CUBE(a), CUBE(b)]), "--bound", str(bound)],
            check=lambda r, n=comb(bound, a + b): expect(r["count"] == n == len(r["blocks"]),
                                                         f"block count {r['count']} != {n}"))
    for i in range(10):
        a, b = shape.randint(1, 3), shape.randint(1, 4)
        extra = i % 2
        s = sorted(rng.sample(range(1, 30), a + b + extra))
        want = [s[:a], s[a:a + b]]
        add(["blocks", "split", "--family", js([CUBE(a), CUBE(b)]), "--set", js(s)],
            code=1 if extra else 0,
            check=(lambda r, s=s, a=a, b=b: expect(r["leftover"] == s[a + b:]
                                                   and r["consumed"] == [s[:a], s[a:a + b]],
                                                   "not-in-sum leftover")) if extra else
                  (lambda r, want=want: expect(r["block"] == want, f"split {r['block']}")))
    for _ in range(6):
        s = sorted(rng.sample(range(1, 20), 8))
        left, right = [s[0:2], s[2:4]], [s[4:6], s[6:8]]
        if rng.random() < 0.5:
            left, right = right, left
        if rng.random() < 0.3:
            right = [s[1:3], s[5:7]]
            left = [s[0:2], s[3:5]]
        lmax, rmin = left[0][-1], right[0][0]
        rmax, lmin = right[0][-1], left[0][0]
        want = ("less" if lmax < rmin else "greater" if rmax < lmin else "incomparable")
        add(["blocks", "compare", "--left", js(left), "--right", js(right)],
            check=lambda r, want=want: expect(r["relation"] == want, f"relation {r['relation']}"))
    for _ in range(6):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        s = sorted(rng.sample(range(1, 30), a + b))
        add(["blocks", "join", "--family", js([CUBE(a), CUBE(b)]),
             "--block", js([s[:a], s[a:]])],
            check=lambda r, s=s: expect(r["set"] == s, "join"))

    # ramsey: find-mono with builtin rules (bitmask oracle), metric, diagonal
    rules = ("parity-of-sum", "parity-of-min", "size-parity", "contains:3", "contains:5",
             "constant:c")
    for i in range(12):
        n = shape.randint(6, 8)
        uni = increasing(rng, n, 2 * n)
        rule = rules[i % len(rules)]
        color = coloring_rule(rule)
        pairs = [(p, color(p)) for p in combinations(uni, 2)]
        target = rng.randint(3, 6)
        fmt = fmt_pick(i)
        want = lazy(lambda uni=uni, pairs=pairs: oracles.largest_monochromatic(uni, pairs)[1])

        def check(r, want=want, target=target, fmt=fmt):
            best = want()
            if fmt == "csv":
                return expect(r["best.subset"] == " ".join(map(str, best))
                              and r["found"] == str(len(best) >= target), "mono witness")
            return expect(r["best"]["subset"] == list(best)
                          and r["found"] == (len(best) >= target), "mono witness")

        add(["ramsey", "find-mono", "--barrier", js(CUBE(2)), "--coloring", js(rule),
             "--universe", js(uni), "--target", str(target)],
            code=lambda want=want, target=target: 0 if len(want()) >= target else 1,
            fmt=fmt, check=check)
    for i in range(6):
        n = shape.randint(4, 6)
        uni = increasing(rng, n, 12)
        vals = {x: F(rng.randint(0, 8), 8) for x in uni}
        table = [{"block": [[x]], "value": str(v)} for x, v in vals.items()]
        eps, target = F(1, 4), rng.randint(2, n)
        want = lazy(lambda uni=uni, vals=vals, eps=eps: oracles.largest_stable(
            uni, [((x,), v) for x, v in vals.items()], eps)[1])
        add(["ramsey", "metric", "--family", js([CUBE(1)]), "--values", js(table),
             "--epsilon", str(eps), "--universe", js(uni), "--target", str(target)],
            code=lambda want=want, target=target: 0 if len(want()) >= target else 1,
            check=lambda r, want=want, vals=vals: expect(
                r["best"]["subset"] == list(want())
                and F(r["best"]["max_gap"]) == oracles.spread_inside(
                    [((x,), v) for x, v in vals.items()], want()), "metric witness"))
    for _ in range(4):
        n = shape.randint(4, 6)
        uni = increasing(rng, n, 12)
        vals = {x: F(rng.randint(0, 8), 8) for x in uni}
        table = [{"block": [[x]], "value": str(v)} for x, v in vals.items()]

        def check(r, uni=uni, vals=vals):
            pool, picked = list(uni), []
            for i, st in enumerate(r["stages"], start=1):
                want = oracles.largest_stable(
                    pool, [((x,), vals[x]) for x in pool], F(1, 2 ** i))[1]
                if st["subset"] != list(want) or st["pool"] != pool:
                    return f"diagonal stage {i}"
                picked.append(want[0])
                pool = list(want[1:])
            return expect(not pool and r["selected"] == picked, "diagonal selection")

        add(["ramsey", "diagonal", "--family", js([CUBE(1)]), "--values", js(table),
             "--universe", js(uni)], check=check)

    # norm: eval against the exhaustive oracle and the flat closed form
    specs = (({"type": "section6"}, SEC6_TERMS), ({"type": "even-pair"}, EVEN_PAIR_TERMS),
             ({"type": "sup"}, ()), ({"type": "mn", "m": 3, "n": 5},
                                     ((F(4, 6), 3, None), (F(6, 10), 5, None))))
    for i in range(30):
        spec_json, terms = specs[i % len(specs)]
        vec = _rand_vector(rng, shape.randint(1, 8), 16)
        fmt = fmt_pick(i)

        def check(r, terms=terms, vec=vec, flat=spec_json["type"] == "section6"):
            want = oracles.brute_norm(terms, vec)
            if flat and cf.flat_norm_sorted(sorted((abs(c) for c in vec.values()),
                                                   reverse=True)) != want:
                return "flat closed form disagrees with the oracle"
            return expect(F(r["value"]) == want and r["exact"] in (True, "True"),
                          f"norm {r['value']} != {want}")

        add(["norm", "eval", "--spec", js(spec_json), "--vector",
             js({str(k): str(v) for k, v in vec.items()})], fmt=fmt, check=check)
    lp1 = _rand_vector(rng, 5, 10)
    add(["norm", "eval", "--spec", js({"type": "lp", "p": 1}), "--vector",
         js({str(k): str(v) for k, v in lp1.items()})],
        check=lambda r, want=sum(abs(c) for c in lp1.values()): expect(
            F(r["value"]) == want and r["exact"], "l1 norm"))
    add(["norm", "axioms", "--spec", js({"type": "section6"}), "--k", "2", "--grid-q", "2"],
        check=lambda r: expect(r["all_pass"], "section6 axioms"))
    n_max = shape.randint(5, 8)
    add(["norm", "limit-demo", "--n-max", str(n_max), "--grid-q", "2"],
        check=lambda r, n_max=n_max: expect(
            [F(d) for _, d in r["distances"]] == [F(1, n) for n in range(1, n_max + 1)]
            and r["collapses_exactly_at_positivity"], "limit demo"))

    # oscillation: psi against closed forms and the oracle, gap, stabilize
    for i in range(30):
        form = i % 3
        if form == 2:
            fam, sizes, spec_json, terms = [CUBE(1), CUBE(1)], (1, 1), {"type": "even-pair"}, \
                EVEN_PAIR_TERMS
        else:
            sizes = (2, 2) if form == 0 else (2, 2, 8)
            fam, spec_json, terms = [CUBE(s) for s in sizes], {"type": "section6"}, SEC6_TERMS
        elems = sorted(rng.sample(range(1, 30), sum(sizes)))
        block, at = [], 0
        for s in sizes:
            block.append(elems[at:at + s])
            at += s
        a = [F(rng.randint(0, 4), 4) for _ in sizes]

        def check(r, terms=terms, block=block, a=a, form=form):
            want = oracles.psi(terms, block, a)
            closed = (cf.two_pair_block_value(*a) if form == 0 else
                      cf.pair_pair_eight_block_value(*a) if form == 1 else want)
            return expect(F(r["value"]) == want == closed, f"psi {r['value']} != {want}")

        add(["oscillation", "psi", "--spec", js(spec_json), "--family", js(fam),
             "--block", js(block), "--coeffs", js([str(c) for c in a])], check=check)
    for i in range(6):
        n = shape.randint(4, 5)
        if i % 2:  # Schreier membership reads the values: a fixed universe
            spec_d, fam, fam_json = SECTION6, (("s",), ("c", 1)), [{"type": "schreier"}, CUBE(1)]
            uni = sorted({1, 2} | set(increasing(shape, n, 2 * n)))
        else:
            uni = parity_run(rng, parity_pattern(shape, n, n // 2))
            spec_d, fam, fam_json = EVEN_PAIR, C11, [CUBE(1), CUBE(1)]

        def check(r, spec_d=spec_d, fam=fam, uni=uni):
            blocks = oracle_blocks(fam, uni)
            want = OracleTable(spec_d, blocks, coefficient_tuples(spec_d, 2, 2)).spread(
                range(len(blocks)))
            return expect(F(r["gap"]) == want and r["block_count"] == len(blocks),
                          f"gap {r['gap']} != {want}")

        add(["oscillation", "gap", "--spec", js({"type": spec_d.name}), "--family", js(fam_json),
             "--universe", js(uni), "--grid-q", "2"], check=check)
    for i in range(6):
        odd = shape.randint(2, 3)
        n = odd + shape.randint(2, 3)
        uni = parity_run(rng, parity_pattern(shape, n, odd))
        big = max(odd, n - odd)
        hit = i % 2 == 0
        eps, target = (F(1, 4), big) if hit else (F(1, 8), big + 1)

        def check(r, hit=hit, eps=eps, target=target):
            sub = r["subset"] if hit else r["best_subset"]
            blocks = oracle_blocks(C11, sub)
            gap = OracleTable(EVEN_PAIR, blocks, coefficient_tuples(EVEN_PAIR, 2, 2)).spread(
                range(len(blocks)))
            if hit:
                return expect(len(sub) >= target and gap < eps
                              and F(r["report"]["gap"]) == gap, "stable hit")
            return expect(gap >= eps and F(r["best_gap"]) == gap, "stable miss")

        add(["oscillation", "stabilize", "--spec", js({"type": "even-pair"}),
             "--family", js([CUBE(1), CUBE(1)]), "--epsilon", str(eps), "--universe", js(uni),
             "--target", str(target), "--grid-q", "2"],
            code=0 if hit else 1, check=check)

    # model: eval against closed forms, consistency, spreading, equivalence
    for i in range(30):
        seq_json, fn = ((SEQ8_JSON, cf.model_value_8) if i % 2 else
                        (SEQ228_JSON, cf.model_value_228))
        a = [F(rng.randint(0, 8), 8) for _ in range(shape.randint(1, 6))]
        fmt = fmt_pick(i)

        def check(r, fn=fn, a=a):
            want = fn(a)
            return expect(F(r["value"]) == want and r["stabilized"] in (True, "True"),
                          f"model value {r['value']} != {want}")

        add(["model", "eval", "--spec", js({"type": "section6"}), "--sequence", js(seq_json),
             "--coeffs", js([str(c) for c in a])], fmt=fmt, check=check)
    for seq_json in (SEQ8_JSON, SEQ228_JSON, SEQ228_JSON):
        add(["model", "consistency", "--spec", js({"type": "section6"}), "--sequence",
             js(seq_json), "--k-max", "2", "--grid-q", "2"],
            check=lambda r: expect(r["holds"] and r["checked"] == 3, "consistency"))
    for seq_json, code in ((SEQ228_JSON, 1), (SEQ8_JSON, 0), (SEQ228_JSON, 1), (SEQ8_JSON, 0)):
        add(["model", "spreading", "--spec", js({"type": "section6"}), "--sequence",
             js(seq_json), "--k", "2", "--placements", js([[3, 4]]), "--grid-q", "2"],
            code=code,
            check=lambda r, code=code: expect(
                r["holds"] if code == 0 else (r["witness"]["placement"] == [3, 4]
                                              and r["witness"]["identity_value"] == "3/2"
                                              and r["witness"]["placed_value"] == "1"),
                "spreading witness at {3,4}"))
    for k_max, q in ((2, 2), (1, 4), (2, 1)):
        def check(r, k_max=k_max, q=q):
            lo, hi = _equivalence_oracle(SECTION6, SEQ8, SEQ228, k_max, q)
            return expect(F(r["lo"]) == lo and F(r["hi"]) == hi, "equivalence constants")

        add(["model", "equivalence", "--spec", js({"type": "section6"}), "--seq1",
             js(SEQ8_JSON), "--seq2", js(SEQ228_JSON), "--k-max", str(k_max),
             "--grid-q", str(q)], check=check)

    # the golden report, byte for byte
    def golden(result) -> Optional[str]:
        code, out, _ = result
        return expect(code == 0 and out == GOLDEN.read_text(encoding="utf-8"),
                      "verify-section6 differs from the golden report")

    tasks.append(Task("cli:verify-section6", lambda: invoke(mods, ["verify-section6"]), golden))

    # invalid input: schema errors and argparse rejections exit 2
    bad = (
        ["barrier", "members", "--descriptor", js(CUBE(0)), "--bound", "5"],
        ["barrier", "members", "--descriptor", js({"type": "nope"}), "--bound", "5"],
        ["barrier", "members", "--descriptor", "{not json", "--bound", "5"],
        ["barrier", "members", "--bound", "5"],
        ["blocks", "split", "--family", js([]), "--set", js([1, 2])],
        ["norm", "eval", "--spec", js({"type": "section6"}), "--vector", js({"1": "1/0"})],
        ["norm", "eval", "--spec", js({"type": "lp", "p": 0}), "--vector", js({"1": "1"})],
        ["ramsey", "find-mono", "--barrier", js(CUBE(2)), "--coloring", js("parity-of-sum"),
         "--universe", js([1, 2, 3]), "--target", "0"],
        ["oscillation", "gap", "--spec", js({"type": "section6"}), "--family",
         js([CUBE(2), CUBE(2)]), "--universe", js([1, 2, 3])],
        ["model", "eval", "--spec", js({"type": "section6"}), "--sequence", js(SEQ8_JSON),
         "--coeffs", js([])],
        ["verify-section6", "--k-max", "two"],
        ["oscillation", "stabilize", "--spec", js({"type": "even-pair"}), "--family",
         js([CUBE(1), CUBE(1)]), "--epsilon", "0", "--universe", js([1, 2, 3]),
         "--target", "2"],
    )
    for argv in bad:
        add(list(argv), code=2, fmt=None)
    return tasks

