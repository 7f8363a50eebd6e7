"""The library workloads: ``models``, ``tables`` and ``scans``.

Each builder turns a seed into a fixed list of tasks.  A task is one public
library call, looked up through its module at call time so the traced run
can wrap it, plus a check that judges the call's output with the oracles in
``oracles.py`` or with properties the method must have.

What sets a task's cost is its shape: sizes, grid resolutions, the order
pattern of a search universe (which positions are odd, how a colouring or
a value table looks on positions) and the tolerances.  Shapes come from a
fixed generator, SHAPE_SEED, so every seed does the same work.  The seed
picks the content within a shape: coefficients, the concrete elements
(order- and parity-preserving where the method reads them), colour names,
value shifts and reflections, and which seeded relative of the worked spec
each task uses.  A first version drew shapes from the seed too, and single
tasks then moved by up to 30% from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, product
from math import comb
from typing import Any, Callable, Optional, Sequence

from . import oracles

Check = Callable[[Any], Optional[str]]


@dataclass
class Task:
    kind: str
    call: Callable[[], Any]
    check: Check


def expect(cond: bool, msg: str) -> Optional[str]:
    return None if cond else msg


def first_failure(*results: Optional[str]) -> Optional[str]:
    for r in results:
        if r:
            return r
    return None


# ---------------------------------------------------------------------------
# Shapes and seeded content

SHAPE_SEED = 20200903


def increasing(rng: random.Random, n: int, top: int) -> list[int]:
    """Seeded sorted n-subset of {1..top} that ends at ``top``.

    The searches enumerate members up to the universe's maximum, so a
    fixed maximum keeps their cost the same from seed to seed.
    """
    return sorted(rng.sample(range(1, top), n - 1)) + [top]


def parity_run(rng: random.Random, pattern: Sequence[int]) -> list[int]:
    """Increasing integers whose parities follow ``pattern``; seeded gaps
    that always add up to the same maximum."""
    bumps = [0] * len(pattern)
    for _ in pattern:
        bumps[rng.randrange(len(pattern))] += 1
    out, x = [], 0
    for par, bump in zip(pattern, bumps):
        x += (1 if (x + 1) % 2 == par else 2) + 2 * bump
        out.append(x)
    return out


def parity_pattern(shape: random.Random, n: int, odd: int) -> list[int]:
    pattern = [1] * odd + [0] * (n - odd)
    shape.shuffle(pattern)
    return pattern


# ---------------------------------------------------------------------------
# Specs and families, described on the benchmark side

SEC6_TERMS = ((F(3, 4), 2, None), (F(9, 16), 8, None))
EVEN_PAIR_TERMS = ((F(3, 4), 2, "even-indices"), (F(5, 8), 2, "touches-even"))


def mn_terms(m: int, n: int) -> tuple:
    return ((F(m + 1, 2 * m), m, None), (F(n + 1, 2 * n), n, None))


@dataclass(frozen=True)
class SpecDesc:
    name: str
    m: int = 0
    n: int = 0

    @property
    def terms(self) -> tuple:
        if self.name == "section6":
            return SEC6_TERMS
        if self.name == "even-pair":
            return EVEN_PAIR_TERMS
        return mn_terms(self.m, self.n)

    @property
    def invariant(self) -> bool:
        return self.name != "even-pair"

    def build(self, mods) -> Any:
        ns = mods.normspace
        if self.name == "section6":
            return ns.section6_spec()
        if self.name == "even-pair":
            return ns.even_pair_fixture()
        return ns.mn_norm_spec(self.m, self.n)


SECTION6 = SpecDesc("section6")
EVEN_PAIR = SpecDesc("even-pair")

# Seeded relatives of the worked (2, 8) space: mn_norm_spec(m, n) with m-cube
# prefixes and an n-cube tail.  The tail size n and the prefix length set a
# task's cost and are fixed per slot; the seed picks m.
RELATIVE_SHAPES = ((6, 1), (7, 2), (7, 1), (8, 2), (9, 1), (9, 2), (10, 1), (11, 2))


def seeded_relatives(rng: random.Random) -> list[tuple]:
    out = []
    for n, prefix in RELATIVE_SHAPES:
        m = rng.choice((2, 3))
        out.append((SpecDesc("mn", m, n), SeqDesc((m,) * prefix, n)))
    return out


def family_obj(mods, fam: Sequence[tuple]) -> Any:
    parts = tuple(mods.barriers.Cube(d[1]) if d[0] == "c" else mods.barriers.Schreier()
                  for d in fam)
    return mods.blocks.BlockFamily(parts)


def oracle_blocks(fam: Sequence[tuple], universe: Sequence[int]) -> list[tuple]:
    """Every block over the family inside the universe, as int tuples."""
    elems = sorted(universe)

    def parts_above(desc: tuple, bound: int):
        avail = [x for x in elems if x > bound]
        if desc[0] == "c":
            yield from combinations(avail, desc[1])
            return
        for i, m in enumerate(avail):  # Schreier: size equals minimum
            for rest in combinations(avail[i + 1:], m - 1):
                yield (m,) + rest

    def go(i: int, bound: int):
        for head in parts_above(fam[i], bound):
            if i == len(fam) - 1:
                yield (head,)
            else:
                for tail in go(i + 1, head[-1]):
                    yield (head,) + tail

    return list(go(0, 0))


def grid(k: int, q: int) -> list[tuple]:
    return [tuple(p) for p in product([F(j, q) for j in range(q + 1)], repeat=k)]


def coefficient_tuples(spec: SpecDesc, k: int, q: int) -> list[tuple]:
    """The documented policy: nonnegative grid, plus sign corners when the
    spec filters indices."""
    pts = grid(k, q)
    if not spec.invariant:
        seen = set(pts)
        pts += [c for c in (tuple(F(x) for x in p) for p in product((-1, 0, 1), repeat=k))
                if c not in seen]
    return pts


def block_ints(block) -> tuple:
    return tuple(tuple(p.elements) for p in block.parts)


class OracleTable:
    """psi values of the oracle over blocks x coefficient tuples, memoized."""

    def __init__(self, spec: SpecDesc, blocks: Sequence[tuple], tuples: Sequence[tuple]):
        self.terms = spec.terms
        self.blocks = list(blocks)
        self.tuples = list(tuples)
        self.rows = [[oracles.psi(self.terms, b, a) for a in self.tuples]
                     for b in self.blocks]

    def spread(self, rows: Sequence[int]) -> F:
        worst = F(0)
        if len(rows) < 2:
            return worst
        for j in range(len(self.tuples)):
            col = [self.rows[r][j] for r in rows]
            worst = max(worst, max(col) - min(col))
        return worst

    def witness_gap(self, pair, coeffs) -> F:
        s, t = (block_ints(b) for b in pair)
        return abs(oracles.psi(self.terms, s, coeffs) - oracles.psi(self.terms, t, coeffs))


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class SeqDesc:
    prefix: tuple
    tail: int

    def sizes(self, k: int) -> list[int]:
        return [self.prefix[i] if i < len(self.prefix) else self.tail for i in range(k)]

    def build(self, mods) -> Any:
        md = mods.models
        if self == SEQ8:
            return md.eights_sequence()
        if self == SEQ228:
            return md.two_two_eights_sequence()
        cube = mods.barriers.Cube
        return md.BarrierSequenceDescriptor(tuple(cube(p) for p in self.prefix), cube(self.tail))


SEQ8 = SeqDesc((), 8)
SEQ228 = SeqDesc((2, 2), 8)

# (k, probe_count) ladder for model_eval: a smooth range of task costs, so
# the task-time percentiles do not sit on a step between two classes
MODEL_EVAL_LADDER = ((3, 3), (5, 3), (7, 4), (9, 4), (11, 5), (14, 5), (17, 6), (20, 6),
                     (24, 7), (28, 7), (32, 8), (36, 8))


def _model_value_check(spec: SpecDesc, seq: SeqDesc, coeffs, probe_count, mods) -> Check:
    def check(mv) -> Optional[str]:
        sizes = seq.sizes(len(coeffs))
        want = oracles.model_value(spec.terms, sizes, coeffs)
        closed = None
        if spec == SECTION6 and seq in (SEQ8, SEQ228):
            cf = mods.closedform
            fn = cf.model_value_8 if seq == SEQ8 else cf.model_value_228
            closed = fn([abs(c) for c in coeffs])
        if not mv.stabilized or mv.value != want:
            return f"model value {mv.value} (stabilized={mv.stabilized}) != oracle {want}"
        if closed is not None and mv.value != closed:
            return f"model value {mv.value} != closed form {closed}"
        if len(mv.probes) != probe_count:
            return "wrong probe count"
        last = mv.tail_offset - 1
        for blk, val in mv.probes:
            parts = [p.elements for p in blk.parts]
            if [len(p) for p in parts] != sizes:
                return f"probe part sizes {[len(p) for p in parts]} != {sizes}"
            flat = [x for p in parts for x in p]
            if flat != sorted(flat) or flat[0] <= last:
                return "probe blocks overlap or are out of order"
            last = flat[-1]
            if val != want:
                return f"probe value {val} != oracle {want}"
        return None

    return check


def _oracle_model(spec: SpecDesc, seq: SeqDesc, coeffs) -> F:
    return oracles.model_value(spec.terms, seq.sizes(len(coeffs)), coeffs)


def _spreading_oracle(spec: SpecDesc, seq: SeqDesc, k: int, placements, q: int):
    """(holds, witness tuple or None, checked) by the documented policy:
    worst discrepancy, earliest placement and grid tuple on ties."""
    pts = grid(k, q)
    ident = {a: _oracle_model(spec, seq, a) for a in pts}
    worst, worst_size = None, F(0)
    for s in placements:
        for a in pts:
            padded = [F(0)] * s[-1]
            for pos, c in zip(s, a):
                padded[pos - 1] = c
            val = _oracle_model(spec, seq, padded)
            if val != ident[a] and abs(ident[a] - val) > worst_size:
                worst_size = abs(ident[a] - val)
                worst = (tuple(s), a, ident[a], val)
    return worst is None, worst, len(placements) * len(pts)


def _equivalence_oracle(spec: SpecDesc, seq1: SeqDesc, seq2: SeqDesc, k_max: int, q: int):
    lo = hi = None
    for k in range(1, k_max + 1):
        for a in grid(k, q):
            if all(c == 0 for c in a):
                continue
            r = _oracle_model(spec, seq2, a) / _oracle_model(spec, seq1, a)
            lo = r if lo is None or r < lo else lo
            hi = r if hi is None or r > hi else hi
    return lo, hi


def build_models(mods, seed: int) -> list[Task]:
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    tasks: list[Task] = []

    def coeffs(k: int) -> tuple:
        return tuple(F(rng.randint(0, 8), 8) for _ in range(k))

    relatives = seeded_relatives(rng)

    # the aggregate Section 6 report at three sizes
    for k_max, q in ((3, 2), (2, 3), (2, 2)):
        def check(rep, k_max=k_max, q=q) -> Optional[str]:
            lo, hi = _equivalence_oracle(SECTION6, SEQ8, SEQ228, min(k_max, 3), q)
            detail = {c.name: c.detail for c in rep.checks}
            return first_failure(
                expect(rep.all_passed, "verify_section6 failed"),
                expect(detail.get("named-values") == "value(1,1)=3/2, value(0,0,1,1)=1",
                       f"named values: {detail.get('named-values')}"),
                expect(detail.get("sandwich-equivalence", "").startswith(
                    f"ratio range [{lo}, {hi}], ratio at (1,1,1) = 2"),
                    f"sandwich: {detail.get('sandwich-equivalence')}"),
                expect(k_max < 3 or (lo, hi) == (1, 2), f"constants ({lo}, {hi}) != (1, 2)"),
                expect("positions {3,4} with a=(1, 1): 3/2 vs 1"
                       in detail.get("spreading-dichotomy", ""),
                       f"spreading: {detail.get('spreading-dichotomy')}"),
            )

        tasks.append(Task("verify_section6",
                          lambda k_max=k_max, q=q: mods.models.verify_section6(None, k_max, q),
                          check))

    # model_eval along the ladder: the two worked sequences and the relatives
    for spec_d, seq_d in ((SECTION6, SEQ8), (SECTION6, SEQ228)):
        for k, probes in MODEL_EVAL_LADDER:
            a = coeffs(k)
            spec, seq = spec_d.build(mods), seq_d.build(mods)
            tasks.append(Task(
                "model_eval",
                lambda spec=spec, seq=seq, a=a, p=probes: mods.models.model_eval(
                    spec, seq, a, probe_count=p),
                _model_value_check(spec_d, seq_d, a, probes, mods)))
    for i, (k, probes) in enumerate(MODEL_EVAL_LADDER):
        spec_d, seq_d = relatives[i % len(relatives)]
        a = coeffs(k)
        spec, seq = spec_d.build(mods), seq_d.build(mods)
        tasks.append(Task(
            "model_eval",
            lambda spec=spec, seq=seq, a=a, p=probes: mods.models.model_eval(
                spec, seq, a, probe_count=p),
            _model_value_check(spec_d, seq_d, a, probes, mods)))

    # consistency: appending a zero coefficient never moves a value
    cons = [(SECTION6, SEQ8, 3, 3), (SECTION6, SEQ228, 3, 3)]
    for (spec_d, seq_d), (k_max, q) in zip(relatives[:4], ((3, 2), (3, 3), (4, 2), (2, 4))):
        cons.append((spec_d, seq_d, k_max, q))
    for spec_d, seq_d, k_max, q in cons:
        spec, seq = spec_d.build(mods), seq_d.build(mods)
        want = sum((q + 1) ** k for k in range(1, k_max))

        def check(rep, want=want) -> Optional[str]:
            return first_failure(expect(rep.holds and not rep.violations, "consistency fails"),
                                 expect(rep.checked == want, f"checked {rep.checked} != {want}"))

        tasks.append(Task("consistency_check",
                          lambda spec=spec, seq=seq, k_max=k_max, q=q:
                          mods.models.consistency_check(spec, seq, k_max, q),
                          check))

    # equivalence constants between a flat tail model and a prefixed one
    equiv = [(SECTION6, SEQ8, SEQ228, 3, 2), (SECTION6, SEQ8, SEQ228, 2, 4)]
    for (spec_d, seq_d), (k_max, q) in zip(relatives[4:], ((3, 2), (2, 3), (3, 3), (2, 4))):
        equiv.append((spec_d, SeqDesc((), seq_d.tail), seq_d, k_max, q))
    for spec_d, s1, s2, k_max, q in equiv:
        spec, seq1, seq2 = spec_d.build(mods), s1.build(mods), s2.build(mods)

        def check(got, args=(spec_d, s1, s2, k_max, q)) -> Optional[str]:
            want = _equivalence_oracle(*args)
            return expect(tuple(got) == want, f"constants {got} != oracle {want}")

        tasks.append(Task("equivalence_constants",
                          lambda spec=spec, a=seq1, b=seq2, k_max=k_max, q=q:
                          mods.models.equivalence_constants(spec, a, b, k_max, q),
                          check))

    # spreading: relocated coefficients; the placements' sizes set the cost,
    # so they are drawn from the shape, and the seed orders them
    pairs = list(combinations(range(1, 8), 2))
    triples = list(combinations(range(1, 7), 3))
    spread_jobs = [(SECTION6, SEQ8, 2, 2, 6), (SECTION6, SEQ228, 2, 2, 6)]
    for (spec_d, seq_d), (k, q, count) in zip(relatives[::2], ((2, 2, 5), (3, 2, 2),
                                                               (2, 3, 3), (3, 1, 4))):
        spread_jobs.append((spec_d, seq_d, k, q, count))
    for spec_d, seq_d, k, q, count in spread_jobs:
        pool = pairs if k == 2 else triples
        placements = shape.sample(pool, count)
        if seq_d == SEQ228 and (3, 4) not in placements:
            placements[shape.randrange(count)] = (3, 4)
        rng.shuffle(placements)
        spec, seq = spec_d.build(mods), seq_d.build(mods)
        pl_objs = [mods.sets.FiniteSet(p) for p in placements]

        def check(rep, args=(spec_d, seq_d, k, placements, q)) -> Optional[str]:
            holds, worst, checked = _spreading_oracle(*args)
            got = None
            if rep.witness is not None:
                w = rep.witness
                got = (w.placement.elements, tuple(w.coeffs), w.identity_value, w.placed_value)
            return first_failure(
                expect(rep.holds == holds, f"holds {rep.holds} != oracle {holds}"),
                expect(got == worst, f"witness {got} != oracle {worst}"),
                expect(rep.checked == checked, f"checked {rep.checked} != {checked}"))

        tasks.append(Task("spreading_check",
                          lambda spec=spec, seq=seq, k=k, pl=pl_objs, q=q:
                          mods.models.spreading_check(spec, seq, k, pl, q),
                          check))
    return tasks


# ---------------------------------------------------------------------------
# tables


def _gap_check(spec_d: SpecDesc, fam: tuple, universe: list[int], q: int) -> Check:
    def check(rep) -> Optional[str]:
        blocks = oracle_blocks(fam, universe)
        table = OracleTable(spec_d, blocks, coefficient_tuples(spec_d, len(fam), q))
        want = table.spread(range(len(blocks)))
        fails = [
            expect(rep.block_count == len(blocks), f"{rep.block_count} blocks != {len(blocks)}"),
            expect(rep.gap == want, f"gap {rep.gap} != oracle {want}"),
        ]
        if rep.witness_pair is not None:
            fails.append(expect(table.witness_gap(rep.witness_pair, rep.witness_coeffs) == rep.gap,
                                "witness does not re-derive the gap"))
        else:
            fails.append(expect(rep.gap == 0, "nonzero gap without a witness"))
        if spec_d.invariant and all(d[0] == "c" for d in fam):
            fails.append(expect(rep.gap == 0, f"equal part sizes but gap {rep.gap}"))
        if spec_d == EVEN_PAIR and fam == C11:
            fails.append(expect(rep.gap >= F(1, 4), f"mixed parities but gap {rep.gap}"))
        return first_failure(*fails)

    return check


def _asymptotic_check(spec_d: SpecDesc, fam: tuple, universe: list[int], q: int,
                      ratio: F, scale: F, stages: int) -> Check:
    def check(rep) -> Optional[str]:
        blocks = oracle_blocks(fam, universe)
        table = OracleTable(spec_d, blocks, coefficient_tuples(spec_d, len(fam), q))
        mins = [b[0][0] for b in blocks]
        if len(rep.stages) != stages:
            return f"{len(rep.stages)} stages != {stages}"
        for i, st in enumerate(rep.stages, start=1):
            eps = scale * ratio ** i
            if st.epsilon != eps:
                return f"stage {i} tolerance {st.epsilon} != {eps}"
            threshold, last = None, []
            for n in range(0, max(universe) + 1):
                rows = [r for r, mn in enumerate(mins) if mn > n]
                if len(rows) < 2:
                    break
                last = rows
                if table.spread(rows) < eps:
                    threshold = n
                    break
            if threshold is not None:
                if not st.passed or st.threshold != threshold:
                    return f"stage {i}: threshold {st.threshold} != oracle {threshold}"
                continue
            want = table.spread(last)
            if st.passed or st.witness_gap != want:
                return f"stage {i}: witness gap {st.witness_gap} != oracle {want}"
            if table.witness_gap(st.witness_pair, st.witness_coeffs) != want:
                return f"stage {i}: witness does not re-derive its gap"
        return expect(rep.all_passed == all(s.passed for s in rep.stages), "all_passed flag")

    return check


C11 = (("c", 1), ("c", 1))


def build_tables(mods, seed: int) -> list[Task]:
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    osc = mods.oscillation
    FiniteSet = mods.sets.FiniteSet
    tasks: list[Task] = []
    rel_specs = [spec for spec, _ in seeded_relatives(rng)]

    def invariant_spec(i: int) -> SpecDesc:
        return SECTION6 if i % 3 == 0 else rel_specs[i % len(rel_specs)]

    gap_jobs = []
    # index-invariant specs on families with Schreier parts: sizes vary, so
    # values oscillate; these take the multiset path
    for i, (fam, n, q) in enumerate((
            ((("s",),), 9, 3), ((("s",),), 10, 4),
            ((("c", 1), ("s",)), 7, 2), ((("c", 1), ("s",)), 8, 2), ((("c", 1), ("s",)), 8, 3),
            ((("s",), ("c", 1)), 7, 2), ((("s",), ("c", 1)), 8, 3), ((("s",), ("c", 2)), 8, 2))):
        # Schreier membership reads the elements' values: fixed universes
        gap_jobs.append((invariant_spec(i), fam, increasing(shape, n, n + 2), q))
    # index-invariant specs on cube families: every block has the same part
    # sizes, so the gap is exactly zero
    for i, (fam, n, q) in enumerate((
            ((("c", 2), ("c", 2)), 6, 2), ((("c", 2), ("c", 2)), 7, 2),
            ((("c", 1), ("c", 2)), 6, 3), ((("c", 1), ("c", 2)), 7, 2),
            ((("c", 1), ("c", 1), ("c", 1)), 6, 2))):
        gap_jobs.append((invariant_spec(i + 1), fam, increasing(rng, n, 2 * n), q))
    # the even-pair fixture takes the filtered Vector path
    for fam, n, q in ((C11, 5, 2), (C11, 6, 2), (C11, 6, 3), (C11, 7, 2), (C11, 7, 3),
                      (C11, 8, 2), (C11, 8, 3), (C11, 5, 4),
                      ((("c", 1), ("c", 1), ("c", 1)), 5, 2),
                      ((("c", 2), ("c", 1)), 5, 2), ((("c", 1), ("c", 2)), 6, 2)):
        gap_jobs.append((EVEN_PAIR, fam, parity_run(rng, parity_pattern(shape, n, n // 2)), q))

    for spec_d, fam, uni, q in gap_jobs:
        spec, fam_o, uni_o = spec_d.build(mods), family_obj(mods, fam), FiniteSet(uni)
        tasks.append(Task("oscillation_gap",
                          lambda s=spec, f=fam_o, u=uni_o, q=q: mods.oscillation.oscillation_gap(
                              s, f, u, q),
                          _gap_check(spec_d, fam, uni, q)))

    asym_jobs = (
        (EVEN_PAIR, C11, 7, 2, 4), (EVEN_PAIR, C11, 8, 2, 5), (EVEN_PAIR, C11, 9, 2, 4),
        (EVEN_PAIR, (("c", 1), ("c", 1), ("c", 1)), 6, 2, 3),
        (SECTION6, (("s",), ("c", 1)), 8, 2, 4), (None, (("c", 1), ("s",)), 9, 2, 4),
        (None, (("s",),), 11, 3, 5), (None, (("s",), ("c", 1)), 9, 2, 4),
    )
    for i, (spec_d, fam, horizon, q, stages) in enumerate(asym_jobs):
        spec_d = spec_d or rel_specs[i]
        if spec_d == EVEN_PAIR:  # values depend on parities only
            uni = parity_run(rng, parity_pattern(shape, horizon - 1, horizon // 2))
            horizon = uni[-1]
        else:
            uni = increasing(shape, horizon - 1, horizon)
        ratio, scale = shape.choice(((F(1, 2), F(1)), (F(2, 3), F(1, 2)), (F(1, 2), F(1, 2))))
        spec, fam_o = spec_d.build(mods), family_obj(mods, fam)
        sched = osc.ToleranceSchedule(ratio, scale)
        uni_o = FiniteSet(uni)
        tasks.append(Task("asymptotic_stability_check",
                          lambda s=spec, f=fam_o, sc=sched, h=horizon, u=uni_o, m=stages, q=q:
                          mods.oscillation.asymptotic_stability_check(
                              s, f, sc, h, universe=u, max_stages=m, grid_q=q),
                          _asymptotic_check(spec_d, fam, uni, q, ratio, scale, stages)))
    return tasks


# ---------------------------------------------------------------------------
# scans


def _stable_check(spec_d: SpecDesc, fam: tuple, universe: list[int], q: int,
                  eps: F, target: int) -> Check:
    def gap_of(subset) -> F:
        blocks = oracle_blocks(fam, subset)
        return OracleTable(spec_d, blocks, coefficient_tuples(spec_d, len(fam), q)).spread(
            range(len(blocks)))

    def check(res) -> Optional[str]:
        if res.found:
            sub = list(res.subset.elements)
            gap = gap_of(sub)
            return first_failure(
                expect(len(sub) >= target and set(sub) <= set(universe), "hit is not a subset"),
                expect(gap < eps, f"hit oracle gap {gap} >= {eps}"),
                expect(res.report.gap == gap, f"hit gap {res.report.gap} != oracle {gap}"))
        gap = gap_of(list(res.best_subset.elements))
        return first_failure(
            expect(res.best_gap >= eps, f"miss best_gap {res.best_gap} < {eps}"),
            expect(res.best_gap == gap, f"miss best_gap {res.best_gap} != oracle {gap}"))

    return check


BITMASK_MAX = 10


def _mono_check(k: int, universe: list[int], table: dict, target: int) -> Check:
    def check(res) -> Optional[str]:
        w = res.best
        sub = w.subset.elements
        colors = {table[c] for c in combinations(sub, k)}
        fails = [
            expect(colors <= {w.color}, f"witness {sub} is not monochromatic"),
            expect(w.domain_size == comb(len(sub), k), "witness domain size"),
            expect(res.found == (len(sub) >= target), "found flag disagrees with target"),
            expect((res.witness is not None) == res.found, "witness presence"),
        ]
        if len(universe) <= BITMASK_MAX:
            want = oracles.largest_monochromatic(universe, list(table.items()))
            fails.append(expect((len(sub), sub) == want, f"witness {sub} != oracle {want}"))
        return first_failure(*fails)

    return check


def _valued(values: dict) -> list[tuple]:
    """Block values as (support, value) objects for the oracles."""
    return [(tuple(x for p in b for x in p), v) for b, v in values.items()]


def _metric_check(universe: list[int], values: dict, eps: F, target: int) -> Check:
    def check(res) -> Optional[str]:
        w = res.best
        sub = w.subset.elements
        gap = oracles.spread_inside(_valued(values), sub)
        fails = [
            expect(gap == w.max_gap and gap < eps, f"witness spread {w.max_gap} vs {gap}"),
            expect(res.found == (len(sub) >= target), "found flag disagrees with target"),
        ]
        if len(universe) <= BITMASK_MAX:
            want = oracles.largest_stable(universe, _valued(values), eps)
            fails.append(expect((len(sub), sub) == want, f"witness {sub} != oracle {want}"))
        return first_failure(*fails)

    return check


def _diagonal_check(universe: list[int], values: dict, ratio: F, scale: F) -> Check:
    def check(rep) -> Optional[str]:
        pool = tuple(universe)
        picked = []
        for i, st in enumerate(rep.stages, start=1):
            eps = scale * ratio ** i
            sub = st.subset.elements
            gap = oracles.spread_inside(_valued(values), sub)
            if st.epsilon != eps or st.pool.elements != pool:
                return f"stage {i}: tolerance or pool differs"
            if not set(sub) <= set(pool) or gap != st.max_gap or gap >= eps:
                return f"stage {i}: spread {st.max_gap} vs oracle {gap} at {eps}"
            if st.min_element != sub[0]:
                return f"stage {i}: min element"
            if len(pool) <= BITMASK_MAX:
                inside = [(sup, v) for sup, v in _valued(values) if set(sup) <= set(pool)]
                want = oracles.largest_stable(list(pool), inside, eps)
                if want != (len(sub), sub):
                    return f"stage {i}: subset {sub} != oracle {want}"
            picked.append(sub[0])
            pool = tuple(x for x in sub if x > sub[0])
        return first_failure(
            expect(not pool and rep.completed, "chain did not consume the pool"),
            expect(list(rep.selected.elements) == picked, "selection is not the stage minima"),
            expect(all(a < b for a, b in zip(picked, picked[1:])), "selection not increasing"))

    return check


def build_scans(mods, seed: int) -> list[Task]:
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    rm = mods.ramsey
    FiniteSet = mods.sets.FiniteSet
    tasks: list[Task] = []

    # exhaustive stable-subsequence search under the even-pair fixture: the
    # largest stable subsets are the parity classes, so hits need a target at
    # most the larger class and misses one above it
    ep = EVEN_PAIR.build(mods)
    for n, odd, q, hit in ((7, 4, 2, True), (7, 3, 2, False), (8, 4, 2, True),
                           (8, 5, 2, False), (8, 5, 3, True), (9, 5, 2, True),
                           (9, 4, 2, False), (7, 4, 3, False), (6, 3, 3, True),
                           (6, 3, 4, False)):
        uni = parity_run(rng, parity_pattern(shape, n, odd))
        big = max(odd, n - odd)
        eps, target = (F(1, 4), rng.randint(3, big)) if hit else (F(1, 8), big + 1)
        fam_o, uni_o = family_obj(mods, C11), FiniteSet(uni)
        tasks.append(Task("find_stable_subsequence",
                          lambda f=fam_o, e=eps, u=uni_o, t=target, q=q:
                          mods.oscillation.find_stable_subsequence(ep, f, e, u, t, "exhaustive", q),
                          _stable_check(EVEN_PAIR, C11, uni, q, eps, target)))

    # monochromatic subsets of seeded two-colourings of Cube(2) and Cube(3)
    for k, n in ((2, 9), (2, 10), (2, 11), (2, 12), (2, 12), (2, 13), (2, 13), (2, 14),
                 (3, 8), (3, 9), (3, 10), (3, 10), (3, 11), (3, 11), (3, 12)):
        names = rng.sample(("red", "blue"), 2)
        pattern = [shape.randrange(2) for _ in combinations(range(n), k)]
        uni = increasing(rng, n, 2 * n)
        table = {c: names[v] for c, v in zip(combinations(uni, k), pattern)}
        coloring = rm.Coloring.from_table({FiniteSet(c): v for c, v in table.items()})
        target = rng.randint(3, 5)
        barrier, uni_o = mods.barriers.Cube(k), FiniteSet(uni)
        tasks.append(Task("find_monochromatic",
                          lambda b=barrier, c=coloring, u=uni_o, t=target:
                          mods.ramsey.find_monochromatic(b, c, u, t),
                          _mono_check(k, uni, table, target)))

    # metric and diagonal stabilization of seeded block values
    for fam, n in ((C11, 9), (C11, 10), (C11, 10), (C11, 11), ((("c", 2),), 9),
                   ((("c", 2),), 10), ((("c", 2),), 11), ((("c", 1), ("c", 2)), 9),
                   ((("c", 1), ("c", 2)), 10)):
        uni = increasing(rng, n, 2 * n)
        shift, flip = F(rng.randint(0, 8), 8), rng.randrange(2)
        pattern = [F(shape.randint(0, 8), 8) for _ in oracle_blocks(fam, uni)]
        values = {b: (1 - v if flip else v) + shift
                  for b, v in zip(oracle_blocks(fam, uni), pattern)}
        fam_o, uni_o = family_obj(mods, fam), FiniteSet(uni)
        vmap = {mods.blocks.Block(tuple(FiniteSet(p) for p in b)): v for b, v in values.items()}
        eps = shape.choice((F(1, 4), F(3, 8)))
        target = rng.randint(3, 4)  # the scan stops at its first hit either way
        tasks.append(Task("metric_stabilize",
                          lambda f=fam_o, v=vmap, e=eps, u=uni_o, t=target:
                          mods.ramsey.metric_stabilize(f, v, e, u, t),
                          _metric_check(uni, values, eps, target)))
        ratio, scale = shape.choice(((F(1, 2), F(1)), (F(2, 3), F(1, 2))))
        sched = mods.oscillation.ToleranceSchedule(ratio, scale)
        tasks.append(Task("diagonal_stabilize",
                          lambda f=fam_o, v=vmap, s=sched, u=uni_o:
                          mods.ramsey.diagonal_stabilize(f, v, s, u),
                          _diagonal_check(uni, values, ratio, scale)))
    return tasks
