"""The four "largest, then lexicographically least, subset" searches
(``find_monochromatic``, ``metric_stabilize``, ``diagonal_stabilize`` and
``find_stable_subsequence``) against brute-force references in this file.

Each reference scans subset sizes from the whole universe downward, each size
in ``combinations`` order, and takes the first subset that passes; the
library reaches the same subset by a pruned depth-first search.  Misses of
``find_stable_subsequence`` are checked on their best gap and best subset,
on random targets and at every target of a few fixed universes; a few hits
whose blocks tie for the widest pair are checked against ``oscillation_gap``
on the subset found, down to which pair the report names.  The greedy
strategies run through the same search loop, committing to each accepted
element in turn; they are checked against a left-to-right reference on
barriers and on every block family here, and on a universe of thousands of
elements that they keep whole.  The exhaustive scan keeps sets deeper than
the default recursion limit whole too, and the number of steps it asks on a
fixed instance is pinned, so a weaker cut shows.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.barriers import Associated, Cube, Quotient, Restrict, Schreier, Sum, enumerate_up_to
from blockosc.blocks import Block, BlockFamily, enumerate_blocks
from blockosc.normspace import (
    LpNorm,
    SupNorm,
    _ceil_times,
    _grid,
    _value_table,
    even_pair_fixture,
    nonneg_grid,
    section6_spec,
)
from blockosc.oscillation import (
    ToleranceSchedule,
    _search,
    _spread_step,
    find_stable_subsequence,
    oscillation_gap,
    psi_eval,
)
from blockosc.ramsey import (
    Coloring,
    diagonal_stabilize,
    find_monochromatic,
    metric_stabilize,
)
from blockosc.sets import FiniteSet, evens

SEARCH = settings(max_examples=60, deadline=None)

FAMILIES = [
    BlockFamily((Cube(1), Cube(1))),
    BlockFamily((Cube(2),)),
    BlockFamily((Cube(1), Cube(2))),
]


@st.composite
def universes(draw, max_size=9):
    elems = draw(st.lists(st.integers(1, 14), min_size=1, max_size=max_size, unique=True))
    return FiniteSet(elems)


def support(obj) -> frozenset:
    """Elements of a barrier member, or of every part of a block."""
    return frozenset(obj.union() if isinstance(obj, Block) else obj)


def largest_first(universe: FiniteSet, passes):
    """First subset, by size downward and then in combinations order, that passes."""
    for size in range(len(universe), 0, -1):
        for pick in combinations(universe.elements, size):
            if passes(frozenset(pick)):
                return FiniteSet(pick)
    return None


def inside(objs, m: frozenset) -> list:
    return [o for o in objs if support(o) <= m]


def spread_of(rows) -> F:
    """Max over columns of (max - min); zero for fewer than two rows."""
    if len(rows) < 2:
        return F(0)
    return max(max(col) - min(col) for col in zip(*rows))


# ---------------------------------------------------------------------------
# find_monochromatic


def colored_domain(source, universe: FiniteSet, seed: int):
    if isinstance(source, BlockFamily):
        objs = list(enumerate_blocks(source, universe.max, within=universe))
    else:
        objs = [m for m in enumerate_up_to(source, universe.max)
                if frozenset(m.elements) <= frozenset(universe.elements)]
    rng = random.Random(seed)
    return objs, {o: rng.choice(("red", "blue")) for o in objs}


def ref_mono(objs, colors, universe: FiniteSet):
    def passes(m):
        return len({colors[o] for o in inside(objs, m)}) <= 1

    best = largest_first(universe, passes)
    inner = inside(objs, frozenset(best.elements))
    return best, (colors[inner[0]] if inner else None), len(inner)


@SEARCH
@given(universes(), st.sampled_from([Cube(1), Cube(2), Cube(3)] + FAMILIES),
       st.integers(0, 2**32), st.data())
def test_monochromatic_matches_reference(universe, source, seed, data):
    objs, colors = colored_domain(source, universe, seed)
    target = data.draw(st.integers(1, len(universe)))
    res = find_monochromatic(source, Coloring.from_table(colors), universe, target)
    subset, color, count = ref_mono(objs, colors, universe)
    assert res.best.subset == subset
    assert (res.best.color, res.best.domain_size) == (color, count)
    assert res.found == (len(subset) >= target)
    assert res.witness == (res.best if res.found else None)


@SEARCH
@given(universes(), st.sampled_from([Cube(1), Cube(2), Cube(3)] + FAMILIES),
       st.integers(0, 2**32))
def test_greedy_monochromatic_matches_reference(universe, source, seed):
    objs, colors = colored_domain(source, universe, seed)
    chosen: list[int] = []
    for x in universe:
        if len({colors[o] for o in inside(objs, frozenset(chosen + [x]))}) <= 1:
            chosen.append(x)
    inner = inside(objs, frozenset(chosen))
    res = find_monochromatic(source, Coloring.from_table(colors), universe, 1, "greedy")
    assert res.best.subset == FiniteSet(chosen)
    assert res.best.color == (colors[inner[0]] if inner else None)
    assert res.best.domain_size == len(inner)


OTHER_SOURCES = [
    Schreier(), Restrict(Cube(2), evens()), Quotient(Schreier(), FiniteSet((3,))),
    Sum((Cube(1), Cube(2))), Associated(Restrict(Cube(2), evens())),
] + FAMILIES


@st.composite
def wide_universes(draw):
    """10 to 14 elements out of 1..28, reaching 28: the benchmark's shape."""
    n = draw(st.integers(10, 14))
    elems = draw(st.lists(st.integers(1, 27), min_size=n - 1, max_size=n - 1, unique=True))
    return FiniteSet(elems + [28])


def greedy_mono(objs, colors, universe: FiniteSet) -> list[int]:
    chosen: list[int] = []
    for x in universe:
        if len({colors[o] for o in inside(objs, frozenset(chosen + [x]))}) <= 1:
            chosen.append(x)
    return chosen


@SEARCH
@given(universes(), st.sampled_from(OTHER_SOURCES), st.integers(0, 2**32), st.data())
def test_monochromatic_on_other_sources_matches_reference(universe, source, seed, data):
    objs, colors = colored_domain(source, universe, seed)
    target = data.draw(st.integers(1, len(universe)))
    res = find_monochromatic(source, Coloring.from_table(colors), universe, target)
    subset, color, count = ref_mono(objs, colors, universe)
    assert (res.best.subset, res.best.color, res.best.domain_size) == (subset, color, count)
    assert res.found == (len(subset) >= target)
    greedy = find_monochromatic(source, Coloring.from_table(colors), universe, 1, "greedy")
    assert greedy.best.subset == FiniteSet(greedy_mono(objs, colors, universe))


@settings(max_examples=25, deadline=None)
@given(wide_universes(), st.sampled_from([Cube(2), Cube(3)] + OTHER_SOURCES),
       st.integers(0, 2**32), st.sampled_from([0, 1, 3, 8]))
def test_monochromatic_on_wide_universes_matches_reference(universe, source, seed, blues):
    """A few blue objects among red ones keep the largest monochromatic sets
    large, so the brute-force reference stops after a few sizes."""
    objs, _ = colored_domain(source, universe, seed)
    rng = random.Random(seed)
    blue = set(rng.sample(objs, min(blues, len(objs))))
    colors = {o: "blue" if o in blue else "red" for o in objs}
    res = find_monochromatic(source, Coloring.from_table(colors), universe, 1)
    subset, color, count = ref_mono(objs, colors, universe)
    assert (res.best.subset, res.best.color, res.best.domain_size) == (subset, color, count)
    greedy = find_monochromatic(source, Coloring.from_table(colors), universe, 1, "greedy")
    chosen = greedy_mono(objs, colors, universe)
    assert greedy.best.subset == FiniteSet(chosen)
    assert greedy.best.domain_size == len(inside(objs, frozenset(chosen)))


# ---------------------------------------------------------------------------
# metric_stabilize and diagonal_stabilize


def valued_blocks(fam: BlockFamily, universe: FiniteSet, seed: int):
    rng = random.Random(seed)
    blocks = enumerate_blocks(fam, universe.max, within=universe)
    return {b: F(rng.randint(0, 8), 8) for b in blocks}


def ref_metric(values, eps: F, universe: FiniteSet):
    def gap(m):
        return spread_of([(values[b],) for b in inside(values, m)])

    best = largest_first(universe, lambda m: gap(m) < eps)
    m = frozenset(best.elements)
    return best, gap(m), len(inside(values, m))


EPSILONS = st.sampled_from([F(1, 8), F(1, 4), F(3, 8), F(1, 2)])


@SEARCH
@given(universes(), st.sampled_from(FAMILIES), st.integers(0, 2**32), EPSILONS, st.data())
def test_metric_matches_reference(universe, fam, seed, eps, data):
    values = valued_blocks(fam, universe, seed)
    target = data.draw(st.integers(1, len(universe)))
    res = metric_stabilize(fam, values, eps, universe, target)
    subset, gap, count = ref_metric(values, eps, universe)
    assert (res.best.subset, res.best.max_gap, res.best.domain_size) == (subset, gap, count)
    assert res.found == (len(subset) >= target)


@SEARCH
@given(universes(), st.sampled_from(FAMILIES), st.integers(0, 2**32),
       st.sampled_from([(F(1, 2), F(1)), (F(2, 3), F(1, 2)), (F(3, 4), F(1, 4))]))
def test_diagonal_matches_reference(universe, fam, seed, sched):
    values = valued_blocks(fam, universe, seed)
    schedule = ToleranceSchedule(*sched)
    rep = diagonal_stabilize(fam, values, schedule, universe)
    pool, picked = universe, []
    for i, stage in enumerate(rep.stages, start=1):
        eps = schedule.at(i)
        pool_values = {b: v for b, v in values.items()
                       if support(b) <= frozenset(pool.elements)}
        subset, gap, _ = ref_metric(pool_values, eps, pool)
        assert (stage.pool, stage.subset, stage.max_gap) == (pool, subset, gap)
        picked.append(subset.min)
        pool = FiniteSet(x for x in subset if x > subset.min)
    assert pool.is_empty() and rep.completed
    assert rep.selected == FiniteSet(picked)


# ---------------------------------------------------------------------------
# find_stable_subsequence


SPECS = [even_pair_fixture(), section6_spec(), SupNorm(), LpNorm(1)]


def value_rows(spec, fam: BlockFamily, universe: FiniteSet, q: int):
    tuples = nonneg_grid(len(fam), q)
    blocks = enumerate_blocks(fam, universe.max, within=universe)
    return {b: tuple(psi_eval(spec, b, a) for a in tuples) for b in blocks}


def ref_stable(rows, eps: F, universe: FiniteSet, target: int):
    """Sizes from the universe down to target: the first stable subset is a
    hit; otherwise the least gap seen, with the first subset that reached it."""
    best_gap = best_subset = None
    for size in range(len(universe), target - 1, -1):
        for pick in combinations(universe.elements, size):
            gap = spread_of([rows[b] for b in inside(rows, frozenset(pick))])
            if gap < eps:
                return True, FiniteSet(pick), gap
            if best_gap is None or gap < best_gap:
                best_gap, best_subset = gap, FiniteSet(pick)
    return False, best_subset, best_gap


@settings(max_examples=80, deadline=None)
@given(universes(max_size=8), st.sampled_from(SPECS), st.sampled_from(FAMILIES[:2]),
       st.sampled_from([F(1, 16), F(1, 8), F(1, 4), F(1, 2)]), st.integers(1, 3), st.data())
def test_stable_subsequence_matches_reference(universe, spec, fam, eps, q, data):
    target = data.draw(st.integers(1, len(universe)))
    rows = value_rows(spec, fam, universe, q)
    res = find_stable_subsequence(spec, fam, eps, universe, target, "exhaustive", q)
    found, subset, gap = ref_stable(rows, eps, universe, target)
    assert res.found == found
    assert (res.best_subset, res.best_gap) == (subset, gap)
    if found:
        assert res.subset == subset and res.report.gap == gap
    else:
        assert res.subset is None and res.report is None


# Under the even-pair fixture each universe misses at its larger targets, and
# the least gap takes from one to four descents below the whole universe's.
EVERY_TARGET = [
    (FAMILIES[0], F(1, 8), FiniteSet(range(1, 11))),
    (FAMILIES[0], F(1, 32), FiniteSet((2, 3, 5, 7, 11, 13, 14))),
    (FAMILIES[2], F(1, 4), FiniteSet(range(1, 11))),
    (FAMILIES[2], F(1, 64), FiniteSet((1, 2, 3, 5, 8, 9, 12, 14))),
]


@pytest.mark.parametrize("fam, eps, universe", EVERY_TARGET,
                         ids=["pairs-10", "pairs-7", "one-two-10", "one-two-8"])
def test_stable_subsequence_matches_reference_at_every_target(fam, eps, universe):
    spec = even_pair_fixture()
    rows = value_rows(spec, fam, universe, 2)
    misses = 0
    for target in range(1, len(universe) + 1):
        res = find_stable_subsequence(spec, fam, eps, universe, target, "exhaustive", 2)
        found, subset, gap = ref_stable(rows, eps, universe, target)
        assert (res.found, res.best_subset, res.best_gap) == (found, subset, gap)
        misses += not found
    assert 0 < misses < len(universe)


def test_even_pair_miss_on_sixteen_elements():
    """Too large for the reference here; the expected gap is the minimum
    over all 9-element subsets, computed once by brute force."""
    res = find_stable_subsequence(even_pair_fixture(), FAMILIES[0], F(1, 8),
                                  FiniteSet(range(1, 17)), 9)
    assert not res.found
    assert (res.best_subset, res.best_gap) == (FiniteSet((1, 2, 3, 5, 7, 9, 11, 13, 15)), F(1, 4))


def test_stable_subsequence_hit_and_miss_examples():
    """Both branches on one universe: the parity classes of 1..8 are the
    largest stable sets under the even-pair fixture at tolerance 1/4."""
    spec, fam, universe = even_pair_fixture(), FAMILIES[0], FiniteSet(range(1, 9))
    rows = value_rows(spec, fam, universe, 2)
    for eps, target in ((F(1, 4), 4), (F(1, 4), 5), (F(1, 8), 3)):
        res = find_stable_subsequence(spec, fam, eps, universe, target, "exhaustive", 2)
        found, subset, gap = ref_stable(rows, eps, universe, target)
        assert (res.found, res.best_subset, res.best_gap) == (found, subset, gap)
    hit = find_stable_subsequence(spec, fam, F(1, 4), universe, 4, "exhaustive", 2)
    assert hit.found and hit.subset == FiniteSet((1, 3, 5, 7))
    assert not find_stable_subsequence(spec, fam, F(1, 4), universe, 5, "exhaustive", 2).found


# Found subsets whose blocks tie for the widest pair under the even-pair
# fixture at tolerance 1/2: the report must pick the pair oscillation_gap picks.
TIED_WITNESSES = [
    (FAMILIES[0], FiniteSet((3, 7, 13, 14)), 2, 1),
    (FAMILIES[2], FiniteSet((3, 4, 5, 6, 8, 9, 14)), 5, 1),
    (FAMILIES[2], FiniteSet((1, 2, 3, 4, 10, 13)), 1, 3),
]


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
@pytest.mark.parametrize("fam, universe, target, q", TIED_WITNESSES)
def test_stable_report_breaks_ties_as_oscillation_gap(fam, universe, target, q, strategy):
    spec = even_pair_fixture()
    res = find_stable_subsequence(spec, fam, F(1, 2), universe, target, strategy, q)
    assert res.found and res.report.gap > 0
    assert res.report == oscillation_gap(spec, fam, res.subset, q)


@settings(max_examples=40, deadline=None)
@given(universes(max_size=8), st.sampled_from(SPECS), st.sampled_from(FAMILIES),
       st.sampled_from([F(1, 8), F(1, 4), F(1, 2)]), st.data())
def test_greedy_stable_subsequence_matches_reference(universe, spec, fam, eps, data):
    target = data.draw(st.integers(1, len(universe)))
    rows = value_rows(spec, fam, universe, 2)
    chosen: list[int] = []
    for x in universe:
        if spread_of([rows[b] for b in inside(rows, frozenset(chosen + [x]))]) < eps:
            chosen.append(x)
    gap = spread_of([rows[b] for b in inside(rows, frozenset(chosen))])
    res = find_stable_subsequence(spec, fam, eps, universe, target, "greedy", 2)
    assert (res.best_subset, res.best_gap) == (FiniteSet(chosen), gap)
    assert res.found == (len(chosen) >= target)


def test_greedy_keeps_thousands_of_elements():
    """Greedy is the strategy for universes too large to scan: with every
    element accepted, it keeps all of them, however many there are."""
    universe = FiniteSet(range(1, 3001))
    mono = find_monochromatic(Cube(1), Coloring(lambda obj: "a"), universe, 3000, "greedy")
    assert mono.found and mono.witness.subset == universe
    assert (mono.witness.color, mono.witness.domain_size) == ("a", 3000)
    res = find_stable_subsequence(SupNorm(), BlockFamily((Cube(1),)), F(1, 2), universe,
                                  3000, "greedy", 2)
    assert res.found and res.subset == universe and res.report.gap == 0


def test_exhaustive_keeps_sets_deeper_than_the_recursion_limit():
    """With every element accepted, the exhaustive scan descends once per
    element: 1,500 and 1,200 levels, past the default limit of 1,000."""
    universe = FiniteSet(range(1, 1501))
    mono = find_monochromatic(Cube(1), Coloring(lambda obj: "a"), universe, 1500)
    assert mono.found and mono.witness.subset == universe
    assert mono.witness.domain_size == 1500
    universe = FiniteSet(range(1, 1201))
    res = find_stable_subsequence(SupNorm(), BlockFamily((Cube(1),)), F(1, 2), universe,
                                  1200, "exhaustive", 2)
    assert res.found and res.subset == universe and res.report.gap == 0


@pytest.mark.parametrize("eps, floor, greedy, calls, subset", [
    (F(1, 4), 1, False, 116, FiniteSet((1, 3, 5, 7, 9, 11))),
    (F(1, 8), 7, False, 112, None),
    (F(1, 4), 1, True, 12, FiniteSet((1, 2))),
], ids=["hit", "miss", "greedy"])
def test_scan_step_calls_are_pinned(eps, floor, greedy, calls, subset):
    """Steps asked by the scan over 1..12 under the even-pair fixture.  The
    cut size + (n - 1 - j) < best size keeps them at these counts; a weaker
    cut asks more steps, or steps past the last position."""
    universe = FiniteSet(range(1, 13))
    blocks = enumerate_blocks(FAMILIES[0], 12, within=universe)
    table, den = _value_table(even_pair_fixture(), blocks, _grid(2, 2, 0), 2)
    search = _search(universe.elements, [b.union() for b in blocks], table)
    step, asked = _spread_step(_ceil_times(eps, den)), []

    def counting(*args):
        asked.append(args)
        return step(*args)

    hit = search(counting, floor, greedy)
    assert (hit[0] if hit else None) == subset
    assert len(asked) == calls
