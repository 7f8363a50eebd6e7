from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.barriers import Cube, Schreier, enumerate_up_to
from blockosc.blocks import BlockFamily, enumerate_blocks
from blockosc.errors import InvalidArgumentError
from blockosc.normspace import even_pair_fixture, section6_spec
from blockosc.oscillation import ToleranceSchedule, psi_eval
from blockosc.ramsey import (
    Coloring,
    builtin_coloring,
    diagonal_stabilize,
    find_monochromatic,
    metric_stabilize,
)
from blockosc.sets import FiniteSet


def U(n):
    return FiniteSet(range(1, n + 1))


def brute_force_largest_mono(b, coloring, universe):
    """Independent oracle: largest-then-lex monochromatic subset."""
    objs = [(m, frozenset(m.elements)) for m in enumerate_up_to(b, universe.max)
            if frozenset(m.elements) <= frozenset(universe.elements)]
    for size in range(len(universe), 0, -1):
        for pick in combinations(universe.elements, size):
            m = frozenset(pick)
            cols = {coloring.of(o) for o, sup in objs if sup <= m}
            if len(cols) <= 1:
                return FiniteSet(pick)
    return None


class TestColoring:
    def test_builtins(self):
        s = FiniteSet((2, 3, 5))
        assert builtin_coloring("parity-of-sum").of(s) == "even"
        assert builtin_coloring("parity-of-min").of(s) == "even"
        assert builtin_coloring("size-parity").of(s) == "odd"
        assert builtin_coloring("contains:5").of(s) == "yes"
        assert builtin_coloring("contains:4").of(s) == "no"
        assert builtin_coloring("constant:x").of(s) == "x"

    def test_builtins_act_on_block_support(self):
        from blockosc.blocks import Block
        b = Block((FiniteSet((1,)), FiniteSet((4,))))
        assert builtin_coloring("parity-of-sum").of(b) == "odd"
        assert builtin_coloring("contains:4").of(b) == "yes"

    def test_unknown_builtin(self):
        with pytest.raises(InvalidArgumentError):
            builtin_coloring("no-such-rule")

    def test_table_must_be_total(self):
        c = Coloring.from_table({FiniteSet((1, 2)): 1})
        assert c.of(FiniteSet((1, 2))) == 1
        with pytest.raises(InvalidArgumentError):
            c.of(FiniteSet((1, 3)))


class TestMonochromatic:
    def test_constant_takes_everything(self):
        r = find_monochromatic(Cube(2), builtin_coloring("constant:c"), U(6), 6)
        assert r.found
        assert r.witness.subset == U(6)
        assert r.witness.domain_size == 15

    def test_parity_of_sum_picks_odds(self):
        r = find_monochromatic(Cube(2), builtin_coloring("parity-of-sum"), U(8), 4)
        assert r.found
        assert r.witness.subset == FiniteSet((1, 3, 5, 7))
        assert r.witness.color == "even"
        oracle = brute_force_largest_mono(
            Cube(2), builtin_coloring("parity-of-sum"), U(8))
        assert r.witness.subset == oracle

    def test_parity_of_sum_misses_target_five(self):
        r = find_monochromatic(Cube(2), builtin_coloring("parity-of-sum"), U(8), 5)
        assert not r.found and r.witness is None
        assert r.best.subset == FiniteSet((1, 3, 5, 7))

    def test_schreier_avoids_pivot(self):
        c = builtin_coloring("contains:2")
        r = find_monochromatic(Schreier(), c, U(6), 4)
        assert r.found
        assert r.witness.color == "no"
        assert r.witness.subset == brute_force_largest_mono(Schreier(), c, U(6))
        assert r.witness.subset == FiniteSet((1, 3, 4, 5, 6))
        assert r.witness.domain_size == 4

    def test_vacuous_subset_counts(self):
        # no Cube(3) member fits in two points, so any 2-set is trivially mono
        r = find_monochromatic(Cube(3), builtin_coloring("constant:c"), U(2), 2)
        assert r.found
        assert r.witness.color is None and r.witness.domain_size == 0

    def test_greedy_is_best_effort(self):
        r = find_monochromatic(Cube(2), builtin_coloring("parity-of-sum"),
                               U(8), 4, strategy="greedy")
        assert not r.found
        assert r.best.subset == FiniteSet((1, 2))

    def test_greedy_can_succeed(self):
        r = find_monochromatic(Cube(2), builtin_coloring("constant:c"),
                               U(5), 5, strategy="greedy")
        assert r.found and r.witness.subset == U(5)

    def test_block_domain(self):
        fam = BlockFamily((Cube(1), Cube(1)))
        c = Coloring(lambda b: b.parts[0].min % 2)
        r = find_monochromatic(fam, c, U(6), 3)
        assert r.found
        assert len(r.witness.subset) >= 3

    def test_input_validation(self):
        c = builtin_coloring("constant:c")
        with pytest.raises(InvalidArgumentError):
            find_monochromatic(Cube(2), c, U(4), 0)
        with pytest.raises(InvalidArgumentError):
            find_monochromatic(Cube(2), c, U(4), 5)
        with pytest.raises(InvalidArgumentError):
            find_monochromatic(Cube(2), c, U(4), 2, strategy="psychic")

    def test_witness_reverifies(self):
        # every enumerated object inside the returned subset shares the color
        c = builtin_coloring("parity-of-min")
        r = find_monochromatic(Cube(2), c, U(7), 3)
        assert r.found
        sup = frozenset(r.witness.subset.elements)
        inside = [m for m in enumerate_up_to(Cube(2), 7)
                  if frozenset(m.elements) <= sup]
        assert {c.of(m) for m in inside} == {r.witness.color}
        assert len(inside) == r.witness.domain_size

    def test_none_is_a_color(self):
        # {1} alone is colored None, so it cannot join the red singletons
        c = Coloring(lambda o: None if 1 in o else "red")
        assert brute_force_largest_mono(Cube(1), c, U(4)) == FiniteSet((2, 3, 4))
        r = find_monochromatic(Cube(1), c, U(4), 2)
        assert (r.best.subset, r.best.color, r.best.domain_size) == (FiniteSet((2, 3, 4)), "red", 3)
        g = find_monochromatic(Cube(1), c, U(4), 1, "greedy")
        assert (g.best.subset, g.best.color, g.best.domain_size) == (FiniteSet((1,)), None, 1)

    def test_nan_colors_a_single_object(self):
        # NaN is unequal to itself: no two objects share it, but one alone is monochromatic
        c = Coloring(lambda o: float("nan"))
        for strategy in ("exhaustive", "greedy"):
            r = find_monochromatic(Cube(1), c, U(3), 1, strategy)
            assert r.found and (r.witness.subset, r.witness.domain_size) == (FiniteSet((1,)), 1)


class TestMetric:
    def setup_method(self):
        self.fam = BlockFamily((Cube(1), Cube(1)))

    def test_constant_values(self):
        m = metric_stabilize(self.fam, lambda b: F(7), F(1, 4), U(6), 6)
        assert m.found and m.witness.subset == U(6)
        assert m.witness.max_gap == 0

    def test_eight_eight_values_are_flat(self):
        fam = BlockFamily((Cube(8), Cube(8)))
        spec = section6_spec()
        vals = lambda b: psi_eval(spec, b, (F(1), F(1)))
        m = metric_stabilize(fam, vals, F(1, 4), U(17), 17)
        assert m.found and m.witness.subset == U(17)
        assert m.witness.max_gap == 0 and m.witness.domain_size == 17

    def test_wide_epsilon_is_vacuous(self):
        m = metric_stabilize(self.fam, lambda b: F(b.min), F(99), U(5), 5)
        assert m.found and m.witness.subset == U(5)
        assert m.witness.max_gap == F(3)

    def test_miss_reports_best(self):
        fam1 = BlockFamily((Cube(1),))
        m = metric_stabilize(fam1, lambda b: F(b.min), F(1, 2), U(4), 2)
        assert not m.found and m.witness is None
        assert m.best.subset == FiniteSet((1,))
        assert m.best.max_gap == 0 and m.best.domain_size == 1

    def test_strict_inequality(self):
        fam1 = BlockFamily((Cube(1),))
        m = metric_stabilize(fam1, lambda b: F(b.min), F(1), U(3), 2)
        assert not m.found  # adjacent singletons differ by exactly 1

    def test_values_must_be_total(self):
        with pytest.raises(InvalidArgumentError):
            metric_stabilize(self.fam, {}, F(1, 4), U(4), 2)

    def test_epsilon_positive(self):
        with pytest.raises(InvalidArgumentError):
            metric_stabilize(self.fam, lambda b: F(0), F(0), U(4), 2)


class TestDiagonal:
    def setup_method(self):
        self.fam = BlockFamily((Cube(1), Cube(1)))

    def test_constant_values_emit_whole_universe(self):
        d = diagonal_stabilize(self.fam, lambda b: F(1), ToleranceSchedule(), U(6))
        assert d.selected == U(6)
        assert d.completed and len(d.stages) == 6
        assert [s.min_element for s in d.stages] == [1, 2, 3, 4, 5, 6]

    def test_eights_values_emit_whole_universe(self):
        fam = BlockFamily((Cube(8),))
        spec = section6_spec()
        d = diagonal_stabilize(fam, lambda b: psi_eval(spec, b, (F(1),)),
                               ToleranceSchedule(), U(10))
        assert d.selected == U(10) and d.completed

    def test_fixture_values_select_odds(self):
        spec = even_pair_fixture()
        vals = lambda b: psi_eval(spec, b, (F(1), F(1)))
        d = diagonal_stabilize(self.fam, vals, ToleranceSchedule(), U(12))
        assert d.selected == FiniteSet((1, 3, 5, 7, 9, 11))
        assert d.completed
        # later stages sit strictly inside earlier subsets shifted up
        for a, b in zip(d.stages, d.stages[1:]):
            assert b.pool == FiniteSet(x for x in a.subset if x > a.min_element)

    def test_stage_tolerances_follow_schedule(self):
        sched = ToleranceSchedule(ratio=F(1, 3), scale=F(2))
        d = diagonal_stabilize(self.fam, lambda b: F(0), sched, U(4))
        assert [s.epsilon for s in d.stages] == [sched.at(i) for i in (1, 2, 3, 4)]

    def test_empty_universe_rejected(self):
        with pytest.raises(InvalidArgumentError):
            diagonal_stabilize(self.fam, lambda b: F(1), ToleranceSchedule(),
                               FiniteSet())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**15 - 1))
def test_two_colorings_of_pairs_always_have_triangles(bits):
    """R(3,3) = 6: any 2-coloring of the 15 pairs in {1..6} has a mono 3-set."""
    pairs = list(combinations(range(1, 7), 2))
    table = {FiniteSet(p): (bits >> i) & 1 for i, p in enumerate(pairs)}
    r = find_monochromatic(Cube(2), Coloring.from_table(table), U(6), 3)
    assert r.found and len(r.witness.subset) >= 3


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_metric_witness_reverifies(data):
    fam = BlockFamily((Cube(1), Cube(1)))
    seed = data.draw(st.integers(0, 10**6))
    import random
    rng = random.Random(seed)
    vals = {}
    from blockosc.blocks import enumerate_blocks
    for b in enumerate_blocks(fam, 6):
        vals[b] = F(rng.randint(0, 4), 4)
    eps = F(data.draw(st.integers(1, 4)), 4)
    m = metric_stabilize(fam, vals, eps, U(6), 2)
    if m.found:
        sup = frozenset(m.witness.subset.elements)
        inside = [v for b, v in vals.items()
                  if frozenset(b.union().elements) <= sup]
        if len(inside) >= 2:
            assert max(inside) - min(inside) < eps
            assert max(inside) - min(inside) == m.witness.max_gap


@pytest.mark.parametrize("name", ["contains:x", "contains:", "contains:1/2"])
def test_contains_rule_needs_an_integer(name):
    with pytest.raises(InvalidArgumentError, match="integer"):
        builtin_coloring(name)


SOURCES = [Cube(1), Cube(2), Schreier(), BlockFamily((Cube(1),)),
           BlockFamily((Cube(1), Cube(2))), BlockFamily((Schreier(), Cube(1)))]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_search_returns_a_set(data):
    """Every singleton is homogeneous, so each search returns a nonempty set:
    a best set from both monochromatic strategies and from the metric
    search, and a stable set at every diagonal stage."""
    universe = FiniteSet(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=7,
                                            unique=True)))
    source = data.draw(st.sampled_from(SOURCES))
    if isinstance(source, BlockFamily):
        objs = enumerate_blocks(source, universe.max, within=universe)
    else:
        objs = [m for m in enumerate_up_to(source, universe.max)
                if set(m) <= set(universe)]
    draws = st.lists(st.integers(0, 8), min_size=len(objs), max_size=len(objs))
    coloring = Coloring.from_table(dict(zip(objs, data.draw(draws))))
    target = data.draw(st.integers(1, len(universe)))
    for strategy in ("exhaustive", "greedy"):
        r = find_monochromatic(source, coloring, universe, target, strategy)
        assert not r.best.subset.is_empty() and r.found == (r.witness is not None)
    if isinstance(source, BlockFamily):
        values = dict(zip(objs, (F(n, 4) for n in data.draw(draws))))
        m = metric_stabilize(source, values, F(data.draw(st.integers(1, 4)), 8), universe,
                             target)
        assert not m.best.subset.is_empty() and m.found == (m.witness is not None)
        d = diagonal_stabilize(source, values, ToleranceSchedule(), universe)
        assert d.completed and d.stages and all(s.min_element in s.subset for s in d.stages)
