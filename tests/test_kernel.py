"""The integer sup-family kernel against a Fraction reference kept in this file.

The reference is the evaluator the kernel replaced: absolute entries sorted
largest first, the singleton term, and each weighted top-m sum with its
index filter, all in ``Fraction``.  ``norm_eval``, ``psi_eval`` and the
value table (integer rows over one denominator) must agree with it exactly.  The fixed cases put a gap exactly at the tolerance,
and a tolerance just above a gap, through every comparison that reads the
integer table against ``epsilon``.
"""

import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.barriers import Cube
from blockosc.blocks import Block, BlockFamily
from blockosc.errors import InvalidArgumentError
from blockosc.normspace import (
    LpNorm,
    SupFamily,
    SupTerm,
    Vector,
    _grid,
    _value_table,
    even_pair_fixture,
    nonneg_grid,
    norm_eval,
    signed_grid,
)
from blockosc.oscillation import (
    ToleranceSchedule,
    _spread,
    asymptotic_stability_check,
    find_stable_subsequence,
    oscillation_gap,
    psi_eval,
)
from blockosc.ramsey import diagonal_stabilize, metric_stabilize
from blockosc.sets import FiniteSet

KERNEL = settings(max_examples=150, deadline=None)

# ---------------------------------------------------------------------------
# Fraction reference

FILTERS = {
    "even-indices": ("subset", lambda i: i % 2 == 0),
    "odd-indices": ("subset", lambda i: i % 2 == 1),
    "touches-even": ("touch", lambda i: i % 2 == 0),
}


def ref_top_sum(values, m):
    return sum(values[:m], F(0))


def ref_term_value(term, items):
    m = term.size
    if term.filter is None:
        return term.weight * ref_top_sum([val for val, _ in items], m)
    mode, pred = FILTERS[term.filter]
    if mode == "subset":
        return term.weight * ref_top_sum([val for val, i in items if pred(i)], m)
    # touch mode: at least one qualifying index, the rest unconstrained;
    # a qualifying index outside the support may pad with a zero
    vals = [val for val, _ in items]
    best = ref_top_sum(vals, m - 1)
    for pos, (val, i) in enumerate(items):
        if pred(i):
            others = vals[:pos] + vals[pos + 1:]
            best = max(best, val + ref_top_sum(others, m - 1))
    return term.weight * best


def ref_norm(spec, v: Vector) -> F:
    items = sorted(((abs(c), i) for i, c in v.entries.items()), key=lambda t: (-t[0], t[1]))
    if not items:
        return F(0)
    if isinstance(spec, LpNorm):
        return sum((val for val, _ in items), F(0))
    best = items[0][0]
    for term in getattr(spec, "terms", ()):
        best = max(best, ref_term_value(term, items))
    return best


def ref_psi(spec, block: Block, coeffs) -> F:
    entries = {}
    for c, part in zip(coeffs, block):
        d = ref_norm(spec, Vector({i: 1 for i in part}))
        for i in part:
            entries[i] = F(c) / d
    return ref_norm(spec, Vector(entries))


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def sup_families(draw, filters=(None, "even-indices", "odd-indices", "touches-even")):
    terms = draw(st.lists(st.builds(
        SupTerm,
        st.builds(F, st.integers(1, 30), st.integers(1, 16)),
        st.integers(1, 9),
        st.sampled_from(filters),
    ), min_size=1, max_size=3))
    return SupFamily(tuple(terms))


SPECS = st.one_of(sup_families(), st.just(SupFamily(())), st.just(LpNorm(1)))
COEFFS = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3),
    st.builds(F, st.integers(-24, 24), st.integers(1, 12)),
)


@st.composite
def blocks(draw, k):
    sizes = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    elems = sorted(draw(st.lists(st.integers(1, 40), min_size=sum(sizes),
                                 max_size=sum(sizes), unique=True)))
    parts, at = [], 0
    for size in sizes:
        parts.append(FiniteSet(elems[at:at + size]))
        at += size
    return Block(tuple(parts))


@st.composite
def tables(draw):
    k = draw(st.integers(1, 4))
    bs = draw(st.lists(blocks(k), min_size=1, max_size=6))
    tuples = draw(st.lists(st.tuples(*[COEFFS] * k), min_size=1, max_size=6))
    return bs, tuples


@st.composite
def numerator_tables(draw):
    """Blocks, and tuples of numerators over q, all signed or all nonnegative."""
    k, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lo = draw(st.sampled_from([-q, 0]))
    bs = draw(st.lists(blocks(k), min_size=1, max_size=6))
    nums = draw(st.lists(st.tuples(*[st.integers(lo, q)] * k), min_size=1, max_size=6))
    return bs, nums, q


# ---------------------------------------------------------------------------
# Differential tests


@KERNEL
@given(SPECS, st.dictionaries(st.integers(1, 30), COEFFS, max_size=12))
def test_norm_eval_matches_reference(spec, entries):
    v = Vector(entries)
    assert norm_eval(spec, v) == ref_norm(spec, v)


@KERNEL
@given(SPECS, st.integers(1, 4).flatmap(
    lambda k: st.tuples(blocks(k), st.tuples(*[COEFFS] * k))))
def test_psi_matches_reference(spec, case):
    block, coeffs = case
    assert psi_eval(spec, block, coeffs) == ref_psi(spec, block, coeffs)


@KERNEL
@given(SPECS, st.integers(1, 4).flatmap(
    lambda k: st.tuples(blocks(k), st.tuples(*[COEFFS] * k))))
def test_psi_reads_only_absolute_coefficients(spec, case):
    # so the nonnegative grid already holds the column of every sign pattern
    block, coeffs = case
    assert psi_eval(spec, block, coeffs) == psi_eval(spec, block, tuple(abs(c) for c in coeffs))


@KERNEL
@given(SPECS, tables())
def test_value_table_rows_over_one_denominator(spec, case):
    bs, tuples = case
    q = math.lcm(*(F(c).denominator for a in tuples for c in a))
    table, den = _value_table(spec, bs, [[int(c * q) for c in a] for a in tuples], q)
    assert len(table) == len(bs)
    for row, b in zip(table, bs):
        assert all(isinstance(cell, int) for cell in row)
        assert [F(cell, den) for cell in row] == [ref_psi(spec, b, a) for a in tuples]


@KERNEL
@given(SPECS, numerator_tables())
def test_value_table_reads_numerators_over_q(spec, case):
    # q need not be the numerators' lcm: (2, 4) over 4 is (1/2, 1)
    bs, nums, q = case
    table, den = _value_table(spec, bs, nums, q)
    for row, b in zip(table, bs):
        assert all(isinstance(cell, int) for cell in row)
        assert [F(cell, den) for cell in row] == [
            ref_psi(spec, b, tuple(F(x, q) for x in a)) for a in nums]


def test_public_grids_are_the_numerator_grids_over_q():
    for k in range(1, 4):
        for q in range(1, 5):
            for lo, public in ((0, nonneg_grid), (-q, signed_grid)):
                assert public(k, q) == [tuple(F(x, q) for x in a) for a in _grid(k, q, lo)]
                assert _grid(k, q, lo) == sorted(_grid(k, q, lo))
    with pytest.raises(InvalidArgumentError, match="grid size"):
        _grid(2, 0, 0)
    with pytest.raises(InvalidArgumentError, match="grid size"):
        oscillation_gap(even_pair_fixture(), BlockFamily((Cube(1),)), FiniteSet((1, 2)), grid_q=0)


def test_spec_with_a_cached_plan_pickles():
    spec = even_pair_fixture()
    assert psi_eval(spec, Block((FiniteSet((2,)), FiniteSet((4,)))), (1, 1)) == F(3, 2)
    assert pickle.loads(pickle.dumps(spec)) == spec


# ---------------------------------------------------------------------------
# Spread of an integer table


def test_spread_of_an_integer_table_is_an_integer():
    got = _spread([[4, 7], [6, 7]], [0, 1])
    assert got == 2 and type(got) is int
    for table, rows in (([[4, 7]], [0]), ([], []), ([[3], [3], [3]], [0, 1, 2])):
        got = _spread(table, rows)
        assert got == 0 and type(got) is int


# ---------------------------------------------------------------------------
# Gaps at and just under the tolerance

# Under the even-pair fixture, pairs of singletons in {1, 2, 3, 4} spread by
# exactly 1/2 (two evens give 3/2 at (1, 1), two odds 1), and every pair
# above 1 by less.  TINY is far below one unit of the table's denominator.
FIXTURE = even_pair_fixture()
SINGLETONS = BlockFamily((Cube(1), Cube(1)))
UNIVERSE = FiniteSet((1, 2, 3, 4))
HALF = F(1, 2)
TINY = F(1, 10**6)


def test_exhaustive_gap_equal_to_epsilon_is_not_stable():
    res = find_stable_subsequence(FIXTURE, SINGLETONS, HALF, UNIVERSE, 4, "exhaustive", 2)
    assert not res.found
    assert res.best_gap == HALF and res.best_subset == UNIVERSE
    res = find_stable_subsequence(FIXTURE, SINGLETONS, HALF + TINY, UNIVERSE, 4,
                                  "exhaustive", 2)
    assert res.found and res.subset == UNIVERSE and res.report.gap == HALF


def test_greedy_gap_equal_to_epsilon_is_not_stable():
    res = find_stable_subsequence(FIXTURE, SINGLETONS, HALF, UNIVERSE, 4, "greedy", 2)
    assert not res.found
    assert res.best_subset == FiniteSet((1, 2, 3)) and res.best_gap == F(1, 4)
    res = find_stable_subsequence(FIXTURE, SINGLETONS, HALF + TINY, UNIVERSE, 4, "greedy", 2)
    assert res.found and res.subset == UNIVERSE


def test_asymptotic_gap_equal_to_epsilon_is_not_stable():
    def stage(eps):
        sched = ToleranceSchedule(F(1, 2), 2 * eps)  # stage 1 tolerance is eps
        rep = asymptotic_stability_check(FIXTURE, SINGLETONS, sched, 4, universe=UNIVERSE,
                                         max_stages=1, grid_q=2)
        return rep.stages[0]

    at = stage(HALF)
    assert at.epsilon == HALF and at.passed and at.threshold == 1
    above = stage(HALF + TINY)
    assert above.passed and above.threshold == 0


# The Ramsey searches read block values given as data.  Over {1, 2, 3} the
# singletons are worth 1/3, 5/6 and 1/3: the universe spreads by exactly 1/2,
# and {1, 3} by nothing.
VALUES = {Block((FiniteSet((i,)),)): v for i, v in ((1, F(1, 3)), (2, F(5, 6)), (3, F(1, 3)))}
ONES = BlockFamily((Cube(1),))
THREE = FiniteSet((1, 2, 3))


def test_metric_gap_equal_to_epsilon_is_not_stable():
    res = metric_stabilize(ONES, VALUES, HALF, THREE, 3)
    assert not res.found
    assert res.best.subset == FiniteSet((1, 3)) and res.best.max_gap == 0
    res = metric_stabilize(ONES, VALUES, HALF + TINY, THREE, 3)
    assert res.found and res.witness.subset == THREE and res.witness.max_gap == HALF


def test_diagonal_gap_equal_to_epsilon_is_not_stable():
    def first_stage(eps):
        sched = ToleranceSchedule(F(1, 2), 2 * eps)  # stage 1 tolerance is eps
        return diagonal_stabilize(ONES, VALUES, sched, THREE).stages[0]

    at = first_stage(HALF)
    assert at.epsilon == HALF and at.subset == FiniteSet((1, 3)) and at.max_gap == 0
    above = first_stage(HALF + TINY)
    assert above.subset == THREE and above.max_gap == HALF
