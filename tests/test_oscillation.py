from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.barriers import Cube, Schreier
from blockosc.blocks import Block, BlockFamily, enumerate_blocks
from blockosc.errors import InsufficientBlocksError, InvalidArgumentError
from blockosc.normspace import (
    SupFamily,
    _part_runs,
    Vector,
    even_pair_fixture,
    mn_norm_spec,
    nonneg_grid,
    norm_eval,
    section6_spec,
)
from blockosc.oscillation import (
    AsymptoticReport,
    StageResult,
    ToleranceSchedule,
    asymptotic_stability_check,
    find_stable_subsequence,
    oscillation_gap,
    psi_eval,
)
from blockosc.sets import Arithmetic, FiniteSet, SetGenerator, evens, odds


def U(n):
    return FiniteSet(range(1, n + 1))


def stacked_block(*sizes):
    parts, lo = [], 1
    for size in sizes:
        parts.append(FiniteSet(range(lo, lo + size)))
        lo += size
    return Block(parts)


class TestSchedule:
    def test_default_halving(self):
        s = ToleranceSchedule()
        assert [s.at(i) for i in (1, 2, 3)] == [F(1, 2), F(1, 4), F(1, 8)]

    def test_scale(self):
        s = ToleranceSchedule(ratio=F(1, 3), scale=F(9))
        assert s.at(2) == F(1)

    def test_strictly_decreasing(self):
        s = ToleranceSchedule(ratio=F(2, 3))
        assert all(s.at(i + 1) < s.at(i) for i in range(1, 10))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ToleranceSchedule(ratio=F(1))
        with pytest.raises(InvalidArgumentError):
            ToleranceSchedule(ratio=F(0))
        with pytest.raises(InvalidArgumentError):
            ToleranceSchedule(scale=F(-1))
        with pytest.raises(InvalidArgumentError):
            ToleranceSchedule(scale=F(0))
        with pytest.raises(InvalidArgumentError):
            ToleranceSchedule().at(0)


class TestPsi:
    def test_two_eights(self):
        assert psi_eval(section6_spec(), stacked_block(8, 8), (F(1), F(1))) == F(1)

    def test_two_pairs(self):
        assert psi_eval(section6_spec(), stacked_block(2, 2), (F(1), F(1))) == F(3, 2)

    def test_pairs_then_eight(self):
        v = psi_eval(section6_spec(), stacked_block(2, 2, 8), (F(0), F(0), F(1)))
        assert v == F(1)

    def test_placement_is_irrelevant_for_plain_specs(self):
        spec = section6_spec()
        near = stacked_block(2, 8)
        far = Block((FiniteSet((5, 9)), FiniteSet(range(20, 28))))
        a = (F(1, 2), F(3, 4))
        assert psi_eval(spec, near, a) == psi_eval(spec, far, a)

    def test_filtered_spec_sees_placement(self):
        spec = even_pair_fixture()
        ee = Block((FiniteSet((2,)), FiniteSet((4,))))
        oo = Block((FiniteSet((1,)), FiniteSet((3,))))
        oe = Block((FiniteSet((1,)), FiniteSet((2,))))
        a = (F(1), F(1))
        assert psi_eval(spec, ee, a) == F(3, 2)
        assert psi_eval(spec, oe, a) == F(5, 4)
        assert psi_eval(spec, oo, a) == F(1)

    def test_matches_direct_vector_construction(self):
        spec = section6_spec()
        b = stacked_block(2, 8)
        a = (F(2, 3), F(1, 5))
        v = Vector({1: F(2, 3) / F(3, 2), 2: F(2, 3) / F(3, 2),
                    **{i: F(1, 5) / F(9, 2) for i in range(3, 11)}})
        assert psi_eval(spec, b, a) == norm_eval(spec, v)

    def test_coefficient_count_checked(self):
        with pytest.raises(InvalidArgumentError):
            psi_eval(section6_spec(), stacked_block(2, 2), (F(1),))

    def test_desk_bound(self):
        # max(a) <= psi <= 2 max(a) for (2, 2, 8, ..., 8) stacks; the values
        # only depend on part sizes, so one block per length is exhaustive
        spec = section6_spec()
        for k in (3, 4, 5, 6):
            b = stacked_block(2, 2, *([8] * (k - 2)))
            for a in nonneg_grid(k, 4):
                v = psi_eval(spec, b, a)
                m = max(a)
                assert m <= v <= 2 * m

    def test_tail_reduction(self):
        spec = section6_spec()
        three = stacked_block(2, 2, 8)
        for k in (4, 5):
            b = stacked_block(2, 2, *([8] * (k - 2)))
            for a in nonneg_grid(k, 4):
                reduced = (a[0], a[1], max(a[2:]))
                assert psi_eval(spec, b, a) == psi_eval(spec, three, reduced)


def test_filtered_value_table_takes_each_part_runs_once(monkeypatch):
    """Under a filtered spec a repeated part's runs are computed once, and
    every cell still equals psi_eval."""
    from blockosc import normspace
    spec, blocks = even_pair_fixture(), enumerate_blocks(BlockFamily((Cube(1), Cube(1))), 8)
    tuples = nonneg_grid(2, 4)
    cells = [[psi_eval(spec, b, a) for a in tuples] for b in blocks]
    calls = []

    def counted(plan, part, firsts):
        calls.append(part)
        return _part_runs(plan, part, firsts)

    monkeypatch.setattr(normspace, "_part_runs", counted)
    table, den = normspace._value_table(spec, blocks, normspace._grid(2, 4, 0), 4)
    assert [[F(x, den) for x in row] for row in table] == cells
    parts = [p for b in blocks for p in b]
    assert len(parts) == 56 and len(calls) == len(set(parts)) == 8
    assert calls == sorted(set(parts), key=parts.index)


class TestGap:
    def test_eights_never_oscillate(self):
        rep = oscillation_gap(section6_spec(), BlockFamily((Cube(8),)), U(10))
        assert rep.gap == 0 and rep.witness_pair is None
        assert rep.block_count == 45

    def test_two_eights_never_oscillate(self):
        rep = oscillation_gap(section6_spec(), BlockFamily((Cube(8), Cube(8))),
                              U(17), grid_q=2)
        assert rep.gap == 0
        assert rep.block_count == 17

    def test_fixture_gap_is_half(self):
        rep = oscillation_gap(even_pair_fixture(), BlockFamily((Cube(1), Cube(1))),
                              U(8))
        assert rep.gap == F(1, 2)
        assert rep.witness_coeffs == (F(1), F(1))
        s, t = rep.witness_pair
        vals = {psi_eval(even_pair_fixture(), b, rep.witness_coeffs)
                for b in (s, t)}
        assert vals == {F(3, 2), F(1)}

    def test_sup_norm_never_oscillates(self):
        rep = oscillation_gap(SupFamily(()), BlockFamily((Cube(2), Cube(2))), U(9))
        assert rep.gap == 0

    def test_insufficient_blocks(self):
        fam = BlockFamily((Cube(8), Cube(8)))
        with pytest.raises(InsufficientBlocksError):
            oscillation_gap(section6_spec(), fam, U(15))
        with pytest.raises(InsufficientBlocksError):
            oscillation_gap(section6_spec(), fam, U(16))

    def test_monotone_in_universe(self):
        spec = even_pair_fixture()
        fam = BlockFamily((Cube(1), Cube(1)))
        full = oscillation_gap(spec, fam, U(8)).gap
        for sub in (FiniteSet((1, 3, 5, 7)), FiniteSet((1, 2, 3)),
                    FiniteSet((2, 4, 6, 8)), FiniteSet((2, 3, 5, 8))):
            assert oscillation_gap(spec, fam, sub).gap <= full

    def test_two_blocks_are_compared(self):
        rep = oscillation_gap(even_pair_fixture(), BlockFamily((Schreier(), Cube(1))),
                              FiniteSet((1, 2, 3)), grid_q=1)
        assert rep.block_count == 2 and not rep.vacuous
        assert rep.gap == F(1, 4)
        assert rep.witness_pair == (Block((FiniteSet((1,)), FiniteSet((2,)))),
                                    Block((FiniteSet((1,)), FiniteSet((3,)))))

    def test_report_reverifies(self):
        spec = even_pair_fixture()
        rep = oscillation_gap(spec, BlockFamily((Cube(1), Cube(1))), U(6))
        s, t = rep.witness_pair
        a = rep.witness_coeffs
        assert abs(psi_eval(spec, s, a) - psi_eval(spec, t, a)) == rep.gap


class TestStableSubsequence:
    def test_fixture_picks_odds(self):
        r = find_stable_subsequence(even_pair_fixture(),
                                    BlockFamily((Cube(1), Cube(1))),
                                    F(1, 4), U(10), 5)
        assert r.found
        assert r.subset == FiniteSet((1, 3, 5, 7, 9))
        assert r.report.gap == 0

    def test_eights_take_everything(self):
        r = find_stable_subsequence(section6_spec(), BlockFamily((Cube(8),)),
                                    F(1, 100), U(10), 10)
        assert r.found and r.subset == U(10)

    def test_wide_epsilon_takes_everything(self):
        # the combination value never exceeds sum|a_i| <= k, so gap < 2k always
        r = find_stable_subsequence(even_pair_fixture(),
                                    BlockFamily((Cube(1), Cube(1))),
                                    F(4), U(10), 10)
        assert r.found and r.subset == U(10)

    def test_miss_reports_best(self):
        r = find_stable_subsequence(even_pair_fixture(),
                                    BlockFamily((Cube(1), Cube(1))),
                                    F(1, 4), U(4), 4)
        assert not r.found and r.subset is None
        assert r.best_subset == U(4)
        assert r.best_gap == F(1, 2)

    def test_greedy_gets_stuck_early(self):
        r = find_stable_subsequence(even_pair_fixture(),
                                    BlockFamily((Cube(1), Cube(1))),
                                    F(1, 4), U(10), 5, strategy="greedy")
        assert not r.found
        assert r.best_subset == FiniteSet((1, 2))

    def test_validation(self):
        fam = BlockFamily((Cube(1), Cube(1)))
        with pytest.raises(InvalidArgumentError):
            find_stable_subsequence(SupFamily(()), fam, F(0), U(5), 2)
        with pytest.raises(InvalidArgumentError):
            find_stable_subsequence(SupFamily(()), fam, F(1), U(5), 6)
        with pytest.raises(InvalidArgumentError):
            find_stable_subsequence(SupFamily(()), fam, F(1), U(5), 2, strategy="luck")


class TestAsymptotic:
    def test_eights_pass_at_zero(self):
        rep = asymptotic_stability_check(section6_spec(), BlockFamily((Cube(8),)),
                                         ToleranceSchedule(), horizon=12,
                                         grid_q=4)
        assert rep.all_passed
        assert all(s.threshold == 0 for s in rep.stages)

    def test_fixture_fails_below_half(self):
        rep = asymptotic_stability_check(even_pair_fixture(),
                                         BlockFamily((Cube(1), Cube(1))),
                                         ToleranceSchedule(), horizon=12,
                                         max_stages=4)
        assert not rep.all_passed
        first, *rest = rep.stages
        assert first.passed and first.epsilon == F(1, 2) and first.threshold == 9
        for s in rest:
            assert not s.passed and s.threshold is None
            assert s.witness_gap == F(1, 4)
            assert s.witness_pair is not None

    def test_fixture_on_odds_passes(self):
        rep = asymptotic_stability_check(even_pair_fixture(),
                                         BlockFamily((Cube(1), Cube(1))),
                                         ToleranceSchedule(), horizon=12,
                                         universe=odds(), max_stages=6)
        assert rep.all_passed
        assert all(s.threshold == 0 for s in rep.stages)

    def test_small_horizon_rejected(self):
        with pytest.raises(InsufficientBlocksError):
            asymptotic_stability_check(section6_spec(), BlockFamily((Cube(8),)),
                                       ToleranceSchedule(), horizon=8)
        with pytest.raises(InsufficientBlocksError):
            asymptotic_stability_check(even_pair_fixture(), BlockFamily((Cube(1),)),
                                       ToleranceSchedule(), horizon=1)

    def test_finite_universe_with_gaps(self):
        args = (even_pair_fixture(), BlockFamily((Cube(1), Cube(1))), ToleranceSchedule(), 11)
        gapped = asymptotic_stability_check(*args, universe=FiniteSet((1, 3, 5, 7, 9, 11)),
                                            max_stages=4)
        assert gapped == asymptotic_stability_check(*args, universe=odds(), max_stages=4)
        assert gapped.all_passed
        assert gapped != asymptotic_stability_check(*args, max_stages=4)


def ref_spread(rows) -> F:
    """Max over columns of (max - min) of Fraction rows."""
    return max(max(col) - min(col) for col in zip(*rows))


def ref_widest(tail, cells, tuples):
    """The first widest column's first max block and first min block, its
    coefficients and its spread."""
    cols = [[cells[b][j] for b in tail] for j in range(len(tuples))]
    spreads = [max(col) - min(col) for col in cols]
    j = spreads.index(max(spreads))
    col = cols[j]
    return (tail[col.index(max(col))], tail[col.index(min(col))]), tuples[j], spreads[j]


def ref_asymptotic(spec, fam, schedule, horizon, universe=None, max_stages=12, grid_q=8):
    """The stage loop that scans each stage's thresholds from 0 and builds
    each failing stage's report anew, on Fraction values from psi_eval."""
    if isinstance(universe, SetGenerator):
        uni = FiniteSet(x for x in range(1, horizon + 1) if universe.contains(x))
    else:
        uni = U(horizon) if universe is None else universe
    blocks = enumerate_blocks(fam, horizon, within=uni)
    if len(blocks) < 2:
        raise InsufficientBlocksError("horizon hosts fewer than two blocks")
    tuples = nonneg_grid(len(fam), grid_q)
    cells = {b: [psi_eval(spec, b, a) for a in tuples] for b in blocks}
    stages = []
    for i in range(1, max_stages + 1):
        eps = schedule.at(i)
        result, last = None, []
        for n in range(0, horizon + 1):
            tail = [b for b in blocks if b.min > n]
            if len(tail) < 2:
                break
            last = tail
            if ref_spread([cells[b] for b in tail]) < eps:
                result = StageResult(i, eps, n, True, None, None, None)
                break
        if result is None:
            result = StageResult(i, eps, None, False, *ref_widest(last, cells, tuples))
        stages.append(result)
    return AsymptoticReport(tuple(stages), all(s.passed for s in stages), horizon)


def report_or_error(check, *args):
    try:
        return check(*args)
    except InsufficientBlocksError as exc:
        return "InsufficientBlocksError", str(exc)


ASYMPTOTIC_CASES = [
    # passing stages only
    (section6_spec(), BlockFamily((Cube(8),)), ToleranceSchedule(), 12, None, 4),
    # a pass at threshold 9, then failing stages
    (even_pair_fixture(), BlockFamily((Cube(1), Cube(1))), ToleranceSchedule(), 12, None, 6),
    # thresholds that climb from stage to stage, then failing stages
    (mn_norm_spec(3, 4), BlockFamily((Schreier(), Cube(1))), ToleranceSchedule(F(3, 4)), 8, None, 12),
    # three blocks: the first tail is already the last one with two blocks
    (even_pair_fixture(), BlockFamily((Cube(1), Cube(1))), ToleranceSchedule(), 3, None, 3),
    # a generator universe: the odds, on which every stage passes
    (even_pair_fixture(), BlockFamily((Cube(1), Cube(1))), ToleranceSchedule(), 10, odds(), 5),
    # two blocks, the fewest a check takes
    (section6_spec(), BlockFamily((Cube(1),)), ToleranceSchedule(), 2, None, 2),
    # a finite universe with gaps at horizon 16, many blocks to each minimum:
    # thresholds climb over the gaps, then stages fail
    (even_pair_fixture(), BlockFamily((Cube(2), Cube(1))), ToleranceSchedule(), 16,
     FiniteSet((1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16)), 6),
    # a generator universe holding the horizon itself: 1, 4, 7, 10
    (even_pair_fixture(), BlockFamily((Cube(1), Cube(1))), ToleranceSchedule(), 10,
     Arithmetic(1, 3), 4),
]


@pytest.mark.parametrize("spec,fam,schedule,horizon,universe,stages", ASYMPTOTIC_CASES)
def test_asymptotic_matches_per_stage_loop(spec, fam, schedule, horizon, universe, stages):
    args = spec, fam, schedule, horizon, universe, stages, 4
    assert asymptotic_stability_check(*args) == ref_asymptotic(*args)


def test_asymptotic_cases_cover_pass_climb_and_fail():
    reports = [asymptotic_stability_check(spec, fam, schedule, horizon, universe=universe,
                                          max_stages=stages, grid_q=4)
               for spec, fam, schedule, horizon, universe, stages in ASYMPTOTIC_CASES]
    thresholds = [[s.threshold for s in rep.stages] for rep in reports]
    assert reports[0].all_passed
    assert thresholds[1][0] == 9 and not any(s.passed for s in reports[1].stages[1:])
    assert thresholds[2][:6] == [0, 0, 0, 1, 2, None]
    assert thresholds[3] == [0, None, None]  # stage 2 runs out at the first tail
    assert thresholds[5] == [0, 0]
    assert thresholds[6] == [0, 8, 10, None, None, None]
    assert thresholds[7] == [1, None, None, None]
    spec, fam, _, horizon, universe, _ = ASYMPTOTIC_CASES[6]
    mins = [b.min for b in enumerate_blocks(fam, horizon, within=universe)]
    assert len(mins) > 2 * len(set(mins))


@st.composite
def horizons_and_universes(draw):
    """A horizon and a universe: the whole line, a generator, or a finite set
    holding more than half of the horizon's elements, gaps allowed."""
    horizon = draw(st.sampled_from(range(3, 17)))
    return horizon, draw(st.one_of(
        st.sampled_from([None, odds(), evens(), Arithmetic(1, 3)]),
        st.sets(st.integers(1, horizon), min_size=horizon // 2 + 1).map(FiniteSet)))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from([section6_spec(), even_pair_fixture(), SupFamily(()),
                             mn_norm_spec(2, 3)]),
       fam=st.sampled_from([BlockFamily((Cube(1), Cube(1))), BlockFamily((Cube(2),)),
                            BlockFamily((Cube(1), Cube(2))), BlockFamily((Schreier(), Cube(1))),
                            BlockFamily((Cube(2), Cube(1))), BlockFamily((Cube(1), Schreier()))]),
       ratio=st.sampled_from([F(1, 2), F(1, 3), F(3, 4), F(7, 8)]),
       scale=st.sampled_from([F(1), F(1, 4), F(2)]),
       reach=horizons_and_universes(), stages=st.integers(1, 12), grid_q=st.integers(1, 4))
def test_asymptotic_matches_per_stage_loop_seeded(spec, fam, ratio, scale, reach, stages, grid_q):
    horizon, universe = reach
    args = spec, fam, ToleranceSchedule(ratio, scale), horizon, universe, stages, grid_q
    assert (report_or_error(asymptotic_stability_check, *args)
            == report_or_error(ref_asymptotic, *args))


@settings(max_examples=120)
@given(st.data())
def test_l1_domination(data):
    spec = section6_spec()
    fam = BlockFamily((Cube(2), Cube(2)))
    blocks = list(enumerate_blocks(fam, 9))
    b = data.draw(st.sampled_from(blocks))
    a = tuple(data.draw(st.fractions(min_value=-1, max_value=1, max_denominator=8))
              for _ in range(2))
    total = sum(abs(x) for x in a)
    assert psi_eval(spec, b, a) <= total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gap_reports_always_reverify(data):
    spec = data.draw(st.sampled_from([section6_spec(), even_pair_fixture(),
                                      SupFamily(())]))
    fam = BlockFamily((Cube(1), Cube(1)))
    n = data.draw(st.integers(3, 8))
    rep = oscillation_gap(spec, fam, U(n), grid_q=4)
    if rep.witness_pair is not None:
        s, t = rep.witness_pair
        a = rep.witness_coeffs
        assert abs(psi_eval(spec, s, a) - psi_eval(spec, t, a)) == rep.gap
    else:
        assert rep.gap == 0


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: asymptotic_stability_check(even_pair_fixture(),
                                                    BlockFamily((Cube(1), Cube(1))),
                                                    ToleranceSchedule(), 0),
                 "horizon must be >= 1", id="horizon"),
])
def test_input_checks(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert exc.type is InvalidArgumentError and str(exc.value) == message
