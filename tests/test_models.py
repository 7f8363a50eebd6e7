from fractions import Fraction as F
from itertools import combinations

import pytest

from blockosc.barriers import Cube, Restrict, Schreier
from blockosc.closedform import model_value_8, model_value_228
from blockosc.errors import InvalidArgumentError, NotStabilizedError
from blockosc.models import (
    BarrierSequenceDescriptor,
    Section6Check,
    SpreadingWitness,
    consistency_check,
    default_tail_offset,
    eights_sequence,
    equivalence_constants,
    model_eval,
    spreading_check,
    two_two_eights_sequence,
    verify_section6,
)
from blockosc.normspace import (
    SupFamily,
    SupTerm,
    even_pair_fixture,
    nonneg_grid,
    section6_spec,
)
from blockosc.sets import FiniteSet, evens


class TestSequenceDescriptor:
    def test_prefix_then_tail(self):
        seq = two_two_eights_sequence()
        assert seq.barrier_at(0) == Cube(2)
        assert seq.barrier_at(1) == Cube(2)
        assert seq.barrier_at(2) == Cube(8)
        assert seq.barrier_at(99) == Cube(8)

    def test_family_lengths(self):
        seq = two_two_eights_sequence()
        assert seq.family(1).parts == (Cube(2),)
        assert seq.family(4).parts == (Cube(2), Cube(2), Cube(8), Cube(8))
        with pytest.raises(InvalidArgumentError):
            seq.family(0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            BarrierSequenceDescriptor(("not a barrier",), Cube(2))
        with pytest.raises(InvalidArgumentError):
            BarrierSequenceDescriptor((), "nope")
        with pytest.raises(InvalidArgumentError):
            BarrierSequenceDescriptor((Restrict(Cube(1), evens()),), Cube(2))

    def test_schreier_tail_is_allowed(self):
        seq = BarrierSequenceDescriptor((Cube(1),), Schreier())
        assert seq.barrier_at(3) == Schreier()


class TestModelEval:
    def test_default_tail_offset(self):
        assert default_tail_offset(eights_sequence(), 2) == 24
        assert default_tail_offset(two_two_eights_sequence(), 4) == 28

    def test_eights_value(self):
        mv = model_eval(section6_spec(), eights_sequence(), (F(1), F(1)))
        assert mv.value == F(1) and mv.stabilized
        assert len(mv.probes) == 3
        assert all(v == F(1) for _, v in mv.probes)

    def test_probes_are_disjoint_and_increasing(self):
        mv = model_eval(section6_spec(), eights_sequence(), (F(1), F(1)))
        spans = [(b.min, b.max) for b, _ in mv.probes]
        assert spans[0][0] == mv.tail_offset
        for (_, hi), (lo2, _) in zip(spans, spans[1:]):
            assert hi < lo2

    def test_named_values(self):
        spec = section6_spec()
        seq = two_two_eights_sequence()
        assert model_eval(spec, seq, (F(1), F(1))).value == F(3, 2)
        assert model_eval(spec, seq, (F(0), F(0), F(1), F(1))).value == F(1)

    def test_five_probes_agree_exactly(self):
        mv = model_eval(section6_spec(), two_two_eights_sequence(),
                        (F(1), F(1, 2), F(1, 4)), probe_count=5)
        assert mv.stabilized
        assert len({v for _, v in mv.probes}) == 1

    def test_filtered_spec_does_not_stabilize(self):
        seq = BarrierSequenceDescriptor((Cube(1),), Cube(2))
        mv = model_eval(even_pair_fixture(), seq, (F(1), F(1)))
        assert not mv.stabilized
        assert {v for _, v in mv.probes} == {F(9, 8), F(27, 20)}

    def test_a_spread_exactly_at_tolerance_is_stabilized(self):
        seq = BarrierSequenceDescriptor((Cube(1),), Cube(2))
        spread = F(27, 20) - F(9, 8)
        mv = model_eval(even_pair_fixture(), seq, (F(1), F(1)), tolerance=spread)
        assert mv.stabilized and mv.value == mv.probes[0][1]
        tight = model_eval(even_pair_fixture(), seq, (F(1), F(1)), tolerance=spread - F(1, 1000))
        assert not tight.stabilized

    def test_validation(self):
        spec = section6_spec()
        with pytest.raises(InvalidArgumentError):
            model_eval(spec, eights_sequence(), ())
        with pytest.raises(InvalidArgumentError):
            model_eval(spec, eights_sequence(), (F(1),), probe_count=0)
        with pytest.raises(InvalidArgumentError):
            model_eval(spec, eights_sequence(), (F(1),), tolerance=F(-1))


class TestClosedFormAgreement:
    def test_eights_model_is_max(self):
        spec = section6_spec()
        for k in (1, 2, 3, 4):
            for a in nonneg_grid(k, 2):
                assert model_eval(spec, eights_sequence(), a).value == \
                    model_value_8(a)

    def test_two_two_eights_model(self):
        spec = section6_spec()
        for k in (1, 2, 3, 4):
            for a in nonneg_grid(k, 2):
                assert model_eval(spec, two_two_eights_sequence(), a).value == \
                    model_value_228(a)


class TestConsistency:
    def test_zero_padding_is_invisible(self):
        rep = consistency_check(section6_spec(), two_two_eights_sequence(), 4)
        assert rep.holds and rep.checked == 5 + 25 + 125

    def test_specific_padding_example(self):
        spec = section6_spec()
        seq = two_two_eights_sequence()
        assert model_eval(spec, seq, (F(1), F(1), F(0))).value == F(3, 2)
        assert model_eval(spec, seq, (F(1), F(1))).value == F(3, 2)

    def test_raises_when_not_stabilized(self):
        # (1, 1) on a singleton-then-pair sequence flips with index parity
        seq = BarrierSequenceDescriptor((Cube(1),), Cube(2))
        with pytest.raises(NotStabilizedError):
            consistency_check(even_pair_fixture(), seq, 3, grid_q=1)


class TestSpreading:
    def test_eights_model_spreads(self):
        placements = [FiniteSet(p) for p in combinations(range(1, 7), 2)]
        rep = spreading_check(section6_spec(), eights_sequence(), 2,
                              placements, grid_q=2)
        assert rep.holds and rep.witness is None
        assert rep.checked == len(placements) * 9

    def test_relocated_model_breaks(self):
        rep = spreading_check(section6_spec(), two_two_eights_sequence(), 2,
                              [FiniteSet((3, 4))], grid_q=2)
        assert not rep.holds
        w = rep.witness
        assert w.placement == FiniteSet((3, 4))
        assert w.coeffs == (F(1), F(1))
        assert (w.identity_value, w.placed_value) == (F(3, 2), F(1))

    def test_witness_is_worst_violation(self):
        # grid order meets (1/2, 1/2) first, but (1, 1) has the larger gap
        rep = spreading_check(section6_spec(), two_two_eights_sequence(), 2,
                              [FiniteSet((3, 4))], grid_q=2)
        w = rep.witness
        assert abs(w.identity_value - w.placed_value) == F(1, 2)

    def test_the_earliest_placement_wins_a_tie(self):
        # both placements miss (1, 1) by 1/2, the largest gap of the scan
        rep = spreading_check(section6_spec(), two_two_eights_sequence(), 2,
                              [FiniteSet((3, 4)), FiniteSet((5, 6))], grid_q=2)
        assert rep.witness == SpreadingWitness(FiniteSet((3, 4)), (F(1), F(1)), F(3, 2), F(1))

    def test_placement_arity_checked(self):
        with pytest.raises(InvalidArgumentError):
            spreading_check(section6_spec(), eights_sequence(), 2,
                            [FiniteSet((1, 2, 3))], grid_q=1)


class TestEquivalence:
    def test_sandwich_constants(self):
        lo, hi = equivalence_constants(section6_spec(), eights_sequence(),
                                       two_two_eights_sequence(), 3)
        assert (lo, hi) == (F(1), F(2))

    def test_single_coefficients_agree(self):
        lo_hi = equivalence_constants(section6_spec(), eights_sequence(),
                                      two_two_eights_sequence(), 1)
        assert lo_hi == (F(1), F(1))

    def test_ratio_two_attained_at_ones(self):
        spec = section6_spec()
        v228 = model_eval(spec, two_two_eights_sequence(), (F(1), F(1), F(1)))
        v8 = model_eval(spec, eights_sequence(), (F(1), F(1), F(1)))
        assert v228.value / v8.value == F(2)

    def test_raises_when_not_stabilized(self):
        seq1 = BarrierSequenceDescriptor((Cube(1),), Cube(2))
        with pytest.raises(NotStabilizedError):
            equivalence_constants(even_pair_fixture(), seq1, seq1, 2, grid_q=1)


class TestVerifySection6:
    def test_all_checks_pass(self):
        rep = verify_section6()
        assert rep.all_passed
        assert [c.name for c in rep.checks] == [
            "eights-model-closed-form",
            "two-two-eights-closed-form",
            "named-values",
            "sandwich-equivalence",
            "spreading-dichotomy",
        ]
        assert rep.grid_q == 4 and rep.k_max == 4

    def test_perturbed_weights_fail_closed_forms(self):
        wrong = SupFamily((SupTerm(F(1, 2), 2), SupTerm(F(9, 16), 8)))
        rep = verify_section6(spec=wrong, k_max=2, grid_q=2)
        assert not rep.all_passed
        by_name = {c.name: c.passed for c in rep.checks}
        assert by_name["eights-model-closed-form"]
        assert not by_name["two-two-eights-closed-form"]
        assert not by_name["named-values"]

    def test_spreading_dichotomy_fails_when_both_models_spread(self):
        # Under the plain sup norm every model is the max and spreads, so the
        # relocated model spreads too and the dichotomy must fail.
        check = verify_section6(spec=SupFamily(()), k_max=2, grid_q=2).checks[4]
        assert check == Section6Check("spreading-dichotomy", False,
                                      "relocated model unexpectedly spread")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: eights_sequence().barrier_at(-1), "index must be >= 0",
                 id="negative-index"),
    pytest.param(lambda: spreading_check(even_pair_fixture(), eights_sequence(), 0,
                                         [FiniteSet((1,))]), "k must be >= 1", id="spreading-k"),
    pytest.param(lambda: equivalence_constants(even_pair_fixture(), eights_sequence(),
                                               eights_sequence(), 0),
                 "k_max must be >= 1", id="equivalence-k-max"),
])
def test_input_checks(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert exc.type is InvalidArgumentError and str(exc.value) == message
