"""Closed-form block values played against the generic evaluator.

The oracles here are built from scratch: normalized block indicators are
materialized as wide vectors on explicit disjoint index windows and fed to
the generic sup-family evaluator.  The piecewise formulas must agree with
that on every grid point and on random rational inputs.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.closedform import (
    eights_block_value,
    flat_norm_sorted,
    model_value_8,
    model_value_228,
    pair_pair_eight_block_value,
    tail_reduced_block_value,
    two_pair_block_value,
)
from blockosc.errors import InvalidArgumentError
from blockosc.normspace import (
    Vector,
    nonneg_grid,
    norm_eval,
    section6_spec,
)


def combine(sizes, coeffs):
    """Generic-evaluator value of sum(a_i * X_i) on far-apart blocks."""
    spec = section6_spec()
    v = Vector()
    lo = 1
    for size, a in zip(sizes, coeffs):
        x = Vector({i: 1 for i in range(lo, lo + size)})  # the block's indicator
        v = v + x.scale(a / norm_eval(spec, x))
        lo += size + 3
    return norm_eval(spec, v)


class TestFlatNorm:
    def test_examples(self):
        assert flat_norm_sorted([F(1)]) == F(1)
        assert flat_norm_sorted([F(1), F(1)]) == F(3, 2)
        assert flat_norm_sorted([F(1)] * 8) == F(9, 2)
        assert flat_norm_sorted([]) == F(0)

    def test_rejects_unsorted_or_negative(self):
        with pytest.raises(InvalidArgumentError):
            flat_norm_sorted([F(1), F(2)])
        with pytest.raises(InvalidArgumentError):
            flat_norm_sorted([F(-1)])

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_evaluator_on_sorted_grid(self, k):
        spec = section6_spec()
        seen = set()
        for a in nonneg_grid(min(k, 4), 4):
            full = tuple(sorted(a, reverse=True)) + (F(0),) * (k - len(a))
            if full in seen:
                continue
            seen.add(full)
            assert flat_norm_sorted(full) == \
                norm_eval(spec, Vector.from_coeffs(full))

    def test_matches_evaluator_on_random_rationals(self):
        rng = random.Random(11)
        spec = section6_spec()
        for _ in range(300):
            k = rng.randint(1, 10)
            a = sorted((F(rng.randint(0, 24), rng.randint(1, 8))
                        for _ in range(k)), reverse=True)
            assert flat_norm_sorted(a) == \
                norm_eval(spec, Vector.from_coeffs(a))


class TestTwoPairs:
    def test_pinned_values(self):
        assert two_pair_block_value(F(1), F(1)) == F(3, 2)
        assert two_pair_block_value(F(1), F(0)) == F(1)
        assert two_pair_block_value(F(1), F(1, 5)) == F(1)

    def test_against_evaluator_grid(self):
        for a in nonneg_grid(2, 6):
            assert two_pair_block_value(*a) == combine((2, 2), a)

    def test_against_evaluator_random(self):
        rng = random.Random(5)
        for _ in range(250):
            a = tuple(F(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(2))
            assert two_pair_block_value(*a) == combine((2, 2), a)


class TestPairPairEight:
    def test_pinned_values(self):
        assert pair_pair_eight_block_value(F(0), F(0), F(1)) == F(1)
        assert pair_pair_eight_block_value(F(1), F(1), F(1)) == F(2)
        assert pair_pair_eight_block_value(F(1), F(0), F(0)) == F(1)

    def test_against_evaluator_grid(self):
        for a in nonneg_grid(3, 4):
            assert pair_pair_eight_block_value(*a) == combine((2, 2, 8), a)

    def test_against_evaluator_random(self):
        rng = random.Random(6)
        for _ in range(250):
            a = tuple(F(rng.randint(0, 20), rng.randint(1, 7)) for _ in range(3))
            assert pair_pair_eight_block_value(*a) == combine((2, 2, 8), a)

    def test_every_branch_is_hit(self):
        # one representative per ordering of (a1, a2, a3/3), small and large
        cases = [
            (F(2), F(1), F(1)), (F(1, 4), F(1, 8), F(1, 3)),
            (F(2), F(1, 8), F(3)), (F(1), F(2), F(1)),
            (F(1, 8), F(1, 4), F(1, 3)), (F(1, 8), F(2), F(3)),
            (F(1, 8), F(1, 8), F(3)), (F(0), F(0), F(0)),
        ]
        for a in cases:
            assert pair_pair_eight_block_value(*a) == combine((2, 2, 8), a)


class TestTailReduction:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_evaluator(self, k):
        rng = random.Random(k)
        sizes = (2, 2) + (8,) * (k - 2)
        for _ in range(120):
            a = tuple(F(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(k))
            assert tail_reduced_block_value(a) == combine(sizes, a)

    def test_reduces_to_three_block_formula(self):
        a = (F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 5))
        assert tail_reduced_block_value(a) == \
            pair_pair_eight_block_value(F(1), F(1, 2), F(2, 3))

    def test_needs_three_coefficients(self):
        with pytest.raises(InvalidArgumentError):
            tail_reduced_block_value((F(1), F(1)))


class TestEights:
    def test_is_max(self):
        assert eights_block_value((F(1, 2), F(3, 4), F(1, 4))) == F(3, 4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_against_evaluator(self, k):
        rng = random.Random(20 + k)
        for _ in range(100):
            a = tuple(F(rng.randint(0, 10), rng.randint(1, 5)) for _ in range(k))
            assert eights_block_value(a) == combine((8,) * k, a)


class TestModelDispatch:
    def test_228_cases(self):
        assert model_value_228((F(2, 3),)) == F(2, 3)
        assert model_value_228((F(1), F(1))) == F(3, 2)
        assert model_value_228((F(0), F(0), F(1), F(1))) == F(1)

    def test_8_is_max(self):
        assert model_value_8((F(1), F(1), F(1))) == F(1)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            model_value_228(())
        with pytest.raises(InvalidArgumentError):
            model_value_8(())


@settings(max_examples=200)
@given(st.lists(st.fractions(min_value=0, max_value=4, max_denominator=6),
                min_size=2, max_size=2))
def test_two_pair_property(a):
    assert two_pair_block_value(*a) == combine((2, 2), a)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=5),
                min_size=3, max_size=3))
def test_pair_pair_eight_property(a):
    assert pair_pair_eight_block_value(*a) == combine((2, 2, 8), a)
