"""Closed-form block values played against the generic evaluator.

The oracles here are built from scratch: normalized block indicators are
materialized as wide vectors on explicit disjoint index windows and fed to
the generic sup-family evaluator.  The piecewise formulas must agree with
that on every grid point and on random rational inputs.

The ``ref_*`` functions are the formulas transcribed in ``Fraction``
arithmetic, with each guard in its original shape.  The library evaluates
the same guards on integers over one common denominator; the two must agree
everywhere, and above all on each guard's tie set.
"""

import ast
import pathlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.closedform import (
    _model_228,
    _pair_pair_eight,
    _two_pair,
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

_F = F


def ref_nonneg(coeffs):
    out = [c if isinstance(c, F) else F(c) for c in coeffs]
    if any(c.numerator < 0 for c in out):
        raise InvalidArgumentError("closed forms take nonnegative coefficients")
    return out


def ref_flat_norm_sorted(coeffs):
    a = ref_nonneg(coeffs)
    if not a:
        return _F(0)
    if any(x < y for x, y in zip(a, a[1:])):
        raise InvalidArgumentError("entries must be sorted descending")
    head = a[0]
    pair = _F(3, 4) * sum(a[:2], _F(0))
    eight = _F(9, 16) * sum(a[:8], _F(0))
    if head >= pair and head >= eight:
        return head
    if pair >= head and pair >= eight:
        return pair
    return eight


def ref_two_pair_block_value(a1, a2):
    a1, a2 = ref_nonneg([a1, a2])
    m = max(a1, a2)
    if _F(3, 2) * m >= _F(9, 8) * (a1 + a2):
        return m
    return _F(3, 4) * (a1 + a2)


def ref_pair_pair_eight_block_value(a1, a2, a3):
    a1, a2, a3 = ref_nonneg([a1, a2, a3])
    third = _F(1, 3) * a3
    mixed = a1 + a2 + _F(2, 3) * a3

    if a1 >= a2 >= third:
        if _F(3, 2) * a1 >= _F(9, 8) * mixed:
            return a1
        return _F(3, 4) * mixed
    if a1 >= third >= a2:
        if _F(3, 2) * a1 >= _F(9, 8) * (a1 + a3):
            return a1
        return _F(3, 4) * (a1 + a3)
    if a2 >= a1 >= third:
        if _F(3, 2) * a2 >= _F(9, 8) * mixed:
            return a2
        return _F(3, 4) * mixed
    if a2 >= third >= a1:
        if _F(3, 2) * a2 >= _F(9, 8) * (a2 + a3):
            return a2
        return _F(3, 4) * (a2 + a3)
    # a3/3 dominates both pair coefficients.
    return a3


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


# ---------------------------------------------------------------------------
# The integer guards against the Fraction transcription

# Nonnegative rationals whose denominators differ, so the common denominator
# is a true least common multiple.
RATIONALS = st.builds(F, st.integers(0, 60), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16]))


def _same(got, want, at=None):
    assert type(got) is F and got == want and str(got) == str(want), at


@settings(max_examples=300)
@given(st.lists(RATIONALS, min_size=2, max_size=2))
def test_two_pair_matches_reference(a):
    _same(two_pair_block_value(*a), ref_two_pair_block_value(*a))


@settings(max_examples=400)
@given(st.lists(RATIONALS, min_size=3, max_size=3))
def test_pair_pair_eight_matches_reference(a):
    _same(pair_pair_eight_block_value(*a), ref_pair_pair_eight_block_value(*a))


@settings(max_examples=300)
@given(st.lists(RATIONALS, min_size=0, max_size=10))
def test_flat_norm_matches_reference(a):
    a = sorted(a, reverse=True)
    _same(flat_norm_sorted(a), ref_flat_norm_sorted(a))


@settings(max_examples=300)
@given(st.lists(RATIONALS, min_size=1, max_size=6))
def test_models_and_tail_match_reference(a):
    want = (a[0] if len(a) == 1 else ref_two_pair_block_value(*a) if len(a) == 2
            else ref_pair_pair_eight_block_value(a[0], a[1], max(a[2:])))
    _same(model_value_228(a), want)
    if len(a) >= 3:
        _same(tail_reduced_block_value(a), want)
    _same(model_value_8(a), max(a))
    _same(eights_block_value(a), max(a))


# Each guard's tie set, crossed with a spread of the free coordinates: the
# points where a wrong integer multiplier first changes a branch.
FREE = [F(0), F(1, 7), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(5, 2), F(4)]
TIES = (
    [(x, x, z) for x in FREE for z in FREE]                     # a1 = a2
    + [(x, y, 3 * y) for x in FREE for y in FREE]               # a2 = a3/3
    + [(x, y, 3 * x) for x in FREE for y in FREE]               # a1 = a3/3
    + [(x, x, x / 3) for x in FREE]                             # all three tie
    # 4 a1 = 3 (a1 + a3), i.e. a3 = a1/3, and its mirror in a2
    + [(x, y, x / 3) for x in FREE for y in FREE]
    + [(y, x, x / 3) for x in FREE for y in FREE]
    # 4 a1 = 3 a1 + 3 a2 + 2 a3 with a1 >= a2 >= a3/3, and its mirror
    + [(3 * y + 2 * z, y, z) for y in FREE for z in FREE]
    + [(y, 3 * y + 2 * z, z) for y in FREE for z in FREE]
)


def test_pair_pair_eight_on_guard_ties():
    for a in TIES:
        want = ref_pair_pair_eight_block_value(*a)
        _same(pair_pair_eight_block_value(*a), want, a)
        _same(tail_reduced_block_value(a + (F(0),)), want, a)


def test_two_pair_on_guard_ties():
    # a1 = a2, and 4 max = 3 (a1 + a2) where one coefficient is three times the other
    for x in FREE:
        for a in ((x, x), (3 * x, x), (x, 3 * x), (3 * x, x + F(1, 9))):
            _same(two_pair_block_value(*a), ref_two_pair_block_value(*a), a)
            _same(model_value_228(a), ref_two_pair_block_value(*a), a)


def _flat_ties():
    # head = 3/4 top-2 means a1 = 3 a2; 3/4 top-2 = 9/16 top-8 means
    # a1 + a2 = 3 (a3 + ... + a8); head = 9/16 top-8 means 7 a1 = 9 (a2 + ... + a8)
    out = []
    for a2 in FREE[1:]:
        for n in range(1, 7):
            tail = [4 * a2 / 3 / n] * n
            if tail[0] <= a2:
                out.append([3 * a2, a2] + tail)                  # all three tie
        out.append([3 * a2, a2])                                 # head = pair
        out.append([2 * a2, a2, a2])                             # pair = eight
        out.append([9 * a2] + [a2] * 7)                          # head = eight
    for a in out:
        s2, s8 = sum(a[:2]), sum(a[:8])
        assert a[0] == F(3, 4) * s2 or F(3, 4) * s2 == F(9, 16) * s8 \
            or a[0] == F(9, 16) * s8
    return out


def test_flat_norm_on_guard_ties():
    for a in _flat_ties():
        _same(flat_norm_sorted(a), ref_flat_norm_sorted(a), a)
        # the same tie with its head pushed just off either side
        for eps in (F(1, 97), -F(1, 97)):
            b = sorted([max(F(0), a[0] + eps)] + a[1:], reverse=True)
            _same(flat_norm_sorted(b), ref_flat_norm_sorted(b), b)


# The integer cores: numerators n over d in, an unreduced (numerator,
# denominator) pair out.  Scaling n and d together must not change the value,
# and the value must be the public function's at the rationals x/d.
NUMERATORS = st.integers(0, 60)
SCALES = st.integers(1, 12)


def check_core(core, public, n, d, c):
    got = F(*core(n, d))
    assert F(*core([c * x for x in n], c * d)) == got
    _same(public([F(x, d) for x in n]), got, (n, d))


@settings(max_examples=300)
@given(st.lists(NUMERATORS, min_size=2, max_size=2), SCALES, SCALES)
def test_two_pair_core(n, d, c):
    check_core(_two_pair, lambda a: two_pair_block_value(*a), n, d, c)


@settings(max_examples=300)
@given(st.lists(NUMERATORS, min_size=3, max_size=6), SCALES, SCALES)
def test_pair_pair_eight_core(n, d, c):
    check_core(_pair_pair_eight, tail_reduced_block_value, n, d, c)
    if len(n) == 3:
        check_core(_pair_pair_eight, lambda a: pair_pair_eight_block_value(*a), n, d, c)


@settings(max_examples=300)
@given(st.lists(NUMERATORS, min_size=1, max_size=6), SCALES, SCALES)
def test_model_228_core(n, d, c):
    check_core(_model_228, model_value_228, n, d, c)


@pytest.mark.parametrize("fn, args", [
    (two_pair_block_value, (F(-1), F(1))),
    (pair_pair_eight_block_value, (F(1), F(1), F(-1, 3))),
    (flat_norm_sorted, ([F(-1)],)),
    (tail_reduced_block_value, ([F(-1)],)),
    (eights_block_value, ([F(1), F(-2)],)),
    (model_value_228, ([F(-1)],)),
    (model_value_8, ([F(-1)],)),
])
def test_negative_is_reported_before_empty_or_short(fn, args):
    with pytest.raises(InvalidArgumentError, match="nonnegative"):
        fn(*args)


def test_messages_and_input_types_are_kept():
    with pytest.raises(InvalidArgumentError, match="sorted descending"):
        flat_norm_sorted([F(1), F(2)])
    with pytest.raises(InvalidArgumentError, match="at least three"):
        tail_reduced_block_value([F(1), F(1)])
    with pytest.raises(InvalidArgumentError, match="at least one"):
        eights_block_value([])
    with pytest.raises(InvalidArgumentError, match="at least one"):
        model_value_228([])
    # ints and strings convert the way Fraction converts them
    _same(two_pair_block_value(1, "1/2"), F(9, 8))
    _same(flat_norm_sorted(["3/2", 1]), F(15, 8))
    with pytest.raises(ValueError):
        model_value_8(["-1", "one"])


def test_module_imports_nothing_from_the_package_but_errors():
    import blockosc.closedform as cf
    tree = ast.parse(pathlib.Path(cf.__file__).read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative == {"errors"}
    assert not any(name.split(".")[0] == "blockosc" for name in absolute)
