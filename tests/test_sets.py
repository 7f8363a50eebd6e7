from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockosc.errors import InvalidArgumentError
from blockosc.sets import (
    Arithmetic,
    CofiniteAfter,
    FiniteSet,
    PrefixThen,
    evens,
    naturals,
    odds,
    probe_equal,
)


def lex_key(s: FiniteSet) -> tuple:
    """Reference sort key of the lexicographic order, by least symmetric
    difference, for this file and the block and barrier tests.

    At the first disagreement of the sorted tuples, the set owning the
    smaller element comes first; a sentinel above every element, appended,
    puts a proper prefix after its extensions, whose least leftover it lacks.
    """
    return s.elements + (inf,)


finite_sets = st.frozensets(st.integers(1, 30), min_size=1, max_size=8).map(FiniteSet)


def sym_diff_cmp(s, t):
    """The lexicographic order by its definition: the set owning the least
    element of the symmetric difference comes first."""
    diff = set(s) ^ set(t)
    return 0 if not diff else -1 if min(diff) in s else 1


def key_cmp(s, t):
    a, b = lex_key(s), lex_key(t)
    return (a > b) - (a < b)


class TestFiniteSet:
    def test_sorts_input(self):
        assert FiniteSet([3, 1, 2]).elements == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError):
            FiniteSet([3, 1, 2, 3])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            FiniteSet([0, 1])
        with pytest.raises(InvalidArgumentError):
            FiniteSet([-2])

    def test_rejects_bools(self):
        with pytest.raises(InvalidArgumentError):
            FiniteSet([True])

    def test_min_max_on_empty(self):
        s = FiniteSet()
        assert s.is_empty()
        with pytest.raises(InvalidArgumentError):
            s.min
        with pytest.raises(InvalidArgumentError):
            s.max


class TestCompareSets:
    def test_disjoint_ordered(self):
        s, t = FiniteSet([1, 2]), FiniteSet([3, 5])
        assert s.all_below(t) and lex_key(s) < lex_key(t)

    def test_symmetric_difference_rule(self):
        # min of the symmetric difference is 2, which lives in the left set
        s, t = FiniteSet([1, 2]), FiniteSet([1, 3])
        assert not s.all_below(t) and lex_key(s) < lex_key(t)

    def test_prefix_case(self):
        # a strict prefix sorts after its extension
        assert lex_key(FiniteSet([1, 2])) > lex_key(FiniteSet([1, 2, 5]))

    def test_rejects_empty(self):
        # either side empty gets the block-order message, not the empty max or min's
        for s, t in ((FiniteSet(), FiniteSet([1])), (FiniteSet([1]), FiniteSet())):
            with pytest.raises(InvalidArgumentError, match="block order needs nonempty sets"):
                s.all_below(t)

    @given(finite_sets, finite_sets)
    def test_lex_total_and_antisymmetric(self, s, t):
        c, d = key_cmp(s, t), key_cmp(t, s)
        if s == t:
            assert c == d == 0
        else:
            assert c == -d != 0

    @given(finite_sets, finite_sets, finite_sets)
    def test_lex_transitive(self, a, b, c):
        x, y, z = sorted([a, b, c], key=lex_key)
        assert sym_diff_cmp(x, y) <= 0 and sym_diff_cmp(y, z) <= 0 and sym_diff_cmp(x, z) <= 0

    @given(finite_sets, finite_sets)
    def test_lex_is_least_symmetric_difference(self, s, t):
        assert key_cmp(s, t) == sym_diff_cmp(s, t)

    @given(finite_sets, finite_sets)
    def test_mutual_prefix_is_equality(self, s, t):
        if s.elements[:len(t)] == t.elements and t.elements[:len(s)] == s.elements:
            assert s == t


class TestGenerators:
    def test_naturals_first(self):
        assert naturals().first(5) == (1, 2, 3, 4, 5)

    def test_evens_odds(self):
        assert evens().first(4) == (2, 4, 6, 8)
        assert odds().first(4) == (1, 3, 5, 7)

    def test_arithmetic_contains_matches_iteration(self):
        g = Arithmetic(start=3, step=4)
        first = set(g.first(50))
        for x in range(1, 100):
            assert g.contains(x) == (x in first or x > max(first))
            if x <= max(first):
                assert g.contains(x) == (x in first)

    @pytest.mark.parametrize("make", [lambda: CofiniteAfter(1.5), lambda: CofiniteAfter(True),
                                      lambda: Arithmetic(1.5, 1), lambda: Arithmetic(2, True),
                                      lambda: Arithmetic(0, 2)])
    def test_rejects_parameters_that_are_not_integers_in_range(self, make):
        # their elements are drawn into sets unchecked, so they must be ints
        with pytest.raises(InvalidArgumentError):
            make()

    def test_prefix_then_orders(self):
        g = PrefixThen(FiniteSet([2, 5]), CofiniteAfter(7))
        assert g.first(5) == (2, 5, 8, 9, 10)
        assert [g.nth(i) for i in (1, 2, 3, 4)] == [2, 5, 8, 9]
        for prefix in ([9], [2, 8]):  # the tail starts at 8: past or at the prefix's end
            with pytest.raises(InvalidArgumentError):
                PrefixThen(FiniteSet(prefix), CofiniteAfter(7))

    @pytest.mark.parametrize("g", [Arithmetic(3, 4), Arithmetic(2, 1), Arithmetic(1, 1)],
                             ids=["3-step-4", "2-step-1", "1-step-1"])
    def test_arithmetic_nth_and_after_match_the_walk(self, g):
        walk = g.first(30)
        assert [g.nth(i) for i in range(1, 31)] == list(walk)
        for n in range(25):  # at, between and below the elements
            assert g.after(n).first(3) == tuple(x for x in walk if x > n)[:3]

    @given(st.integers(0, 40), st.integers(1, 60))
    def test_after_drops_small_elements(self, n, probe):
        g = CofiniteAfter(0).after(n)
        assert all(x > n for x in g.first(5))
        assert g.contains(probe) == (probe > n)

    def test_strictly_increasing_prefixes(self):
        for g in (naturals(), evens(), Arithmetic(5, 3),
                  PrefixThen(FiniteSet([1, 4]), CofiniteAfter(10))):
            xs = g.first(25)
            assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_probe_equal(self):
        assert probe_equal(evens(), Arithmetic(2, 2))
        assert not probe_equal(evens(), odds())


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: PrefixThen(FiniteSet(), naturals()),
                 "prefix must be nonempty; use the tail directly", id="empty-prefix"),
])
def test_input_checks(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert exc.type is InvalidArgumentError and str(exc.value) == message
