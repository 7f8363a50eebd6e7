import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.barriers import (
    Associated,
    Cube,
    Quotient,
    Restrict,
    Schreier,
    Sum,
    check_axioms,
    contains,
    empirical_rank,
    enumerate_up_to,
    front,
    rank,
    sperner_violations,
)
from blockosc.errors import InvalidArgumentError, NoFrontFoundError
from blockosc.sets import Arithmetic, CofiniteAfter, FiniteSet, evens, naturals, odds


def fs(*xs):
    return FiniteSet(xs)


class TestContains:
    def test_schreier_membership(self):
        assert contains(Schreier(), fs(2, 4))
        assert contains(Schreier(), fs(3, 7, 9))
        assert not contains(Schreier(), fs(2, 4, 6))

    def test_cube_membership(self):
        assert not contains(Cube(3), fs(1, 2))
        assert contains(Cube(3), fs(1, 2, 9))

    def test_quotient_of_schreier(self):
        q = Quotient(Schreier(), fs(3))
        assert contains(q, fs(5, 9))  # {3,5,9} has size 3 = min
        assert not contains(q, fs(5))

    def test_quotient_of_cube(self):
        q = Quotient(Cube(3), fs(2))
        assert contains(q, fs(5, 9))
        assert not contains(q, fs(5, 9, 11))

    def test_quotient_stem_below_continuation(self):
        q = Quotient(Cube(3), fs(4))
        assert not contains(q, fs(2, 9))

    def test_quotient_rejects_stem_in_base(self):
        with pytest.raises(InvalidArgumentError):
            Quotient(Cube(1), fs(3))

    def test_quotient_rejects_stem_nothing_extends(self):
        # a member starts the stem, so incomparability leaves no continuation
        for base, stem in ((Schreier(), fs(1, 4)), (Cube(1), fs(3, 4)),
                           (Sum((Cube(1), Cube(1))), fs(1, 2, 3))):
            with pytest.raises(InvalidArgumentError, match="no member extends"):
                Quotient(base, stem)
        with pytest.raises(InvalidArgumentError, match="leaves the base ground set"):
            Quotient(Restrict(Cube(3), evens()), fs(2, 3))
        assert enumerate_up_to(Quotient(Sum((Cube(1), Cube(2))), fs(1, 2)), 4) == (fs(3), fs(4))

    def test_quotient_unfolds_definition(self):
        for base, stem in ((Cube(3), fs(2)), (Schreier(), fs(3, 4)),
                           (Cube(4), fs(1, 2))):
            q = Quotient(base, stem)
            lo = stem.max
            pool = range(lo + 1, lo + 11)
            for size in (1, 2, 3):
                for pick in combinations(pool, size):
                    t = FiniteSet(pick)
                    expected = contains(base, FiniteSet(stem.elements + t.elements))
                    assert contains(q, t) == expected

    def test_restrict_membership(self):
        r = Restrict(Cube(2), evens())
        assert contains(r, fs(2, 6))
        assert not contains(r, fs(2, 5))

    def test_sum_membership(self):
        s = Sum((Cube(2), Cube(2)))
        assert contains(s, fs(1, 2, 3, 4))
        assert not contains(s, fs(1, 2, 3))

    def test_associated_matches_base_on_naturals(self):
        a = Associated(Restrict(Cube(2), evens()))
        for n in range(2, 21):
            assert enumerate_up_to(a, n) == enumerate_up_to(Cube(2), n)

    def test_empty_set_is_never_a_member(self):
        for b in (Cube(2), Schreier(), Sum((Cube(1), Cube(1)))):
            assert not contains(b, FiniteSet())


class TestFront:
    def test_cube_on_evens(self):
        assert front(Cube(2), evens()) == fs(2, 4)

    def test_schreier_after_two(self):
        assert front(Schreier(), CofiniteAfter(2)) == fs(3, 4, 5)

    def test_schreier_on_odds(self):
        assert front(Schreier(), odds()) == fs(1)

    def test_front_is_initial_segment_and_member(self):
        gens = [naturals(), evens(), odds(), Arithmetic(3, 5),
                CofiniteAfter(9)]
        zoo = [Cube(1), Cube(3), Schreier(), Sum((Cube(1), Cube(2)))]
        for b in zoo:
            for g in gens:
                s = front(b, g)
                assert contains(b, s)
                assert s.elements == g.first(len(s))
        # quotient fronts live above the stem, so draw from its own ground
        q = Quotient(Cube(3), fs(2))
        for g in (q.ground(), q.ground().after(7), Arithmetic(4, 3)):
            s = front(q, g)
            assert contains(q, s)
            assert s.elements == g.first(len(s))

    def test_fuel_exhaustion(self):
        # a restriction to evens never sees odd-only generators land
        with pytest.raises(NoFrontFoundError):
            front(Restrict(Cube(2), evens()), odds(), fuel=50)


class TestEnumerate:
    def test_cube2_up_to_3(self):
        assert enumerate_up_to(Cube(2), 3) == (fs(1, 2), fs(1, 3), fs(2, 3))

    def test_schreier_up_to_3(self):
        assert enumerate_up_to(Schreier(), 3) == (fs(1), fs(2, 3))

    def test_sum_of_singletons_is_pairs(self):
        assert enumerate_up_to(Sum((Cube(1), Cube(1))), 3) == \
            enumerate_up_to(Cube(2), 3)

    def test_restrict_on_evens(self):
        assert enumerate_up_to(Restrict(Cube(2), evens()), 6) == \
            (fs(2, 4), fs(2, 6), fs(4, 6))

    def test_cube_counts_are_binomial(self):
        from math import comb
        for k in (1, 2, 3):
            for n in range(k, 12):
                assert len(enumerate_up_to(Cube(k), n)) == comb(n, k)

    def test_sum_equals_bruteforce_concatenations(self):
        for parts in ((Cube(1), Cube(2)), (Cube(2), Cube(2)),
                      (Schreier(), Cube(1))):
            b = Sum(parts)
            n = 15
            expected = set()
            for s1 in enumerate_up_to(parts[0], n):
                for s2 in enumerate_up_to(parts[1], n):
                    if s1.max < s2.min:
                        expected.add(FiniteSet(s1.elements + s2.elements))
            assert set(enumerate_up_to(b, n)) == expected

    def test_lex_sorted_no_duplicates(self):
        from blockosc.sets import lex_key
        for b in (Cube(2), Schreier(), Sum((Cube(1), Cube(1))),
                  Quotient(Schreier(), fs(3))):
            members = enumerate_up_to(b, 10)
            assert len(set(members)) == len(members)
            assert list(members) == sorted(members, key=lex_key)


class TestAxioms:
    def test_cube_and_schreier_pass(self):
        for b, n in ((Cube(2), 10), (Schreier(), 12)):
            rep = check_axioms(b, n)
            assert rep.sperner_ok and not rep.violations
            assert rep.cover_ok

    def test_zoo_passes(self):
        zoo = [Quotient(Cube(3), fs(2)), Restrict(Schreier(), evens()),
               Sum((Cube(1), Cube(2))), Associated(Restrict(Cube(2), evens()))]
        for b in zoo:
            rep = check_axioms(b, 10)
            assert rep.sperner_ok and rep.cover_ok, b

    def test_raw_family_violation(self):
        bad = [fs(1), fs(1, 2)]
        assert sperner_violations(bad) == [(fs(1), fs(1, 2))]

    def test_sperner_scan_is_exhaustive(self):
        fam = [fs(1, 2), fs(2, 3), fs(2), fs(4, 5, 6), fs(5, 6)]
        found = {frozenset((tuple(a), tuple(b)))
                 for a, b in sperner_violations(fam)}
        assert frozenset(((2,), (1, 2))) in found
        assert frozenset(((2,), (2, 3))) in found
        assert frozenset(((5, 6), (4, 5, 6))) in found
        assert len(found) == 3


class TestRank:
    def test_cube_powers(self):
        assert rank(Cube(1)).exponent == 1
        for k in range(1, 7):
            res = rank(Cube(k))
            assert res.exponent == k
            assert res.confirmed and res.method == "structural"

    def test_schreier_marker(self):
        res = rank(Schreier())
        assert res.exponent is None

    def test_schreier_has_members_of_every_size(self):
        # size-k member {k,...,2k-1} exists for every k, so no w^k cap fits
        for k in range(1, 8):
            assert contains(Schreier(), FiniteSet(range(k, 2 * k)))

    def test_an_unbounded_part_makes_a_sum_unbounded(self):
        # even beside a part that no structural rule covers
        probed = Associated(Quotient(Sum((Cube(1), Cube(2))), FiniteSet((1,))))
        for parts in ((Schreier(), probed), (probed, Schreier())):
            res = rank(Sum(parts))
            assert res.exponent is None and res.confirmed and res.method == "structural"

    def test_sum_of_cubes(self):
        res = rank(Sum((Cube(2), Cube(3))))
        assert res.exponent == 5

    def test_associated_inherits_rank(self):
        res = rank(Associated(Restrict(Cube(3), evens())))
        assert res.exponent == 3

    def test_empirical_classifier_on_cubes(self):
        for k in (1, 2, 3):
            for n in range(2 * k, 2 * k + 5):
                res = empirical_rank(Cube(k), n)
                assert res.exponent == k
                assert not res.confirmed and res.method == "empirical"
                assert res.probe_bound == n

    def test_empirical_classifier_on_schreier(self):
        res = empirical_rank(Schreier(), 12)
        assert res.exponent is None
        assert not res.confirmed

    def test_empirical_classifier_respects_ground(self):
        res = empirical_rank(Restrict(Cube(2), evens()), 16)
        assert res.exponent == 2


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(1, 14))
def test_cube_enumeration_members_have_right_size(k, n):
    for s in enumerate_up_to(Cube(k), n):
        assert len(s) == k and s.max <= n


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Cube(2), Schreier(), Sum((Cube(1), Cube(1)))]),
       st.integers(2, 14))
def test_no_comparable_pairs_anywhere(b, n):
    assert sperner_violations(enumerate_up_to(b, n)) == []


def ref_sperner(family):
    """Every pair of the members sorted by length, tested with Python sets."""
    ordered = sorted(set(family), key=len)
    return [(s, t) for i, s in enumerate(ordered) for t in ordered[i + 1:]
            if set(s.elements) < set(t.elements)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(1, 7), min_size=1, max_size=5, unique=True)
                .map(FiniteSet), max_size=25))
def test_sperner_violations_match_the_all_pairs_scan_in_order(family):
    assert sperner_violations(family) == ref_sperner(family)


def test_a_cube_family_of_ninety_thousand_members_checks_in_under_a_second():
    # one length: no pair can nest, so none is compared
    t0 = time.perf_counter()
    rep = check_axioms(Cube(4), 40)
    assert time.perf_counter() - t0 < 1.0
    assert rep.sperner_ok and rep.cover_ok and len(enumerate_up_to(Cube(4), 40)) == 91_390


def test_sperner_builds_a_set_only_where_a_comparison_uses_it(monkeypatch):
    from blockosc import barriers
    built = []

    def counted(elements):
        built.append(elements)
        return frozenset(elements)

    monkeypatch.setattr(barriers, "frozenset", counted, raising=False)
    assert sperner_violations(enumerate_up_to(Cube(4), 40)) == [] and built == []
    mixed = enumerate_up_to(Schreier(), 10)  # two lengths or more: every member is compared
    assert sperner_violations(mixed) == [] and len(built) == len(mixed)


POOL_DESCRIPTORS = [
    Cube(1), Cube(2), Cube(3), Schreier(), Restrict(Cube(2), evens()),
    Quotient(Schreier(), fs(3)), Sum((Cube(1), Cube(2))),
    Associated(Restrict(Cube(2), evens())),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(POOL_DESCRIPTORS),
       st.lists(st.integers(1, 16), max_size=10, unique=True).map(sorted))
def test_pool_enumeration_matches_filtered_range(b, pool):
    """Members inside a pool with gaps: the filtered enumeration up to the
    pool's maximum in the same order, lexicographically sorted, and exactly
    the subsets of the pool that ``contains`` accepts."""
    from blockosc.barriers import _enumerate_cached
    from blockosc.sets import lex_key
    got = _enumerate_cached(b, tuple(pool))
    inside = set(pool)
    assert list(got) == [s for s in enumerate_up_to(b, max(pool, default=0))
                         if set(s) <= inside]
    assert list(got) == sorted(got, key=lex_key)
    assert set(got) == {FiniteSet(c) for r in range(1, len(pool) + 1)
                        for c in combinations(pool, r) if contains(b, FiniteSet(c))}
