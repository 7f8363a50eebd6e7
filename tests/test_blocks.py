from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockosc.barriers import Cube, Restrict, Schreier, Sum, enumerate_up_to
from blockosc.blocks import (
    Block,
    BlockFamily,
    block_compare,
    block_sort_key,
    enumerate_blocks,
    from_concat,
    to_concat,
)
from blockosc.errors import InvalidArgumentError, NotInSumError
from blockosc.sets import CofiniteAfter, FiniteSet, PrefixThen, evens


def fs(*xs):
    return FiniteSet(xs)


def blk(*parts):
    return Block(tuple(FiniteSet(p) for p in parts))


class TestBlockType:
    def test_parts_must_stack(self):
        with pytest.raises(InvalidArgumentError):
            blk((1, 3), (3, 4))
        with pytest.raises(InvalidArgumentError):
            blk((2, 5), (3, 8))

    def test_parts_must_be_nonempty(self):
        with pytest.raises(InvalidArgumentError):
            Block((FiniteSet(), fs(1)))
        with pytest.raises(InvalidArgumentError):
            Block(())

    def test_union_min_max(self):
        b = blk((1, 2), (4, 7))
        assert b.union() == fs(1, 2, 4, 7)
        assert b.min == 1 and b.max == 7

    def test_immutable_and_hashable(self):
        b = blk((1,), (2,))
        with pytest.raises(AttributeError):
            b.parts = ()
        assert b == blk((1,), (2,))
        assert hash(b) == hash(blk((1,), (2,)))

    def test_family_needs_common_ground(self):
        with pytest.raises(InvalidArgumentError):
            BlockFamily((Cube(1), Restrict(Cube(1), evens())))


class TestEnumerate:
    def test_two_singletons(self):
        fam = BlockFamily((Cube(1), Cube(1)))
        assert enumerate_blocks(fam, 3) == (
            blk((1,), (2,)), blk((1,), (3,)), blk((2,), (3,)))

    def test_tight_pair_split(self):
        fam = BlockFamily((Cube(2), Cube(2)))
        assert enumerate_blocks(fam, 4) == (blk((1, 2), (3, 4)),)

    def test_pair_then_eight(self):
        fam = BlockFamily((Cube(2), Cube(8)))
        assert enumerate_blocks(fam, 10) == (
            blk((1, 2), tuple(range(3, 11))),)

    def test_within_matches_restricted_descriptors(self):
        m = fs(1, 2, 5, 7, 8, 9)
        gen = PrefixThen(m, CofiniteAfter(9))
        fam = BlockFamily((Cube(1), Cube(2)))
        restricted = BlockFamily(
            tuple(Restrict(p, gen) for p in fam.parts))
        assert enumerate_blocks(fam, 9, within=m) == \
            enumerate_blocks(restricted, 9)

    def test_sort_key_is_first_part_max_then_lex_of_the_union(self):
        out = enumerate_blocks(BlockFamily((Schreier(), Cube(1), Cube(2))), 10)

        def cmp(x, y):
            a, b = x.parts[0].max, y.parts[0].max
            diff = set(x.union()) ^ set(y.union())  # lex: least of the difference first
            return (a > b) - (a < b) or (0 if not diff else -1 if min(diff) in x.union() else 1)

        shuffled = sorted(out, key=hash)
        assert sorted(shuffled, key=block_sort_key) == sorted(shuffled, key=cmp_to_key(cmp))

    def test_sorted_by_directed_order_then_lex(self):
        fam = BlockFamily((Schreier(), Cube(1)))
        out = enumerate_blocks(fam, 7)
        assert list(out) == sorted(out, key=block_sort_key)
        firsts = [b.parts[0].max for b in out]
        assert firsts == sorted(firsts)


class TestBijection:
    FAMS = (
        BlockFamily((Cube(1), Cube(1))),
        BlockFamily((Cube(2), Cube(2))),
        BlockFamily((Cube(1), Cube(2), Cube(1))),
        BlockFamily((Schreier(), Cube(1))),
    )

    def test_to_concat_example(self):
        assert to_concat(blk((1, 2), (3, 4))) == fs(1, 2, 3, 4)

    def test_from_concat_examples(self):
        fam = BlockFamily((Cube(2), Cube(2)))
        assert from_concat(fam, fs(1, 2, 3, 4)) == blk((1, 2), (3, 4))
        got = from_concat(BlockFamily((Schreier(), Cube(1))), fs(2, 3, 4))
        assert got == blk((2, 3), (4,))

    def test_not_in_sum_reports_progress(self):
        fam = BlockFamily((Cube(2), Cube(2)))
        with pytest.raises(NotInSumError) as exc:
            from_concat(fam, fs(1, 2, 3))
        assert exc.value.consumed == (fs(1, 2),)
        assert exc.value.leftover == fs(3)

    def test_not_in_sum_leftover(self):
        fam = BlockFamily((Cube(1), Cube(1)))
        with pytest.raises(NotInSumError) as exc:
            from_concat(fam, fs(1, 2, 3))
        assert exc.value.consumed == (fs(1), fs(2))
        assert exc.value.leftover == fs(3)

    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: repr(f.parts))
    def test_round_trip_and_image(self, fam):
        n = 14
        blocks = enumerate_blocks(fam, n)
        images = [to_concat(b) for b in blocks]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_up_to(Sum(fam.parts), n))
        for b, s in zip(blocks, images):
            assert from_concat(fam, s) == b


class TestCompare:
    def test_far_apart(self):
        assert block_compare(blk((1, 2), (3, 4)), blk((5, 6), (7, 8))) == "less"
        assert block_compare(blk((5, 6), (7, 8)), blk((1, 2), (3, 4))) == "greater"

    def test_equal_unions(self):
        assert block_compare(blk((1, 2), (3, 4)), blk((1, 2, 3), (4,))) == "equal"

    def test_overlapping_first_parts(self):
        assert block_compare(blk((1, 3), (5, 6)), blk((2, 4), (7, 8))) == \
            "incomparable"

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            block_compare(blk((1,)), blk((1,), (2,)))

    def test_directed_order_has_upper_bounds(self):
        fam = BlockFamily((Cube(2), Cube(2)))
        small = enumerate_blocks(fam, 8)
        above = [b for b in enumerate_blocks(fam, 12) if b.min > 8]
        assert above
        top = above[0]
        for x in small[:20]:
            assert block_compare(x, top) == "less"
            assert block_compare(top, x) == "greater"


@settings(max_examples=80)
@given(st.integers(4, 16), st.data())
def test_round_trip_is_identity(n, data):
    fam = BlockFamily((Cube(1), Cube(2)))
    blocks = enumerate_blocks(fam, n)
    b = data.draw(st.sampled_from(list(blocks)))
    assert from_concat(fam, to_concat(b)) == b


@settings(max_examples=60)
@given(st.data())
def test_compare_is_antisymmetric(data):
    fam = BlockFamily((Cube(1), Cube(1)))
    blocks = list(enumerate_blocks(fam, 9))
    x = data.draw(st.sampled_from(blocks))
    y = data.draw(st.sampled_from(blocks))
    flip = {"less": "greater", "greater": "less",
            "equal": "equal", "incomparable": "incomparable"}
    assert block_compare(y, x) == flip[block_compare(x, y)]
