from functools import cmp_to_key

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
    enumerate_up_to,
)
from blockosc.blocks import (
    Block,
    BlockFamily,
    block_compare,
    enumerate_blocks,
    from_concat,
)
from blockosc.errors import InvalidArgumentError, NotInSumError
from blockosc.sets import Arithmetic, CofiniteAfter, FiniteSet, PrefixThen, evens, odds
from test_sets import lex_key


def fs(*xs):
    return FiniteSet(xs)


def blk(*parts):
    return Block(tuple(FiniteSet(p) for p in parts))


def ref_key(b: Block) -> tuple:
    """The reference order of enumerate_blocks, from the unions themselves:
    first-part maxima, then the lexicographic order of the unions."""
    return b.parts[0].max, lex_key(b.union())


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
            Block((FiniteSet(),))
        with pytest.raises(InvalidArgumentError):
            Block(())

    def test_parts_must_be_finite_sets(self):
        with pytest.raises(InvalidArgumentError):
            Block(((1, 2),))

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
        assert b != b.parts and b != fs(1, 2) and b != 5

    def test_family_needs_common_ground(self):
        with pytest.raises(InvalidArgumentError):
            BlockFamily((Cube(1), Restrict(Cube(1), evens())))


class TestEnumerate:
    def test_bound_zero_is_empty_and_negative_rejected(self):
        fam = BlockFamily((Cube(1), Cube(1)))
        assert enumerate_blocks(fam, 0) == ()
        with pytest.raises(InvalidArgumentError):
            enumerate_blocks(fam, -1)

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
        assert sorted(shuffled, key=ref_key) == sorted(shuffled, key=cmp_to_key(cmp))

    def test_sorted_by_directed_order_then_lex(self):
        fam = BlockFamily((Schreier(), Cube(1)))
        out = enumerate_blocks(fam, 7)
        assert list(out) == sorted(out, key=ref_key)
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
        assert blk((1, 2), (3, 4)).union() == fs(1, 2, 3, 4)

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
        assert "in part 2" in str(exc.value)
        with pytest.raises(NotInSumError, match="ran out before part 2"):
            from_concat(fam, fs(1, 2))

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
        images = [b.union() for b in blocks]
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
    assert from_concat(fam, b.union()) == b


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


def _above(base, c, quotient):
    """``base`` moved above c: its quotient by the stem {c} when asked for and
    that is a descriptor, else its restriction to the naturals past c."""
    if quotient:
        try:
            return Quotient(base, fs(c))
        except InvalidArgumentError:
            pass
    return Restrict(base, CofiniteAfter(c))


# Descriptors over the naturals: cubes and Schreier, sums of them, and the
# associated families of restrictions and quotients, nested.
NATURAL_PARTS = st.recursive(
    st.sampled_from([Cube(1), Cube(1), Cube(2), Cube(3), Schreier()]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Sum(tuple(ps))),
        st.tuples(inner, st.sampled_from([evens(), odds(), Arithmetic(1, 3)]))
        .map(lambda a: Associated(Restrict(*a))),
        st.tuples(inner, st.integers(1, 3), st.booleans()).map(lambda a: Associated(_above(*a))),
    ),
    max_leaves=3,
)


@st.composite
def gapped_families(draw):
    """A family of one to three parts and a universe with gaps.  Half the
    families live above a cut c, mixing quotients by the stem {c} with
    restrictions to the naturals past c."""
    parts = draw(st.lists(NATURAL_PARTS, min_size=1, max_size=3))
    if draw(st.booleans()):
        c = draw(st.integers(1, 3))
        parts = [_above(p, c, draw(st.booleans())) for p in parts]
    within = draw(st.lists(st.integers(1, 18), min_size=6, max_size=14, unique=True))
    return BlockFamily(tuple(parts)), FiniteSet(within)


@settings(max_examples=150, deadline=None)
@given(gapped_families())
def test_enumerate_blocks_follows_the_reference_order(case):
    """The blocks come sorted by first-part maximum and then by the union's
    lexicographic order, though only the first maxima are ever compared."""
    fam, within = case
    out = enumerate_blocks(fam, within.max, within=within)
    assert list(out) == sorted(out, key=ref_key)
    assert all(set(b.union()) <= set(within) for b in out)


@settings(max_examples=150, deadline=None)
@given(st.lists(NATURAL_PARTS, min_size=1, max_size=3), st.integers(0, 14))
def test_sum_enumeration_is_lexicographic(parts, n):
    """A sum's members come in lexicographic order straight from the stacking."""
    members = enumerate_up_to(Sum(tuple(parts)), n)
    assert list(members) == sorted(members, key=lex_key)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: BlockFamily(()), "a block family needs at least one barrier",
                 id="empty-family"),
    pytest.param(lambda: BlockFamily((1,)), "family parts must be barrier descriptors",
                 id="int-part"),
    pytest.param(lambda: BlockFamily((Cube(2), FiniteSet((1, 2)))),
                 "family parts must be barrier descriptors", id="set-part"),
])
def test_input_checks(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert exc.type is InvalidArgumentError and str(exc.value) == message
