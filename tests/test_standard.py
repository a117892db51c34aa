"""Finite standard structures: frozen values, error cases, properties."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dvlg.errors import (
    LengthMismatch,
    NegativeInput,
    PatchPreconditionViolated,
    SplitPreconditionViolated,
    WidthMismatch,
)
from dvlg.rationals import rat
from dvlg.standard import (
    FinStdStructure,
    GroupVector,
    SubsetL,
    ac_split,
    double_embed,
    patch,
    pointwise_op,
    scale,
    std_valuation,
    subset_op,
)


def complement_witness(a: GroupVector) -> GroupVector:
    """A disjoint positive partner making the join a weak order unit."""
    if not a.is_nonnegative():
        raise NegativeInput("input must be non-negative")
    return GroupVector(
        tuple(Fraction(1) if v == 0 else Fraction(0) for v in a.values)
    )


def is_weak_order_unit(f: GroupVector) -> bool:
    if not f.is_nonnegative():
        raise NegativeInput("input must be non-negative")
    return all(v > 0 for v in f.values)


def gv(*vals):
    return GroupVector(tuple(rat(v) for v in vals))


def sub(indices, width):
    return SubsetL.from_indices(indices, width)


class TestPointwise:
    def test_meet(self):
        assert pointwise_op("meet", gv(1, -2, 3), gv(0, 5, -1)) == gv(0, -2, -1)

    def test_join(self):
        assert pointwise_op("join", gv(1, -2, 3), gv(0, 5, -1)) == gv(1, 5, 3)

    def test_add_cancellation(self):
        assert pointwise_op("add", gv(1, 2, 3), gv(-1, -2, -3)) == gv(0, 0, 0)

    def test_neg(self):
        assert pointwise_op("neg", gv(2, "-1/2")) == gv(-2, "1/2")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pointwise_op("add", gv(1), gv(1, 2))

    def test_empty_vector_rejected(self):
        with pytest.raises(LengthMismatch):
            GroupVector(())


class TestScale:
    def test_half(self):
        assert scale(rat("1/2"), gv(2, -4, 6)) == gv(1, -2, 3)

    def test_zero(self):
        assert scale(0, gv(7, 9)) == gv(0, 0)

    def test_three(self):
        assert scale(3, gv(1, 0, -1)) == gv(3, 0, -3)


class TestValuation:
    def test_mixed(self):
        assert std_valuation(gv(1, "-1/2", 0)) == sub([0, 2], 3)

    def test_zero_is_top(self):
        assert std_valuation(gv(0, 0, 0)) == FinStdStructure(3).top

    def test_all_negative_is_bot(self):
        assert std_valuation(gv(-1, "-3/7")) == FinStdStructure(2).bot


class TestSubsets:
    def test_meet(self):
        assert subset_op("meet", sub([0, 1], 3), sub([1, 2], 3)) == sub([1], 3)

    def test_complement(self):
        assert subset_op("complement", sub([0], 3)) == sub([1, 2], 3)

    def test_below_empty(self):
        assert subset_op("below", sub([], 3), sub([2], 3)) is True

    def test_below_fails(self):
        assert subset_op("below", sub([0], 3), sub([2], 3)) is False

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            subset_op("join", sub([0], 2), sub([0], 3))

    def test_bad_index(self):
        with pytest.raises(WidthMismatch):
            SubsetL.from_indices([5], 3)


class TestPatch:
    def test_overlap_agreeing(self):
        assert patch(sub([0, 1], 3), sub([1, 2], 3), gv(3, 2, 9), gv(7, 2, 4)) == gv(3, 2, 4)

    def test_gap_filled_with_zero(self):
        assert patch(sub([0], 3), sub([2], 3), gv(1, 1, 1), gv(5, 5, 5)) == gv(1, 0, 5)

    def test_equal_supports(self):
        assert patch(sub([0, 1], 3), sub([0, 1], 3), gv(1, 2, 3), gv(1, 2, 9)) == gv(1, 2, 0)

    def test_disagreement_rejected(self):
        with pytest.raises(PatchPreconditionViolated):
            patch(sub([0], 2), sub([0], 2), gv(1, 0), gv(2, 0))


class TestAcSplit:
    def test_basic(self):
        f, g = ac_split(gv(1, 0, 0), gv(0, 2, 0), gv(3, 3, 3))
        assert f == gv(3, 0, 0)
        assert g == gv(0, 3, 3)

    def test_degenerate_zero_a(self):
        f, g = ac_split(gv(0, 0), gv(1, 0), gv(2, 2))
        assert f == gv(0, 0)
        assert g == gv(2, 2)

    def test_support_of_a(self):
        f, g = ac_split(gv(2, 0, 1), gv(0, 3, 0), gv(4, 4, 4))
        assert f == gv(4, 0, 4)
        assert g == gv(0, 4, 0)

    def test_postconditions(self):
        a, b, c = gv(1, 0, 2), gv(0, 5, 0), gv(1, 2, 3)
        f, g = ac_split(a, b, c)
        assert pointwise_op("add", f, g) == c
        assert pointwise_op("meet", f, g).is_zero()
        assert pointwise_op("meet", a, g).is_zero()
        assert pointwise_op("meet", f, b).is_zero()

    def test_overlapping_rejected(self):
        with pytest.raises(SplitPreconditionViolated):
            ac_split(gv(1, 0), gv(1, 0), gv(1, 1))

    def test_negative_rejected(self):
        with pytest.raises(SplitPreconditionViolated):
            ac_split(gv(-1, 0), gv(0, 1), gv(1, 1))


class TestComplementWitness:
    def test_mixed(self):
        assert complement_witness(gv(2, 0, 1)) == gv(0, 1, 0)

    def test_zero(self):
        assert complement_witness(gv(0, 0, 0)) == gv(1, 1, 1)

    def test_unit(self):
        assert complement_witness(gv(1, 1, 1)) == gv(0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            complement_witness(gv(-1, 0))

    def test_join_is_weak_order_unit(self):
        a = gv(2, 0, "1/3", 0)
        d = complement_witness(a)
        assert pointwise_op("meet", a, d).is_zero()
        assert is_weak_order_unit(pointwise_op("join", a, d))


class TestWeakOrderUnit:
    def test_positive_everywhere(self):
        assert is_weak_order_unit(gv(1, "1/2", 3))

    def test_zero_coordinate(self):
        assert not is_weak_order_unit(gv(1, 0, 3))

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            is_weak_order_unit(gv(1, -1))


class TestDoubleEmbed:
    def test_example(self):
        f2, c2 = double_embed(gv(1, -2), sub([0], 2))
        assert f2 == gv(1, -2, 1, -2)
        assert c2 == sub([0, 2], 4)

    def test_valuation_commutes(self):
        f = gv(1, -1, 0)
        f2, c2 = double_embed(f, std_valuation(f))
        assert std_valuation(f2) == c2

    def test_group_half(self):
        f2, _ = double_embed(gv(1, -1), sub([], 2))
        assert f2 == gv(1, -1, 1, -1)

    def test_lattice_half(self):
        # {0} at stage 1 -> {0, 2} at stage 2
        _, c2 = double_embed(gv(0, 0), sub([0], 2))
        assert c2 == sub([0, 2], 4)

    def test_valued_embedding_square(self):
        f = gv(-1, 2)
        f2, c2 = double_embed(f, std_valuation(f))
        assert std_valuation(f2) == c2 == sub([1, 3], 4)

    def test_directed_system_coherence(self):
        f, c = gv(1, -2), sub([0], 2)
        f4, c4 = double_embed(*double_embed(f, c))
        assert f4.values == f.values * 4
        assert c4 == sub([0, 2, 4, 6], 8)


rats = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)
vectors3 = st.lists(rats, min_size=3, max_size=3).map(lambda xs: gv(*xs))


@given(vectors3, vectors3)
def test_meet_join_absorption(f, g):
    assert pointwise_op("join", f, pointwise_op("meet", f, g)) == f
    assert pointwise_op("meet", f, pointwise_op("join", f, g)) == f


@given(vectors3, vectors3)
def test_valuation_of_meet(f, g):
    # P(f meet g) = P(f) meet P(g)
    assert std_valuation(pointwise_op("meet", f, g)) == subset_op(
        "meet", std_valuation(f), std_valuation(g)
    )


@given(vectors3, vectors3, vectors3)
def test_translation_invariance(f, g, h):
    # (f meet g) + h = (f+h) meet (g+h)
    left = pointwise_op("add", pointwise_op("meet", f, g), h)
    right = pointwise_op(
        "meet", pointwise_op("add", f, h), pointwise_op("add", g, h)
    )
    assert left == right
