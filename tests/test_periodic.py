"""Periodic model: frozen values, splitting, automorphism laws."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dvlg.errors import BadLength, EmptyInput, NegativeInput, PreconditionViolated
from dvlg.periodic import (
    MAX_PERIOD_EXP,
    PERIODIC_BOT,
    PERIODIC_TOP,
    PeriodicFn,
    PeriodicSet,
    archimedean_analytic_bound,
    archimedean_bound,
    induced_lattice_auto,
    normalize,
    normalize_set,
    periodic_leq,
    periodic_op,
    periodic_scale,
    periodic_valuation,
    polar_equiv,
    set_op,
    shift,
    split_nonempty,
    zero_set,
)
from dvlg.rationals import rat


def pf(k, vals):
    return normalize(k, vals)


def ps(k, indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return normalize_set(k, mask)


class TestNormalize:
    def test_doubled_collapses(self):
        assert pf(2, [3, 5, 3, 5]) == PeriodicFn(1, (rat(3), rat(5)))

    def test_minimal_unchanged(self):
        assert pf(1, [3, 5]) == PeriodicFn(1, (rat(3), rat(5)))

    def test_aperiodic_unchanged(self):
        assert pf(2, [1, 2, 3, 4]).k == 2

    def test_bad_length(self):
        with pytest.raises(BadLength):
            normalize(2, [1, 2, 3])

    def test_constructor_rejects_doubled(self):
        with pytest.raises(BadLength):
            PeriodicFn(1, (rat(3), rat(3)))

    def test_idempotent_and_denotation_preserving(self):
        f = pf(3, [1, 2, 1, 2, 1, 2, 1, 2])
        assert f.k == 1
        g = pf(1, [1, 2])
        for i in range(32):
            assert f.at(i) == g.at(i)


class TestPeriodBounds:
    """Each exponent and index is checked before the first shift by it.
    Without the checks, each large input here would build an integer of
    at least 4 MB and each negative one would fail in the shift; with
    them, decoding raises BadLength and allocates almost nothing."""

    @pytest.mark.parametrize("decode, data", [
        (PeriodicSet.from_json, {"k": 0, "mask": [10 ** 8]}),
        (PeriodicSet.from_json, {"k": 2, "mask": [-1]}),
        (PeriodicSet.from_json, {"k": 26, "mask": []}),
        (PeriodicSet.from_json, {"k": -1, "mask": []}),
        (PeriodicFn.from_json, {"k": 2 ** 25, "vals": ["1"]}),
        (PeriodicFn.from_json, {"k": -1, "vals": ["1"]}),
    ])
    def test_rejected_before_allocating(self, decode, data):
        tracemalloc.start()
        try:
            with pytest.raises(BadLength):
                decode(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_period_accepted(self):
        k = MAX_PERIOD_EXP
        top_index = (1 << k) - 1
        c = PeriodicSet.from_json({"k": k, "mask": [top_index]})
        assert c.k == k and c.mask == 1 << top_index
        with pytest.raises(BadLength):
            normalize_set(k + 1, 0)
        with pytest.raises(BadLength):
            PeriodicSet(k + 1, 0)
        with pytest.raises(BadLength):
            split_nonempty(c)


class TestOps:
    def test_meet_example(self):
        assert periodic_op("meet", pf(0, [2]), pf(1, [1, 3])) == pf(1, [1, 2])

    def test_add_cancellation(self):
        assert periodic_op("add", pf(1, [1, -1]), pf(1, [-1, 1])) == pf(0, [0])

    def test_neg(self):
        assert periodic_op("neg", pf(1, [1, 0])) == pf(1, [-1, 0])

    def test_lift_independence(self):
        f, g = pf(1, [1, -2]), pf(2, [0, 3, -1, 3])
        direct = periodic_op("join", f, g)
        # lifting both operands one exponent higher changes nothing
        lifted = periodic_op(
            "join", pf(2, list(f.lift(2))), pf(3, list(g.lift(3)))
        )
        assert direct == lifted


class TestValuation:
    def test_mixed(self):
        assert periodic_valuation(pf(2, [1, -1, 0, -2])) == ps(2, [0, 2])

    def test_negative_constant_bot(self):
        assert periodic_valuation(pf(0, [-1])) == PERIODIC_BOT

    def test_zero_top(self):
        assert periodic_valuation(pf(0, [0])) == PERIODIC_TOP


class TestSplit:
    def test_top_gives_evens(self):
        assert split_nonempty(PERIODIC_TOP) == ps(1, [0])

    def test_evens_split(self):
        out = split_nonempty(ps(1, [0]))
        assert out == ps(2, [0])
        # strict containment in the lift of the input
        assert set_op("below", out, ps(1, [0]))
        assert out != ps(1, [0])

    def test_normalized_input(self):
        # (1, {0,1}) normalizes to top, whose split is the evens
        assert split_nonempty(ps(1, [0, 1])) == ps(1, [0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            split_nonempty(PERIODIC_BOT)

    def test_strictly_between(self):
        c = ps(2, [0, 3])
        out = split_nonempty(c)
        assert not out.is_empty()
        assert set_op("below", out, c)
        assert out != c


class TestZeroSet:
    def test_mixed(self):
        assert zero_set(pf(1, [0, -3])) == ps(1, [0])

    def test_zero_is_top(self):
        assert zero_set(pf(0, [0])) == PERIODIC_TOP

    def test_no_zero_is_bot(self):
        assert zero_set(pf(2, [1, 2, 3, 4])) == PERIODIC_BOT


class TestPolar:
    def test_equal_zero_sets(self):
        assert polar_equiv(pf(1, [1, 0]), pf(1, [2, 0]))

    def test_different_zero_sets(self):
        assert not polar_equiv(pf(0, [1]), pf(1, [1, 0]))

    def test_reflexive(self):
        a = pf(2, [1, 0, 2, 0])
        assert polar_equiv(a, a)

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            polar_equiv(pf(0, [-1]), pf(0, [1]))

    def test_matches_zero_sets(self):
        a, b = pf(2, [1, 0, 0, 2]), pf(2, [3, 0, 0, 1])
        assert polar_equiv(a, b) == (zero_set(a) == zero_set(b))


def scan_bound(f, g):
    """archimedean_bound by its definition: try n = 1, 2, ... in turn."""
    n = 1
    while True:
        nf = periodic_scale(n, f)
        if not (periodic_leq(nf, g) and nf != g):
            return n
        n += 1


class TestArchimedean:
    def test_constants(self):
        assert archimedean_bound(pf(0, [1]), pf(0, [5])) == 5

    def test_pointwise(self):
        # 3*(1,2) = (3,6) <= (3,10) and is distinct, so 3 still works;
        # 4*(1,2) = (4,8) fails below (3,10): the bound is 4.
        assert archimedean_bound(pf(1, [1, 2]), pf(1, [3, 10])) == 4

    def test_partial_support(self):
        assert archimedean_bound(pf(1, [0, 1]), pf(0, [1])) == 2

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            archimedean_bound(pf(0, [0]), pf(0, [1]))
        with pytest.raises(PreconditionViolated):
            archimedean_bound(pf(0, [1]), pf(1, [1, -1]))

    def test_analytic_bound_dominates(self):
        cases = [
            (pf(0, [1]), pf(0, [5])),
            (pf(1, [1, 2]), pf(1, [3, 10])),
            (pf(1, [0, 1]), pf(0, [1])),
            (pf(2, ["1/2", 1, 0, 2]), pf(1, [3, "7/2"])),
        ]
        for f, g in cases:
            n = archimedean_bound(f, g)
            assert 1 <= n <= archimedean_analytic_bound(f, g)
            # minimality: every smaller multiple is strictly below g
            for m in range(1, n):
                mf = periodic_scale(m, f)
                assert periodic_leq(mf, g) and mf != g

    def test_matches_scan(self):
        rng = random.Random(20261020)

        def positive(k):
            vals = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(1 << k)]
            vals[rng.randrange(1 << k)] += 1
            return normalize(k, vals)

        for i in range(2000):
            f = positive(rng.randint(0, 3))
            # every fourth g is an integer multiple of f
            if i % 4 == 0:
                g = periodic_scale(rng.randint(1, 6), f)
            else:
                g = positive(rng.randint(0, 3))
            assert archimedean_bound(f, g) == scan_bound(f, g), (f, g)


class TestShift:
    def test_rotation(self):
        assert shift(pf(2, [1, 2, 3, 4])) == pf(2, [2, 3, 4, 1])

    def test_lattice_rotation(self):
        assert induced_lattice_auto(ps(1, [0])) == ps(1, [1])

    def test_commutes_with_valuation(self):
        f = pf(2, [1, -1, 2, -2])
        assert periodic_valuation(shift(f)) == induced_lattice_auto(
            periodic_valuation(f)
        )
        assert periodic_valuation(shift(f)) == ps(2, [1, 3])

    def test_order_of_iterate(self):
        f = pf(2, [1, 2, 3, 4])
        g = f
        for _ in range(4):
            g = shift(g)
        assert g == f


rats = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
)


@st.composite
def periodic_fns(draw, max_k=2):
    k = draw(st.integers(0, max_k))
    vals = draw(st.lists(rats, min_size=1 << k, max_size=1 << k))
    return normalize(k, vals)


@given(periodic_fns(), periodic_fns())
def test_shift_is_homomorphism(f, g):
    for kind in ("add", "meet", "join"):
        assert shift(periodic_op(kind, f, g)) == periodic_op(
            kind, shift(f), shift(g)
        )


@given(periodic_fns(), periodic_fns())
def test_valuation_meet_law(f, g):
    assert periodic_valuation(periodic_op("meet", f, g)) == set_op(
        "meet", periodic_valuation(f), periodic_valuation(g)
    )
