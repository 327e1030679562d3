"""Closed-form rate and degrees-of-freedom expressions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeic.channel import ChannelMatrix3, class_h1_membership, symmetric_channel
from latticeic.rates import (
    _HK_BLOCK,
    VERY_STRONG_RTOL,
    AllocationError,
    _ladder,
    _very_strong_conditions,
    dof_nonsym_numeric,
    dof_symmetric,
    hk_sym_rate,
    layered_allocation_symmetric,
    nonsym_layered_allocation,
    nonsym_sweep,
    stage_constraints_strong,
    sweep_dof,
    sym_rate_lattice,
    threshold_power,
    very_strong_general,
)


class TestDofSymmetric:
    def test_unit_gain_time_sharing(self):
        assert dof_symmetric(1.0) == 1.0

    def test_strong_branch_value(self):
        assert dof_symmetric(10.0) == pytest.approx(3 * math.log(9) / math.log(190), rel=1e-12)

    def test_weak_branch_value(self):
        assert dof_symmetric(0.1) == pytest.approx(3 * math.log(4.5) / math.log(55), rel=1e-12)

    def test_band_boundaries_continuous_at_one(self):
        assert dof_symmetric(2.0) == 1.0
        assert dof_symmetric(1.0 / 3.0) == 1.0
        assert dof_symmetric(2.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert dof_symmetric(1.0 / 3.0 - 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_at_least_one_everywhere(self):
        for a2 in np.logspace(-4, 4, 60):
            assert dof_symmetric(float(a2)) >= 1.0

    def test_rejects_nonpositive(self):
        for a2 in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="a2 must be positive"):
                dof_symmetric(a2)

    def test_ladder_outside_float_range_refused(self):
        # the strong ratio overflows, the weak ratio overflows, 2*a2^2 underflows
        for a2 in (1e160, 1e-160, 1e-170):
            with pytest.raises(AllocationError):
                dof_symmetric(a2)
        for a2 in (1e150, 1e-150):
            assert 1.0 < dof_symmetric(a2) < 1.5


class TestLayeredAllocation:
    def test_strong_single_stage(self):
        alloc = layered_allocation_symmetric(3.0, 1)
        assert alloc.powers == pytest.approx([2.0])
        assert alloc.rates == pytest.approx([0.5])
        assert alloc.regime == "strong"

    def test_strong_two_stage_ladder(self):
        alloc = layered_allocation_symmetric(3.0, 2)
        assert alloc.powers == pytest.approx([30.0, 2.0])
        assert float(alloc.powers.sum()) == pytest.approx(32.0)
        assert alloc.rates == pytest.approx([0.5, 0.5])

    def test_weak_single_stage(self):
        alloc = layered_allocation_symmetric(0.25, 1)
        assert alloc.powers == pytest.approx([6.0])
        assert alloc.rates == pytest.approx([0.5 * math.log2(1.5)])

    def test_total_power_bounds(self):
        for a2 in (2.0, 2.5, 3.0, 10.0):
            for N in range(1, 11):
                alloc = layered_allocation_symmetric(a2, N)
                assert float(alloc.powers.sum()) <= (2 * a2**2 - a2) ** N * (1 + 1e-12)
        for a2 in (0.1, 0.25, 1.0 / 3.0):
            for N in range(1, 11):
                alloc = layered_allocation_symmetric(a2, N)
                assert float(alloc.powers.sum()) <= ((1 + a2) / (2 * a2**2)) ** N * (1 + 1e-12)

    def test_band_rejected(self):
        with pytest.raises(AllocationError):
            layered_allocation_symmetric(1.0, 2)
        with pytest.raises(ValueError, match="N must be >= 1"):
            layered_allocation_symmetric(3.0, 0)

    def test_ladder_regimes_and_bounds(self):
        assert _ladder(3.0) == ("strong", 2.0, 15.0, 2.0)
        assert _ladder(2.0) == ("strong", 1.0, 6.0, 1.0)
        assert _ladder(0.25) == ("weak", 6.0, 10.0, 1.5)
        assert _ladder(1.0 / 3.0)[0] == "weak"
        for a2 in (0.0, -1.0, 0.5, 1.999, math.nan):
            with pytest.raises(AllocationError):
                _ladder(a2)

    def test_ladder_identity(self):
        # the strong-regime powers make the very-strong condition tight stagewise
        for a2 in (2.5, 3.0, 10.0):
            for N in range(1, 21):
                P = layered_allocation_symmetric(a2, N).powers
                for i in range(N):
                    below = (2 * a2 + 1) * P[i + 1 :].sum() + 1.0
                    assert P[i] / below == pytest.approx(a2 - 1.0, rel=1e-10)


class TestStageConstraints:
    def test_ladder_makes_both_ceilings_equal(self):
        a2 = 3.0
        P = layered_allocation_symmetric(a2, 4).powers
        r_int, r_msg = stage_constraints_strong(a2, P)
        assert r_int == pytest.approx([0.5] * 4, rel=1e-10)
        assert r_msg == pytest.approx([0.5] * 4, rel=1e-10)

    def test_single_stage_values(self):
        r_int, r_msg = stage_constraints_strong(4.0, [1.0])
        assert r_msg[0] == 0.0
        assert r_int[0] == pytest.approx(0.5)

    def test_zero_powers_clamp(self):
        r_int, r_msg = stage_constraints_strong(3.0, [0.0, 0.0])
        assert not r_int.any() and not r_msg.any()


class TestThresholdPower:
    def test_first_threshold_is_a2_minus_1(self):
        assert threshold_power(3.0, 1) == pytest.approx(2.0)

    def test_matches_layered_total(self):
        for a2 in (2.5, 3.0, 10.0, 0.25, 0.1):
            for N in range(1, 11):
                alloc = layered_allocation_symmetric(a2, N)
                assert threshold_power(a2, N) == pytest.approx(float(alloc.powers.sum()), rel=1e-10)

    def test_zero_layers(self):
        assert threshold_power(3.0, 0) == 0.0

    def test_band_rejected(self):
        with pytest.raises(AllocationError):
            threshold_power(1.0, 1)
        with pytest.raises(ValueError, match="N must be >= 0"):
            threshold_power(3.0, -1)


class TestSymRateLattice:
    def test_at_threshold_exact(self):
        r = sym_rate_lattice(3.0, 32.0)
        assert r.per_user_rates[0] == pytest.approx(1.0, abs=1e-12)
        assert r.binding_constraint == "case-c"

    def test_below_first_threshold(self):
        r = sym_rate_lattice(3.0, 1.0)
        assert r.per_user_rates[0] == 0.0
        assert r.binding_constraint == "case-a"

    def test_first_threshold_boundary_agrees(self):
        # P = a^2 - 1: the single-layer and log(P) expressions coincide
        r = sym_rate_lattice(3.0, 2.0)
        assert r.per_user_rates[0] == pytest.approx(0.5, abs=1e-12)

    def test_weak_low_power_delegates_to_baseline(self):
        P = 3.0
        r = sym_rate_lattice(0.25, P)
        assert r.binding_constraint == "case-d"
        assert r.per_user_rates[0] == pytest.approx(hk_sym_rate(P, 1.0, 0.5))

    def test_weak_between_thresholds(self):
        r = sym_rate_lattice(0.25, 30.0)
        assert r.binding_constraint == "case-e"
        stage = 0.5 * math.log2(1.5)
        # at least as good as both two-candidate components
        lo = max(
            i * stage + hk_sym_rate(30.0 - threshold_power(0.25, i), 1.0 + 1.5 * threshold_power(0.25, i), 0.5)
            for i in (0, 1)
        )
        assert r.per_user_rates[0] == pytest.approx(lo, rel=1e-12)

    def test_weak_at_threshold(self):
        r = sym_rate_lattice(0.25, 66.0)
        assert r.binding_constraint == "case-f"
        assert r.per_user_rates[0] == pytest.approx(math.log2(1.5), rel=1e-12)

    def test_band_falls_back_to_baseline(self):
        r = sym_rate_lattice(1.0, 5.0)
        assert r.binding_constraint == "band-fallback"
        assert r.per_user_rates[0] == pytest.approx(hk_sym_rate(5.0, 1.0, 1.0))

    def test_right_limit_continuity_at_thresholds(self):
        for a2 in (2.5, 3.0):
            for N in (1, 2, 3):
                P = threshold_power(a2, N)
                at = sym_rate_lattice(a2, P).per_user_rates[0]
                above = sym_rate_lattice(a2, P * (1 + 1e-11)).per_user_rates[0]
                assert above == pytest.approx(at, abs=1e-9)

    def test_left_limit_jump_regression(self):
        # the piecewise definition is not left-continuous: approaching a
        # threshold from below, the residual-layer term tends to
        # (1/2)log2(2a^4-a^2) while the all-lattice value adds only
        # (1/2)log2(a^2-1); the frozen gap is the log-ratio of the two
        for a2 in (2.5, 3.0):
            P = threshold_power(a2, 2)
            below = sym_rate_lattice(a2, P * (1 - 1e-9)).per_user_rates[0]
            at = sym_rate_lattice(a2, P).per_user_rates[0]
            jump = 0.5 * math.log2((2 * a2**2 - a2) / (a2 - 1.0))
            assert below - at == pytest.approx(jump, abs=1e-6)

    def test_dominates_very_strong_rate(self):
        # at P = a2 - 1 the gain sqrt(a2) squares back to just under the bound at a2 = 2.5
        for a2 in (2.5, 3.0, 10.0):
            for P in (0.5, 1.0, a2 - 1.0):
                vs = very_strong_general(symmetric_channel(math.sqrt(a2)), [P] * 3, [1.0] * 3)
                assert vs is not None
                assert sym_rate_lattice(a2, P).per_user_rates[0] >= vs[0].per_user_rates[0] - 1e-12

    def test_rejects_nonpositive_power(self):
        for P in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="P must be positive and finite"):
                sym_rate_lattice(3.0, P)


class TestHkSymRate:
    def test_no_interference_is_point_to_point(self):
        for P in (0.5, 4.0, 100.0):
            assert hk_sym_rate(P, 1.0, 0.0) == pytest.approx(0.5 * math.log2(1 + P), rel=1e-9)

    def test_vanishes_with_power(self):
        assert hk_sym_rate(1e-6, 1.0, 1.0) < 1e-5

    def test_unit_gain_bracket(self):
        # all-common MAC floor 1/3 and single-user ceiling 1/2
        r = hk_sym_rate(1.0, 1.0, 1.0, grid_size=10_000)
        assert 1.0 / 3.0 - 1e-9 <= r <= 0.5 + 1e-9
        assert r == pytest.approx(hk_sym_rate(1.0, 1.0, 1.0, grid_size=201), abs=1e-6)

    def test_single_user_bound(self):
        for P in (1.0, 10.0, 1000.0):
            for a in (0.2, 1.0, 2.5):
                for s2 in (0.5, 1.0, 4.0):
                    assert hk_sym_rate(P, s2, a) <= 0.5 * math.log2(1 + P / s2) + 1e-9

    def test_rejects_bad_args(self):
        for args in ((-1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, 0.0, 1.0),
                     (1.0, math.nan, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)):
            with pytest.raises(ValueError, match="must be"):
                hk_sym_rate(*args)
        with pytest.raises(ValueError):
            hk_sym_rate(1.0, 1.0, 1.0, grid_size=1)


def reference_max_symmetric_rate(caps):
    """The per-beta LP of the loop form of `hk_sym_rate`: maximize Rp + Rc
    over every axis intercept and pairwise crossing of the cap lines."""
    cons = [(a, b, c) for (a, b), c in caps.items()]
    best = 0.0
    pts = [(0.0, 0.0)]
    for a, b, c in cons:
        if a > 0:
            pts.append((c / a, 0.0))
        if b > 0:
            pts.append((0.0, c / b))
    for i in range(len(cons)):
        a1, b1, c1 = cons[i]
        for j in range(i + 1, len(cons)):
            a2_, b2, c2 = cons[j]
            det = a1 * b2 - a2_ * b1
            if abs(det) < 1e-15:
                continue
            pts.append(((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2_ * c1) / det))
    for rp, rc in pts:
        if rp < -1e-12 or rc < -1e-12:
            continue
        rp, rc = max(rp, 0.0), max(rc, 0.0)
        if all(a * rp + b * rc <= c + 1e-12 for a, b, c in cons):
            best = max(best, rp + rc)
    return best


def reference_hk_sym_rate(P, sigma2, a, grid_size):
    """The loop form of `hk_sym_rate`: one dict of MAC caps per beta, each
    signature's cap the minimum over its power subsets."""
    a2 = a * a
    best = 0.0
    for beta in np.linspace(0.0, 1.0, grid_size):
        pp = (1.0 - beta) * P
        pc = beta * P
        pi = a2 * beta * P
        eta = sigma2 + 2.0 * a2 * pp
        caps = {}
        signals = [((1, 0), pp), ((0, 1), pc), ((0, 1), pi), ((0, 1), pi)]
        for mask in range(1, 16):
            np_, nc, pw = 0, 0, 0.0
            for bit in range(4):
                if mask >> bit & 1:
                    sig, power = signals[bit]
                    np_ += sig[0]
                    nc += sig[1]
                    pw += power
            cap = 0.5 * math.log2(1.0 + pw / eta)
            caps[(np_, nc)] = min(caps.get((np_, nc), math.inf), cap)
        best = max(best, reference_max_symmetric_rate(caps))
    return best


def powers_of_ten(moderate, extreme):
    return st.one_of(st.floats(*moderate), st.floats(*extreme)).map(lambda e: 10.0**e)


class TestHkReferenceEquality:
    """The block-vectorised baseline reproduces the per-beta loop bit for
    bit, from desk-scale inputs to ones whose powers overflow."""

    @settings(max_examples=60, deadline=None)
    @given(
        P=powers_of_ten((-3, 7), (-300, 307)),
        sigma2=powers_of_ten((-2, 4), (-300, 300)),
        a=powers_of_ten((-2, 1.5), (-150, 150)),
        grid_size=st.integers(2, 300),
    )
    # np.log2 in place of math.log2 moves the last bit of these results on an AVX-512 CPU
    @example(P=0.0334, sigma2=0.512, a=10.0, grid_size=2)
    @example(P=1.4, sigma2=0.597, a=0.0159, grid_size=3)
    @example(P=0.643, sigma2=57.7, a=8.58, grid_size=201)
    # interfering and private powers overflow
    @example(P=1e307, sigma2=1e-300, a=1e150, grid_size=201)
    # the grid spans two blocks, the second of one point
    @example(P=3.0, sigma2=1.0, a=2.5, grid_size=_HK_BLOCK + 1)
    def test_equal_to_loop_form(self, P, sigma2, a, grid_size):
        with np.errstate(all="ignore"):
            got = hk_sym_rate(P, sigma2, a, grid_size)
            want = reference_hk_sym_rate(P, sigma2, a, grid_size)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestPhysicalBounds:
    """The north star's closed-form properties: DoF in [1, 3/2], each user's
    rate at most (1/2)log2(1+P), and a rate that does not fall as P grows."""

    @settings(max_examples=200, deadline=None)
    @given(a2=st.floats(-150, 150).map(lambda e: 10.0**e))
    def test_dof_within_one_and_three_halves(self, a2):
        assert 1.0 <= dof_symmetric(a2) <= 1.5

    @settings(max_examples=150, deadline=None)
    @given(
        # log-uniform in the weak regime, the band and the strong regime
        a2=st.one_of(st.floats(-6, math.log10(1 / 3)), st.floats(-0.47, 0.3), st.floats(math.log10(2), 6)).map(
            lambda e: 10.0**e
        ),
        P=st.floats(-2, 8).map(lambda e: 10.0**e),
    )
    def test_rate_at_most_point_to_point_capacity(self, a2, P):
        assert sym_rate_lattice(a2, P).per_user_rates[0] <= 0.5 * math.log2(1 + P) + 1e-12

    @pytest.mark.parametrize("a2", [
        pytest.param(a2, marks=pytest.mark.xfail(reason=reason))
        for reason, values in (
            ("ROADMAP item 1: case b's residual top layer jumps down at the strong-regime thresholds", (2.5, 3.0)),
            ("ROADMAP item 2: the weak regime's choice set shrinks at each threshold", (1 / 3, 0.25, 0.1)),
        )
        for a2 in values
    ])
    def test_rate_nondecreasing_in_power(self, a2):
        rates = np.array([sym_rate_lattice(a2, float(P)).per_user_rates[0] for P in np.logspace(0, 6, 200)])
        assert np.all(np.diff(rates) >= -1e-12)


def symmetric_very_strong(a, P, sigma2=1.0):
    """The very-strong judge on the symmetric channel of gain a."""
    return very_strong_general(symmetric_channel(a), [P] * 3, [sigma2] * 3)


class TestVeryStrong:
    def test_condition_tight(self):
        r, idx = symmetric_very_strong(2.0, 3.0, 1.0)  # a^2 = P/sigma2 + 1 exactly
        assert idx == 1
        assert r.per_user_rates == pytest.approx([0.5 * math.log2(3.0)] * 3)

    def test_condition_fails(self):
        assert symmetric_very_strong(math.sqrt(2.0), 3.0, 1.0) is None

    def test_gain_at_the_bound_survives_rounding(self):
        # a = sqrt(P + 1) squares to just below P + 1 at P = 2; a simulator config uses such a gain
        assert math.sqrt(3.0) ** 2 < 3.0
        assert symmetric_very_strong(math.sqrt(3.0), 2.0) is not None
        # the slack is relative and tiny: a gain squaring to 1e-9 under the bound still fails
        assert symmetric_very_strong(math.sqrt(3.0 * (1 - 1e-9)), 2.0) is None

    def test_general_noise(self):
        r, _ = symmetric_very_strong(2.0, 3.0, 2.0)
        assert r.per_user_rates == pytest.approx([0.5 * math.log2(1.5)] * 3)

    def test_general_rejects_nonpositive_or_nonfinite(self):
        for P, sigma2 in (
            ([math.nan] * 3, [1.0] * 3), ([3.0, math.inf, 3.0], [1.0] * 3), ([3.0] * 3, [1.0, 1.0, math.nan]),
            ([3.0] * 3, [math.inf] * 3), ([0.0] * 3, [1.0] * 3), ([3.0] * 3, [-1.0] * 3),
        ):
            with pytest.raises(ValueError, match="powers and noise variances must be positive and finite"):
                very_strong_general(symmetric_channel(2.0), P, sigma2)

    def test_general_reduces_to_symmetric(self):
        ch = symmetric_channel(2.0)  # a^2 = P + 1 with P = 3
        out = very_strong_general(ch, [3.0, 3.0, 3.0], [1.0, 1.0, 1.0])
        assert out is not None
        report, idx = out
        assert idx == 1
        assert report.per_user_rates == pytest.approx([0.5 * math.log2(3.0)] * 3)

    def test_general_selects_second_condition_set(self):
        # witness (3, 1); h12 deliberately misses set 1's p^2 requirement
        h = np.array([[1.0, 4.0, 10.0], [10.0, 1.0, 10.0], [75.0, 10.0, 1.0]])
        ch = ChannelMatrix3(h, h1_witness=(3, 1))
        out = very_strong_general(ch, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert out is not None
        _, idx = out
        assert idx == 2

    def test_general_selects_third_condition_set(self):
        # witness (3, 1); h12 and h23 miss the p^2 requirements of sets 1
        # and 2, while h31 meets set 3's p^2 and h13 its q^2
        h = np.array([[1.0, 2.0, 5.0], [2.0, 1.0, 2.0], [15.0, 2.0, 1.0]])
        ch = ChannelMatrix3(h, h1_witness=(3, 1))
        assert _very_strong_conditions(ch, [2.0] * 3, [1.0] * 3) == [False, False, True]
        report, idx = very_strong_general(ch, [2.0] * 3, [1.0] * 3)
        assert idx == 3
        assert report.binding_constraint == "condition-set-3"
        assert report.per_user_rates == pytest.approx([0.5] * 3)

    def test_condition_sets_match_written_out_reference(self):
        # the three sets written out term by term, each link with the judge's
        # rounding slack, against the table-driven check on random witnessed
        # channels; every set must be hit
        rng = np.random.default_rng(11)
        hits = [0, 0, 0]
        for _ in range(4000):
            h = np.ones((3, 3))
            h[~np.eye(3, dtype=bool)] = rng.integers(1, 13, size=6)
            ch = ChannelMatrix3(h, h1_witness=class_h1_membership(h))
            p, q = ch.h1_witness
            P, sigma2 = rng.uniform(0.1, 4.0, size=3), rng.uniform(0.2, 2.0, size=3)
            s = P + sigma2
            slack = 1.0 - VERY_STRONG_RTOL
            reference = [
                h[0, 1] ** 2 >= p * p * s[0] / sigma2[1] * slack and h[0, 2] ** 2 >= s[0] / sigma2[2] * slack
                and h[1, 0] ** 2 >= q * q * s[1] / sigma2[0] * slack and h[1, 2] ** 2 >= s[1] / sigma2[2] * slack
                and h[2, 0] ** 2 >= s[2] / sigma2[0] * slack and h[2, 1] ** 2 >= s[2] / sigma2[1] * slack,
                h[0, 1] ** 2 >= s[0] / sigma2[1] * slack and h[0, 2] ** 2 >= s[0] / sigma2[2] * slack
                and h[1, 0] ** 2 >= s[1] / sigma2[0] * slack and h[1, 2] ** 2 >= p * p * s[1] / sigma2[2] * slack
                and h[2, 0] ** 2 >= s[2] / sigma2[0] * slack and h[2, 1] ** 2 >= q * q * s[2] / sigma2[1] * slack,
                h[0, 1] ** 2 >= s[0] / sigma2[1] * slack and h[0, 2] ** 2 >= q * q * s[0] / sigma2[2] * slack
                and h[1, 0] ** 2 >= s[1] / sigma2[0] * slack and h[1, 2] ** 2 >= s[1] / sigma2[2] * slack
                and h[2, 0] ** 2 >= p * p * s[2] / sigma2[0] * slack and h[2, 1] ** 2 >= s[2] / sigma2[1] * slack,
            ]
            got = _very_strong_conditions(ch, list(P), list(sigma2))
            assert [bool(c) for c in got] == [bool(c) for c in reference]
            hits = [n + bool(c) for n, c in zip(hits, got)]
        assert min(hits) > 0

    def test_general_huge_gains_without_overflow_warning(self):
        # the squares of the cross gains overflow; RuntimeWarnings are errors in this suite
        h = np.full((3, 3), 1e200)
        np.fill_diagonal(h, 1.0)
        report, idx = very_strong_general(ChannelMatrix3(h, h1_witness=(1, 1)), [3.0] * 3, [1.0] * 3)
        assert idx == 1 and report.per_user_rates == pytest.approx([0.5 * math.log2(3.0)] * 3)

    def test_general_no_set_holds(self):
        ch = symmetric_channel(1.0)
        assert very_strong_general(ch, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) is None

    def test_general_requires_witness(self):
        ch = ChannelMatrix3(symmetric_channel(2.0).h)
        with pytest.raises(ValueError):
            very_strong_general(ch, [1.0] * 3, [1.0] * 3)


class TestNonsymAllocation:
    def test_symmetric_reduction(self):
        for a2 in (3.0, 10.0):
            a = math.sqrt(a2)
            for N in range(1, 11):
                alloc = nonsym_layered_allocation(a, a, a, N)
                sym = layered_allocation_symmetric(a2, N)
                for j in range(3):
                    assert alloc.powers[j] == pytest.approx(sym.powers, rel=1e-9)
                    assert alloc.rates[j] == pytest.approx(sym.rates, rel=1e-9)

    def test_single_stage_equal_gains(self):
        alloc = nonsym_layered_allocation(2.0, 2.0, 2.0, 1)
        assert alloc.powers == pytest.approx(np.full((3, 1), 3.0))
        assert alloc.rates == pytest.approx(np.full((3, 1), 0.5 * math.log2(3.0)))

    def test_gain_family_ratio_decreases_toward_limit(self):
        # finite-power ratio starts above the growth rate and falls with N
        ratios = []
        for N in range(1, 7):
            alloc = nonsym_layered_allocation(4.0, 6.0, 8.0, N)
            r = float(alloc.rates.sum())
            p = float(np.sum(alloc.powers.sum(axis=1)))
            ratios.append(r / (0.5 * math.log2(p)))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 1.0

    def test_rejects_weak_gains(self):
        with pytest.raises(AllocationError):
            nonsym_layered_allocation(1.0, 2.0, 2.0, 1)
        with pytest.raises(ValueError, match="N must be >= 1"):
            nonsym_layered_allocation(2.0, 2.0, 2.0, 0)


class TestDofNonsym:
    def test_symmetric_consistency(self):
        a = math.sqrt(10.0)
        assert dof_nonsym_numeric(a, a, a, 40) == pytest.approx(dof_symmetric(10.0), abs=0.01)

    def test_gain_family_above_one(self):
        assert dof_nonsym_numeric(8.0, 12.0, 16.0, 20) > 1.0

    def test_time_sharing_fallback(self):
        assert dof_nonsym_numeric(1.0, 1.0, 1.0, 5) == 1.0

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            dof_nonsym_numeric(2.0, 2.0, 2.0, 0)

    def test_sweep_rows_and_refusal(self):
        rows = nonsym_sweep(4.0, 6.0, 8.0, 3)
        assert [N for N, _, _ in rows] == [1, 2, 3]
        alloc = nonsym_layered_allocation(4.0, 6.0, 8.0, 2)
        assert rows[1] == (2, float(alloc.rates.sum()), float(np.sum(alloc.powers.sum(axis=1))))
        with pytest.raises(AllocationError):
            nonsym_sweep(1.0, 1.0, 1.0, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        g2=st.lists(st.floats(math.log10(2.0), 4.0).map(lambda e: 10.0**e), min_size=3, max_size=3),
        N_max=st.integers(1, 40),
    )
    def test_sweep_equals_one_allocation_per_n(self, g2, N_max):
        gains = [math.sqrt(x) for x in g2]
        # the largest gains overflow the deepest layer powers to inf and nan
        with np.errstate(over="ignore", invalid="ignore"):
            got = nonsym_sweep(*gains, N_max)
            want = []
            for N in range(1, N_max + 1):
                alloc = nonsym_layered_allocation(*gains, N)
                want.append((N, float(alloc.rates.sum()), float(np.sum(alloc.powers.sum(axis=1)))))
        assert got == want or np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(
        g2=st.lists(st.floats(math.log10(2.0), 300.0).map(lambda e: 10.0**e), min_size=3, max_size=3),
        N=st.integers(1, 60),
    )
    def test_every_finite_power_positive(self, g2, N):
        with np.errstate(over="ignore", invalid="ignore"):
            P = nonsym_layered_allocation(*(math.sqrt(x) for x in g2), N).powers
        assert np.all(P[np.isfinite(P)] > 0)

    def test_sweep_dof_cases(self):
        with pytest.raises(ValueError, match="at least one row"):
            sweep_dof([])
        assert sweep_dof([(1, 3.0, 63.0)]) == 3.0 / (0.5 * math.log2(63.0))
        assert sweep_dof([(1, 0.1, 4.0), (2, 0.2, 16.0)]) == 1.0
        assert sweep_dof([(1, 1.0, 4.0), (2, 4.0, 16.0)]) == 3.0

