"""Monte Carlo simulator: configuration, determinism and decoding behavior."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticeic.simulate
from latticeic.channel import ChannelMatrix3, symmetric_channel
from latticeic.lattice import build_codebook, construction_a, is_lattice_point, make_linear_code, scale_lattice
from latticeic.simulate import (
    MAX_SQUARED_DISTANCE,
    ConfigError,
    SimConfig,
    _distinct_rows,
    _nearest_rows,
    _pair_sums,
    _squared_distances,
    align_interference_lattices,
    run_simulation,
    wilson_interval,
)


def vs_config(**kw):
    base = dict(
        scheme="very-strong-sym",
        n=4,
        trials=200,
        master_seed=3,
        rates=[0.25],
        power=3.0,
        a=4.0,
        search_budget=2,
    )
    base.update(kw)
    return SimConfig(**base)


def vsg_config(**kw):
    base = dict(scheme="very-strong-general", n=4, trials=100, master_seed=0, rates=[0.2] * 3, powers=[3.0] * 3,
                h=[[1, 9, 9], [9, 1, 9], [9, 9, 1]])
    base.update(kw)
    return SimConfig(**base)


VOLUME_RANGE = "the shaping-sphere volume per codeword leaves the float range"

# the cyclic ratio is 1/7 + 8e-10, so class_h1_membership's 1e-9 tolerance gives the witness (1, 7)
MISALIGNED_H = [[1, 15 * (1 / 7 + 8e-10), 20], [15, 1, 20], [20, 20, 1]]


class TestWilsonInterval:
    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0 < hi < 0.05

    def test_contained_in_unit_interval(self):
        for e in (0, 1, 50, 99, 100):
            lo, hi = wilson_interval(e, 100)
            assert 0.0 <= lo <= e / 100 + 1e-15 and e / 100 <= hi + 1e-15 and hi <= 1.0

    def test_symmetry(self):
        lo, hi = wilson_interval(30, 100)
        lo2, hi2 = wilson_interval(70, 100)
        assert lo == pytest.approx(1 - hi2)
        assert hi == pytest.approx(1 - lo2)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    # center - half rounds to 3.5e-18, 1.7e-18 and 8.7e-19 instead of 0; clamping it moves every zero-error
    # golden digest, so the fix waits for a change that re-records them
    @pytest.mark.xfail(reason="known rounding defect: the zero-error lower bound is a few 1e-18, not 0")
    def test_zero_errors_lower_bound_exactly_zero(self):
        assert [wilson_interval(0, T)[0] for T in (100, 200, 300)] == [0.0] * 3


class TestConfigValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            vs_config(scheme="mystery").validate()

    def test_too_few_trials(self):
        with pytest.raises(ConfigError):
            vs_config(trials=50).validate()

    def test_block_length_range(self):
        with pytest.raises(ConfigError):
            vs_config(n=1).validate()
        with pytest.raises(ConfigError):
            vs_config(n=11).validate()

    def test_very_strong_condition_enforced(self):
        # a^2 = 4 < P + 1 at P = 4
        with pytest.raises(ConfigError):
            vs_config(a=2.0, power=4.0).validate()

    def test_layer_rate_count(self):
        cfg = SimConfig(
            scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.2], a=2.0, N=2
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_layered_band_rejected(self):
        cfg = SimConfig(
            scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.2], a=1.0, N=1
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    # one case per refusal, each pinned to validate's whole message
    @pytest.mark.parametrize("cfg, match", [
        pytest.param(SimConfig(scheme="layered-sym", n=6, trials=100, master_seed=0, rates=[2.5, 2.5], a=5.0, N=2),
                     "layer 1 rate 2.5 exceeds its stage ceiling 2.2925", id="above-stage-ceiling"),
        pytest.param(vsg_config(h=[[1, math.sqrt(2.0), 1], [1, 1, 1], [1, 1, 1]]),
                     "very-strong-general: channel has no rational-ratio witness", id="no-witness"),
        pytest.param(vsg_config(h=[[1, 1.5, 1.5], [1.5, 1, 1.5], [1.5, 1.5, 1]]),
                     "no very-strong condition set holds for this config", id="no-condition-set"),
        pytest.param(vsg_config(h=[[2, 9, 9], [9, 1, 9], [9, 9, 1]]),
                     "very-strong-general: direct gains must be normalized to 1", id="non-unit-diagonal"),
        # the witness (1, 7) is within 1e-9 of the cyclic ratio but misaligns receiver 3 by 5.6e-9
        pytest.param(vsg_config(h=MISALIGNED_H), "very-strong-general: witness (1, 7) does not align receiver 3: "
                     "|h31 f1| = 186.66666666666669, |h32 f2| = 186.66666562133332", id="misaligned-witness"),
        # the shaping-sphere volume per codeword overflows, underflows, or leaves a cell scale of 0
        pytest.param(SimConfig(scheme="p2p", n=10, trials=100, master_seed=0, rates=[0.5], power=1e200),
                     f"n=10, rate=0.5, power=1e+200: {VOLUME_RANGE}", id="volume-overflow"),
        pytest.param(SimConfig(scheme="p2p", n=10, trials=100, master_seed=0, rates=[0.5], power=1e-300),
                     f"n=10, rate=0.5, power=1e-300: {VOLUME_RANGE}", id="volume-underflow"),
        pytest.param(SimConfig(scheme="p2p", n=2, trials=100, master_seed=0, rates=[3000], power=3.0),
                     f"n=2, rate=3000, power=3.0: {VOLUME_RANGE}", id="target-overflow"),
        pytest.param(SimConfig(scheme="p2p", n=2, trials=100, master_seed=0, rates=[0.25], power=5e-324),
                     f"n=2, rate=0.25, power=5e-324: {VOLUME_RANGE}", id="cell-scale-underflow"),
        # the layer count lies outside 1..3
        pytest.param(SimConfig(scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.1], a=2.0, N=0),
                     "layered-sym supports 1 <= N <= 3", id="layers-zero"),
        pytest.param(SimConfig(scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.1] * 4, a=2.0, N=4),
                     "layered-sym supports 1 <= N <= 3", id="layers-four"),
        pytest.param(SimConfig(scheme="p2p", n=4, trials=100, master_seed=0, rates=[0.5]),
                     "p2p requires a positive power", id="p2p-no-power"),
        pytest.param(vs_config(power=None), "very-strong-sym requires a positive power", id="very-strong-sym-no-power"),
        pytest.param(vs_config(a=None), "very-strong-sym requires gain a", id="very-strong-sym-no-gain"),
        pytest.param(SimConfig(scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.2]),
                     "layered-sym requires gain a", id="layered-sym-no-gain"),
        pytest.param(SimConfig(scheme="p2p", n=4, trials=100, master_seed=0, rates=[0.5, 0.5], power=3.0),
                     "p2p needs 1 rates, got 2", id="p2p-rate-count"),
        pytest.param(SimConfig(scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.2], a=2.0, N=2),
                     "layered-sym needs 2 rates, got 1", id="layered-sym-rate-count"),
        pytest.param(vsg_config(rates=[0.2] * 2), "very-strong-general needs 3 rates, got 2",
                     id="very-strong-general-rate-count"),
        pytest.param(vsg_config(powers=[3.0] * 2), "very-strong-general requires 3 positive powers",
                     id="very-strong-general-two-powers"),
        # a^2 = 4 < P + 1 at P = 4
        pytest.param(vs_config(a=2.0, power=4.0), "very-strong condition a^2 >= P/sigma2 + 1 violated",
                     id="very-strong-condition"),
        pytest.param(SimConfig(scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.9], a=0.5, N=1),
                     "layer 1 rate 0.9 exceeds its stage ceiling 0.2925", id="weak-stage-ceiling"),
        pytest.param(SimConfig(scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.2], a=1.0, N=1),
                     "layered-sym: no layered allocation for a2=1.0; supported regimes are a2 >= 2 and 0 < a2 <= 1/3",
                     id="layered-sym-band"),
        # the ladder powers overflow to inf; a power or powers near the float maximum
        pytest.param(SimConfig(scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.2] * 3, a=1e40, N=3),
                     "decoder squared distances could reach inf, above 1e+300", id="layered-sym-distance"),
        pytest.param(SimConfig(scheme="p2p", n=4, trials=100, master_seed=0, rates=[0.5], power=1e299),
                     "decoder squared distances could reach 1.44e+301, above 1e+300", id="p2p-distance"),
        pytest.param(vsg_config(powers=[1e299] * 3), "decoder squared distances could reach 5.2e+303, above 1e+300",
                     id="very-strong-general-distance"),
        # h is missing or ragged
        pytest.param(vsg_config(h=None), "very-strong-general requires h, a 3x3 gain matrix, got None",
                     id="no-gain-matrix"),
        pytest.param(vsg_config(h=[[1, 9, 9], [9, 1, 9], [9, 9]]),
                     "very-strong-general requires h, a 3x3 gain matrix, got [[1, 9, 9], [9, 1, 9], [9, 9]]",
                     id="ragged-gain-matrix"),
    ])
    def test_scheme_rules_refused_by_validate(self, cfg, match):
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
            cfg.validate()

    @pytest.mark.parametrize("cfg", [
        SimConfig(scheme="p2p", n=4, trials=100, master_seed=0, rates=[0.5], power=3.0, search_budget=1),
        vs_config(search_budget=1),
        SimConfig(scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.2], a=5.0, search_budget=1),
        SimConfig(scheme="very-strong-general", n=4, trials=100, master_seed=0, rates=[0.3] * 3,
                  powers=[3.0] * 3, h=[[1, 9, 9], [9, 1, 9], [9, 9, 1]], search_budget=1),
    ], ids=lambda cfg: cfg.scheme)
    def test_run_validates_once(self, monkeypatch, cfg):
        calls = []
        validate = SimConfig.validate
        monkeypatch.setattr(SimConfig, "validate", lambda self: calls.append(self) or validate(self))
        run_simulation(cfg)
        assert calls == [cfg]

    def test_hash_stable(self):
        assert vs_config().config_hash() == vs_config().config_hash()
        assert vs_config().config_hash() != vs_config(master_seed=4).config_hash()


class TestDeterminismAndStats:
    def test_identical_config_identical_stats(self):
        a = run_simulation(vs_config())
        b = run_simulation(vs_config())
        assert a == b

    def test_different_seed_still_valid_run(self):
        stats = run_simulation(vs_config(trials=400, master_seed=99))
        assert stats.trials == 400
        assert 0 <= stats.block_errors <= 400

    def test_zero_rate_no_errors(self):
        stats = run_simulation(vs_config(rates=[0.0]))
        assert stats.block_errors == 0

    def test_json_line_fields(self):
        cfg = vs_config()
        stats = run_simulation(cfg)
        doc = json.loads(stats.to_json_line(cfg))
        assert doc["config_hash"] == cfg.config_hash()
        assert doc["trials"] == cfg.trials
        assert set(doc["stage_errors"]) == {"interference", "message"}
        assert 0.0 <= doc["wilson"][0] <= doc["wilson"][1] <= 1.0


class TestSchemes:
    def test_noiseless_layered_zero_errors(self):
        cfg = SimConfig(
            scheme="layered-sym",
            n=6,
            trials=200,
            master_seed=11,
            rates=[0.3, 0.3],
            sigma2=1e-6,
            a=5.0,
            N=2,
        )
        stats = run_simulation(cfg)
        assert stats.block_errors == 0
        assert not any(stats.per_stage_interference_errors)
        assert not any(stats.per_stage_message_errors)

    def test_single_layer_equals_very_strong(self):
        shared = dict(n=4, trials=200, master_seed=3, rates=[0.25], a=2.0, search_budget=2)
        layered = SimConfig(scheme="layered-sym", N=1, **shared)
        single = SimConfig(scheme="very-strong-sym", power=3.0, **shared)
        assert run_simulation(layered) == run_simulation(single)

    def test_genie_makes_later_stages_independent(self):
        base = dict(
            scheme="layered-sym",
            n=4,
            trials=300,
            master_seed=9,
            a=math.sqrt(3.0),
            N=2,
            genie=True,
            search_budget=1,
        )
        a = run_simulation(SimConfig(rates=[0.2, 0.25], **base))
        b = run_simulation(SimConfig(rates=[0.3, 0.25], **base))
        assert a.per_stage_interference_errors[1] == b.per_stage_interference_errors[1]
        assert a.per_stage_message_errors[1] == b.per_stage_message_errors[1]

    def test_layered_rejects_rate_above_ceiling(self):
        cfg = SimConfig(
            scheme="layered-sym", n=4, trials=100, master_seed=0, rates=[0.9], a=math.sqrt(3.0), N=1
        )
        with pytest.raises(ConfigError):
            run_simulation(cfg)

    def test_error_rate_nonincreasing_in_snr(self):
        runs = []
        for s2 in (2.0, 0.5):
            cfg = SimConfig(
                scheme="p2p",
                n=8,
                trials=400,
                master_seed=5,
                rates=[1.0],
                power=15.0,
                sigma2=s2,
                search_budget=1,
            )
            runs.append(run_simulation(cfg))
        noisy, clean = runs
        # nonincreasing up to Wilson-interval overlap
        assert clean.block_error_rate <= noisy.block_error_rate or (
            clean.wilson_interval[0] <= noisy.wilson_interval[1]
        )

    def test_very_strong_general_runs_and_reports_condition(self):
        h = [[1, 4, 4], [4, 1, 4], [4, 4, 1]]
        cfg = SimConfig(
            scheme="very-strong-general",
            n=4,
            trials=200,
            master_seed=2,
            rates=[0.3, 0.3, 0.3],
            powers=[3.0, 3.0, 3.0],
            h=h,
            search_budget=4,
        )
        stats = run_simulation(cfg)
        assert stats.meta["condition_set"] == 1
        assert stats.block_error_rate <= 0.2

    def test_noiseless_very_strong_general_zero_errors(self):
        # as for very-strong-sym, the regime is checked at the unit noise floor
        cfg = SimConfig(
            scheme="very-strong-general",
            n=6,
            trials=200,
            master_seed=5,
            rates=[0.3] * 3,
            powers=[3.0] * 3,
            h=[[1, 9, 9], [9, 1, 9], [9, 9, 1]],
            sigma2=1e-6,
            search_budget=4,
        )
        stats = run_simulation(cfg)
        assert stats.block_errors == 0
        assert not any(stats.per_stage_interference_errors)
        assert not any(stats.per_stage_message_errors)

    def test_very_strong_general_requires_witness(self):
        h = [[1, math.sqrt(2.0), 1], [1, 1, 1], [1, 1, 1]]
        cfg = SimConfig(
            scheme="very-strong-general",
            n=4,
            trials=100,
            master_seed=0,
            rates=[0.2] * 3,
            powers=[3.0] * 3,
            h=h,
        )
        with pytest.raises(ConfigError):
            run_simulation(cfg)


class TestRestrictedDecoder:
    def test_memory_peak(self):
        # tracemalloc sees numpy's buffers: about 24 MB here, against 60 MB for a (T, m, n) cube
        rng = np.random.default_rng(0)
        cands, ys = rng.normal(size=(4000, 8)), rng.normal(size=(500, 8))
        tracemalloc.start()
        try:
            _nearest_rows(cands, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_all_tied_block_stays_chunked(self):
        # every candidate twice, so every row ties and the whole block is decoded by the fallback;
        # tracemalloc sees about 60 MB here, against 128 MB for one unchunked (T, m, n) cube
        rng = np.random.default_rng(0)
        cands, ys = np.repeat(rng.normal(size=(2000, 8)), 2, axis=0), rng.normal(size=(500, 8))
        tracemalloc.start()
        try:
            got = _nearest_rows(cands, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6
        # the reference in blocks of rows, which decode independently
        want = np.concatenate([cands[np.argmin(_squared_distances(b, cands), axis=1)] for b in np.split(ys, 5)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_first_nearest_candidate_wins(self):
        cands = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        ys = np.array([[0.9, 0.1], [0.5, 0.5], [0.0, 0.0], [-2.0, 0.0]])
        assert np.array_equal(_nearest_rows(cands, ys), cands[[0, 0, 0, 3]])

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["normal", "duplicates", "equidistant", "one-ulp"]),
    )
    def test_certified_kernel_equals_reference(self, n, seed, shape):
        # per-coordinate scales from 1e-3 up to where n * (2 * scale)^2 nears MAX_SQUARED_DISTANCE
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, math.log10(math.sqrt(MAX_SQUARED_DISTANCE / (4 * n))), size=n)
        # powers of two keep the integer-grid shapes exact, so their ties and gaps are the intended ones
        grid = 2.0 ** np.round(np.log2(scale))
        m, T = int(rng.integers(1, 60)), int(rng.integers(1, 40))
        if shape == "normal":
            cands, ys = rng.normal(size=(m, n)) * scale, rng.normal(size=(T, n)) * scale
        elif shape == "duplicates":
            cands = rng.normal(size=(m, n)) * scale
            cands = cands[rng.integers(0, m, size=m + 5)]
            ys = np.concatenate([cands, rng.normal(size=(T, n)) * scale]) + rng.normal(size=(m + 5 + T, n)) * scale * 1e-3
        elif shape == "equidistant":
            # midpoints of two integer-grid candidates tie exactly (same terms, same order), and
            # half-grid points tie between several
            cands = rng.integers(-4, 5, size=(m, n)) * grid
            j, k = rng.integers(0, m, size=(2, T))
            ys = np.concatenate([(cands[j] + cands[k]) / 2, rng.integers(-8, 9, size=(T, n)) * grid / 2])
        else:
            # each candidate next to a copy one ulp away in one coordinate
            cands = rng.normal(size=(m, n)) * scale
            i = rng.integers(0, n, size=m)
            twins = cands.copy()
            twins[np.arange(m), i] = np.nextafter(cands[np.arange(m), i], rng.choice([-np.inf, np.inf], size=m))
            cands = np.concatenate([cands, twins])[rng.permutation(2 * m)]
            ys = cands[rng.integers(0, 2 * m, size=T)] + rng.normal(size=(T, n)) * scale * 10.0 ** rng.uniform(-12, 0)
        want = cands[np.argmin(_squared_distances(ys, cands), axis=1)]
        assert np.array_equal(_nearest_rows(cands, ys).view(np.int64), want.view(np.int64))

    def test_exact_tie_takes_fallback(self, monkeypatch):
        # row 0 is equidistant from both candidates, row 1 is not
        sent = []

        def spy(block, cands):
            sent.append(block.copy())
            return _squared_distances(block, cands)

        monkeypatch.setattr(latticeic.simulate, "_squared_distances", spy)
        cands = np.array([[0.0, 0.0], [1.0, 0.0]])
        ys = np.array([[0.5, 0.3], [0.9, 0.0]])
        assert np.array_equal(_nearest_rows(cands, ys), cands[[0, 1]])
        assert len(sent) == 1 and np.array_equal(sent[0], ys[:1])


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), m=st.integers(1, 44), seed=st.integers(0, 2**32 - 1))
    def test_equals_np_unique(self, n, m, seed):
        # integer-grid words with many coinciding pair sums; the 1e-12 jitters round to -0.0 and 0.0
        rng = np.random.default_rng(seed)
        words = rng.integers(-2, 3, size=(m, n)) * rng.choice([1.0, 0.5, 0.75])
        words += rng.choice([0.0, 1e-12, -1e-12], size=words.shape)
        iu = np.triu_indices(m)
        x = words[iu[0]] + words[iu[1]]
        got = _distinct_rows(x)
        # bit for bit np.unique's rows once its signed zeros are made +0.0, which only its unstable sort picks
        want = np.unique(np.round(x, 9) + 0.0, axis=0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got, np.unique(np.round(x, 9), axis=0))

    def test_signed_zeros_merge_into_positive_zero(self):
        x = np.array([[-1e-12, 1.0], [1e-12, 1.0], [0.0, 1.0], [-0.0, -2.0]])
        got = _distinct_rows(x)
        assert np.array_equal(got, [[0.0, -2.0], [0.0, 1.0]])
        assert not np.signbit(got[got == 0]).any()

    def test_both_sumsets_use_it(self, monkeypatch):
        calls = []

        def spy(x):
            calls.append(x.shape)
            return _distinct_rows(x)

        monkeypatch.setattr(latticeic.simulate, "_distinct_rows", spy)
        words = np.arange(12.0).reshape(4, 3)
        _pair_sums(words, 2.0)
        assert calls == [(10, 3)]  # the 4 * 5 / 2 unordered pairs with repetition
        calls.clear()
        cfg = SimConfig(scheme="very-strong-general", n=4, trials=100, master_seed=2, rates=[0.3] * 3,
                        powers=[3.0] * 3, h=[[1, 4, 4], [4, 1, 4], [4, 4, 1]], search_budget=1)
        stats = run_simulation(cfg)
        # one grid sumset of user 2's and user 3's words per candidate run
        assert len(calls) == stats.meta["candidates_run"] == 1 and calls[0][1] == 4


class TestAlignment:
    def test_symmetric_channel_aligns_trivially(self):
        base = construction_a(make_linear_code(2, 1, 5, seed=1), 0.7)
        l1, l2, l3 = align_interference_lattices(symmetric_channel(2.0), base)
        assert l1.gamma == l2.gamma == l3.gamma == base.gamma

    def test_scale_factors_satisfy_all_three_equalities(self):
        h = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 3.0], [1.0, 1.0, 1.0]])
        ch = ChannelMatrix3(h, h1_witness=(6, 1))
        base = construction_a(make_linear_code(2, 1, 5, seed=2), 1.0)
        l1, l2, l3 = align_interference_lattices(ch, base)
        f1, f2, f3 = l1.gamma, l2.gamma, l3.gamma
        assert abs(h[0, 1]) * f2 == pytest.approx(6 * abs(h[0, 2]) * f3, rel=1e-12)
        assert abs(h[1, 0]) * f1 == pytest.approx(1 * abs(h[1, 2]) * f3, rel=1e-12)
        assert abs(h[2, 0]) * f1 == pytest.approx(abs(h[2, 1]) * f2, rel=1e-12)

    def test_random_witnessed_matrices_align(self):
        rng = np.random.default_rng(6)
        base = construction_a(make_linear_code(2, 1, 5, seed=3), 1.0)
        for _ in range(20):
            p = int(rng.integers(1, 7))
            q = int(rng.integers(1, 7))
            g = math.gcd(p, q)
            p, q = p // g, q // g
            h12, h21, h23, h32, h13 = rng.integers(1, 6, size=5).astype(float)
            h31 = (p / q) * h21 * h32 * h13 / (h12 * h23)
            h = np.array([[1, h12, h13], [h21, 1, h23], [h31, h32, 1.0]])
            ch = ChannelMatrix3(h, h1_witness=(p, q))
            l1, l2, l3 = align_interference_lattices(ch, base)
            assert abs(h[2, 0]) * l1.gamma == pytest.approx(abs(h[2, 1]) * l2.gamma, rel=1e-9)

    def test_missing_witness_rejected(self):
        ch = ChannelMatrix3(symmetric_channel(2.0).h)
        base = construction_a(make_linear_code(2, 1, 5, seed=4), 1.0)
        with pytest.raises(ValueError):
            align_interference_lattices(ch, base)

    def test_inconsistent_witness_rejected(self):
        # true ratio is 6; witness (2, 1) breaks the third equality
        h = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 3.0], [1.0, 1.0, 1.0]])
        ch = ChannelMatrix3(h, h1_witness=(2, 1))
        base = construction_a(make_linear_code(2, 1, 5, seed=5), 1.0)
        with pytest.raises(ValueError):
            align_interference_lattices(ch, base)

    def test_aggregate_interference_closure(self):
        # the sum of two shifted codewords, minus both shifts, stays on the
        # lattice, so the scaled aggregate lies on the scaled lattice
        a = 2.0
        lat = construction_a(make_linear_code(3, 2, 5, seed=7), 0.8)
        cb = build_codebook(lat, power=6.0, target_rate=0.25, shift_trials=4, seed=7)
        rng = np.random.default_rng(8)
        lat_a = scale_lattice(lat, a)
        for _ in range(50):
            w2, w3 = cb.words[rng.integers(0, len(cb), size=2)]
            assert is_lattice_point(lat, w2 + w3 - 2 * cb.shift, tol=1e-9)
            assert is_lattice_point(lat_a, a * (w2 + w3 - 2 * cb.shift), tol=1e-9)


# Short runs covering every scheme and both interference decoders.
# Each digest is the SHA-256 of the result line followed by the sorted-key
# JSON of `meta`; any change to either is a change in simulator output.
PINNED = {
    # shift_trials=1 makes some candidates miss their codebook size
    "p2p": (
        dict(scheme="p2p", n=6, master_seed=1, rates=[1.0], power=15.0, search_budget=4, shift_trials=1),
        "5f24cc97e4e8e7af7257e3028ae788cc0f1ba3ac29b3ce8cffdb0c0798947d90",
    ),
    "very-strong-sym-restricted": (
        dict(scheme="very-strong-sym", n=6, master_seed=2, rates=[0.6], power=3.0, a=2.0, search_budget=4, shift_trials=1),
        "e3bf91504ce98ca8b13cd0d127dc5e670db6b29c58720cb33ae761c9facf1ec8",
    ),
    # 1039 words: the pair sumset is too large, so the full lattice decodes
    "very-strong-sym-fallback": (
        dict(scheme="very-strong-sym", n=4, master_seed=3, rates=[2.5], power=63.0, a=9.0, search_budget=2),
        "ed456ecf4ca483a2047a308b4f78b53460b51be53fadb8f3f89f6d6ab50e2bd6",
    ),
    "layered-sym-strong": (
        dict(scheme="layered-sym", n=6, master_seed=4, rates=[0.3, 0.3, 0.3], a=2.0, N=3, search_budget=2),
        "c1116db908c7c3a468a70f70b6834550bec2e1d1de3ad24340622726bc0f4e1c",
    ),
    "layered-sym-strong-genie": (
        dict(scheme="layered-sym", n=4, master_seed=9, rates=[0.2, 0.25], a=math.sqrt(3.0), N=2, search_budget=2, genie=True),
        "c6dfdcbfdfe190dd4787cbbe101712fd132c066af07b09b167e3a3cee8f143b5",
    ),
    "layered-sym-weak": (
        dict(scheme="layered-sym", n=6, master_seed=5, rates=[0.2, 0.2], a=0.5, N=2, search_budget=2),
        "d4d17250aebbb198df0147af5a83eb088c39ef38ebc32766f2938d9331d2afb9",
    ),
    "very-strong-general": (
        dict(scheme="very-strong-general", n=6, master_seed=6, rates=[0.5] * 3, powers=[3.0] * 3,
             h=[[1, 6, 9], [12, 1, 6], [9, 12, 1]], search_budget=3),
        "219da2b670f78eec47e595a1b4f6a714413e08ce6e9a6e13ad39d4ead8981c01",
    ),
    # about 1120 words per user: the grid sumset is too large, so h13*L3 decodes
    "very-strong-general-fallback": (
        dict(scheme="very-strong-general", n=4, master_seed=3, rates=[2.5] * 3, powers=[63.0] * 3,
             h=[[1, 12, 12], [12, 1, 12], [12, 12, 1]], search_budget=2),
        "b85de09cc74c20ebe4970ed6afded6b46688338d61b1d2027e7dcf5f360feae7",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_pinned(name):
    kw, digest = PINNED[name]
    cfg = SimConfig(trials=200, **kw)
    stats = run_simulation(cfg)
    blob = stats.to_json_line(cfg) + json.dumps(stats.meta, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
