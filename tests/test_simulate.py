"""Monte Carlo simulator: configuration, determinism and decoding behavior."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticeic.simulate
from latticeic.channel import ChannelMatrix3, symmetric_channel
from latticeic.lattice import (
    Lattice,
    _enumerate_shifted_spheres,
    build_codebook,
    is_lattice_point,
    make_linear_code,
    scale_lattice,
)
from latticeic.simulate import (
    MAX_SQUARED_DISTANCE,
    ConfigError,
    SimConfig,
    _distinct_points,
    _nearest_on_lattice,
    _nearest_rows,
    _pair_sums,
    _rows_differ,
    _squared_distances,
    _voronoi_errors,
    align_interference_lattices,
    run_simulation,
    wilson_interval,
)
from test_lattice import full_code, lattice_params, reference_lattice


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


def symmetric_general_config(a, P, sigma2):
    """very-strong-general on symmetric_channel(a), each user at power P and noise sigma2."""
    return vsg_config(h=symmetric_channel(a).h.tolist(), powers=[P] * 3, sigma2s=[sigma2] * 3, rates=[0.1] * 3)


def layered_config(**kw):
    base = dict(scheme="layered-sym", n=4, trials=100, master_seed=1, rates=[0.2], a=2.0, N=1)
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

    def test_both_very_strong_schemes_judge_alike(self):
        # a = sqrt(3) squares to just under P + 1 at P = 2; a^2 = 2 is far under it at P = 3
        vs_config(a=math.sqrt(3.0), power=2.0).validate()
        symmetric_general_config(math.sqrt(3.0), 2.0, 1.0).validate()
        with pytest.raises(ConfigError, match=r"^very-strong condition a\^2 >= P/sigma2 \+ 1 violated$"):
            vs_config(a=math.sqrt(2.0), power=3.0).validate()
        with pytest.raises(ConfigError, match="^no very-strong condition set holds for this config$"):
            symmetric_general_config(math.sqrt(2.0), 3.0, 1.0).validate()

    @settings(max_examples=200, deadline=None)
    @given(P=st.floats(0.01, 100.0), sigma2=st.floats(0.01, 10.0), step=st.sampled_from([0, -1, 1, None]),
           free=st.floats(0.1, 20.0))
    @example(P=2.0, sigma2=1.0, step=0, free=1.0)  # a = sqrt(3), below its bound by rounding
    def test_very_strong_schemes_agree(self, P, sigma2, step, free):
        """very-strong-sym and very-strong-general on the symmetric channel
        accept or refuse together: on the bound a^2 = P/sigma2 + 1 (at the
        noise floor max(sigma2, 1)), one ulp either side of it (step), or at
        any gain (step None)."""
        edge = math.sqrt(P / max(sigma2, 1.0) + 1.0)
        a = {0: edge, -1: math.nextafter(edge, 0.0), 1: math.nextafter(edge, math.inf)}.get(step, free)
        verdicts = []
        for cfg in (vs_config(a=a, power=P, sigma2=sigma2, rates=[0.1]), symmetric_general_config(a, P, sigma2)):
            try:
                cfg.validate()
                verdicts.append(True)
            except ConfigError:
                verdicts.append(False)
        assert verdicts[0] == verdicts[1], (a, P, sigma2)

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
        # fields the scheme does not read: without the refusal each ran as if it were absent
        pytest.param(layered_config(power=1e6), "layered-sym does not read 'power'", id="layered-sym-power"),
        pytest.param(layered_config(sigma2s=[5.0] * 3), "layered-sym does not read 'sigma2s'",
                     id="layered-sym-sigma2s"),
        pytest.param(layered_config(powers=[1.0, 2.0, 3.0]), "layered-sym does not read 'powers'",
                     id="layered-sym-powers"),
        pytest.param(layered_config(h=[[1, 9, 9], [9, 1, 9], [9, 9, 1]]), "layered-sym does not read 'h'",
                     id="layered-sym-h"),
        pytest.param(SimConfig(scheme="p2p", n=4, trials=100, master_seed=0, rates=[0.5], power=3.0, a=2.0, N=3),
                     "p2p does not read 'a'", id="p2p-a"),
        pytest.param(SimConfig(scheme="p2p", n=4, trials=100, master_seed=0, rates=[0.5], power=3.0, N=3),
                     "p2p does not read 'N'", id="p2p-N"),
        pytest.param(SimConfig(scheme="p2p", n=4, trials=100, master_seed=0, rates=[0.5], power=3.0, genie=True),
                     "p2p does not read 'genie'", id="p2p-genie"),
        pytest.param(vs_config(N=2), "very-strong-sym does not read 'N'", id="very-strong-sym-N"),
        pytest.param(vsg_config(a=2.0), "very-strong-general does not read 'a'", id="very-strong-general-a"),
        # sigma2s = [sigma2] * 3 says the same, so a second noise field could only lose silently
        pytest.param(vsg_config(sigma2=2.0), "very-strong-general does not read 'sigma2'",
                     id="very-strong-general-sigma2"),
        pytest.param(vsg_config(sigma2=5.0, sigma2s=[1.0] * 3), "very-strong-general does not read 'sigma2'",
                     id="very-strong-general-sigma2-and-sigma2s"),
        # seeds -1 and 2**63 - 1 once shared every draw
        pytest.param(vs_config(master_seed=-1), "master_seed must be nonnegative", id="negative-seed"),
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

    # very-strong-general reads its noise from sigma2s alone; a config that spells
    # out sigma2 at its default of 1 sets nothing, so it still validates
    @pytest.mark.parametrize("cfg", [vsg_config(sigma2=1.0, sigma2s=[2.0] * 3), vsg_config(sigma2s=[1.0, 2.0, 3.0])],
                             ids=["sigma2", "sigma2s"])
    def test_general_noise_fields_accepted(self, cfg):
        cfg.validate()

    def test_layer_miss_designs_no_later_lattice(self, monkeypatch):
        """A candidate whose first layer misses its codebook size designs
        one lattice, not one per layer, and runs nothing."""
        codes = []
        make = latticeic.simulate.make_linear_code
        build = latticeic.simulate.build_codebook
        monkeypatch.setattr(latticeic.simulate, "make_linear_code", lambda *args: codes.append(args) or make(*args))
        monkeypatch.setattr(latticeic.simulate, "build_codebook",
                            lambda *args, **kw: dataclasses.replace(build(*args, **kw), target_met=False))
        with pytest.raises(ConfigError, match="^no candidate lattice met"):
            run_simulation(layered_config(N=2, rates=[0.2, 0.2], search_budget=3))
        assert len(codes) == 3

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
            sigma2s=[1e-6] * 3,
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


def sphere_bound(n: int, power: float, rate: float, sigma2: float) -> float:
    """Pr(chi2_n > n P / (sigma2 4^R)) for even n: the probability that the noise leaves a ball
    of the Voronoi cell's volume, which `_cell_scale` sets to the shaping-sphere volume per
    codeword, so a lower bound on a full-lattice decoder's block error."""
    half = n * power / (sigma2 * 4.0**rate) / 2.0
    return math.exp(-half) * sum(half**j / math.factorial(j) for j in range(n // 2))


# configs at unit scale, with their (interference, message, block) errors at every scale of P and sigma2
SCALE_FREE = {
    "p2p": (dict(scheme="p2p", n=4, master_seed=1, rates=[1.0], power=15.0, sigma2=2.0), ([0], [39], 39)),
    "very-strong-sym": (dict(scheme="very-strong-sym", n=6, master_seed=1, rates=[0.5], a=2.0, power=3.0, sigma2=1.0),
                        ([12], [27], 27)),
    "very-strong-sym-genie": (dict(scheme="very-strong-sym", n=6, master_seed=1, rates=[0.5], a=2.0, power=3.0,
                                   sigma2=1.0, genie=True), ([12], [15], 15)),
    "very-strong-general": (dict(scheme="very-strong-general", n=6, master_seed=2, rates=[0.3] * 3, powers=[3.0] * 3,
                                 sigma2s=[1.0] * 3, h=[[1, 9, 9], [9, 1, 9], [9, 9, 1]], search_budget=3),
                            ([0], [8], 8)),
}


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
@pytest.mark.parametrize("name", sorted(SCALE_FREE))
def test_error_counts_are_scale_free(name, c):
    """Scaling every power and noise by c leaves the SNR, and so every count,
    unchanged: decodes are judged on their lattice's own scale."""
    kw, want = SCALE_FREE[name]
    kw = {"trials": 200, "search_budget": 2, **kw}
    for key in ("power", "sigma2"):
        if key in kw:
            kw[key] *= c
    for key in ("powers", "sigma2s"):
        if key in kw:
            kw[key] = [v * c for v in kw[key]]
    stats = run_simulation(SimConfig(**kw))
    assert (stats.per_stage_interference_errors, stats.per_stage_message_errors, stats.block_errors) == want


@pytest.mark.parametrize("sigma2", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_p2p_respects_sphere_bound(n, sigma2):
    """No p2p run reports a Wilson upper bound below the sphere bound, a
    converse that no lattice decoder beats; a run whose noise falls short of
    sigma2 would."""
    cfg = SimConfig(scheme="p2p", n=n, trials=1000, master_seed=n, rates=[1.0], power=15.0, sigma2=sigma2,
                    search_budget=2)
    assert run_simulation(cfg).wilson_interval[1] >= sphere_bound(n, 15.0, 1.0, sigma2)


class TestVoronoiErrors:
    """p2p's error mask, a test of the Voronoi cell with the full-lattice
    decoder as its fallback, counts the errors that decoder counts."""

    @staticmethod
    def short_vectors(lat):
        """The nonzero vectors of the unit-scale lattice with squared norm at most p^2 (p e_i is one)."""
        unit = Lattice(lat.code, 1.0)
        _, vecs = _enumerate_shifted_spheres(unit, np.zeros((1, lat.n)), (lat.p**2 + 0.5) / lat.n)
        return vecs[np.any(vecs != 0, axis=1)]

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 40),
        noise=st.floats(-12.0, 1.0),
        scale=st.sampled_from([1.0, 1e-7, 1e12]),
        **lattice_params,
    )
    @example(n=2, p=5, k_frac=0.0, seed=0, gamma=1.0, rows=20, noise=-0.5, scale=1.0)
    @example(n=6, p=13, k_frac=0.5, seed=1, gamma=0.7, rows=30, noise=-1.0, scale=1e-7)
    def test_equals_full_decode(self, n, p, k_frac, seed, gamma, rows, noise, scale):
        # noise per coordinate from 1e-12 to 10 times the coarse cell gamma*p, past the cap
        lat = scale_lattice(reference_lattice(n, p, int(k_frac * n), seed, gamma), scale)
        rng = np.random.default_rng(seed)
        step = lat.gamma * lat.p
        shift = rng.uniform(0, step, size=n)
        words = lat.code.codewords[rng.integers(0, len(lat.code.codewords), size=rows)]
        x = lat.gamma * (words + lat.p * rng.integers(-3, 4, size=(rows, n))) + shift
        y = x + rng.normal(size=(rows, n)) * step * 10.0**noise
        # constructed exact ties: halfway to a shortest vector, and a midpoint within one coset
        vecs = self.short_vectors(lat)
        v = vecs[np.argmin(np.einsum("ij,ij->i", vecs, vecs))]
        i = int(rng.integers(0, n))
        ties = np.array([x[0] + lat.gamma * v / 2, x[0] + step / 2 * np.eye(n)[i]])
        # the midpoint is a tie unless some v has |v|^2 < p v_i, and any such v is shorter than p
        coset_tie = not np.any(np.einsum("ij,ij->i", vecs, vecs) < lat.p * vecs[:, i])
        x, y = np.concatenate([x, x[:1], x[:1]]), np.concatenate([y, ties])
        want = _rows_differ(_nearest_on_lattice(lat, shift, y), x, lat.gamma)
        decoded = []

        def spy(lat_, shift_, ys):
            decoded.extend(map(tuple, ys))
            return _nearest_on_lattice(lat_, shift_, ys)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(latticeic.simulate, "_nearest_on_lattice", spy)
            got = _voronoi_errors(lat, shift, x, y)
        assert np.array_equal(got, want)
        assert tuple(y[rows]) in decoded
        if coset_tie:
            assert tuple(y[rows + 1]) in decoded

    def test_low_noise_rows_skip_the_decoder(self, monkeypatch):
        # a (13, 4) code at n = 8, as in p2p's largest candidates: no row needs the 13^4-coset scan
        cb = build_codebook(Lattice(make_linear_code(8, 4, 13, seed=3), 0.5), 2.0, 0.5, shift_trials=2, seed=3)
        y = cb.words + np.random.default_rng(3).normal(size=cb.words.shape) * 0.05
        monkeypatch.setattr(latticeic.simulate, "nearest_points_batch", None)
        assert not _voronoi_errors(cb.lattice, cb.shift, cb.words, y).any()

    def test_rows_whose_band_reaches_half_take_the_decoder(self, monkeypatch):
        # 5e6 lattice units from the origin B is about 0.8: past 1/2, where the left-row argument
        # fails, but below the cap, so only the band rule sends these rows to the decoder
        lat, shift = Lattice(make_linear_code(2, 1, 5, seed=1), 0.5), np.array([0.1, 0.2])
        rng = np.random.default_rng(0)
        x = lat.gamma * (lat.code.codewords[rng.integers(0, 5, size=10)] + 5 * rng.integers(-1, 2, size=(10, 2)))
        x[5:] += lat.gamma * 5 * 10**6
        x += shift
        y = x + rng.normal(size=x.shape) * 0.05
        decoded = []

        def spy(lat_, shift_, ys):
            decoded.append(len(ys))
            return _nearest_on_lattice(lat_, shift_, ys)

        want = _rows_differ(_nearest_on_lattice(lat, shift, y), x, lat.gamma)
        monkeypatch.setattr(latticeic.simulate, "_nearest_on_lattice", spy)
        assert np.array_equal(_voronoi_errors(lat, shift, x, y), want)
        assert decoded == [5]


# result-line SHA-256s recorded with the all-coset decoder, at noise up to past the cap of
# `_voronoi_errors` (every config at n >= 4 with sigma2 >= 5 needs the cap)
P2P_NOISE_PINNED = {
    (2, 5.0, 0.5): "1c583dd48b9cc9d62b3f5c0fe05ccc590dc8127ff1273d8db248db9a39fc92c5",
    (2, 5.0, 1.0): "ee8aa1f3a0b6722141c55b64df8716213dcc057e878c8d0e411e51155254bb1a",
    (2, 5.0, 2.0): "0b3e4b5955e03d97191bbf1902d71ea82f9a4feb3af0d0035c3d4928baf511de",
    (2, 50.0, 0.5): "7133ae3f34d6699639175582ee391956918c8a07c9a4173de54bb7d702954ae9",
    (2, 50.0, 1.0): "0c9da07c834674bb9d9dffb9894e457d1f5de283b13597ea4d5dc47126113a23",
    (2, 50.0, 2.0): "f4ca7e57ec51318d528445cc0463ac9961ace073a457958becb6bead3fc6bf31",
    (2, 1000.0, 0.5): "0b5729e939d25d0d0ac2896541625dcd5cdbb8393688f5c62fe904664b2bf859",
    (2, 1000.0, 1.0): "655525a238df3e38ffe10bdea303e39a125c216127910962eda9824395e34d0b",
    (2, 1000.0, 2.0): "5112c131f9b63197cc7cc491bd6b03603a42a008b6a45680bab75c57a06f16e6",
    (4, 5.0, 0.5): "cabd27853f69926ae220e094084b89c35dde1c52a91755e4b35209c7f284aba6",
    (4, 5.0, 1.0): "dbcfaa049ddcdab3011da2ab5c1675878886226312d6595b2ad1f64d094730ca",
    (4, 5.0, 2.0): "f3dd3570f5865a517f0efb985935a6151b62411e2c6ba1332097da3511a99fcf",
    (4, 50.0, 0.5): "dfac22ab3975470df3246b7be47825fc5f91eec530fd601f2f5da6578868dd0b",
    (4, 50.0, 1.0): "7f2ea712dece8933ea25d112a1eda42d0077f7e2d6ed657a55b992f843bdac83",
    (4, 50.0, 2.0): "bd459a66023effacd0807dd3e9192a3bddfa0e59ca67a7ba59c4d3a345b6bb13",
    (4, 1000.0, 0.5): "7932fa93f98e6c89b82711d31bd86e8da135a5b509a9c412b554d75c738a41e3",
    (4, 1000.0, 1.0): "2c7000df15303322aeb5c405bf7c1aff57ed07366219b148a3783a3be58c15d4",
    (4, 1000.0, 2.0): "14672ae2cb7259320115d05e0262d12fece776f955d2ed2de45e2a7844ebe0cb",
    (8, 5.0, 0.5): "557747989c773c2367e85002872d6deb46a90019e1c08f37317c430011018292",
    (8, 5.0, 1.0): "111f07fd20db03b295c2f3785f75c32537462bbdd73e64ce3700721fa5e445e9",
    (8, 5.0, 2.0): "df9c490cfd06308963616b8f39916bbc75f0ce62057a07aea1dc1e43621f442a",
    (8, 50.0, 0.5): "1dcbc8b4de5dc278d0e5e75305486a799dc3e14a2e59fe0ead3d9752b2813625",
    (8, 50.0, 1.0): "1aac191a9988edcfc21eea4b54432700bd8892eab3ec71bd2faf3d3bc0e16a49",
    (8, 50.0, 2.0): "e0829023cc29e8263a02da5ae3772662d3cdf8c510ba1225500458189412a4cd",
    (8, 1000.0, 0.5): "5a9b254620ad1f25d1185419c2c9a214a80878d751390ed83eb60b563aed37ec",
    (8, 1000.0, 1.0): "7c30d9c4c3b914ed8cfc1fb6166d42fc45f2c092d8ddabf1f328b1c97dc687c7",
    (8, 1000.0, 2.0): "d3c1233b249421c723fb8a0896166518a2d2c916feae7666ee9e4c0b5ba1df18",
    (10, 5.0, 0.5): "5fa504b394f360805dc0a5e9c1e9008e14e129abaea23ac97d0376696b5934d8",
    (10, 5.0, 1.0): "cc63aede1db2c1943c31d2c1f8e802dade4a7b27310b8936d68a1b9781317455",
    (10, 50.0, 0.5): "141d73c72f156d2da94bcbedf52cc1a6c01561edbf97f87af3a239d1fdaf483e",
    (10, 50.0, 1.0): "d699dadf6f16992a5693c93883bde7c026002328f732f545916d72f57293a409",
    (10, 1000.0, 0.5): "5a8d2249895af9ec2b735dc0cb0ae388bca88f46a32b01aa5945f57f2b0e4fed",
    (10, 1000.0, 1.0): "80d989e46021a41cfe3cf3928046fd61844b96855d0d60ad1fa3ddfceee7ccfe",
}


@pytest.mark.parametrize("n, sigma2, rate", sorted(P2P_NOISE_PINNED))
def test_high_noise_p2p_pinned(n, sigma2, rate):
    cfg = SimConfig(scheme="p2p", n=n, trials=100, master_seed=n, rates=[rate], power=15.0, sigma2=sigma2,
                    search_budget=2)
    line = run_simulation(cfg).to_json_line(cfg)
    assert hashlib.sha256(line.encode()).hexdigest() == P2P_NOISE_PINNED[n, sigma2, rate]


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
    """`_distinct_points`, the one dedupe of both sumsets: the distinct rows of
    their integer coordinates on the aggregate lattice, mapped back."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), m=st.integers(1, 44), seed=st.integers(0, 2**32 - 1),
           gamma=st.sampled_from([1.0, 0.5, 0.75, 1e-12, 1e12]))
    def test_equals_np_unique(self, n, m, seed, gamma):
        # lattice words with many coinciding pair sums, each off its point by a few ulps or zero
        rng = np.random.default_rng(seed)
        lat, shift = Lattice(full_code(n, 5), gamma), rng.choice([0.0, 0.3]) * gamma * rng.uniform(size=n)
        words = gamma * rng.integers(-2, 3, size=(m, n)) + shift
        words *= 1.0 + rng.choice([0.0, 1e-15, -1e-15], size=words.shape)
        iu = np.triu_indices(m)
        x = words[iu[0]] + words[iu[1]]
        got = _distinct_points(x, lat, 2 * shift)
        want = gamma * np.unique(np.rint((x - 2 * shift) / gamma), axis=0) + 2 * shift
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_signed_zeros_merge_into_positive_zero(self):
        # -0.0 and +0.0 coordinates are one point, and so are rows a few ulps off one lattice point
        lat = Lattice(full_code(2, 5), 1e-12)
        x = np.array([[-1e-25, 1e-12], [1e-25, 1e-12], [0.0, 1e-12], [-0.0, -2e-12]])
        got = _distinct_points(x, lat, np.zeros(2))
        assert np.array_equal(got, [[0.0, -2e-12], [0.0, 1e-12]])
        assert not np.signbit(got[got == 0]).any()
        point = np.array([3.0, -7.0]) * 1e12 + 0.25e12
        x = point + np.array([[0, 0], [1, -2], [-3, 1]]) * np.spacing(point)
        assert np.array_equal(_distinct_points(x, Lattice(full_code(2, 5), 1e12), np.full(2, 0.25e12)), [point])

    def test_both_sumsets_use_it(self, monkeypatch):
        calls = []

        def spy(x, lat, shift):
            calls.append(x.shape)
            return _distinct_points(x, lat, shift)

        monkeypatch.setattr(latticeic.simulate, "_distinct_points", spy)
        words = np.arange(12.0).reshape(4, 3)
        _pair_sums(words, Lattice(full_code(3, 5), 1.0), np.zeros(3))
        assert calls == [(10, 3)]  # the 4 * 5 / 2 unordered pairs with repetition
        calls.clear()
        cfg = SimConfig(scheme="very-strong-general", n=4, trials=100, master_seed=2, rates=[0.3] * 3,
                        powers=[3.0] * 3, h=[[1, 4, 4], [4, 1, 4], [4, 4, 1]], search_budget=1)
        stats = run_simulation(cfg)
        # one grid sumset of user 2's and user 3's words per candidate run
        assert len(calls) == stats.meta["candidates_run"] == 1 and calls[0][1] == 4


class TestAlignment:
    def test_symmetric_channel_aligns_trivially(self):
        base = Lattice(make_linear_code(2, 1, 5, seed=1), 0.7)
        l1, l2, l3 = align_interference_lattices(symmetric_channel(2.0), base)
        assert l1.gamma == l2.gamma == l3.gamma == base.gamma

    def test_scale_factors_satisfy_all_three_equalities(self):
        h = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 3.0], [1.0, 1.0, 1.0]])
        ch = ChannelMatrix3(h, h1_witness=(6, 1))
        base = Lattice(make_linear_code(2, 1, 5, seed=2), 1.0)
        l1, l2, l3 = align_interference_lattices(ch, base)
        f1, f2, f3 = l1.gamma, l2.gamma, l3.gamma
        assert abs(h[0, 1]) * f2 == pytest.approx(6 * abs(h[0, 2]) * f3, rel=1e-12)
        assert abs(h[1, 0]) * f1 == pytest.approx(1 * abs(h[1, 2]) * f3, rel=1e-12)
        assert abs(h[2, 0]) * f1 == pytest.approx(abs(h[2, 1]) * f2, rel=1e-12)

    def test_random_witnessed_matrices_align(self):
        rng = np.random.default_rng(6)
        base = Lattice(make_linear_code(2, 1, 5, seed=3), 1.0)
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
        base = Lattice(make_linear_code(2, 1, 5, seed=4), 1.0)
        with pytest.raises(ValueError):
            align_interference_lattices(ch, base)

    def test_inconsistent_witness_rejected(self):
        # true ratio is 6; witness (2, 1) breaks the third equality
        h = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 3.0], [1.0, 1.0, 1.0]])
        ch = ChannelMatrix3(h, h1_witness=(2, 1))
        base = Lattice(make_linear_code(2, 1, 5, seed=5), 1.0)
        with pytest.raises(ValueError):
            align_interference_lattices(ch, base)

    def test_aggregate_interference_closure(self):
        # the sum of two shifted codewords, minus both shifts, stays on the
        # lattice, so the scaled aggregate lies on the scaled lattice
        a = 2.0
        lat = Lattice(make_linear_code(3, 2, 5, seed=7), 0.8)
        cb = build_codebook(lat, power=6.0, target_rate=0.25, shift_trials=4, seed=7)
        rng = np.random.default_rng(8)
        lat_a = scale_lattice(lat, a)
        for _ in range(50):
            w2, w3 = cb.words[rng.integers(0, len(cb), size=2)]
            assert is_lattice_point(lat, w2 + w3 - 2 * cb.shift)
            assert is_lattice_point(lat_a, a * (w2 + w3 - 2 * cb.shift))


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
