"""Acceptance gate: one test (and one printed verdict line) per criterion.

Monte Carlo thresholds are pre-registered from calibration runs of this
simulator; they are desk-scale property checks, not asymptotic claims.
"""

import json
import math

import numpy as np
import pytest

from latticeic.channel import ChannelMatrix3, class_h1_membership
from latticeic.cli import EXIT_OK, main
from latticeic.lattice import (
    Lattice,
    count_points_in_box,
    fundamental_volume,
    is_lattice_point,
    make_linear_code,
    nearest_point,
    scale_lattice,
)
from latticeic.rates import (
    dof_nonsym_numeric,
    dof_symmetric,
    hk_sym_rate,
    layered_allocation_symmetric,
    nonsym_layered_allocation,
    sym_rate_lattice,
    threshold_power,
)
from latticeic.simulate import SimConfig, align_interference_lattices, run_simulation


def verdict(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_1_dof_formula_suite():
    failures = []
    # branch-by-branch spot checks against independent evaluations
    if dof_symmetric(10.0) != pytest.approx(3 * math.log(9) / math.log(190), rel=1e-12):
        failures.append("strong branch value at a2=10")
    if dof_symmetric(0.1) != pytest.approx(3 * math.log(4.5) / math.log(55), rel=1e-12):
        failures.append("weak branch value at a2=0.1")
    for a2 in np.linspace(1 / 3, 2, 50):
        if dof_symmetric(float(a2)) != 1.0:
            failures.append(f"band value not exactly 1 at a2={a2}")
            break
    for a2 in (1e6, 1e-6):
        val = dof_symmetric(a2)
        if abs(val - 1.5) > 0.02:
            failures.append(f"dof({a2}) = {val:.4f} not within 0.02 of 1.5")
    verdict(1, "DoF formula suite", failures)


def test_criterion_1_supplement_dof_limit_far_field():
    # the 3/2 limit is reached to the 0.02 tolerance only around a2 = 1e12
    assert abs(dof_symmetric(1e12) - 1.5) < 0.02
    assert abs(dof_symmetric(1e-12) - 1.5) < 0.02


def test_criterion_2_ladder_identity():
    failures = []
    for a2 in (2.5, 3.0, 10.0):
        for N in range(1, 21):
            P = layered_allocation_symmetric(a2, N).powers
            for i in range(N):
                below = (2 * a2 + 1) * P[i + 1 :].sum() + 1.0
                if abs(P[i] / below - (a2 - 1.0)) > 1e-10 * (a2 - 1.0):
                    failures.append(f"identity broken at a2={a2}, N={N}, stage {i + 1}")
            if P.sum() > (2 * a2**2 - a2) ** N * (1 + 1e-12):
                failures.append(f"total power bound broken at a2={a2}, N={N}")
    verdict(2, "ladder identity", failures)


def test_criterion_3_piecewise_rate_consistency():
    failures = []
    for a2 in (2.5, 3.0, 10.0, 0.25, 0.1):
        for N in range(1, 11):
            total = float(layered_allocation_symmetric(a2, N).powers.sum())
            if abs(threshold_power(a2, N) - total) > 1e-10 * max(total, 1.0):
                failures.append(f"threshold mismatch at a2={a2}, N={N}")
    if abs(sym_rate_lattice(3.0, 32.0).per_user_rates[0] - 1.0) > 1e-12:
        failures.append("sym rate at (a2=3, P=32) is not 1 bit")
    for a2 in (2.5, 3.0):
        for N in (1, 2, 3):
            P = threshold_power(a2, N)
            below = sym_rate_lattice(a2, P * (1 - 1e-11)).per_user_rates[0]
            at = sym_rate_lattice(a2, P).per_user_rates[0]
            if abs(below - at) > 1e-9:
                failures.append(
                    f"left-discontinuity {below - at:.6f} at a2={a2}, N={N}"
                )
    verdict(3, "piecewise symmetric rate consistency", failures)


def test_criterion_4_lattice_property_suite():
    failures = []
    rng = np.random.default_rng(1234)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        p = int(rng.choice([3, 5, 7]))
        k = int(rng.integers(0, n + 1))
        gamma = float(rng.uniform(0.3, 2.0))
        lat = Lattice(make_linear_code(n, k, p, rng), gamma)
        words = lat.code.codewords
        pts = lat.gamma * (
            words[rng.integers(0, len(words), size=100)]
            + lat.p * rng.integers(-4, 5, size=(100, n))
        )
        for x, y in zip(pts, pts[::-1]):
            if not (is_lattice_point(lat, x + y) and is_lattice_point(lat, -x)):
                failures.append(f"closure broken (lattice {trial})")
                break
        for _ in range(10):
            y = rng.normal(scale=3 * gamma, size=n)
            q = nearest_point(lat, y)
            if not np.allclose(nearest_point(lat, q), q, atol=1e-9):
                failures.append(f"idempotence broken (lattice {trial})")
        for lam in pts[:10]:
            if not np.allclose(nearest_point(lat, lam), lam, atol=1e-9):
                failures.append(f"fixed point broken (lattice {trial})")
        L = 60.5 * gamma * p
        density = count_points_in_box(lat, L) * fundamental_volume(lat) / (2 * L) ** n
        if abs(density - 1.0) > 0.05:
            failures.append(f"density {density:.3f} off by >5% (lattice {trial})")
        a, b = 1.6, -0.7
        two = scale_lattice(scale_lattice(lat, a), b)
        one = scale_lattice(lat, a * b)
        for y in rng.normal(scale=3 * gamma, size=(100, n)):
            if is_lattice_point(two, y) != is_lattice_point(one, y):
                failures.append(f"scaling composition broken (lattice {trial})")
                break
    verdict(4, "lattice/quantizer property suite", failures)


def test_criterion_5_alignment_suite():
    failures = []
    rng = np.random.default_rng(55)
    base = Lattice(make_linear_code(2, 1, 5, seed=0), 1.0)
    for trial in range(20):
        p = int(rng.integers(1, 8))
        q = int(rng.integers(1, 8))
        g = math.gcd(p, q)
        p, q = p // g, q // g
        h12, h21, h23, h32, h13 = rng.integers(1, 7, size=5).astype(float)
        h31 = (p / q) * h21 * h32 * h13 / (h12 * h23)
        h = np.array([[1, h12, h13], [h21, 1, h23], [h31, h32, 1.0]])
        ch = ChannelMatrix3(h)
        if ch.h1_witness != (p, q):
            failures.append(f"witness {ch.h1_witness} derived for the ratio {p}/{q} at trial {trial}")
            continue
        l1, l2, l3 = align_interference_lattices(ch, base)
        checks = [
            (abs(h[0, 1]) * l2.gamma, p * abs(h[0, 2]) * l3.gamma),
            (abs(h[1, 0]) * l1.gamma, q * abs(h[1, 2]) * l3.gamma),
            (abs(h[2, 0]) * l1.gamma, abs(h[2, 1]) * l2.gamma),
        ]
        for lhs, rhs in checks:
            if abs(lhs - rhs) > 1e-9 * max(lhs, rhs):
                failures.append(f"alignment residual at trial {trial}")
    for irr in (math.sqrt(2), math.sqrt(3), math.pi, math.e, math.sqrt(5)):
        h = np.array([[1.0, irr, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        if class_h1_membership(h) is not None:
            failures.append(f"irrational ratio {irr} accepted")
        else:
            try:
                align_interference_lattices(ChannelMatrix3(h), base)
                failures.append(f"alignment accepted without witness ({irr})")
            except ValueError:
                pass
    verdict(5, "alignment suite", failures)


def test_criterion_6_symmetric_reduction_oracle():
    failures = []
    for a2 in (3.0, 10.0):
        a = math.sqrt(a2)
        for N in range(1, 11):
            alloc = nonsym_layered_allocation(a, a, a, N)
            sym = layered_allocation_symmetric(a2, N)
            for j in range(3):
                if not np.allclose(alloc.powers[j], sym.powers, rtol=1e-9):
                    failures.append(f"power mismatch at a2={a2}, N={N}, user {j + 1}")
                if not np.allclose(alloc.rates[j], sym.rates, rtol=1e-9):
                    failures.append(f"rate mismatch at a2={a2}, N={N}, user {j + 1}")
    a = math.sqrt(10.0)
    if abs(dof_nonsym_numeric(a, a, a, 40) - dof_symmetric(10.0)) > 0.01:
        failures.append("numeric DoF off the closed form by >0.01")
    verdict(6, "symmetric-reduction oracle", failures)


def test_criterion_7_monte_carlo_validation():
    failures = []

    # (a) noiseless-hook runs: zero errors
    noiseless = [
        SimConfig(scheme="p2p", n=8, trials=400, master_seed=11, rates=[1.0], power=15.0, sigma2=1e-6),
        SimConfig(scheme="very-strong-sym", n=8, trials=400, master_seed=11, rates=[0.6], power=3.0, sigma2=1e-6, a=20.0),
        SimConfig(scheme="layered-sym", n=6, trials=400, master_seed=11, rates=[0.3, 0.3], sigma2=1e-6, a=5.0, N=2),
    ]
    for cfg in noiseless:
        stats = run_simulation(cfg)
        if stats.block_errors or any(stats.per_stage_message_errors) or any(stats.per_stage_interference_errors):
            failures.append(f"noiseless {cfg.scheme} run had errors")

    # (b) single-user run below capacity
    stats = run_simulation(
        SimConfig(scheme="p2p", n=8, trials=2000, master_seed=7, rates=[1.0], power=15.0, search_budget=20)
    )
    if stats.block_error_rate > 0.2:
        failures.append(f"p2p block error {stats.block_error_rate:.4f} > 0.2")

    # (c) very-strong symmetric below the single-layer rate
    stats = run_simulation(
        SimConfig(scheme="very-strong-sym", n=8, trials=2000, master_seed=7, rates=[0.6], power=3.0, a=2.0, search_budget=20)
    )
    if stats.block_error_rate > 0.2:
        failures.append(f"very-strong block error {stats.block_error_rate:.4f} > 0.2")

    # (d) above-capacity inversion: rate 1.5 against capacity 1 bit/dim
    stats = run_simulation(
        SimConfig(scheme="very-strong-sym", n=8, trials=2000, master_seed=7, rates=[1.5], power=3.0, a=2.0, search_budget=10)
    )
    if stats.block_error_rate < 0.5:
        failures.append(f"above-capacity block error {stats.block_error_rate:.4f} < 0.5")

    # (e) error rate nonincreasing in SNR up to Wilson overlap
    sweep = []
    for s2 in (2.0, 1.0, 0.5):
        sweep.append(
            run_simulation(
                SimConfig(scheme="p2p", n=8, trials=800, master_seed=5, rates=[1.0], power=15.0, sigma2=s2, search_budget=1)
            )
        )
    for worse, better in zip(sweep, sweep[1:]):
        ok = better.block_error_rate <= worse.block_error_rate or (
            better.wilson_interval[0] <= worse.wilson_interval[1]
        )
        if not ok:
            failures.append("block error increased with SNR beyond Wilson overlap")
    verdict(7, "Monte Carlo validation", failures)


def test_criterion_8_baseline_comparison():
    failures = []
    a = 2.5
    Ps = np.logspace(0, 6, 25)
    gaps = {}
    for P in Ps:
        r_lat = sym_rate_lattice(a * a, float(P)).per_user_rates[0]
        r_hk = hk_sym_rate(float(P), 1.0, a)
        gaps[float(P)] = r_lat - r_hk
    crossover = None
    for P in sorted(gaps):
        if gaps[P] > 0 and all(gaps[Q] > 0 for Q in gaps if Q >= P):
            crossover = P
            break
    if crossover is None:
        failures.append("no crossover: lattice never dominates the baseline")
    elif crossover > 10.0:
        failures.append(f"crossover {crossover:.2f} unexpectedly late")
    # gap trend over the top two decades (the curve saw-tooths at the
    # layer thresholds, so compare per-decade maxima and the endpoints)
    d1 = max(g for P, g in gaps.items() if 1e4 <= P < 1e5)
    d2 = max(g for P, g in gaps.items() if 1e5 <= P <= 1e6)
    if not d2 > d1:
        failures.append("per-decade max gap not increasing over the top two decades")
    if not gaps[float(Ps[-1])] > gaps[min(P for P in gaps if P >= 1e4)]:
        failures.append("gap at 1e6 not above gap at 1e4")
    verdict(8, "baseline comparison sweep", failures)


def test_criterion_9_manifest_determinism(tmp_path):
    failures = []

    def rerun(argv, out):
        if main(argv) != EXIT_OK:
            return "exit code"
        blob = out.read_bytes()
        manifest = (out.parent / (out.name + ".manifest.json")).read_bytes()
        if main(argv) != EXIT_OK:
            return "exit code on re-run"
        if out.read_bytes() != blob or (out.parent / (out.name + ".manifest.json")).read_bytes() != manifest:
            return "outputs not byte-identical"
        return None

    out = tmp_path / "curve.csv"
    err = rerun(["dof-curve", "--a2-min", "0.1", "--a2-max", "100", "--steps", "40", "--log-axis", "--out", str(out)], out)
    if err:
        failures.append(f"dof-curve: {err}")

    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            dict(scheme="very-strong-sym", n=4, trials=200, master_seed=3, rates=[0.25], power=3.0, a=4.0, search_budget=2)
        )
    )
    out = tmp_path / "run.jsonl"
    argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    err = rerun(argv, out)
    if err:
        failures.append(f"simulate: {err}")
    else:
        blob = out.read_bytes()
        out.unlink()
        if main(["replay", str(tmp_path / "run.jsonl.manifest.json")]) != EXIT_OK:
            failures.append("replay: exit code")
        elif out.read_bytes() != blob:
            failures.append("replay: output not byte-identical")
    verdict(9, "manifest determinism", failures)
