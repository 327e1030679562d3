"""Lattice construction, quantization and codebook extraction."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeic import lattice
from latticeic.lattice import (
    MAX_SPHERE_POINTS,
    Codebook,
    Lattice,
    LinearCode,
    build_codebook,
    count_points_in_box,
    fundamental_volume,
    is_lattice_point,
    is_prime,
    make_linear_code,
    nearest_point,
    nearest_points_batch,
    scale_lattice,
    _enumerate_shifted_spheres,
)


def zero_code(n, p):
    return LinearCode(n, 0, p, np.zeros((0, n), dtype=np.int64))


def full_code(n, p):
    return LinearCode(n, n, p, np.eye(n, dtype=np.int64))


# codes make_linear_code rarely draws at p >= 5: a zero first column, pivots
# {1, 3}, k = 0, k = n and n = 1, none with generators already in RREF
EXPLICIT_CODES = {
    "zero-first-column": LinearCode(4, 2, 5, np.array([[0, 2, 4, 1], [0, 3, 2, 1]])),
    "pivots-1-3": LinearCode(5, 2, 7, np.array([[0, 2, 6, 1, 2], [0, 1, 3, 3, 3]])),
    "k0": LinearCode(3, 0, 5, np.zeros((0, 3), dtype=np.int64)),
    "k-equals-n": LinearCode(3, 3, 5, np.array([[2, 1, 0], [1, 1, 3], [0, 4, 1]])),
    "n1": LinearCode(1, 1, 13, np.array([[6]])),
}


def lat_5z2():
    return Lattice(zero_code(2, 5), 1.0)


def lat_gen12():
    return Lattice(LinearCode(2, 1, 5, np.array([[1, 2]])), 1.0)


def brute_nearest(lat, y):
    """Independent nearest-point oracle: exhaustive integer box scan."""
    y = np.asarray(y, dtype=float)
    u = y / lat.gamma
    center = np.round(u).astype(int)
    radius = lat.p + 1
    best, best_d2 = None, math.inf
    ranges = [range(c - radius, c + radius + 1) for c in center]
    for v in itertools.product(*ranges):
        v = np.array(v)
        if not lat.code.contains(v % lat.p):
            continue
        d2 = float(np.sum((u - v) ** 2))
        if d2 < best_d2 - 1e-12 or (abs(d2 - best_d2) <= 1e-12 and tuple(v) < best):
            best, best_d2 = tuple(v), d2
    return lat.gamma * np.array(best, dtype=float)


def sample_lattice_points(lat, rng, count):
    words = lat.code.codewords
    idx = rng.integers(0, len(words), size=count)
    z = rng.integers(-4, 5, size=(count, lat.n))
    return lat.gamma * (words[idx] + lat.p * z)


def random_lattices(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        p = int(rng.choice([3, 5, 7]))
        k = int(rng.integers(0, n + 1))
        gamma = float(rng.uniform(0.3, 2.0))
        out.append(Lattice(make_linear_code(n, k, p, rng), gamma))
    return out


class TestLinearCode:
    def test_k0_only_zero_word(self):
        code = make_linear_code(2, 0, 5, seed=1)
        assert code.codewords.shape == (1, 2)
        assert not code.codewords.any()

    def test_full_rank_square_spans_everything(self):
        code = make_linear_code(2, 2, 5, seed=1)
        assert len(code.codewords) == 25

    def test_n4_k2_p7_cardinality_and_rank(self):
        code = make_linear_code(4, 2, 7, seed=42)
        # independent enumeration of all p**k coefficient combinations
        words = set()
        for c in itertools.product(range(7), repeat=2):
            words.add(tuple((np.array(c) @ code.generators) % 7))
        assert len(words) == 49
        assert len(code.codewords) == 49
        assert {tuple(w) for w in code.codewords} == words

    def test_explicit_codes_pivots(self):
        assert EXPLICIT_CODES["zero-first-column"]._rref[1] == [1, 2]
        assert EXPLICIT_CODES["pivots-1-3"]._rref[1] == [1, 3]

    # k = 0, k = n, two desk-scale codes, one whose p**n passes 2**63 and the explicit codes
    @pytest.mark.parametrize(
        "code",
        [
            pytest.param(make_linear_code(n, k, p, seed=n + k + p), id=f"{n}-{k}-{p}")
            for n, k, p in [(3, 0, 5), (4, 4, 5), (8, 4, 13), (10, 5, 11), (20, 3, 13)]
        ]
        + [pytest.param(code, id=name) for name, code in EXPLICIT_CODES.items()],
    )
    def test_codewords_in_unique_order(self, code):
        p, k = code.p, code.k
        coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64).reshape(p**k, k)
        words = (coeffs @ code.generators) % p
        assert np.array_equal(code.codewords, np.unique(words, axis=0))

    def test_deterministic_given_seed(self):
        a = make_linear_code(4, 2, 7, seed=5)
        b = make_linear_code(4, 2, 7, seed=5)
        assert np.array_equal(a.generators, b.generators)

    def test_rejects_nonprime_modulus(self):
        assert [p for p in range(-1, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        for p in (6, 9):
            with pytest.raises(ValueError, match="is not prime"):
                make_linear_code(3, 1, p, seed=0)
            with pytest.raises(ValueError, match="is not prime"):
                LinearCode(3, 1, p, np.array([[1, 0, 0]]))

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            make_linear_code(2, 3, 5, seed=0)
        for k in (-1, 3):
            with pytest.raises(ValueError, match="need 0 <= k <= n"):
                LinearCode(2, k, 5, np.eye(2))

    def test_rejects_wrong_generator_shape(self):
        for gens in (np.eye(2), np.ones((1, 3)), np.ones(2)):
            with pytest.raises(ValueError, match="generator shape"):
                LinearCode(2, 1, 5, gens)

    def test_enumeration_limit(self):
        code = LinearCode(7, 7, 13, np.eye(7))
        with pytest.raises(ValueError, match="exceeds enumeration limit"):
            code.codewords

    def test_rejects_dependent_generators(self):
        with pytest.raises(ValueError):
            LinearCode(2, 2, 5, np.array([[1, 2], [2, 4]]))

    def test_contains_matches_enumeration(self):
        code = make_linear_code(3, 2, 5, seed=7)
        members = {tuple(w) for w in code.codewords}
        for v in itertools.product(range(5), repeat=3):
            assert code.contains(np.array(v)) == (v in members)
        for word in (np.zeros(2), np.zeros(4)):
            with pytest.raises(ValueError, match="word length"):
                code.contains(word)


class TestConstructionA:
    def test_zero_code_gives_p_scaled_integers(self):
        lat = lat_5z2()
        assert is_lattice_point(lat, (5, 0))
        assert is_lattice_point(lat, (10, -5))
        assert not is_lattice_point(lat, (1, 0))

    def test_full_code_gives_all_integers(self):
        lat = Lattice(full_code(2, 5), 1.0)
        assert is_lattice_point(lat, (3, -7))
        assert not is_lattice_point(lat, (0.5, 0))

    def test_generator_coset_membership(self):
        # (6, 12) mod 5 = (1, 2), a codeword
        lat = lat_gen12()
        assert is_lattice_point(lat, (6, 12))
        assert not is_lattice_point(lat, (6, 11))

    def test_gamma_stored_as_python_float(self):
        for gamma in (np.float64(0.7), np.float32(0.5), 2):
            lat = Lattice(full_code(2, 5), gamma)
            assert type(lat.gamma) is float and lat.gamma == float(gamma)
        assert repr(Lattice(full_code(1, 5), np.float64(0.7))).endswith("gamma=0.7)")

    def test_rejects_nonpositive_gamma(self):
        # True was read as 1.0 and '2' raised TypeError
        for gamma in (0.0, -1.0, math.nan, math.inf, True, "2", None):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                Lattice(full_code(2, 5), gamma)
        # a scale factor that is not finite gives a non-finite gamma
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                scale_lattice(Lattice(full_code(2, 5), 1.0), c)


class TestIsLatticePoint:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_lattice_point(lat_5z2(), (1, 2, 3))

    def test_tolerance_band(self):
        # the band is 1e-9 in lattice units, whatever the scale
        for gamma in (1.0, 1e-12, 1e12):
            lat = Lattice(zero_code(2, 5), gamma)
            assert is_lattice_point(lat, (gamma * (5 + 1e-10), 0))
            assert not is_lattice_point(lat, (gamma * (5 + 1e-6), 0))


class TestNearestPoint:
    def test_integer_lattice_rounds_per_coordinate(self):
        lat = Lattice(full_code(2, 5), 1.0)
        assert np.array_equal(nearest_point(lat, (0.4, -0.7)), [0, -1])

    def test_tie_within_coset_takes_smaller_integer(self):
        # (2.5, 0) is equidistant from (0,0) and (5,0)
        assert np.array_equal(nearest_point(lat_5z2(), (2.5, 0)), [0, 0])

    def test_tie_between_cosets_matches_batch(self):
        # (-0.5, -1) is equidistant from (0, 0) and (-1, -2), of the codewords (0, 0) and (4, 3)
        lat, y = lat_gen12(), np.array([-0.5, -1.0])
        assert np.array_equal(nearest_point(lat, y), nearest_points_batch(lat, y[None])[0])
        assert np.array_equal(nearest_point(lat, y), [0, 0])

    def test_coset_lattice_example(self):
        assert np.array_equal(nearest_point(lat_gen12(), (1.1, 2.2)), [1, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nearest_point(lat_5z2(), (1, 2, 3))

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for lat in random_lattices(6, seed=11):
            for _ in range(10):
                y = rng.normal(scale=3 * lat.gamma, size=lat.n)
                got = nearest_point(lat, y)
                want = brute_nearest(lat, y)
                assert np.allclose(got, want, atol=1e-9), (lat, y)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        lat = lat_gen12()
        ys = rng.normal(scale=4, size=(20, 2))
        batch = nearest_points_batch(lat, ys)
        for y, b in zip(ys, batch):
            assert np.allclose(b, nearest_point(lat, y))


class TestFundamentalVolume:
    def test_integer_lattice(self):
        assert fundamental_volume(Lattice(full_code(2, 5), 1.0)) == 1.0

    def test_scaled_coset_lattice(self):
        lat = Lattice(LinearCode(2, 1, 5, np.array([[1, 2]])), 0.5)
        assert fundamental_volume(lat) == pytest.approx(1.25)

    def test_p_scaled_integer_lattice(self):
        assert fundamental_volume(lat_5z2()) == 25.0


class TestBuildCodebook:
    def test_1d_integer_sphere(self):
        lat = Lattice(full_code(1, 5), 1.0)
        cb = build_codebook(lat, power=4.0, target_rate=1.0, shift=np.zeros(1))
        assert sorted(w[0] for w in cb.words) == [-2, -1, 0, 1, 2]
        assert cb.target_met

    def test_sphere_smaller_than_min_distance_flags_failure(self):
        cb = build_codebook(lat_5z2(), power=10.0, target_rate=0.5, shift=np.zeros(2))
        assert len(cb) == 1
        assert not cb.target_met

    def test_cardinality_tracks_volume_ratio(self):
        # V = 1.25, n = 2, P = 8: expected count ~ pi*n*P/V ~ 40.2
        lat = Lattice(LinearCode(2, 1, 5, np.array([[1, 2]])), 0.5)
        cb = build_codebook(lat, power=8.0, target_rate=2.5, shift_trials=8, seed=0)
        assert 25 <= len(cb) <= 60
        assert cb.target_met  # 2**(2*2.5) = 32

    def test_power_constraint_exact(self):
        lat = Lattice(make_linear_code(3, 2, 5, seed=2), 0.8)
        cb = build_codebook(lat, power=6.0, target_rate=0.5, shift_trials=4, seed=3)
        assert np.max(np.sum(cb.words**2, axis=1)) <= 3 * 6.0

    def test_words_pairwise_distinct(self):
        lat = Lattice(make_linear_code(2, 1, 7, seed=6), 0.7)
        cb = build_codebook(lat, power=9.0, target_rate=0.5, shift_trials=4, seed=6)
        assert len(np.unique(np.round(cb.words, 9), axis=0)) == len(cb)

    def test_words_lie_on_shifted_lattice(self):
        lat = Lattice(make_linear_code(2, 1, 5, seed=9), 0.9)
        cb = build_codebook(lat, power=7.0, target_rate=0.25, shift_trials=4, seed=9)
        for w in cb.words:
            assert is_lattice_point(lat, w - cb.shift)

    def test_rejects_bad_args(self):
        lat = lat_5z2()
        for power in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^power must be positive and finite"):
                build_codebook(lat, power=power, target_rate=0.5)
        for rate in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="^target_rate must be nonnegative and finite"):
                build_codebook(lat, power=1.0, target_rate=rate)
        with pytest.raises(ValueError):
            build_codebook(lat, power=1.0, target_rate=0.5, shift_trials=0)

    @pytest.mark.parametrize("case, digest", [
        # (n, k, p, code seed, gamma, power, rate, shift_trials, seed, shift)
        ((2, 1, 5, 0, 0.5, 8.0, 2.5, 8, 0, None),
         "24dbf936ef1222d066df964950d2151269c0377dcc3994b83a017af6a20f900a"),
        ((4, 2, 7, 11, 0.6, 3.0, 0.5, 1, 11, None),
         "c1ef9a7591688ee0ed3af4de1c7c8af394671f1aaad6bfc52229a4f53c99883d"),
        ((3, 2, 5, 3, 0.8, 6.0, 0.5, 3, 3, None),
         "db0eec6d412d03c19a9e6d0a8798c4a4497c9febebe3b16fd2ef6b215e4eade9"),
        ((3, 1, 5, 4, 0.9, 5.0, 0.5, 1, 0, [0.1, 0.2, 0.3]),
         "eaa8b90756c8d9a524f4e4f11ec844672cc006515fa8d1a6ed04097e05d4e377"),
        # two words against a target of 2**6: target missed
        ((4, 1, 7, 5, 1.0, 2.0, 1.5, 4, 5, None),
         "3c02319dbee52c2f6edf20571cc8d4b7a460e60115f6173d13b257d8728d2190"),
        ((6, 3, 3, 6, 0.7, 2.0, 0.75, 8, 6, None),
         "5892158c7c2228884300203bf318688436f572ac07371cc3cb0ee2ea2bf05128"),
    ], ids=["trials8", "trials1", "trials3", "explicit-shift", "target-missed", "n6-trials8"])
    def test_pinned(self, case, digest):
        n, k, p, code_seed, gamma, power, rate, trials, seed, shift = case
        lat = Lattice(make_linear_code(n, k, p, seed=code_seed), gamma)
        cb = build_codebook(lat, power, rate, shift_trials=trials, seed=seed, shift=shift)
        doc = json.dumps([cb.shift.tolist(), cb.words.tolist(), cb.target_met])
        assert hashlib.sha256(doc.encode()).hexdigest() == digest


class TestScaleLattice:
    def test_doubling_integer_lattice(self):
        lat = scale_lattice(Lattice(full_code(2, 5), 1.0), 2.0)
        assert is_lattice_point(lat, (2, -4))
        assert not is_lattice_point(lat, (1, 0))

    def test_identity_scale(self):
        lat = lat_gen12()
        same = scale_lattice(lat, 1.0)
        rng = np.random.default_rng(0)
        for y in rng.normal(scale=5, size=(20, 2)):
            assert is_lattice_point(lat, y) == is_lattice_point(same, y)

    def test_negative_scale_membership(self):
        lat = lat_gen12()
        scaled = scale_lattice(lat, -3.0)
        rng = np.random.default_rng(1)
        for lam in sample_lattice_points(lat, rng, 50):
            assert is_lattice_point(scaled, -3.0 * lam)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            scale_lattice(lat_5z2(), 0.0)


class TestLatticeProperties:
    def test_group_closure(self):
        rng = np.random.default_rng(20)
        for lat in random_lattices(10, seed=21):
            a = sample_lattice_points(lat, rng, 100)
            b = sample_lattice_points(lat, rng, 100)
            for x, y in zip(a, b):
                assert is_lattice_point(lat, x + y)
                assert is_lattice_point(lat, -x)

    def test_quantizer_idempotent(self):
        rng = np.random.default_rng(22)
        for lat in random_lattices(10, seed=23):
            for _ in range(10):
                y = rng.normal(scale=3 * lat.gamma, size=lat.n)
                q = nearest_point(lat, y)
                assert np.allclose(nearest_point(lat, q), q, atol=1e-9)

    def test_quantizer_fixes_lattice_points(self):
        rng = np.random.default_rng(24)
        for lat in random_lattices(10, seed=25):
            for lam in sample_lattice_points(lat, rng, 10):
                assert np.allclose(nearest_point(lat, lam), lam, atol=1e-9)

    def test_point_density_matches_volume(self):
        for lat in random_lattices(10, seed=26):
            # offset by half a period so box faces never hit lattice points
            L = 60.5 * lat.gamma * lat.p
            count = count_points_in_box(lat, L)
            density = count * fundamental_volume(lat) / (2 * L) ** lat.n
            assert abs(density - 1.0) < 0.05, (lat, density)

    def test_scaling_composes(self):
        rng = np.random.default_rng(28)
        lat = lat_gen12()
        a, b = 1.7, -0.4
        two_step = scale_lattice(scale_lattice(lat, a), b)
        one_step = scale_lattice(lat, a * b)
        pts = sample_lattice_points(one_step, rng, 100)
        for y in pts:
            assert is_lattice_point(two_step, y)
        for y in rng.normal(scale=3, size=(100, 2)):
            assert is_lattice_point(two_step, y) == is_lattice_point(one_step, y)


def reference_nearest_batch(lat, ys):
    """Reference decoder: every coset's candidate broadcast at once, first
    coset on ties."""
    u = ys / lat.gamma
    cosets = lat.code.codewords.astype(float)
    t = (u[:, None, :] - cosets[None, :, :]) / lat.p
    f = np.floor(t)
    z = np.where(t - f <= 0.5, f, f + 1.0)
    cands = cosets[None, :, :] + lat.p * z
    d2 = np.sum((u[:, None, :] - cands) ** 2, axis=2)
    idx = np.argmin(d2, axis=1)
    return lat.gamma * cands[np.arange(len(ys)), idx]


def reference_enumeration(lat, shift, power):
    """Reference enumeration: depth-first per coset, ascending z per
    coordinate."""
    n, p, gamma = lat.n, lat.p, lat.gamma
    r2 = n * power
    step = gamma * p
    words = []
    buf = np.empty(n)
    for c in lat.code.codewords:
        base = gamma * c + shift

        def dfs(i, used):
            if i == n:
                words.append(buf.copy())
                return
            half = math.sqrt(r2 - used)
            lo = math.ceil((-half - base[i]) / step)
            hi = math.floor((half - base[i]) / step)
            for z in range(lo, hi + 1):
                w = base[i] + step * z
                if used + w * w <= r2:
                    buf[i] = w
                    dfs(i + 1, used + w * w)

        dfs(0, 0.0)
    return np.array(words).reshape(-1, n)


def reference_best(lat, shifts, power):
    """The first shift with the most points and its reference words."""
    per_shift = [reference_enumeration(lat, s, power) for s in shifts]
    best = int(np.argmax([len(w) for w in per_shift]))
    return best, per_shift[best]


def reference_trie_sizes(lat, shift, power):
    """Per coordinate, the most points the trie of codeword prefixes holds
    for one shift: its nodes fanned out over their residues, or its total of
    candidate z values. Counted depth-first over distinct codeword prefixes."""
    n, p, gamma = lat.n, lat.p, lat.gamma
    r2 = n * power
    step = gamma * p
    fanned = np.zeros(n, dtype=np.int64)
    total = np.zeros(n, dtype=np.int64)

    def dfs(i, words, used):
        if i == n:
            return
        residues = np.unique(words[:, i])
        fanned[i] += len(residues)
        half = math.sqrt(r2 - used)
        for r in residues:
            b = gamma * r + shift[i]
            lo = math.ceil((-half - b) / step)
            hi = math.floor((half - b) / step)
            total[i] += max(hi - lo + 1, 0)
            for z in range(lo, hi + 1):
                w = b + step * z
                if used + w * w <= r2:
                    dfs(i + 1, words[words[:, i] == r], used + w * w)

    dfs(0, lat.code.codewords, 0.0)
    return np.maximum(fanned, total)


# cosets times rows times n stays small enough for the broadcast reference
MAX_REFERENCE_COSETS = 4000


def reference_lattice(n, p, k, seed, gamma):
    while p**k > MAX_REFERENCE_COSETS:
        k -= 1
    return Lattice(make_linear_code(n, k, p, seed), gamma)


lattice_params = dict(
    n=st.integers(2, 10),
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    k_frac=st.floats(0, 1, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.2, 3.0),
)


class TestReferenceEquality:
    """The coset-table decoder and the frontier enumeration reproduce the
    broadcast decoder and the depth-first enumeration bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 200), scale=st.floats(0.1, 10.0), **lattice_params)
    @example(n=3, p=5, k_frac=0.0, seed=0, gamma=1.0, rows=50, scale=4.0)
    @example(n=4, p=7, k_frac=0.5, seed=1, gamma=0.7, rows=0, scale=1.0)
    def test_decoded_points(self, n, p, k_frac, seed, gamma, rows, scale):
        lat = reference_lattice(n, p, int(k_frac * n), seed, gamma)
        ys = np.random.default_rng(seed).normal(scale=scale * gamma * p, size=(rows, n))
        assert np.array_equal(nearest_points_batch(lat, ys), reference_nearest_batch(lat, ys))

    @settings(max_examples=60, deadline=None)
    @given(points=st.floats(0.0, 300.0), trials=st.integers(1, 10), **lattice_params)
    @example(n=3, p=5, k_frac=0.0, seed=0, gamma=1.0, points=20.0, trials=1)
    @example(n=5, p=3, k_frac=0.5, seed=2, gamma=1.5, points=0.0, trials=4)
    @example(n=2, p=2, k_frac=0.0, seed=3, gamma=1.0, points=3.0, trials=10)
    def test_enumerated_words_in_order(self, n, p, k_frac, seed, gamma, points, trials):
        lat = reference_lattice(n, p, int(k_frac * n), seed, gamma)
        shifts = np.random.default_rng(seed).uniform(0, gamma * p, size=(trials, n))
        # the power whose sphere holds about `points` lattice points
        volume = fundamental_volume(lat) * points * math.gamma(n / 2 + 1) / math.pi ** (n / 2)
        power = max(volume ** (2 / n) / n, 1e-9)
        best, got = _enumerate_shifted_spheres(lat, shifts, power)
        want_best, want = reference_best(lat, shifts, power)
        assert best == want_best
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", EXPLICIT_CODES)
    def test_explicit_codes_enumerated_in_order(self, name):
        code = EXPLICIT_CODES[name]
        lat = Lattice(code, 0.7)
        shifts = np.random.default_rng(len(name)).uniform(0, 0.7 * code.p, size=(3, code.n))
        best, got = _enumerate_shifted_spheres(lat, shifts, 4.0)
        want_best, want = reference_best(lat, shifts, 4.0)
        assert best == want_best
        assert got.shape == want.shape and len(want) > 0
        assert np.array_equal(got, want)

    def test_duplicated_shift_first_wins(self):
        lat = Lattice(make_linear_code(3, 1, 5, seed=4), 0.9)
        shifts = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
        best, got = _enumerate_shifted_spheres(lat, shifts, 5.0)
        assert best == 0
        assert np.array_equal(got, reference_enumeration(lat, shifts[0], 5.0))

    def test_empty_codebook(self):
        lat = Lattice(make_linear_code(4, 2, 7, seed=3), 1.0)
        shifts = np.array([[3.5] * 4, [3.4] * 4, [3.6] * 4])
        best, got = _enumerate_shifted_spheres(lat, shifts, 1e-6)
        assert best == 0
        assert got.shape == (0, 4)
        assert np.array_equal(got, reference_enumeration(lat, shifts[0], 1e-6))

    def test_split_blocks_match_unsplit(self, monkeypatch):
        lat = Lattice(make_linear_code(3, 1, 5, seed=4), 0.9)
        a, b = np.random.default_rng(5).uniform(0, 0.9 * 5, size=(2, 3))
        # the winner's copy in the second half ties with it
        shifts = np.array([a, b, a, b])
        best, words = _enumerate_shifted_spheres(lat, shifts, 6.0)
        want_best, want = reference_best(lat, shifts, 6.0)
        assert best == want_best and np.array_equal(words, want) and len(want) > 0
        # a cap every single shift's trie fits under; the whole block's trie
        # holds two copies of each, so it passes the cap at that level
        peak = max(int(reference_trie_sizes(lat, s, 6.0).max()) for s in (a, b))
        monkeypatch.setattr(lattice, "MAX_SPHERE_POINTS", peak)
        blocks = []
        grow = lattice._shaping_frontier
        monkeypatch.setattr(lattice, "_shaping_frontier", lambda *args: blocks.append(len(args[1])) or grow(*args))
        split_best, split_words = _enumerate_shifted_spheres(lat, shifts, 6.0)
        assert blocks[:2] == [4, 2]  # the whole block was split
        assert split_best == best
        assert np.array_equal(split_words, words)

    def test_cap_below_one_shifts_cosets(self, monkeypatch):
        # the trie never holds all p**k cosets of a shift at once, so a cap
        # below them still builds the codebook
        lat = Lattice(make_linear_code(4, 3, 7, seed=1), 1.0)
        shifts = np.random.default_rng(1).uniform(0, 7.0, size=(3, 4))
        peak = max(int(reference_trie_sizes(lat, s, 2.0).max()) for s in shifts)
        assert peak < len(lat.code.codewords)
        monkeypatch.setattr(lattice, "MAX_SPHERE_POINTS", peak)
        best, got = _enumerate_shifted_spheres(lat, shifts, 2.0)
        want_best, want = reference_best(lat, shifts, 2.0)
        assert best == want_best and len(want) > 0
        assert np.array_equal(got, want)

    def test_fan_out_cap(self, monkeypatch):
        # a pivot's fan-out into p residues is refused before it is allocated,
        # though only 3 of its 13 residues have a point in the sphere
        lat = Lattice(EXPLICIT_CODES["n1"], 1.0)
        monkeypatch.setattr(lattice, "MAX_SPHERE_POINTS", 12)
        with pytest.raises(ValueError, match="over 12 candidate points"):
            _enumerate_shifted_spheres(lat, np.zeros((1, 1)), 1.0)

    def test_point_cap(self):
        lat = Lattice(zero_code(4, 2), 0.01)
        # one shift past the cap, alone or after the block is split
        for trials in (1, 3):
            with pytest.raises(ValueError, match=str(MAX_SPHERE_POINTS)):
                _enumerate_shifted_spheres(lat, np.zeros((trials, 4)), 3.0)
