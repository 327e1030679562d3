"""Channel matrix, rational-ratio membership and AWGN transmission."""

import json
import math

import numpy as np
import pytest

from latticeic.channel import (
    ChannelMatrix3,
    channel_from_json,
    class_h1_membership,
    receive,
    symmetric_channel,
    transmit,
)


def matrix_with_cross(h12=1.0, h13=1.0, h21=1.0, h23=1.0, h31=1.0, h32=1.0):
    return np.array([[1.0, h12, h13], [h21, 1.0, h23], [h31, h32, 1.0]])


class TestChannelMatrix:
    def test_symmetric_zero_gain_is_identity(self):
        ch = symmetric_channel(0.0)
        assert np.array_equal(ch.h, np.eye(3))
        assert ch.h1_witness == (1, 1)

    def test_symmetric_offdiagonals_and_unit_ratio(self):
        ch = symmetric_channel(2.5)
        off = ch.h[~np.eye(3, dtype=bool)]
        assert np.all(off == 2.5)
        assert class_h1_membership(ch.h) == (1, 1)

    def test_negative_gain_valid(self):
        assert class_h1_membership(symmetric_channel(-1.0).h) == (1, 1)

    def test_rejects_non_unit_diagonal(self):
        h = np.eye(3) * 2.0
        with pytest.raises(ValueError):
            ChannelMatrix3(h)

    def test_rejects_unreduced_witness(self):
        with pytest.raises(ValueError):
            ChannelMatrix3(np.eye(3), h1_witness=(2, 4))


class TestMembership:
    def test_symmetric_always_unit_witness(self):
        for a in (0.3, 1.0, 2.5, -4.0):
            assert class_h1_membership(symmetric_channel(a).h) == (1, 1)

    def test_integer_ratio(self):
        h = matrix_with_cross(h12=2.0, h23=3.0)
        assert class_h1_membership(h) == (6, 1)

    def test_irrational_ratio_rejected(self):
        r = math.sqrt(2.0)
        h = matrix_with_cross(h12=r)
        assert class_h1_membership(h, tol=1e-9, max_den=1000) is None
        # exhaustive oracle: no fraction with denominator <= 1000 is that close
        best = min(abs(r - round(r * q) / q) for q in range(1, 1001))
        assert best > 1e-9

    def test_zero_cross_gain_rejected(self):
        with pytest.raises(ValueError):
            class_h1_membership(np.eye(3))

    def test_non_unit_diagonal_rejected(self):
        h = matrix_with_cross()
        h[0, 0] = 1.5
        with pytest.raises(ValueError):
            class_h1_membership(h)

    def test_pair_scaling_invariance(self):
        # scaling (h12, h21) by a common factor leaves the cyclic ratio alone
        base = matrix_with_cross(h12=2.0, h21=0.7, h23=3.0, h32=1.1, h31=4.2, h13=0.9)
        r0 = (base[0, 1] / base[1, 0]) * (base[1, 2] / base[2, 1]) * (base[2, 0] / base[0, 2])
        for c in (2.0, -0.5, 7.3):
            scaled = base.copy()
            scaled[0, 1] *= c
            scaled[1, 0] *= c
            r1 = (scaled[0, 1] / scaled[1, 0]) * (scaled[1, 2] / scaled[2, 1]) * (scaled[2, 0] / scaled[0, 2])
            assert r1 == pytest.approx(r0, rel=1e-12)

    def test_json_load_attaches_witness(self):
        doc = {"h": matrix_with_cross(h12=2.0, h23=3.0).tolist()}
        ch = channel_from_json(json.dumps(doc))
        assert ch.h1_witness == (6, 1)
        doc = {"h": matrix_with_cross(h12=math.sqrt(2.0)).tolist(), "max_den": 1000}
        assert channel_from_json(json.dumps(doc)).h1_witness is None


class TestTransmit:
    def test_pure_noise_variance(self):
        n = 100_000
        z = np.zeros(n)
        ys = transmit(symmetric_channel(1.0), z, z, z, noise_seed=0)
        v = float(np.var(np.concatenate(ys)))
        # LLN band: sd of the variance estimator is ~sqrt(2/(3n))
        assert abs(v - 1.0) < 3 * math.sqrt(2.0 / (3 * n))

    def test_noiseless_symmetric_map(self):
        e1 = np.array([1.0, 0.0, 0.0])
        zero = np.zeros(3)
        y1, y2, y3 = transmit(symmetric_channel(2.0), e1, zero, zero, noise_seed=0, sigma2=0.0)
        assert np.array_equal(y1, e1)
        assert np.array_equal(y2, 2.0 * e1)
        assert np.array_equal(y3, 2.0 * e1)

    def test_noiseless_identity_channel(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(3, 5))
        ys = transmit(symmetric_channel(0.0), *xs, noise_seed=0, sigma2=0.0)
        for x, y in zip(xs, ys):
            assert np.array_equal(x, y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            transmit(symmetric_channel(1.0), np.zeros(3), np.zeros(4), np.zeros(3), noise_seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(3, 8))
        a = transmit(symmetric_channel(1.5), *xs, noise_seed=77)
        b = transmit(symmetric_channel(1.5), *xs, noise_seed=77)
        for ya, yb in zip(a, b):
            assert np.array_equal(ya, yb)

    def test_linearity_for_fixed_seed(self):
        ch = symmetric_channel(1.5)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 6))
        xp = rng.normal(size=(3, 6))
        zero = np.zeros(6)
        noise = transmit(ch, zero, zero, zero, noise_seed=9)
        alpha, beta = 2.0, -0.75
        mixed = transmit(ch, *(alpha * x + beta * xp), noise_seed=9)
        ya = transmit(ch, *x, noise_seed=9)
        yb = transmit(ch, *xp, noise_seed=9)
        for j in range(3):
            want = alpha * (ya[j] - noise[j]) + beta * (yb[j] - noise[j]) + noise[j]
            assert np.allclose(mixed[j], want, atol=1e-12)

    def test_batched_receive_matches_transmit_rows(self):
        h = matrix_with_cross(h12=2.0, h13=-0.5, h21=3.0, h23=1.5, h31=0.25, h32=4.0)
        ch = ChannelMatrix3(h)
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(3, 7, 5))  # (user, T, n)
        for j in range(3):
            batched = receive(ch, j, xs, 0.0)
            assert batched.shape == (7, 5)
            for t in range(7):
                rows = transmit(ch, *xs[:, t], noise_seed=0, sigma2=0.0)
                assert np.array_equal(batched[t], rows[j])

