"""Three-user Gaussian interference channel with unit direct gains.

Gains are dimensionless; receiver noise is i.i.d. Gaussian with variance
sigma2 (default 1). Rational-ratio membership of the cyclic cross-gain
product is decided by continued-fraction approximation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_MAX_DEN = 10_000


@dataclass(frozen=True)
class ChannelMatrix3:
    """3x3 gain matrix with unit diagonal, plus an optional witness (p, q)
    for the rational cyclic ratio (h12/h21)(h23/h32)(h31/h13) = p/q."""

    h: np.ndarray
    h1_witness: tuple[int, int] | None = None

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (3, 3):
            raise ValueError(f"channel matrix must be 3x3, got {h.shape}")
        if not np.allclose(np.diag(h), 1.0, atol=1e-12):
            raise ValueError("direct gains must be normalized to 1")
        object.__setattr__(self, "h", h)
        h.setflags(write=False)
        if self.h1_witness is not None:
            p, q = self.h1_witness
            from math import gcd

            if q == 0 or gcd(p, q) != 1:
                raise ValueError(f"witness ({p}, {q}) is not a reduced fraction")


def symmetric_channel(a: float) -> ChannelMatrix3:
    """All off-diagonal gains equal to a; the cyclic ratio is exactly 1."""
    h = np.full((3, 3), float(a))
    np.fill_diagonal(h, 1.0)
    return ChannelMatrix3(h, h1_witness=(1, 1))


def class_h1_membership(
    h, tol: float = DEFAULT_TOL, max_den: int = DEFAULT_MAX_DEN
) -> tuple[int, int] | None:
    """Reduced fraction p/q with |ratio - p/q| <= tol and q <= max_den, found
    by continued fractions; None if no such approximation exists."""
    h = np.asarray(h, dtype=float)
    if h.shape != (3, 3):
        raise ValueError(f"channel matrix must be 3x3, got {h.shape}")
    if not np.allclose(np.diag(h), 1.0, atol=tol):
        raise ValueError("direct gains must be normalized to 1")
    off = [h[0, 1], h[0, 2], h[1, 0], h[1, 2], h[2, 0], h[2, 1]]
    if any(g == 0 for g in off):
        raise ValueError("all off-diagonal gains must be nonzero")
    r = (h[0, 1] / h[1, 0]) * (h[1, 2] / h[2, 1]) * (h[2, 0] / h[0, 2])
    frac = Fraction(r).limit_denominator(max_den)
    if abs(r - float(frac)) <= tol:
        return frac.numerator, frac.denominator
    return None


def channel_from_json(text: str) -> ChannelMatrix3:
    """Load {"h": [[...]x3], "tol": float, "max_den": int} and attach the
    membership witness if one exists."""
    doc = json.loads(text)
    h = np.array(doc["h"], dtype=float)
    tol = float(doc.get("tol", DEFAULT_TOL))
    max_den = int(doc.get("max_den", DEFAULT_MAX_DEN))
    witness = class_h1_membership(h, tol=tol, max_den=max_den)
    return ChannelMatrix3(h, h1_witness=witness)


def keyed_stream(master_seed, *key: int) -> np.random.Generator:
    """Counter-based random stream for (master_seed, *key), reproducible and
    mutually independent across keys for a fixed master seed."""
    ss = np.random.SeedSequence((int(master_seed) & (2**63 - 1),) + key)
    return np.random.Generator(np.random.Philox(ss))


def alignment_factors(ch: ChannelMatrix3) -> tuple[float, float, float]:
    """Scale factors (f1, f2, f3) of the aligned lattices f_k * L from the
    witness (p, q): h12*f2 = p*h13*f3 and h21*f1 = q*h23*f3, with f3 = 1."""
    if ch.h1_witness is None:
        raise ValueError("channel has no rational-ratio witness")
    p, q = ch.h1_witness
    h = ch.h
    return q * h[1, 2] / h[1, 0], p * h[0, 2] / h[0, 1], 1.0


def receive(ch: ChannelMatrix3, j: int, xs, z) -> np.ndarray:
    """Receiver j's output y_j = x_j + sum_{k != j} h_jk x_k + z.

    xs holds the three users' blocks, each of shape (n,) or (T, n); z is the
    noise already scaled to its variance (0 gives the noiseless map).
    """
    y = np.array(xs[j], dtype=float)
    for k in range(3):
        if k != j:
            y += ch.h[j, k] * xs[k]
    return y + z


def transmit(
    ch: ChannelMatrix3,
    x1,
    x2,
    x3,
    noise_seed,
    sigma2: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One channel use of n dimensions at all three receivers, with noise
    from the per-receiver streams `keyed_stream(noise_seed, j)`.

    sigma2 is a test hook for the noise variance (default 1); sigma2=0
    gives the noiseless linear map.
    """
    xs = [np.asarray(x, dtype=float) for x in (x1, x2, x3)]
    n = xs[0].shape[0]
    if any(x.shape != (n,) for x in xs):
        raise ValueError("transmit blocks must have equal length")
    std = float(np.sqrt(sigma2))
    return tuple(
        receive(ch, j, xs, std * keyed_stream(noise_seed, j).normal(size=n) if std > 0 else 0.0)
        for j in range(3)
    )

