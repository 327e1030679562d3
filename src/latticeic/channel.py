"""Three-user Gaussian interference channel with unit direct gains.

Gains are dimensionless; receiver noise is i.i.d. Gaussian with variance
sigma2 (default 1). Rational-ratio membership of the cyclic cross-gain
product is decided by continued-fraction approximation.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# The membership test's fixed tolerance on |ratio - p/q| and its bound on q
RATIO_TOL = 1e-9
RATIO_MAX_DEN = 10_000


@dataclass(frozen=True)
class ChannelMatrix3:
    """3x3 matrix of finite gains with unit diagonal, plus an optional witness
    (p, q) for the rational cyclic ratio (h12/h21)(h23/h32)(h31/h13) = p/q.
    The one judge of a gain matrix."""

    h: np.ndarray
    h1_witness: tuple[int, int] | None = None

    def __post_init__(self):
        h = np.asarray(self.h, dtype=object)
        if h.shape != (3, 3):
            raise ValueError(f"channel matrix must be 3x3, got {h.shape}")
        if not all(finite_real(g) for g in h.flat):
            raise ValueError("channel gains must be finite real numbers, not bools")
        h = h.astype(float)
        if not np.allclose(np.diag(h), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("direct gains must be normalized to 1")
        object.__setattr__(self, "h", h)
        h.setflags(write=False)
        if self.h1_witness is not None:
            p, q = self.h1_witness
            if q == 0 or math.gcd(p, q) != 1:
                raise ValueError(f"witness ({p}, {q}) is not a reduced fraction")


def symmetric_channel(a: float) -> ChannelMatrix3:
    """All off-diagonal gains equal to a; the cyclic ratio is exactly 1."""
    h = np.full((3, 3), float(a))
    np.fill_diagonal(h, 1.0)
    return ChannelMatrix3(h, h1_witness=(1, 1))


def finite_real(x) -> bool:
    """Whether x is a finite real number and not a bool (an integer too large
    for a float is not)."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def class_h1_membership(h) -> tuple[int, int] | None:
    """Reduced fraction p/q with p != 0, |ratio - p/q| <= RATIO_TOL and
    q <= RATIO_MAX_DEN, found by continued fractions, for the gain matrix h
    as `ChannelMatrix3` judges it; None if no such approximation exists."""
    h = ChannelMatrix3(h).h
    h01, h02, h10, h12, h20, h21 = off = [float(h[j, k]) for j in range(3) for k in range(3) if j != k]
    if 0.0 in off:
        raise ValueError("all off-diagonal gains must be nonzero")
    # Python floats: a ratio leaving the float range gives inf or 0 without a numpy warning
    r = (h01 / h10) * (h12 / h21) * (h20 / h02)
    if not 0.0 < abs(r) < math.inf:
        raise ValueError(f"the cyclic gain ratio h12 h23 h31 / (h21 h32 h13) must be finite and nonzero, got {r!r}")
    frac = Fraction(r).limit_denominator(RATIO_MAX_DEN)
    if frac.numerator != 0 and abs(r - float(frac)) <= RATIO_TOL:
        return frac.numerator, frac.denominator
    return None


def channel_from_json(text: str) -> ChannelMatrix3:
    """Load {"h": [[...]x3]}, a JSON object with no other key, and attach the
    membership witness if one exists."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("matrix file must hold a JSON object")
    extra = sorted(set(doc) - {"h"})
    if extra:
        raise ValueError(f"matrix file may hold only 'h', got unknown keys {extra}")
    rows = doc.get("h")
    if not (isinstance(rows, list) and len(rows) == 3 and all(
        isinstance(row, list) and len(row) == 3 and all(finite_real(g) for g in row) for row in rows
    )):
        raise ValueError(f"'h' must be a 3x3 grid of finite numbers, got {rows!r}")
    h = np.array(rows, dtype=float)
    return ChannelMatrix3(h, h1_witness=class_h1_membership(h))


def keyed_stream(master_seed, *key: int) -> np.random.Generator:
    """Counter-based random stream for (master_seed, *key), reproducible and mutually
    independent across keys; each nonnegative master seed is its own stream."""
    ss = np.random.SeedSequence((int(master_seed),) + key)
    return np.random.Generator(np.random.Philox(ss))


def alignment_factors(ch: ChannelMatrix3) -> tuple[float, float, float]:
    """Scale factors (f1, f2, f3) of the aligned lattices f_k * L from the
    witness (p, q): h12*f2 = p*h13*f3 and h21*f1 = q*h23*f3, with f3 = 1.
    The one judge of alignment: refused unless the cross gains are nonzero,
    the factors finite and nonzero, and the third equality h31*f1 = h32*f2
    (receiver 3) holds within 1e-9 relative, as it does when p/q is the
    cyclic ratio and not only near it."""
    if ch.h1_witness is None:
        raise ValueError("channel has no rational-ratio witness")
    p, q = ch.h1_witness
    # Python floats: a factor or product leaving the float range is refused without a numpy warning
    (_, h12, h13), (h21, _, h23), (h31, h32, _) = ch.h.tolist()
    if 0.0 in (h12, h13, h21, h23, h31, h32):
        raise ValueError("all cross gains must be nonzero")
    f1, f2 = q * h23 / h21, p * h13 / h12
    if not (0.0 < abs(f1) < math.inf and 0.0 < abs(f2) < math.inf):
        raise ValueError(f"alignment scale factors must be finite and nonzero, got {f1!r} and {f2!r}")
    lhs, rhs = abs(h31 * f1), abs(h32 * f2)
    if not (lhs < math.inf and math.isclose(lhs, rhs, rel_tol=1e-9)):
        raise ValueError(f"witness ({p}, {q}) does not align receiver 3: |h31 f1| = {lhs!r}, |h32 f2| = {rhs!r}")
    return f1, f2, 1.0


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

    sigma2 is a test hook for the noise variance (default 1), refused unless
    finite and >= 0; sigma2=0 gives the noiseless linear map.
    """
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2!r}")
    xs = [np.asarray(x, dtype=float) for x in (x1, x2, x3)]
    n = xs[0].shape[0]
    if any(x.shape != (n,) for x in xs):
        raise ValueError("transmit blocks must have equal length")
    std = float(np.sqrt(sigma2))
    return tuple(
        receive(ch, j, xs, std * keyed_stream(noise_seed, j).normal(size=n) if std > 0 else 0.0)
        for j in range(3)
    )

