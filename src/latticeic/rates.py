"""Closed-form achievable rates and degrees of freedom for the layered
lattice scheme, plus the Han-Kobayashi style Gaussian baseline.

All rates are in bits (log base 2) per real dimension. The degrees-of-
freedom ratio is base-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix3

STRONG_MIN_A2 = 2.0
WEAK_MAX_A2 = 1.0 / 3.0
# relative rounding slack of each very-strong link test: a gain that squares
# to just under its bound, such as a = sqrt(P/sigma2 + 1), meets it
VERY_STRONG_RTOL = 1e-12


class AllocationError(ValueError):
    """A layered power allocation does not exist for the requested inputs."""


@dataclass(frozen=True)
class LayeredAllocation:
    """Per-stage powers and rates for one scheme instance.

    For the symmetric regimes `powers`/`rates` have shape (N,); for the
    nonsymmetric regime they have shape (3, N) indexed (user, stage), with
    stage 1 carrying the largest power.
    """

    regime: str  # "strong" | "weak" | "nonsymmetric"
    powers: np.ndarray
    rates: np.ndarray


@dataclass(frozen=True)
class RateReport:
    per_user_rates: tuple[float, float, float]
    binding_constraint: str  # names the scheme: case-b, c, e, f lattice-layered; case-d, band-fallback HK; condition-set-i very strong


def _report(rates, binding) -> RateReport:
    return RateReport(tuple(float(x) for x in rates), binding)


def _require_positive_finite(what: str, *values) -> None:
    """Refuse unless every value is a positive finite number (`<= 0` passes NaN and inf)."""
    if not all(0.0 < x < math.inf for x in values):
        raise ValueError(f"{what} must be positive and finite, got {', '.join(map(repr, values))}")


# ---------------------------------------------------------------------------
# Symmetric channel: degrees of freedom and layered allocations
# ---------------------------------------------------------------------------

def _ladder(a2: float) -> tuple[str, float, float, float]:
    """(regime, base, ratio, gain) of the geometric power ladder: stage i of
    N gets power base * ratio**(N-i) and rate (1/2)log2(gain).

    Strong regime (a2 >= 2): base = gain = a2-1, ratio 2*a2^2 - a2.
    Weak regime (0 < a2 <= 1/3): base (1-a2)/(2*a2^2), ratio
    (1+a2)/(2*a2^2), gain (1-a2)/(2*a2). Refused where a term leaves the
    float range: the strong ratio overflows from a2 ~ 1e154, the weak one
    from a2 ~ 1e-155, and 2*a2^2 underflows to 0 below a2 ~ 1e-162.
    """
    if a2 >= STRONG_MIN_A2:
        ladder = "strong", a2 - 1.0, 2.0 * a2 * a2 - a2, a2 - 1.0
    elif 0 < a2 <= WEAK_MAX_A2 and 2.0 * a2 * a2 > 0.0:
        ladder = "weak", (1.0 - a2) / (2.0 * a2 * a2), (1.0 + a2) / (2.0 * a2 * a2), (1.0 - a2) / (2.0 * a2)
    elif 0 < a2 <= WEAK_MAX_A2:  # 2*a2^2 underflows to 0
        ladder = "weak", math.inf, math.inf, math.inf
    else:
        raise AllocationError(
            f"no layered allocation for a2={a2}; supported regimes are a2 >= 2 and 0 < a2 <= 1/3"
        )
    if not all(math.isfinite(x) for x in ladder[1:]):
        raise AllocationError(f"the power ladder of a2={a2!r} leaves the float range")
    return ladder


def dof_symmetric(a2: float) -> float:
    """Achievable total degrees of freedom of the symmetric channel as a
    function of the squared cross gain a2 = a**2: 3 log(gain) / log(ratio)
    of the power ladder, and 1 (time sharing) in the band between."""
    if not a2 > 0:  # NaN too; inf leaves the ladder's float range
        raise ValueError(f"a2 must be positive, got {a2!r}")
    if WEAK_MAX_A2 < a2 < STRONG_MIN_A2:
        return 1.0
    _, _, ratio, gain = _ladder(a2)
    return max(1.0, 3.0 * math.log(gain) / math.log(ratio))


def layered_allocation_symmetric(a2: float, N: int) -> LayeredAllocation:
    """The N-stage power ladder of `_ladder` for the symmetric channel, with
    interference decoded first in the strong regime and the message first
    in the weak regime."""
    if N < 1:
        raise ValueError("N must be >= 1")
    regime, base, ratio, gain = _ladder(a2)
    i = np.arange(1, N + 1, dtype=float)
    powers = base * ratio ** (N - i)
    return LayeredAllocation(
        regime=regime,
        powers=powers,
        rates=np.full(N, 0.5 * math.log2(gain)),
    )


def stage_constraints_strong(a2: float, powers) -> tuple[np.ndarray, np.ndarray]:
    """Per-stage rate ceilings in the strong regime, clamped at 0.

    Stage i decodes the aggregate interference (signal power a2*P_i against
    P_i plus all lower layers plus noise) and then the own sub-message.
    """
    P = np.asarray(powers, dtype=float)
    N = len(P)
    r_int = np.zeros(N)
    r_msg = np.zeros(N)
    for i in range(N):
        below = (2.0 * a2 + 1.0) * P[i + 1 :].sum() + 1.0
        if P[i] > 0:
            r_int[i] = max(0.0, 0.5 * math.log2(a2 * P[i] / (P[i] + below)))
            r_msg[i] = max(0.0, 0.5 * math.log2(P[i] / below))
    return r_int, r_msg


def threshold_power(a2: float, N: int) -> float:
    """Total power of the N-layer allocation (geometric sum); 0 for N = 0."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return 0.0
    _, base, ratio, _ = _ladder(a2)
    return base * (ratio**N - 1.0) / (ratio - 1.0)


# ---------------------------------------------------------------------------
# Han-Kobayashi style symmetric baseline (Gaussian, one private + one common)
# ---------------------------------------------------------------------------

# Lines a*Rp + b*Rc = cap of the baseline's LP: the seven MAC caps by
# signature (#private, #common), then the axes Rc = 0 and Rp = 0 as
# zero-cap lines. The LP's candidate vertices are the pairwise crossings
# with a nonzero determinant; an axis crossing reproduces the intercept
# cap/a or cap/b bit for bit.
_HK_A = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
_HK_B = np.array([0, 1, 1, 2, 2, 3, 3, 1, 0], dtype=float)
_HK_I, _HK_J = np.triu_indices(len(_HK_A), 1)
_HK_DET = _HK_A[_HK_I] * _HK_B[_HK_J] - _HK_A[_HK_J] * _HK_B[_HK_I]
_HK_I, _HK_J, _HK_DET = _HK_I[_HK_DET != 0], _HK_J[_HK_DET != 0], _HK_DET[_HK_DET != 0]
# grid points per vectorised LP pass: each (block, 29) temporary stays
# under malloc's 128 KiB mmap threshold, so it is reused from the heap
# instead of being mapped and page-faulted in again on every call
_HK_BLOCK = 256
# a grid point that screens more than this below the largest screened rate
# cannot hold the baseline's maximum (the bound is derived in `_hk_candidates`)
_HK_MARGIN = 1e-9


def hk_sym_rate(P: float, sigma2: float, a: float, grid_size: int = 201) -> float:
    """Maximum symmetric rate of a one-private/one-common Gaussian split,
    by grid search over the common-power fraction.

    Each receiver jointly decodes its own private and common parts and the
    two interfering common parts, treating the interferers' private signals
    as noise. This restricted split is a lower bound to the full
    common-message region.

    Every grid point's two-variable LP is first solved in closed form
    (`_hk_screen`); the exact vertex LP (`_hk_lp_max`) then runs only on the
    points whose screened rate lies within `_HK_MARGIN` of the largest, which
    by `_hk_candidates`' bound include every point holding the maximum, so
    the result is bit for bit that of the exact LP on every point. Where a
    load leaves the float range the bound does not hold, and every point is
    solved exactly.
    """
    _require_positive_finite("P and sigma2", P, sigma2)
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a!r}")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    a2 = a * a
    grid = np.linspace(0.0, 1.0, grid_size)
    loads = _hk_candidates(grid, P, sigma2, a2)
    if loads is None:
        return max(
            _hk_lp_max(_hk_loads(grid[start : start + _HK_BLOCK, None], P, sigma2, a2))
            for start in range(0, grid_size, _HK_BLOCK)
        )
    return _hk_lp_max(loads)


def _hk_loads(beta, P, sigma2, a2) -> np.ndarray:
    """(rows, 7) loads 1 + power/noise of the seven MAC caps, in signature
    order, at each common-power fraction of the column `beta`.

    The caps run over nonempty subsets of {private, own common, interferer
    common x2}, one per signature: the binding cap is the least-power
    subset's, its powers summed in subset bit order.
    """
    pp = (1.0 - beta) * P  # own private power
    pc = beta * P  # own common power (gain 1)
    pi = a2 * beta * P  # each interfering common power
    eta = sigma2 + 2.0 * a2 * pp  # undecoded private interference
    m = np.minimum(pc, pi)
    pw = np.hstack([pp, m, pp + m, m + pi, pp + m + pi, pc + pi + pi, pp + pc + pi + pi])
    return 1.0 + pw / eta


def _hk_lp_max(loads: np.ndarray) -> float:
    """Largest Rp + Rc of the exact LPs of the rows of `loads`, and 0.0 if
    none is larger: every candidate vertex that meets the caps within 1e-12.
    """
    best = 0.0
    for start in range(0, len(loads), _HK_BLOCK):
        x = loads[start : start + _HK_BLOCK]
        # math.log2, not np.log2, whose last bit can differ
        logs = np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size)
        c = np.zeros((len(x), len(_HK_A)))  # the two axes keep cap 0
        c[:, :7] = 0.5 * logs.reshape(x.shape)
        caps = c[:, :7]
        rp = (c[:, _HK_I] * _HK_B[_HK_J] - c[:, _HK_J] * _HK_B[_HK_I]) / _HK_DET
        rc = (_HK_A[_HK_I] * c[:, _HK_J] - _HK_A[_HK_J] * c[:, _HK_I]) / _HK_DET
        feasible = ~((rp < -1e-12) | (rc < -1e-12))
        rp, rc = np.maximum(rp, 0.0), np.maximum(rc, 0.0)  # NaN stays NaN and fails below
        for k in range(7):  # one cap at a time keeps every temporary (block, 29)
            feasible &= _HK_A[k] * rp + _HK_B[k] * rc <= caps[:, k, None] + 1e-12
        best = max(best, float(np.max(rp + rc, where=feasible, initial=0.0)))
    return best


def _hk_screen(loads: np.ndarray) -> np.ndarray:
    """Each row's LP optimum in closed form, min(c2, (c0 + c4)/2, (2c0 + c6)/3),
    from the np.log2 caps c0..c6 of the LP's lines Rp <= c0, Rc <= c1,
    Rp + Rc <= c2, 2Rc <= c3, Rp + 2Rc <= c4, 3Rc <= c5, Rp + 3Rc <= c6.

    Each term bounds Rp + Rc: c2 itself, (c0 + c4)/2 the mean of Rp <= c0
    and Rp + 2Rc <= c4, (2c0 + c6)/3 two parts of Rp <= c0 to one of
    Rp + 3Rc <= c6. The point Rp = c0, Rc = (the least term) - c0 reaches
    it within every line: a cap (1/2)log2(1 + (pp + X)/eta) lies between
    c0 and c0 plus (1/2)log2(1 + X/eta), so c0 <= c2 <= c0 + c1,
    c0 <= c4 <= c0 + c3 and c0 <= c6 <= c0 + c5, which puts that Rc in
    [0, min(c1, c3/2, c5/3)].
    """
    c0, c2, c4, c6 = 0.5 * np.log2(loads[:, ::2]).T
    return np.minimum(c2, np.minimum((c0 + c4) / 2, (2.0 * c0 + c6) / 3))


def _hk_candidates(grid, P, sigma2, a2) -> np.ndarray | None:
    """Loads of the grid points whose screened rate lies within `_HK_MARGIN`
    of the largest, screened `_HK_BLOCK` points at a time; None where a load
    is not finite.

    Bound, with u = 2^-53: a finite load is below 2^1024, so every cap lies
    in [0, 512] and each rounding of a cap, vertex or rate is at most
    w = 512 u = 2^-44 (about 5.7e-14), or 2w for a sum up to 1536. Let V(c)
    be a point's LP optimum at caps c, exactly; raising every cap by d
    raises V by at most 2d, as lowering both rates by d restores
    feasibility. Let E be the exact code's value at its math.log2 caps c,
    S the screen's at its np.log2 caps c', and t the caps of the exact
    loads, at which V is the screen's closed form F (`_hk_screen`).
    - E >= V(c) - 9w: the optimal vertex is computed within 5w in Rp and
      2w in Rc, so it misses a cap or an axis by at most 14w < 1e-12 and
      passes, and its rate rounds by at most 2w.
    - E <= V(c) + 2e-12 + 8w: a vertex that passes meets every cap raised
      by 1e-12 + 3w.
    - |S - F(c')| <= 1.5w, and F moves by at most the largest move of a cap.
    With each logarithm within 2 ulps and each load within 5u of its exact
    value, c and c' lie within e = 2.1w of t, so
    |S - E| <= 1.5w + e + 2e + 2e-12 + 8w, below 3e-12. A point holding the
    maximum E then screens within 6e-12 of the largest S, and the margin
    1e-9 keeps it with room for logarithms some 1000 ulps off.
    """
    loads, screened = [], []
    for start in range(0, len(grid), _HK_BLOCK):
        x = _hk_loads(grid[start : start + _HK_BLOCK, None], P, sigma2, a2)
        if not np.isfinite(x).all():
            return None
        s = _hk_screen(x)
        keep = s >= s.max() - _HK_MARGIN
        loads.append(x[keep])
        screened.append(s[keep])
    screened = np.concatenate(screened)
    return np.concatenate(loads)[screened >= screened.max() - _HK_MARGIN]


# ---------------------------------------------------------------------------
# Piecewise symmetric rate of the layered lattice scheme
# ---------------------------------------------------------------------------

def sym_rate_lattice(a2: float, P: float, hk_oracle=None) -> RateReport:
    """Symmetric per-user rate at finite power P.

    Strong regime (a2 >= 2): full layers at the total-power thresholds, a
    residual top layer decoded in the common style between thresholds.
    Weak regime (a2 <= 1/3): same layering with the baseline filling the
    residual. The middle band falls back to the baseline entirely.
    """
    _require_positive_finite("P", P)
    if hk_oracle is None:
        hk_oracle = hk_sym_rate
    a = math.sqrt(a2)
    eq_rtol = 1e-12

    if WEAK_MAX_A2 < a2 < STRONG_MIN_A2:
        r = hk_oracle(P, 1.0, a)
        return _report([r] * 3, "band-fallback")

    regime, base, _, gain = _ladder(a2)
    stage = 0.5 * math.log2(gain)
    # largest N with threshold_power(N) <= P (within rounding)
    N = 0
    while threshold_power(a2, N + 1) <= P * (1 + eq_rtol):
        N += 1
    PaN = threshold_power(a2, N)
    if abs(PaN - P) <= eq_rtol * max(P, 1.0) and N >= 1:
        case = "case-c" if regime == "strong" else "case-f"
        return _report([N * stage] * 3, case)

    if regime == "strong":
        if P <= base:
            r = max(0.0, 0.5 * math.log2(P))
            return _report([r] * 3, "case-a")
        # P strictly between thresholds N and N+1
        top = 0.5 * math.log2(
            1.0 + (2.0 * a2 + 1.0) * (P - PaN) / (1.0 + (2.0 * a2 + 1.0) * PaN)
        )
        return _report([N * stage + top] * 3, "case-b")

    # weak regime
    if N == 0:
        r = hk_oracle(P, 1.0, a)
        return _report([r] * 3, "case-d")
    best = -math.inf
    for i in (N - 1, N):
        Pa_i = threshold_power(a2, i)
        residual = P - Pa_i
        # unit receiver noise added to the undecoded lower-layer interference
        r_i = i * stage + hk_oracle(residual, 1.0 + (2.0 * a2 + 1.0) * Pa_i, a)
        best = max(best, r_i)
    return _report([best] * 3, "case-e")


# ---------------------------------------------------------------------------
# Very strong interference
# ---------------------------------------------------------------------------

# (p^2-link, q^2-link) of each very-strong condition set, as (receiver,
# transmitter) indices; every other cross link needs h_jk^2 >= s_j / sigma2_k
_VERY_STRONG_SETS = (((0, 1), (1, 0)), ((1, 2), (2, 1)), ((2, 0), (0, 2)))


def _very_strong_conditions(ch: ChannelMatrix3, P, sigma2) -> list[bool]:
    p, q = ch.h1_witness
    h = ch.h
    s = [(P[i] + sigma2[i]) for i in range(3)]
    links = [(j, k) for j in range(3) for k in range(3) if j != k]

    def meets(j, k, w):
        """h_jk^2 >= w^2 s_j / sigma2_k within the slack, for a witness entry w."""
        try:
            w2 = float(w * w)
        except OverflowError:  # only a ratio above ~1e154, an integer float, so w = p fits
            return (h[j, k] / float(w)) ** 2 >= s[j] / sigma2[k] * (1.0 - VERY_STRONG_RTOL)
        return h[j, k] ** 2 >= w2 * s[j] / sigma2[k] * (1.0 - VERY_STRONG_RTOL)

    conds = []
    # a gain whose square overflows meets every condition as inf, without a warning
    with np.errstate(over="ignore"):
        for p_link, q_link in _VERY_STRONG_SETS:
            mult = {p_link: p, q_link: q}
            conds.append(all(meets(j, k, mult.get((j, k), 1)) for j, k in links))
    return conds


def very_strong_general(
    ch: ChannelMatrix3, P, sigma2
) -> tuple[RateReport, int] | None:
    """Nonsymmetric very-strong check: if one of the three gain-condition
    sets holds (witness entering as p^2 or q^2 on the designated links),
    every user gets (1/2)log2(P_i/sigma_i^2). Returns the first matching
    set index (1-based), or None."""
    if ch.h1_witness is None:
        raise ValueError("channel has no rational-ratio witness")
    P = [float(x) for x in P]
    sigma2 = [float(x) for x in sigma2]
    _require_positive_finite("powers and noise variances", *P, *sigma2)
    conds = _very_strong_conditions(ch, P, sigma2)
    for idx, ok in enumerate(conds, start=1):
        if ok:
            rates = [max(0.0, 0.5 * math.log2(P[i] / sigma2[i])) for i in range(3)]
            return _report(rates, f"condition-set-{idx}"), idx
    return None


# ---------------------------------------------------------------------------
# Nonsymmetric layered allocation
# ---------------------------------------------------------------------------

def nonsym_layered_allocation(
    a1: float, a2: float, a3: float, N: int
) -> LayeredAllocation:
    """Layered allocation for the channel where receiver j hears both
    interferers through gain a_j, all squared gains >= 2.

    Computed from stage N (smallest power) down to stage 1. The message-
    stage effective noise at (user j, stage i) counts the unit receiver
    noise plus everything below stage i:

        s_msg[j, i] = 1 + sum_{l>i} P[j, l] + a_j^2 * sum_{l != j, k>i} P[l, k]

    which depends only on later stages, so each stage is solved in closed
    form:  P[j, i] = min_{l != j} a_j^2 * s_msg[l, i] - s_msg[j, i], and
    its rate is (1/2)log2(P[j, i] / s_msg[j, i]).
    """
    gains = np.array([a1, a2, a3], dtype=float)
    g2 = gains**2
    if np.any(g2 < STRONG_MIN_A2):
        raise AllocationError("all squared gains must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    P = np.zeros((3, N))
    s_msg = np.zeros((3, N))
    for i in range(N - 1, -1, -1):
        for j in range(3):
            own_below = P[j, i + 1 :].sum()
            cross_below = sum(P[l, i + 1 :].sum() for l in range(3) if l != j)
            s_msg[j, i] = 1.0 + own_below + g2[j] * cross_below
        for j in range(3):
            others = [l for l in range(3) if l != j]
            # >= (a_j^2 - 1)(1 + user j's power below stage i) >= 1, until the powers overflow
            P[j, i] = min(g2[j] * s_msg[l, i] for l in others) - s_msg[j, i]
    return LayeredAllocation(
        regime="nonsymmetric",
        powers=P,
        rates=0.5 * np.log2(P / s_msg),
    )


def nonsym_sweep(a1: float, a2: float, a3: float, N_max: int) -> list[tuple[int, float, float]]:
    """The (N, sum rate, total power) row of each N = 1..N_max, read from the
    bottom N stages of one N_max-stage allocation: stage i depends only on
    the stages below it."""
    rows = []
    # huge gains overflow the layer powers; the caller refuses non-finite rows
    with np.errstate(over="ignore", invalid="ignore"):
        alloc = nonsym_layered_allocation(a1, a2, a3, N_max)
        for N in range(1, N_max + 1):
            # contiguous copies add up in the order of the N-stage arrays, so each row is bit-identical
            rates, powers = (np.ascontiguousarray(x[:, -N:]) for x in (alloc.rates, alloc.powers))
            rows.append((N, float(rates.sum()), float(np.sum(powers.sum(axis=1)))))
    return rows


def sweep_dof(rows) -> float:
    """Degrees-of-freedom estimate from `nonsym_sweep` rows.

    Estimated as the growth rate of the sum rate against (1/2)log2 of the
    total power between the two deepest feasible layer counts (the
    per-layer-count rate/power ratio approaches the same limit but only as
    O(1/N)); that ratio for a single row; floored at 1 by time sharing.
    No rows measure nothing, so they are refused.
    """
    if not rows:
        raise ValueError("sweep_dof needs at least one row")
    if len(rows) == 1:
        _, r, p = rows[0]
        return max(1.0, r / (0.5 * math.log2(p)))
    (_, r0, p0), (_, r1, p1) = rows[-2], rows[-1]
    slope = (r1 - r0) / (0.5 * (math.log2(p1) - math.log2(p0)))
    return max(1.0, slope)


def dof_nonsym_numeric(a1: float, a2: float, a3: float, N_max: int) -> float:
    """Numeric degrees-of-freedom estimate for the nonsymmetric allocation
    over N = 1..N_max (see `sweep_dof`)."""
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    try:
        return sweep_dof(nonsym_sweep(a1, a2, a3, N_max))
    except AllocationError:  # a squared gain below 2
        return 1.0  # time-sharing fallback
