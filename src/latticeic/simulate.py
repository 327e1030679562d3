"""Desk-scale Monte Carlo validation of the lattice schemes.

End-to-end runs at small block length: random codewords, superposition,
transmission with Gaussian noise, sequential stage decoding and error
counting. All randomness derives from a master seed via keyed streams, so
runs are reproducible and trials can be distributed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelMatrix3,
    alignment_factors,
    class_h1_membership,
    finite_real,
    keyed_stream,
    receive,
    symmetric_channel,
)
from .lattice import (
    Codebook,
    Lattice,
    _enumerate_shifted_spheres,
    build_codebook,
    fundamental_volume,
    make_linear_code,
    nearest_points_batch,
    scale_lattice,
)
from .rates import (
    AllocationError,
    layered_allocation_symmetric,
    stage_constraints_strong,
    very_strong_general,
)

# stream tags for keyed seed derivation
_CODE, _SHIFT, _MSG, _NOISE = 1, 2, 3, 4

_DECODE_BATCH_ELEMS = 6_000_000

# Caps on the work of one config, measured at n = 10 on 2 cores: 0.89 GB at the trials cap
# (three layers); 0.36 GB and 51 s at the shift_trials cap (p2p), as the shaping frontier is
# capped; candidates run one at a time, so the search budget's cap bounds run time.
MAX_TRIALS = 1_000_000
MAX_SHIFT_TRIALS = 1_000_000
MAX_SEARCH_BUDGET = 10_000
# largest admitted _squared_distance_bound, 1.8e8 below the float maximum
MAX_SQUARED_DISTANCE = 1e300
# code moduli of the candidate lattices
_PRIMES = (5, 7, 11, 13)
# most cosets p^k of a candidate lattice that the decoders enumerate
_MAX_COSETS = 100_000


# the fields with a default that each scheme reads; every scheme reads the required fields
_READS = {scheme: {"search_budget", "shift_trials", *fields} for scheme, fields in (
    ("p2p", ["power", "sigma2"]), ("very-strong-sym", ["power", "sigma2", "a", "genie"]),
    ("layered-sym", ["sigma2", "a", "N", "genie"]), ("very-strong-general", ["h", "powers", "sigma2s", "genie"]))}


class ConfigError(ValueError):
    """Invalid simulation configuration."""


def squared_gain(name: str, a: float) -> float:
    """a**2, refused unless the square is finite and positive (tested on
    a * a, which overflows to inf where a**2 raises)."""
    if not 0.0 < a * a < math.inf:
        raise ConfigError(f"{name} squared must be a positive finite number, got {a!r}")
    return a**2


def _conforms(value, kind: str) -> bool:
    """Whether `value` has the type named by a SimConfig annotation such as
    "int" or "list[float]": integers exclude bools, and numbers must be
    finite."""
    if kind.startswith("list["):
        return isinstance(value, list) and all(_conforms(x, kind[5:-1]) for x in value)
    if kind == "int":
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if kind == "float":
        return finite_real(value)
    return isinstance(value, {"bool": bool, "str": str}[kind])


@dataclass
class SimConfig:
    scheme: str  # "p2p" | "very-strong-sym" | "layered-sym" | "very-strong-general"
    n: int
    trials: int
    master_seed: int
    rates: list[float]
    power: float | None = None
    sigma2: float = 1.0  # p2p and the symmetric schemes
    a: float | None = None
    N: int = 1
    h: list[list[float]] | None = None
    powers: list[float] | None = None  # per-user, very-strong-general only
    sigma2s: list[float] | None = None  # per-receiver, very-strong-general only
    search_budget: int = 20
    shift_trials: int = 8
    genie: bool = False

    def validate(self):
        """Refuse every config that a scheme rule forbids and return its run:
        the scheme's driver bound to what it reads, its layer powers [power] for
        p2p, the layer powers and stage order for the symmetric schemes, and the
        channel, per-receiver noise, condition set and alignment factor
        magnitudes for very-strong-general."""
        # annotations are strings here (postponed evaluation), e.g. "float | None"
        for f in dataclasses.fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if not (value is None and optional) and not _conforms(value, kind):
                raise ConfigError(f"config field {f.name!r} must be {f.type} (finite, not bool), got {value!r}")
        if self.scheme not in _READS:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        for f in dataclasses.fields(self):  # a field with a default, set to another value, that the scheme ignores
            if f.default not in (dataclasses.MISSING, getattr(self, f.name)) and f.name not in _READS[self.scheme]:
                raise ConfigError(f"{self.scheme} does not read {f.name!r}")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be nonnegative")
        if not 2 <= self.n <= 10:
            raise ConfigError("block length n must be in [2, 10]")
        for name, low, cap in (("trials", 100, MAX_TRIALS), ("search_budget", 1, MAX_SEARCH_BUDGET),
                               ("shift_trials", 1, MAX_SHIFT_TRIALS)):
            if not low <= getattr(self, name) <= cap:
                raise ConfigError(f"{name} must lie in {low} to {cap}")
        if self.sigma2 <= 0:
            raise ConfigError("sigma2 must be positive")
        if self.sigma2s is not None and (
            len(self.sigma2s) != 3 or any(s <= 0 for s in self.sigma2s)
        ):
            raise ConfigError("sigma2s must hold 3 positive per-receiver noise powers")
        if not self.rates or any(r < 0 for r in self.rates):
            raise ConfigError("rates must be nonnegative and nonempty")
        # k grows with the rate: if the largest rate has a candidate, every layer's rate has one
        if not _candidate_params(self.n, max(self.rates)):
            raise ConfigError(
                f"n={self.n}, rate={max(self.rates)!r}: every candidate lattice has more than {_MAX_COSETS} cosets"
            )
        if self.scheme in ("p2p", "very-strong-sym") and (self.power is None or self.power <= 0):
            raise ConfigError(f"{self.scheme} requires a positive power")
        if self.scheme in ("very-strong-sym", "layered-sym"):
            if self.a is None:
                raise ConfigError(f"{self.scheme} requires gain a")
            a2 = squared_gain("config field 'a'", self.a)
        # Each scheme's powers: user 1's layers (shared by every user of a symmetric scheme), or each user's.
        # Noiseless hooks (a noise below 1) test mechanics only: regime conditions use the noise floor max(noise, 1),
        # an absolute rule, unlike the error counts, which are judged on each lattice's own scale
        if self.scheme == "p2p":
            powers = [self.power]
            self._check_layers(powers, [1.0], [powers], self.sigma2)  # no interferers
            run = functools.partial(_simulate_point_to_point, self, powers)
        elif self.scheme == "very-strong-sym":
            powers = [self.power]
            self._check_layers(powers, [1.0, self.a, self.a], [powers] * 3, self.sigma2)
            if very_strong_general(symmetric_channel(self.a), [self.power] * 3, [max(self.sigma2, 1.0)] * 3) is None:
                raise ConfigError("very-strong condition a^2 >= P/sigma2 + 1 violated")
            run = functools.partial(_simulate_symmetric, self, powers, _STRONG_ORDER)
        elif self.scheme == "layered-sym":
            if not 1 <= self.N <= 3:
                raise ConfigError("layered-sym supports 1 <= N <= 3")
            try:  # a ladder power that overflows to inf is refused by the distance bound
                with np.errstate(over="ignore"):
                    alloc = layered_allocation_symmetric(a2, self.N)
            except AllocationError as exc:
                raise ConfigError(f"layered-sym: {exc}") from exc
            powers = alloc.powers.tolist()
            self._check_layers(powers, [1.0, self.a, self.a], [powers] * 3, self.sigma2)
            if alloc.regime == "strong":
                ceil, order = np.minimum(*stage_constraints_strong(a2, powers)), _STRONG_ORDER
            else:
                ceil, order = alloc.rates, _WEAK_ORDER
            for i, r in enumerate(self.rates):
                if r > ceil[i] + 1e-12:
                    raise ConfigError(f"layer {i + 1} rate {r} exceeds its stage ceiling {ceil[i]:.4f}")
            run = functools.partial(_simulate_symmetric, self, powers, order)
        else:
            if self.powers is None or len(self.powers) != 3 or min(self.powers) <= 0:
                raise ConfigError("very-strong-general requires 3 positive powers")
            if self.h is None or len(self.h) != 3 or any(len(row) != 3 for row in self.h):
                raise ConfigError(f"very-strong-general requires h, a 3x3 gain matrix, got {self.h!r}")
            try:  # unit diagonal, a witness that aligns every receiver
                ch = ChannelMatrix3(self.h, h1_witness=class_h1_membership(self.h))
                factors = [abs(f) for f in alignment_factors(ch)]
            except ValueError as exc:
                raise ConfigError(f"very-strong-general: {exc}") from exc
            powers, noise = self.powers, self.sigma2s or [1.0] * 3
            self._check_layers(powers, self.h[0], [[P] for P in powers], noise[0])
            check = very_strong_general(ch, powers, [max(s, 1.0) for s in noise])
            if check is None:
                raise ConfigError("no very-strong condition set holds for this config")
            run = functools.partial(_simulate_very_strong_general, self, ch, noise, check[1], factors)
        # each layer's or user's lattice is scaled to its shaping-sphere volume per codeword, whose quotient
        # by a candidate's p^(n-k) <= 13^(n-1) cosets must stay positive and finite
        for P, R in zip(powers, self.rates):
            if not 0.0 < _volume_per_word(self.n, P, R) / max(_PRIMES) ** (self.n - 1) < math.inf:
                raise ConfigError(
                    f"n={self.n}, rate={R!r}, power={P!r}: the shaping-sphere volume per codeword leaves the float range"
                )
        return run

    def _check_layers(self, powers: list[float], gains, layers, noise: float):
        """Refuse rates other than one per entry of `powers`, and decoder distances that could pass
        MAX_SQUARED_DISTANCE at receiver 1, with its `gains` on each user's `layers` and its `noise`."""
        if len(self.rates) != len(powers):
            raise ConfigError(f"{self.scheme} needs {len(powers)} rates, got {len(self.rates)}")
        if not (bound := _squared_distance_bound(self.n, gains, layers, noise)) <= MAX_SQUARED_DISTANCE:
            raise ConfigError(f"decoder squared distances could reach {bound:.3g}, above {MAX_SQUARED_DISTANCE:g}")

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class ErrorStats:
    trials: int
    per_stage_interference_errors: list[int]
    per_stage_message_errors: list[int]
    block_errors: int
    meta: dict = field(default_factory=dict)

    @property
    def block_error_rate(self) -> float:
        return self.block_errors / self.trials

    @property
    def wilson_interval(self) -> tuple[float, float]:
        return wilson_interval(self.block_errors, self.trials)

    def to_json_line(self, config: SimConfig) -> str:
        doc = {
            "config_hash": config.config_hash(),
            "scheme": config.scheme,
            "n": config.n,
            "trials": self.trials,
            "stage_errors": {
                "interference": self.per_stage_interference_errors,
                "message": self.per_stage_message_errors,
            },
            "block_error": self.block_error_rate,
            "wilson": list(self.wilson_interval),
            "seed": config.master_seed,
        }
        return json.dumps(doc)


_WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = errors / trials
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _squared_distance_bound(n: int, gains, layers, noise: float) -> float:
    """n * (3S)^2, a bound on every squared distance the decoders compute:
    S = sum_k |g_k| sum_l sqrt(n P_kl) + 40 sigma bounds receiver 1's
    coordinates, over user k's gain g_k there and layer powers P_kl (40 sigma
    is beyond any normal draw), so a residual stays within 2S."""
    S = sum(abs(g) * sum(math.sqrt(n * P) for P in ps) for g, ps in zip(gains, layers))
    d = 3.0 * (S + 40.0 * math.sqrt(noise))
    return n * d * d


def _volume_per_word(n: int, power: float, rate: float) -> float:
    """Volume of the shaping sphere of power `power` per word of the 2^(nR)
    codebook target; inf where a term overflows, 0 where it underflows."""
    try:
        return math.pi ** (n / 2) * math.sqrt(n * power) ** n / math.gamma(n / 2 + 1) / 2.0 ** (n * rate)
    except OverflowError:
        return math.inf


def _cell_scale(n: int, power: float, rate: float, p: int, k: int) -> float:
    """Scale gamma of a Construction-A lattice over an (n, k) code mod p whose
    fundamental volume gamma^n p^(n-k) equals `_volume_per_word`;
    `SimConfig.validate` keeps gamma positive and finite."""
    return (_volume_per_word(n, power, rate) / p ** (n - k)) ** (1.0 / n)


def _candidate_params(n: int, rate: float) -> list[tuple[int, int]]:
    """(p, k) pairs whose coset count stays enumerable at desk scale."""
    pairs = []
    for p in _PRIMES:
        k_est = round(n * max(rate, 0.25) / math.log2(p))
        for k in (k_est, k_est + 1, k_est + 2):
            k = min(max(k, 1), n - 1)
            if p**k <= _MAX_COSETS and (p, k) not in pairs:
                pairs.append((p, k))
    return pairs


def _layer_lattices(cfg: SimConfig, powers: list[float], cand: int):
    """One independently designed lattice per layer, lazily: a random code of
    the candidate index's (p, k) pair, scaled by `_cell_scale`."""
    for i, (P, R) in enumerate(zip(powers, cfg.rates)):
        pairs = _candidate_params(cfg.n, R)
        p, k = pairs[cand % len(pairs)]
        gamma = _cell_scale(cfg.n, P, R, p, k)
        yield Lattice(make_linear_code(cfg.n, k, p, keyed_stream(cfg.master_seed, _CODE, cand, i)), gamma)


def _search(cfg: SimConfig, powers: list[float], lattices, run) -> ErrorStats:
    """Best-of-budget lattice selection. Candidate `cand` shapes one codebook per
    lattice of the lazy iterable `lattices(cand)`, with that layer's power, rate
    and shift stream, and is skipped at the first codebook that misses its size
    target, so no later lattice is designed. `run(cand, books)` returns its
    ErrorStats; the first candidate with the fewest block errors wins."""
    best, tried = None, 0
    for cand in range(cfg.search_budget):
        books = []
        for i, (P, R, lat) in enumerate(zip(powers, cfg.rates, lattices(cand))):
            seed = keyed_stream(cfg.master_seed, _SHIFT, cand, i)
            books.append(build_codebook(lat, P, R, shift_trials=cfg.shift_trials, seed=seed))
            if not books[-1].target_met:
                break
        else:  # every codebook met its target
            tried += 1
            stats = run(cand, books)
            stats.meta["candidate"] = cand
            if best is None or stats.block_errors < best.block_errors:
                best = stats
    if best is None:
        raise ConfigError("no candidate lattice met the codebook cardinality target")
    best.meta["candidates_run"] = tried
    return best


def _layers_meta(books: list[Codebook]) -> list[dict]:
    return [
        {"p": b.lattice.p, "k": b.lattice.code.k, "gamma": b.lattice.gamma, "words": len(b)}
        for b in books
    ]


def _chunked(decode, ys: np.ndarray, m: int) -> np.ndarray:
    """decode(block) over blocks of the rows of `ys`, with rows times m
    candidates times n coordinates at most _DECODE_BATCH_ELEMS per block."""
    chunk = max(1, _DECODE_BATCH_ELEMS // max(1, m * ys.shape[1]))
    out = np.empty_like(ys)
    for lo in range(0, len(ys), chunk):
        out[lo : lo + chunk] = decode(ys[lo : lo + chunk])
    return out


_MAX_RESTRICTED_ROWS = 300_000


def _squared_distances(block: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """(T, m) squared distances of T rows to m candidates: the reference that
    fixes every decoded row of `_nearest_rows`, and its fallback where the BLAS
    ranking cannot certify the minimum. `_chunked` bounds the (T, m, n) cube."""
    d = block[:, None] - cands[None]
    return np.sum(np.square(d, out=d), axis=2)


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _nearest_rows(cands: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Minimum-distance decoding restricted to an explicit candidate set: for
    every row y, bit for bit cands[np.argmin(_squared_distances(ys, cands), axis=1)].

    Candidates are ranked by ||c||^2 - 2 y.c, one BLAS product per block of rows
    (||y||^2 is the same for every candidate of a row). Certificate, with
    u = eps/2 and R = ||y|| + max ||c||: the ranked value is within
    (n+1) u R^2 of d - ||y||^2 in any summation order, and `_squared_distances`
    within (n+2) u d of the exact distance d <= R^2, plus at most `tiny` (the
    smallest normal float) per product that underflows. So where the runner-up
    lies more than twice their total above the minimum, both pick the same,
    unique candidate. Every row whose gap is at most 8 (n+4) (eps R^2 + tiny),
    exact ties included, is decoded again by `_squared_distances`, whose
    (rows, m, n) cube stays within the block's `_DECODE_BATCH_ELEMS` budget.
    `SimConfig.validate` keeps R^2 below 1e300."""
    n = cands.shape[1]
    cc = np.einsum("ij,ij->i", cands, cands)
    neg2c = -2.0 * cands
    c_max = math.sqrt(cc.max())

    def decode(block):
        d = block @ neg2c.T  # -2 y.c, in place below: one (rows, m) buffer
        d += cc
        rows = np.arange(len(block))
        idx = np.argmin(d, axis=1)
        low = d[rows, idx]
        d[rows, idx] = np.inf
        gap = d.min(axis=1) - low  # inf for a single candidate
        reach = np.sqrt(np.einsum("ij,ij->i", block, block)) + c_max
        near = np.flatnonzero(gap <= 8 * (n + 4) * (_EPS * reach * reach + _TINY))
        if near.size:
            idx[near] = np.argmin(_squared_distances(block[near], cands), axis=1)
        return cands[idx]

    return _chunked(decode, ys, len(cands))


def _nearest_on_lattice(lat: Lattice, shift: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Nearest points of the lattice moved by `shift`, over all its cosets."""
    return _chunked(lambda block: nearest_points_batch(lat, block - shift) + shift, ys, len(lat.code.codewords))


def _voronoi_errors(lat: Lattice, shift: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bit for bit _rows_differ(_nearest_on_lattice(lat, shift, y), x, lat.gamma),
    for rows x that are points of the lattice moved by `shift`, decoding only
    the rows that a test of the Voronoi cell cannot settle.

    In lattice units the coset table decodes u = (y - shift)/gamma, and x is
    k = rint((x - shift)/gamma), exactly: the shaping trie lists at most
    MAX_SPHERE_POINTS values of a coordinate, so |x - shift|/gamma stays far
    below 2^50. With e = u - k, the table returns k iff no lattice vector
    v != 0 has margin |v|^2 - 2 e.v < 0, i.e. iff the noise stays in k's
    Voronoi cell (Agrell, Eriksson, Vardy & Zeger 2002), and every v with
    |v|^2 >= 4|e|^2 + 2B has margin > B. The shaping trie lists the short
    vectors of the unit-scale lattice once, and the rows, sorted by |e|, take
    one BLAS product per block against the vectors below the block's largest
    4|e|^2 + 3B.

    Band, with R = max|u_i| + |e| + p: the table's coset distances are within
    (n+2) eps/2 of their sums of squares, plus 2 eps p |u_i - r| for each
    coordinate where rounding may move its nearest integer in r + pZ across a
    midpoint, so the table keeps k where the true margin is above
    (3n+3) eps R^2 and leaves it where the margin is below minus that. The
    margin computed here is within (n+3) eps (|e||v| + |v|^2) <= 7 (n+3) eps R^2
    of the true one. Each adds at most `tiny` per product that underflows. A
    row goes to `_nearest_on_lattice` if its smallest margin lies within
    B = 4 (n+4)^2 (eps R^2 + tiny) of 0, exact ties included, if B >= 1/2, or
    if its 4|e|^2 + 3B passes the squared radius of the ball that holds p^k
    lattice points on average, so no row costs more than the coset scan. A
    kept row decodes to x's lattice point gamma*k + shift, so it is correct. A
    left row decodes to some k' != k with |k' - u| <= |e|, which differs from
    x by at least gamma (1 - 12 eps R) in some coordinate; as R >= p > 1,
    12 eps R < B < 1/2, so that passes gamma/2 and the row is an error."""
    n, p = lat.n, lat.p
    u = (y - shift) / lat.gamma
    k = np.rint((x - shift) / lat.gamma)
    e = u - k
    ee = np.einsum("ij,ij->i", e, e)
    reach = np.abs(u).max(axis=1) + np.sqrt(ee) + p
    band = 4 * (n + 4) ** 2 * (_EPS * reach * reach + _TINY)
    need = 4 * ee + 3 * band
    unit = Lattice(lat.code, 1.0)
    cap = (p**lat.code.k * fundamental_volume(unit) * math.gamma(n / 2 + 1) / math.pi ** (n / 2)) ** (2 / n)
    rows = np.flatnonzero((need <= cap) & (band < 0.5))
    rows = rows[np.argsort(need[rows], kind="stable")]
    verdict = np.zeros(len(y), dtype=np.int8)  # 1 kept, -1 left, 0 undecided
    if rows.size:
        # squared norms are integers, so the trie at need + 1 lists every v with |v|^2 < need
        _, vecs = _enumerate_shifted_spheres(unit, np.zeros((1, n)), (need[rows[-1]] + 1.0) / n)
        vv = np.einsum("ij,ij->i", vecs, vecs)
        by = np.argsort(vv, kind="stable")[1:]  # drops the zero vector
        neg2, vv = -2.0 * vecs[by], vv[by]
        counts = np.searchsorted(vv, need[rows])  # each row's prefix of the vectors
        lo = 0
        while lo < len(rows):
            # a block holds the rows whose prefix is at most twice its first row's, so no row does
            # more than twice its own work, and `_chunked`'s budget bounds its product
            top = 2 * max(1, counts[lo])
            hi = min(np.searchsorted(counts, top, side="right"), lo + max(1, _DECODE_BATCH_ELEMS // (n * top)))
            blk, m = rows[lo:hi], counts[hi - 1]
            d = e[blk] @ neg2[:m].T
            d += vv[:m]
            low = d.min(axis=1, initial=np.inf)
            verdict[blk] = (low > band[blk]).astype(np.int8) - (low < -band[blk])
            lo = hi
    bad, rest = verdict < 0, verdict == 0
    bad[rest] = _rows_differ(_nearest_on_lattice(lat, shift, y[rest]), x[rest], lat.gamma)
    return bad


def _pair_sums(words: np.ndarray, lat: Lattice, shift: np.ndarray) -> np.ndarray | None:
    """The distinct points w_j + w_k of `lat` moved by `shift`, over unordered
    pairs with repetition, or None when the sumset is too large to enumerate."""
    m = len(words)
    if m * (m + 1) // 2 > _MAX_RESTRICTED_ROWS:
        return None
    iu = np.triu_indices(m)
    return _distinct_points(words[iu[0]] + words[iu[1]], lat, shift)


def _distinct_points(x: np.ndarray, lat: Lattice, shift: np.ndarray) -> np.ndarray:
    """The distinct points of `lat` moved by `shift` nearest to the rows of `x`,
    in lexicographic order: gamma * s + shift over the distinct integer rows s
    of rint((x - shift) / gamma), so rows a rounding error apart merge."""
    s = x - shift
    np.rint(np.divide(s, lat.gamma, out=s), out=s)  # in place: a sumset may hold _MAX_RESTRICTED_ROWS rows
    s = s[np.lexsort(s.T[::-1])]
    keep = np.ones(len(s), dtype=bool)
    np.any(s[1:] != s[:-1], axis=1, out=keep[1:])
    return lat.gamma * s[keep] + shift


def _rows_differ(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Per row, whether points a and b of a lattice of scale `gamma` differ:
    distinct points of gamma * L, L in Z^n, differ by at least gamma in some
    coordinate, and rounding moves a decoded point by far less than gamma/2."""
    return np.max(np.abs(a - b), axis=1) > gamma / 2


_STRONG_ORDER = ("interference", "message")
_WEAK_ORDER = ("message", "interference")


def _decode_stages(cfg: SimConfig, resid: np.ndarray, layers, order: tuple[str, str], meta: dict) -> ErrorStats:
    """Successive decoding at receiver 1 of the received rows `resid`.

    Each layer is (own Codebook, own truth, aggregate truth, sumset or None,
    aggregate lattice, aggregate shift) and is decoded as the stage pair in
    `order`: the aggregate interference point is the nearest point of the
    sumset when it is small enough to list, else of the aggregate lattice
    moved by the aggregate shift; the own codeword is the nearest own word.
    A stage errs where `_rows_differ` finds its decode off the truth on that
    stage's lattice: the own lattice, or the aggregate one.
    With the genie flag the true value is fed forward after a stage error so
    per-stage statistics stay clean.
    """
    int_errs, msg_errs = [], []
    block_bad = np.zeros(len(resid), dtype=bool)
    for book, own, agg, sums, lat, shift in layers:
        truth, bad = {"interference": agg, "message": own}, {}
        for stage in order:
            if stage == "message":
                dec, gamma = _nearest_rows(book.words, resid), book.lattice.gamma
            elif sums is not None:
                dec, gamma = _nearest_rows(sums, resid), lat.gamma
            else:
                dec, gamma = _nearest_on_lattice(lat, shift, resid), lat.gamma
            bad[stage] = _rows_differ(dec, truth[stage], gamma)
            resid = resid - (truth[stage] if cfg.genie else dec)
        int_errs.append(int(bad["interference"].sum()))
        msg_errs.append(int(bad["message"].sum()))
        block_bad |= bad["message"]
    return ErrorStats(len(resid), int_errs, msg_errs, int(block_bad.sum()), meta)


def _simulate_point_to_point(cfg: SimConfig, powers: list[float]) -> ErrorStats:
    """Single-user AWGN run: y = x + z, an error wherever nearest-point
    decoding on the shifted lattice misses the sent codeword (so also wherever
    it leaves the shaping sphere); best-of-budget lattice selection. The
    errors are counted by `_voronoi_errors`: a row errs iff z leaves the sent
    point's Voronoi cell, and only the rows that test cannot settle are
    decoded over every coset."""

    def run(cand, books):
        cb = books[0]
        msgs = keyed_stream(cfg.master_seed, _MSG, cand).integers(0, len(cb), size=cfg.trials)
        x = cb.words[msgs]
        z = keyed_stream(cfg.master_seed, _NOISE, cand).normal(size=x.shape)
        # no interferers: the receiver model reduces to y = x + z
        y = x + math.sqrt(cfg.sigma2) * z
        errors = int(_voronoi_errors(cb.lattice, cb.shift, x, y).sum())
        return ErrorStats(cfg.trials, [0], [errors], errors, {"layers": _layers_meta(books)})

    return _search(cfg, powers, lambda cand: _layer_lattices(cfg, powers, cand), run)


def _simulate_symmetric(cfg: SimConfig, powers: list[float], order: tuple[str, str]) -> ErrorStats:
    """Symmetric run: every user sends one word per layer from the layer's
    shared codebook, and receiver 1 decodes layer by layer.

    very-strong-sym is one layer at `cfg.power`, interference first.
    layered-sym takes the geometric power ladder: the strong regime decodes
    interference before the message at every stage, the weak regime the
    reverse.
    """
    a = float(cfg.a)

    def run(cand, books):
        T = cfg.trials
        # one message stream per layer, so genie-mode stage statistics do not
        # depend on the other layers' codebook sizes; columns are the 3 users
        msgs = [
            keyed_stream(cfg.master_seed, _MSG, cand, i).integers(0, len(b), size=(T, 3))
            for i, b in enumerate(books)
        ]
        x = [sum(b.words[m[:, u]] for b, m in zip(books, msgs)) for u in range(3)]
        z = keyed_stream(cfg.master_seed, _NOISE, cand).normal(size=(T, cfg.n))
        resid = receive(symmetric_channel(a), 0, x, math.sqrt(cfg.sigma2) * z)
        # the aggregate of two shifted codewords lies on the a-scaled lattice
        # shifted by twice the (scaled) codebook shift; built one layer at a time
        def layer(b, m):
            lat, shift = scale_lattice(b.lattice, a), 2.0 * a * b.shift
            agg = a * (b.words[m[:, 1]] + b.words[m[:, 2]])
            return b, b.words[m[:, 0]], agg, _pair_sums(a * b.words, lat, shift), lat, shift

        layers = (layer(b, m) for b, m in zip(books, msgs))
        return _decode_stages(cfg, resid, layers, order, {"layers": _layers_meta(books)})

    return _search(cfg, powers, lambda cand: _layer_lattices(cfg, powers, cand), run)


# ---------------------------------------------------------------------------
# Aligned lattices for nonsymmetric channels
# ---------------------------------------------------------------------------

def align_interference_lattices(ch: ChannelMatrix3, base: Lattice) -> tuple[Lattice, Lattice, Lattice]:
    """Scalings of `base` by `channel.alignment_factors`, so the two
    interference lattices coincide at every receiver: h12*L2 = p*h13*L3,
    h21*L1 = q*h23*L3, h31*L1 = h32*L2 (refused there if they do not)."""
    return tuple(scale_lattice(base, f) for f in alignment_factors(ch))


def _simulate_very_strong_general(cfg: SimConfig, ch: ChannelMatrix3, noise: list[float], condition_set: int,
                                  factors: list[float]) -> ErrorStats:
    """Nonsymmetric single-layer run at receiver 1 with aligned per-user
    lattices; interference decoded as one aggregate point on h13*L3."""
    h, n, T = ch.h, cfg.n, cfg.trials
    pairs = _candidate_params(n, max(cfg.rates))

    def lattices(cand):
        # base lattice scaled so every user's codebook can meet its target
        p_mod, k = pairs[cand % len(pairs)]
        code = make_linear_code(n, k, p_mod, keyed_stream(cfg.master_seed, _CODE, cand, 0))
        gammas = [_cell_scale(n, P, R, p_mod, k) / f for P, R, f in zip(cfg.powers, cfg.rates, factors)]
        base = Lattice(code, 0.98 * min(gammas))
        return [scale_lattice(base, f) for f in factors]

    def run(cand, books):
        rng_msg = keyed_stream(cfg.master_seed, _MSG, cand)
        xs = [b.words[rng_msg.integers(0, len(b), size=T)] for b in books]
        z = keyed_stream(cfg.master_seed, _NOISE, cand).normal(size=(T, n))
        y = receive(ch, 0, xs, math.sqrt(noise[0]) * z)
        # h12*L2 + h13*L3 lies on h13*L3 (user 3's lattice is the unscaled base)
        lat, shift = scale_lattice(books[2].lattice, h[0, 2]), h[0, 1] * books[1].shift + h[0, 2] * books[2].shift
        sums = None
        if len(books[1]) * len(books[2]) <= _MAX_RESTRICTED_ROWS:
            grid = h[0, 1] * books[1].words[:, None, :] + h[0, 2] * books[2].words[None, :, :]
            sums = _distinct_points(grid.reshape(-1, n), lat, shift)
        layer = (books[0], xs[0], h[0, 1] * xs[1] + h[0, 2] * xs[2], sums, lat, shift)
        return _decode_stages(cfg, y, [layer], _STRONG_ORDER, {"condition_set": condition_set})

    return _search(cfg, cfg.powers, lattices, run)


def run_simulation(cfg: SimConfig) -> ErrorStats:
    """The one way to run a simulation: validate the config once, then call
    the run it returns, its scheme's driver bound to what that driver reads."""
    return cfg.validate()()
