"""Desk-scale Monte Carlo validation of the lattice schemes.

End-to-end runs at small block length: random codewords, superposition,
transmission with Gaussian noise, sequential stage decoding and error
counting. All randomness derives from a master seed via keyed streams, so
runs are reproducible and trials can be distributed.
"""

from __future__ import annotations

import dataclasses
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
    keyed_stream,
    receive,
    symmetric_channel,
)
from .lattice import (
    Codebook,
    Lattice,
    build_codebook,
    construction_a,
    make_linear_code,
    nearest_points_batch,
    scale_lattice,
)
from .rates import (
    AllocationError,
    _ladder,
    layered_allocation_symmetric,
    stage_constraints_strong,
    very_strong_general,
)

# stream tags for keyed seed derivation
_CODE, _SHIFT, _MSG, _NOISE = 1, 2, 3, 4

_DECODE_BATCH_ELEMS = 6_000_000
_MATCH_TOL = 1e-6

# Caps on the work of one config, measured at n = 10 on 2 cores: 0.91 GB at the trials cap
# (three layers); 0.36 GB and 51 s at the shift_trials cap (p2p), as the shaping frontier is
# capped; candidates run one at a time, so the search budget's cap bounds run time.
MAX_TRIALS = 1_000_000
MAX_SHIFT_TRIALS = 1_000_000
MAX_SEARCH_BUDGET = 10_000
# largest admitted SimConfig.squared_distance_bound, 1.8e8 below the float maximum
MAX_SQUARED_DISTANCE = 1e300


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
        try:
            return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            return False
    return isinstance(value, {"bool": bool, "str": str}[kind])


@dataclass
class SimConfig:
    scheme: str  # "p2p" | "very-strong-sym" | "layered-sym" | "very-strong-general"
    n: int
    trials: int
    master_seed: int
    rates: list[float]
    power: float | None = None
    sigma2: float = 1.0
    a: float | None = None
    N: int = 1
    h: list[list[float]] | None = None
    powers: list[float] | None = None  # per-user, very-strong-general only
    sigma2s: list[float] | None = None  # per-receiver, very-strong-general only
    search_budget: int = 20
    shift_trials: int = 8
    genie: bool = False

    def validate(self) -> None:
        # annotations are strings here (postponed evaluation), e.g. "float | None"
        for f in dataclasses.fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if not (value is None and optional) and not _conforms(value, kind):
                raise ConfigError(f"config field {f.name!r} must be {f.type} (finite, not bool), got {value!r}")
        if self.scheme not in _DRIVERS:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
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
        if self.scheme == "p2p":
            if self.power is None or self.power <= 0:
                raise ConfigError("p2p requires a positive power")
            if len(self.rates) != 1:
                raise ConfigError("p2p uses a single rate")
        elif self.scheme == "very-strong-sym":
            if self.a is None or self.power is None or self.power <= 0:
                raise ConfigError("very-strong-sym requires gain a and power")
            # noiseless hooks (sigma2 < 1) test mechanics only; the regime
            # condition is checked at the nominal unit noise floor
            if squared_gain("config field 'a'", self.a) < self.power / max(self.sigma2, 1.0) + 1.0 - 1e-12:
                raise ConfigError(
                    "very-strong condition a^2 >= P/sigma2 + 1 violated"
                )
            if len(self.rates) != 1:
                raise ConfigError("very-strong-sym uses a single rate")
        elif self.scheme == "layered-sym":
            if self.a is None:
                raise ConfigError("layered-sym requires gain a")
            try:
                _ladder(squared_gain("config field 'a'", self.a))
            except AllocationError as exc:
                raise ConfigError(f"layered-sym: {exc}") from exc
            if not 1 <= self.N <= 3:
                raise ConfigError("layered-sym supports 1 <= N <= 3")
            if len(self.rates) != self.N:
                raise ConfigError("need one rate per layer")
        else:
            if self.h is None or len(self.h) != 3 or any(len(row) != 3 for row in self.h):
                raise ConfigError("very-strong-general requires a 3x3 channel matrix h")
            if self.powers is None or len(self.rates) != 3 or len(self.powers) != 3 or min(self.powers) <= 0:
                raise ConfigError("very-strong-general requires 3 per-user rates and 3 positive powers")
        if not (bound := self.squared_distance_bound()) <= MAX_SQUARED_DISTANCE:
            raise ConfigError(f"decoder squared distances could reach {bound:.3g}, above {MAX_SQUARED_DISTANCE:g}")

    def squared_distance_bound(self) -> float:
        """n * (3S)^2, a bound on every squared distance the decoders compute.

        S = sum_k |g_k| A_k + 40 sigma bounds receiver 1's coordinates: g_k is
        1 for its own user and a, or h12 and h13, for the others; A_k sums
        sqrt(n P_l) over user k's layer powers (the ladder's for layered-sym);
        sigma^2 is the noise power, and 40 sigma is beyond any normal draw. A
        residual stays within 2S and a candidate within S."""
        if self.scheme == "very-strong-general":
            gains, layers, noise = self.h[0], [[P] for P in self.powers], (self.sigma2s or [self.sigma2])[0]
        else:
            if self.scheme == "layered-sym":
                _, base, ratio, _ = _ladder(self.a**2)
                own = [base, base * ratio, base * ratio * ratio][: self.N]  # products: ** raises on overflow
            else:
                own = [self.power]
            gains = [1.0] if self.scheme == "p2p" else [1.0, self.a, self.a]
            layers, noise = [own] * 3, self.sigma2
        S = sum(abs(g) * sum(math.sqrt(self.n * P) for P in ps) for g, ps in zip(gains, layers))
        d = 3.0 * (S + 40.0 * math.sqrt(noise))
        return self.n * d * d

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
    wilson_interval: tuple[float, float]
    meta: dict = field(default_factory=dict)

    @property
    def block_error_rate(self) -> float:
        return self.block_errors / self.trials

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


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _volume_per_word(n: int, power: float, rate: float) -> float:
    """Volume of the shaping sphere of power `power` per word of the 2^(nR)
    codebook target, refused where a term leaves the float range."""
    try:
        vol = math.pi ** (n / 2) * math.sqrt(n * power) ** n / math.gamma(n / 2 + 1) / 2.0 ** (n * rate)
    except OverflowError:
        vol = math.inf
    if not 0.0 < vol < math.inf:
        raise ConfigError(
            f"n={n}, rate={rate!r}, power={power!r}: the shaping-sphere volume per codeword leaves the float range"
        )
    return vol


def _candidate_params(n: int, rate: float) -> list[tuple[int, int]]:
    """(p, k) pairs whose coset count stays enumerable at desk scale."""
    pairs = []
    for p in (5, 7, 11, 13):
        k_est = round(n * max(rate, 0.25) / math.log2(p))
        for k in (k_est, k_est + 1, k_est + 2):
            k = min(max(k, 1), n - 1)
            if p**k <= 100_000 and (p, k) not in pairs:
                pairs.append((p, k))
    return pairs


def design_lattice(
    n: int, power: float, rate: float, p: int, k: int, seed
) -> Lattice:
    """Random (n, k) code over Z_p, scaled so the fundamental volume matches
    the shaping-sphere volume divided by the codeword-count target."""
    gamma = (_volume_per_word(n, power, rate) / p ** (n - k)) ** (1.0 / n)
    return construction_a(make_linear_code(n, k, p, seed), gamma)


def _codebooks(
    cfg: SimConfig, cand: int, lattices, powers: list[float], rates: list[float]
) -> list[Codebook] | None:
    """Shaped codebooks for one candidate index, or None once a layer misses
    its cardinality target. `lattices` is consumed lazily, so no lattice is
    designed after a layer fails."""
    books = []
    for i, (P, R, lat) in enumerate(zip(powers, rates, lattices)):
        seed = keyed_stream(cfg.master_seed, _SHIFT, cand, i)
        cb = build_codebook(lat, P, R, shift_trials=cfg.shift_trials, seed=seed)
        if not cb.target_met:
            return None
        books.append(cb)
    return books


def _layer_codebooks(
    cfg: SimConfig, cand: int, powers: list[float], rates: list[float]
) -> list[Codebook] | None:
    """One independently designed lattice per layer, from the candidate
    index's (p, k) pair."""

    def lattices():
        for i, (P, R) in enumerate(zip(powers, rates)):
            pairs = _candidate_params(cfg.n, R)
            p, k = pairs[cand % len(pairs)]
            yield design_lattice(cfg.n, P, R, p, k, keyed_stream(cfg.master_seed, _CODE, cand, i))

    return _codebooks(cfg, cand, lattices(), powers, rates)


def _search(cfg: SimConfig, build, run) -> ErrorStats:
    """Best-of-budget lattice selection. `build(cand)` returns the candidate's
    codebooks or None to skip it; `run(cand, books)` returns its ErrorStats.
    The first candidate with the fewest block errors wins."""
    best = None
    tried = 0
    for cand in range(cfg.search_budget):
        books = build(cand)
        if books is None:
            continue
        tried += 1
        stats = run(cand, books)
        if best is None or stats.block_errors < best.block_errors:
            best = stats
    if best is None:
        raise ConfigError("no candidate lattice met the codebook cardinality target")
    best.meta["candidates_run"] = tried
    return best


def _stats(bad: np.ndarray, int_errs: list[int], msg_errs: list[int], meta: dict) -> ErrorStats:
    """ErrorStats of a run whose per-trial block failures are `bad`."""
    blocks = int(bad.sum())
    T = len(bad)
    return ErrorStats(T, int_errs, msg_errs, blocks, wilson_interval(blocks, T), meta)


def _layers_meta(books: list[Codebook]) -> list[dict]:
    return [
        {"p": b.lattice.p, "k": b.lattice.code.k, "gamma": b.lattice.gamma, "words": len(b)}
        for b in books
    ]


def _batched_nearest(lat: Lattice, ys: np.ndarray) -> np.ndarray:
    """nearest_points_batch with memory-bounded chunking."""
    m = len(lat.code.codewords)
    chunk = max(1, _DECODE_BATCH_ELEMS // max(1, m * lat.n))
    out = np.empty_like(ys)
    for lo in range(0, len(ys), chunk):
        out[lo : lo + chunk] = nearest_points_batch(lat, ys[lo : lo + chunk])
    return out


_MAX_RESTRICTED_ROWS = 300_000


def _nearest_rows(cands: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Minimum-distance decoding restricted to an explicit candidate set."""
    n = ys.shape[1]
    chunk = max(1, _DECODE_BATCH_ELEMS // max(1, len(cands) * n))
    out = np.empty_like(ys)
    for lo in range(0, len(ys), chunk):
        block = ys[lo : lo + chunk]
        d2 = np.sum((block[:, None, :] - cands[None, :, :]) ** 2, axis=2)
        out[lo : lo + chunk] = cands[np.argmin(d2, axis=1)]
    return out


def _pair_sums(words: np.ndarray, scale: float) -> np.ndarray | None:
    """`scale` times the distinct values of w_j + w_k over unordered pairs
    with repetition, or None when the sumset is too large to enumerate."""
    m = len(words)
    if m * (m + 1) // 2 > _MAX_RESTRICTED_ROWS:
        return None
    iu = np.triu_indices(m)
    sums = words[iu[0]] + words[iu[1]]
    return scale * np.unique(np.round(sums, 9), axis=0)


def _rows_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.max(np.abs(a - b), axis=1) > _MATCH_TOL


def _decode_aggregate(
    sums: np.ndarray | None, lattice: Lattice, shift: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Decode an aggregate interference point: the nearest point of the
    enumerated sumset when it is small enough to list, else the nearest
    point of the aggregate lattice moved by the aggregate shift."""
    if sums is not None:
        return _nearest_rows(sums, ys)
    return _batched_nearest(lattice, ys - shift) + shift


_STRONG_ORDER = ("interference", "message")
_WEAK_ORDER = ("message", "interference")


def _run_symmetric_candidate(
    cfg: SimConfig,
    cand: int,
    books: list[Codebook],
    order: tuple[str, str],
) -> ErrorStats:
    """Full run at receiver 1 for one candidate codebook set.

    Layers are decoded sequentially, each as the stage pair in `order`; with
    the genie flag the true value is fed forward after a stage error so
    per-stage statistics stay clean.
    """
    a = float(cfg.a)
    T, n = cfg.trials, cfg.n
    # one message stream per layer, so genie-mode stage statistics do not
    # depend on the other layers' codebook sizes; columns are the 3 users
    msgs = [
        keyed_stream(cfg.master_seed, _MSG, cand, i).integers(0, len(b), size=(T, 3))
        for i, b in enumerate(books)
    ]
    x = [sum(b.words[m[:, u]] for b, m in zip(books, msgs)) for u in range(3)]
    z = keyed_stream(cfg.master_seed, _NOISE, cand).normal(size=(T, n))
    resid = receive(symmetric_channel(a), 0, x, math.sqrt(cfg.sigma2) * z)

    int_errs, msg_errs = [], []
    block_bad = np.zeros(T, dtype=bool)
    for cb, m in zip(books, msgs):
        w = cb.words
        truth = {"interference": a * (w[m[:, 1]] + w[m[:, 2]]), "message": w[m[:, 0]]}
        # the aggregate of two shifted codewords lies on the a-scaled lattice
        # shifted by twice the (scaled) codebook shift
        sums = _pair_sums(w, a)
        bad = {}
        for stage in order:
            if stage == "interference":
                dec = _decode_aggregate(sums, scale_lattice(cb.lattice, a), 2.0 * a * cb.shift, resid)
            else:
                dec = _nearest_rows(w, resid)
            bad[stage] = _rows_differ(dec, truth[stage])
            resid = resid - (truth[stage] if cfg.genie else dec)
        int_errs.append(int(bad["interference"].sum()))
        msg_errs.append(int(bad["message"].sum()))
        block_bad |= bad["message"]
    return _stats(block_bad, int_errs, msg_errs, {"candidate": cand, "layers": _layers_meta(books)})


def _check_scheme(cfg: SimConfig, scheme: str) -> None:
    cfg.validate()
    if cfg.scheme != scheme:
        raise ConfigError(f"config scheme must be {scheme}")


def _search_symmetric(cfg: SimConfig, powers, rates, order: tuple[str, str]) -> ErrorStats:
    return _search(
        cfg,
        lambda cand: _layer_codebooks(cfg, cand, powers, rates),
        lambda cand, books: _run_symmetric_candidate(cfg, cand, books, order),
    )


def simulate_point_to_point(cfg: SimConfig) -> ErrorStats:
    """Single-user AWGN run: y = x + z, nearest-point decoding restricted to
    the shaping sphere; best-of-budget lattice selection."""
    _check_scheme(cfg, "p2p")

    def run(cand, books):
        cb = books[0]
        msgs = keyed_stream(cfg.master_seed, _MSG, cand).integers(0, len(cb), size=cfg.trials)
        x = cb.words[msgs]
        z = keyed_stream(cfg.master_seed, _NOISE, cand).normal(size=x.shape)
        # no interferers: the receiver model reduces to y = x + z
        y = x + math.sqrt(cfg.sigma2) * z
        dec = _batched_nearest(cb.lattice, y - cb.shift) + cb.shift
        bad = _rows_differ(dec, x)
        # a nearest point outside the shaping sphere is a decoding failure
        bad |= np.sum(dec**2, axis=1) > cfg.n * cfg.power + 1e-9
        return _stats(bad, [0], [int(bad.sum())], {"candidate": cand, "layers": _layers_meta(books)})

    return _search(cfg, lambda cand: _layer_codebooks(cfg, cand, [cfg.power], [cfg.rates[0]]), run)


def simulate_very_strong_symmetric(cfg: SimConfig) -> ErrorStats:
    """Single-layer symmetric run: all users share one codebook, each
    receiver decodes the aggregate interference on the a-scaled lattice,
    subtracts it, then decodes its own codeword."""
    _check_scheme(cfg, "very-strong-sym")
    return _search_symmetric(cfg, [cfg.power], [cfg.rates[0]], _STRONG_ORDER)


def simulate_layered_symmetric(cfg: SimConfig) -> ErrorStats:
    """N-stage successive decoding with the geometric power ladder.

    Strong regime decodes interference before the message at every stage,
    weak regime the reverse. Per-layer rates must not exceed the per-stage
    ceilings.
    """
    _check_scheme(cfg, "layered-sym")
    a2 = cfg.a**2
    alloc = layered_allocation_symmetric(a2, cfg.N)
    powers = list(alloc.powers)
    if alloc.regime == "strong":
        r_int, r_msg = stage_constraints_strong(a2, powers)
        ceil = np.minimum(r_int, r_msg)
        order = _STRONG_ORDER
    else:
        ceil = alloc.rates
        order = _WEAK_ORDER
    for i, r in enumerate(cfg.rates):
        if r > ceil[i] + 1e-12:
            raise ConfigError(
                f"layer {i + 1} rate {r} exceeds its stage ceiling {ceil[i]:.4f}"
            )
    return _search_symmetric(cfg, powers, list(cfg.rates), order)


# ---------------------------------------------------------------------------
# Aligned lattices for nonsymmetric channels
# ---------------------------------------------------------------------------

def align_interference_lattices(
    ch: ChannelMatrix3, base: Lattice, rtol: float = 1e-9
) -> tuple[Lattice, Lattice, Lattice]:
    """Scalings of `base` so the two interference lattices coincide at every
    receiver: h12*L2 = p*h13*L3, h21*L1 = q*h23*L3, h31*L1 = h32*L2.

    The first two equalities fix the scale factors; the third holds
    through the rational cyclic-ratio identity and is verified here.
    """
    h = ch.h
    if np.any(h[~np.eye(3, dtype=bool)] == 0):
        raise ValueError("all cross gains must be nonzero")
    f1, f2, f3 = alignment_factors(ch)
    lhs = abs(h[2, 0] * f1)
    rhs = abs(h[2, 1] * f2)
    if abs(lhs - rhs) > rtol * max(lhs, rhs):
        raise ValueError(
            f"alignment residual {abs(lhs - rhs):.3e} exceeds tolerance; witness inconsistent"
        )
    return (
        scale_lattice(base, f1),
        scale_lattice(base, f2),
        scale_lattice(base, f3),
    )


def simulate_very_strong_general(cfg: SimConfig) -> ErrorStats:
    """Nonsymmetric single-layer run at receiver 1 with aligned per-user
    lattices; interference decoded as one aggregate point on h13*L3."""
    _check_scheme(cfg, "very-strong-general")
    h = np.array(cfg.h, dtype=float)
    witness = class_h1_membership(h)
    if witness is None:
        raise ConfigError("channel matrix has no rational-ratio witness")
    ch = ChannelMatrix3(h, h1_witness=witness)
    sig = cfg.sigma2s or [cfg.sigma2] * 3
    check = very_strong_general(ch, cfg.powers, sig)
    if check is None:
        raise ConfigError("no very-strong condition set holds for this config")

    n, T = cfg.n, cfg.trials
    pairs = _candidate_params(n, max(cfg.rates))
    factors = [abs(f) for f in alignment_factors(ch)]

    def build(cand):
        # base lattice scaled so every user's codebook can meet its target
        p_mod, k = pairs[cand % len(pairs)]
        code = make_linear_code(n, k, p_mod, keyed_stream(cfg.master_seed, _CODE, cand, 0))
        gammas = [
            (_volume_per_word(n, P, R) / p_mod ** (n - k)) ** (1.0 / n) / f
            for P, R, f in zip(cfg.powers, cfg.rates, factors)
        ]
        lats = align_interference_lattices(ch, Lattice(code, 0.98 * min(gammas)))
        return _codebooks(cfg, cand, lats, cfg.powers, cfg.rates)

    def run(cand, books):
        rng_msg = keyed_stream(cfg.master_seed, _MSG, cand)
        xs = [b.words[rng_msg.integers(0, len(b), size=T)] for b in books]
        z = keyed_stream(cfg.master_seed, _NOISE, cand).normal(size=(T, n))
        y = receive(ch, 0, xs, math.sqrt(sig[0]) * z)

        agg_true = h[0, 1] * xs[1] + h[0, 2] * xs[2]
        agg_shift = h[0, 1] * books[1].shift + h[0, 2] * books[2].shift
        sums = None
        if len(books[1]) * len(books[2]) <= _MAX_RESTRICTED_ROWS:
            grid = h[0, 1] * books[1].words[:, None, :] + h[0, 2] * books[2].words[None, :, :]
            sums = np.unique(np.round(grid.reshape(-1, n), 9), axis=0)
        # h12*L2 + h13*L3 lies on h13*L3 (user 3's lattice is the unscaled base)
        agg_lat = scale_lattice(books[2].lattice, h[0, 2])
        dec_i = _decode_aggregate(sums, agg_lat, agg_shift, y)
        bad_i = _rows_differ(dec_i, agg_true)
        dec_m = _nearest_rows(books[0].words, y - (agg_true if cfg.genie else dec_i))
        bad_m = _rows_differ(dec_m, xs[0])
        return _stats(
            bad_m, [int(bad_i.sum())], [int(bad_m.sum())], {"candidate": cand, "condition_set": check[1]}
        )

    return _search(cfg, build, run)


_DRIVERS = {
    "p2p": simulate_point_to_point,
    "very-strong-sym": simulate_very_strong_symmetric,
    "layered-sym": simulate_layered_symmetric,
    "very-strong-general": simulate_very_strong_general,
}


def run_simulation(cfg: SimConfig) -> ErrorStats:
    """Dispatch on the configured scheme."""
    cfg.validate()
    return _DRIVERS[cfg.scheme](cfg)
