"""Construction-A lattices: random linear codes over Z_p, scaled integer
cosets, nearest-point quantization and power-constrained codebooks.

All operations are pure functions of their inputs plus an explicit seed;
the types are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import finite_real

# Exhaustive decoding scans one candidate per codeword coset; this caps the
# supported desk scale (n <= 10, p <= 13 with moderate k).
MAX_COSETS = 2_000_000
# Shaping enumeration refuses to expand one shift's frontier beyond this many
# points, and splits a block of shifts whose joint frontier would pass it.
MAX_SPHERE_POINTS = 2_000_000


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _rref_mod_p(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_p. Returns (rref, pivot columns)."""
    m = rows.astype(np.int64) % p
    n_rows, n_cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        sel = None
        for i in range(r, n_rows):
            if m[i, c] % p != 0:
                sel = i
                break
        if sel is None:
            continue
        m[[r, sel]] = m[[sel, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        for i in range(n_rows):
            if i != r and m[i, c] != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


@dataclass(frozen=True)
class LinearCode:
    """A linear (n, k) code over Z_p given by k independent generator rows."""

    n: int
    k: int
    p: int
    generators: np.ndarray  # shape (k, n), entries in {0, ..., p-1}

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        gens = np.asarray(self.generators, dtype=np.int64) % self.p
        if gens.shape != (self.k, self.n):
            raise ValueError(f"generator shape {gens.shape} != ({self.k}, {self.n})")
        object.__setattr__(self, "generators", gens)
        gens.setflags(write=False)
        if len(self._rref[1]) != self.k:
            raise ValueError("generator rows are not independent over Z_p")

    @cached_property
    def _rref(self) -> tuple[np.ndarray, list[int]]:
        return _rref_mod_p(self.generators, self.p)

    def contains(self, word: np.ndarray) -> bool:
        """Membership of a residue vector (mod p) in the code."""
        w = np.asarray(word, dtype=np.int64) % self.p
        if w.shape != (self.n,):
            raise ValueError(f"word length {w.shape} != ({self.n},)")
        rref, pivots = self._rref
        for row, c in zip(rref, pivots):
            if w[c] % self.p != 0:
                w = (w - w[c] * row) % self.p
        return not w.any()

    @cached_property
    def codewords(self) -> np.ndarray:
        """All p**k codewords in lexicographic order, shape (p**k, n)."""
        size = self.p ** self.k
        if size > MAX_COSETS:
            raise ValueError(f"p**k = {size} exceeds enumeration limit {MAX_COSETS}")
        # coefficient vectors in Z_p^k in odometer order: over the RREF rows that
        # is the words' lexicographic order, as a word holds coefficient j at
        # pivot j and only the rows above row j are nonzero before that pivot
        coeffs = np.arange(size)[:, None] // self.p ** np.arange(self.k - 1, -1, -1) % self.p
        return coeffs @ self._rref[0] % self.p

    @cached_property
    def _onehot(self) -> np.ndarray:
        """Shape (n*p, p**k): column c has a 1 at row i*p + codewords[c, i]."""
        words = self.codewords
        onehot = np.zeros((self.n * self.p, len(words)))
        rows = np.arange(self.n) * self.p + words
        onehot[rows, np.arange(len(words))[:, None]] = 1.0
        return onehot


def make_linear_code(n: int, k: int, p: int, seed) -> LinearCode:
    """Sample a random (n, k) code over Z_p with independent generators.

    Deterministic given the seed; resamples until the rank condition holds.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    while True:
        try:
            return LinearCode(n, k, p, rng.integers(0, p, size=(k, n), dtype=np.int64))
        except ValueError:  # dependent rows: p and k are valid, so nothing else fails
            continue


@dataclass(frozen=True)
class Lattice:
    """The point set {gamma * v : v integer, v mod p in code}."""

    code: LinearCode
    gamma: float

    def __post_init__(self):
        if not (finite_real(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def p(self) -> int:
        return self.code.p


def fundamental_volume(lat: Lattice) -> float:
    """Volume of the fundamental cell: gamma**n * p**(n-k)."""
    return lat.gamma ** lat.n * float(lat.p ** (lat.n - lat.code.k))


def is_lattice_point(lat: Lattice, w) -> bool:
    """True iff w is within 1e-9 * gamma (inf-norm) of a lattice point: the
    rounded integer vector v of w / gamma is the only candidate."""
    w = np.asarray(w, dtype=float)
    if w.shape != (lat.n,):
        raise ValueError(f"dimension mismatch: {w.shape} vs ({lat.n},)")
    u = w / lat.gamma
    v = np.round(u).astype(np.int64)
    if np.max(np.abs(u - v)) > 1e-9:
        return False
    return lat.code.contains(v % lat.p)


def _coset_table(lat: Lattice, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, coordinate and residue r, the integer in r + p*Z nearest to
    ys/gamma (shape (T, n, p); exact ties take the smaller integer), and the
    squared distance from each row to every coset (shape (T, p**k)).

    The distance separates by coordinate, so one product of the per-entry
    distances with the codewords' one-hot matrix sums it for all cosets
    (Conway & Sloane, IEEE Trans. IT 1982).
    """
    u = ys / lat.gamma
    residues = np.arange(lat.p, dtype=float)
    t = (u[:, :, None] - residues) / lat.p
    f = np.floor(t)
    z = np.where(t - f <= 0.5, f, f + 1.0)
    cands = residues + lat.p * z
    dist = (u[:, :, None] - cands) ** 2
    return cands, dist.reshape(len(ys), lat.n * lat.p) @ lat.code._onehot


def nearest_point(lat: Lattice, y) -> np.ndarray:
    """Euclidean-nearest lattice point to y: `nearest_points_batch` on one
    row, so it breaks exact ties by the same rule."""
    y = np.asarray(y, dtype=float)
    if y.shape != (lat.n,):
        raise ValueError(f"dimension mismatch: {y.shape} vs ({lat.n},)")
    return nearest_points_batch(lat, y[None, :])[0]


def nearest_points_batch(lat: Lattice, ys: np.ndarray) -> np.ndarray:
    """Euclidean-nearest lattice point to each row of ys (trials, n), exact
    over all p**k cosets; ties between cosets take the first in codeword
    order, ties within one the smaller integer."""
    ys = np.asarray(ys, dtype=float)
    cands, d2 = _coset_table(lat, ys)
    words = lat.code.codewords[np.argmin(d2, axis=1)]
    return lat.gamma * np.take_along_axis(cands, words[:, :, None], axis=2)[:, :, 0]


def scale_lattice(lat: Lattice, c: float) -> Lattice:
    """The point set {c * lam : lam in lat}; sign is absorbed by symmetry."""
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    return Lattice(lat.code, lat.gamma * abs(c))


@dataclass(frozen=True)
class Codebook:
    """(Lattice + shift) intersected with the sphere of per-dim power P."""

    lattice: Lattice
    shift: np.ndarray
    words: np.ndarray  # shape (M, n)
    target_met: bool

    def __len__(self) -> int:
        return len(self.words)


def _shaping_frontier(lat: Lattice, shifts: np.ndarray, power: float):
    """The breadth-first frontier of a trie of codeword prefixes over the
    coordinates, shift-major. A node is (shift, group, z prefix), its group the
    odometer index of the RREF coefficients fixed so far; a pivot column fans
    each node out into its p residues, and each node is expanded into its
    ascending z-range and kept while its squared norm stays <= n * power.
    Returns shift * p**k + coset of each final point and, per level, the parent
    index and coordinate of each kept point; None if a fan-out or a level would
    exceed MAX_SPHERE_POINTS, so memory stays bounded whatever the shifts."""
    n, p, gamma = lat.n, lat.p, lat.gamma
    r2 = n * power
    step = gamma * p
    stride = len(lat.code.codewords)  # codewords per group, contiguous in odometer order
    owner = np.arange(len(shifts))  # shift * (number of groups) + group
    used = np.zeros(len(owner))  # squared norm of each prefix
    levels = []
    for i in range(n):
        fan = p if i in lat.code._rref[1] else 1
        if fan > 1:  # a pivot fixes the next coefficient r: group g fans out into g*p + r
            if len(owner) * p > MAX_SPHERE_POINTS:
                return None
            owner = (owner[:, None] * p + np.arange(p)).ravel()
            used, stride = np.repeat(used, p), stride // p
        b = (gamma * lat.code.codewords[::stride, i] + shifts[:, i, None]).ravel()[owner]
        half = np.sqrt(r2 - used)
        lo = np.ceil((-half - b) / step)
        counts = np.maximum(np.floor((half - b) / step) - lo + 1, 0)
        total = counts.sum()
        if not total <= MAX_SPHERE_POINTS:
            return None
        counts = counts.astype(np.int64)
        # int32 is enough: no level holds more than MAX_SPHERE_POINTS points
        parent = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        # z, then w = b + step*z and u = used + w*w, in place to save memory
        w = lo[parent] + (np.arange(int(total)) - (np.cumsum(counts) - counts)[parent])
        w *= step
        w += b[parent]
        u = w * w
        u += used[parent]
        keep = u <= r2
        parent = parent[keep]
        owner, used = owner[parent], u[keep]
        levels.append((parent // fan, w[keep]))
    return owner, levels


def _enumerate_shifted_spheres(
    lat: Lattice, shifts: np.ndarray, power: float
) -> tuple[int, np.ndarray]:
    """Index of the first of the shifts (rows) whose (lat + shift) has the
    most points of squared norm <= n * power, and those points, ordered by
    (coset, z_0, ..., z_{n-1}) where point = gamma*c + shift + gamma*p*z.

    One trie serves all shifts. Only the winner's words are rebuilt, by
    walking the parent indices back, and come out in z order within each
    coset, so a stable sort by coset orders them. A block of shifts whose
    trie would exceed MAX_SPHERE_POINTS is split in halves; a single shift
    past it raises ValueError.
    """
    grown = _shaping_frontier(lat, shifts, power)
    if grown is None:
        if len(shifts) == 1:
            raise ValueError(
                f"shaping sphere needs over {MAX_SPHERE_POINTS} candidate points "
                f"(n={lat.n}, power={power}, p={lat.p}, gamma={lat.gamma:g})"
            )
        mid = len(shifts) // 2
        first, first_words = _enumerate_shifted_spheres(lat, shifts[:mid], power)
        second, second_words = _enumerate_shifted_spheres(lat, shifts[mid:], power)
        if len(second_words) > len(first_words):
            return mid + second, second_words
        return first, first_words
    owner, levels = grown
    shift, coset = np.divmod(owner, len(lat.code.codewords))
    best = int(np.argmax(np.bincount(shift, minlength=len(shifts))))
    node = np.flatnonzero(shift == best)
    order = np.argsort(coset[node], kind="stable")
    # each level is freed as soon as it is read, before the words are built
    columns = []
    while levels:
        parent, w = levels.pop()
        columns.append(w[node])
        node = parent[node]
    del parent, w, owner, shift, coset
    return best, np.column_stack(columns[::-1])[order]


def build_codebook(
    lat: Lattice,
    power: float,
    target_rate: float,
    shift_trials: int = 1,
    seed=0,
    shift=None,
) -> Codebook:
    """Search random shifts in the fundamental cell and keep the codebook of
    the first shift with the most points. `target_met` records whether
    |C| >= 2**(n*rate); the result is never silently truncated.

    An explicit `shift` bypasses the random search.
    """
    if not 0.0 < power < math.inf:
        raise ValueError(f"power must be positive and finite, got {power!r}")
    if not 0.0 <= target_rate < math.inf:
        raise ValueError(f"target_rate must be nonnegative and finite, got {target_rate!r}")
    if shift_trials < 1:
        raise ValueError("shift_trials must be >= 1")
    n = lat.n
    target = 2.0 ** (n * target_rate)

    if shift is not None:
        shifts = np.broadcast_to(np.asarray(shift, dtype=float), (1, n))
    else:
        # [0, gamma*p)^n tiles space by the sublattice gamma*p*Z^n, so the
        # codebook cardinality as a function of the shift is periodic over it.
        shifts = np.random.default_rng(seed).uniform(0, lat.gamma * lat.p, size=(shift_trials, n))

    best, words = _enumerate_shifted_spheres(lat, shifts, power)
    return Codebook(
        lattice=lat,
        shift=shifts[best].copy(),
        words=words,
        target_met=len(words) >= target - 1e-9,
    )


def count_points_in_box(lat: Lattice, half_width: float) -> int:
    """Number of lattice points in the centered box [-L, L]^n (closed)."""
    L = half_width
    total = 0
    p, gamma = lat.p, lat.gamma
    for c in lat.code.codewords:
        per_coord = (
            np.floor((L / gamma - c) / p) - np.ceil((-L / gamma - c) / p) + 1
        )
        per_coord = np.maximum(per_coord, 0)
        total += int(np.prod(per_coord))
    return total

