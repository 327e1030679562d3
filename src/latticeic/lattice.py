"""Construction-A lattices: random linear codes over Z_p, scaled integer
cosets, nearest-point quantization and power-constrained codebooks.

All operations are pure functions of their inputs plus an explicit seed;
the types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def rank_mod_p(rows: np.ndarray, p: int) -> int:
    if rows.size == 0:
        return 0
    _, pivots = _rref_mod_p(rows, p)
    return len(pivots)


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
        if self.k > 0 and rank_mod_p(gens, self.p) != self.k:
            raise ValueError("generator rows are not independent over Z_p")
        object.__setattr__(self, "generators", gens)
        gens.setflags(write=False)

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
        """All p**k codewords, shape (p**k, n)."""
        size = self.p ** self.k
        if size > MAX_COSETS:
            raise ValueError(f"p**k = {size} exceeds enumeration limit {MAX_COSETS}")
        if self.k == 0:
            return np.zeros((1, self.n), dtype=np.int64)
        # coefficient vectors in Z_p^k, odometer order
        coeffs = np.stack(
            np.meshgrid(*[np.arange(self.p)] * self.k, indexing="ij"), axis=-1
        ).reshape(-1, self.k)
        words = (coeffs @ self.generators) % self.p
        return np.unique(words, axis=0)

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
    if k == 0:
        return LinearCode(n, 0, p, np.zeros((0, n), dtype=np.int64))
    while True:
        gens = rng.integers(0, p, size=(k, n), dtype=np.int64)
        if rank_mod_p(gens, p) == k:
            return LinearCode(n, k, p, gens)


@dataclass(frozen=True)
class Lattice:
    """The point set {gamma * v : v integer, v mod p in code}."""

    code: LinearCode
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def p(self) -> int:
        return self.code.p


def construction_a(code: LinearCode, gamma: float) -> Lattice:
    return Lattice(code, float(gamma))


def fundamental_volume(lat: Lattice) -> float:
    """Volume of the fundamental cell: gamma**n * p**(n-k)."""
    return lat.gamma ** lat.n * float(lat.p ** (lat.n - lat.code.k))


def is_lattice_point(lat: Lattice, w, tol: float = 1e-9) -> bool:
    """True iff w is within tol (inf-norm) of a lattice point.

    Exact for tol < gamma/2; the rounded integer vector is the only
    candidate in that regime.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    w = np.asarray(w, dtype=float)
    if w.shape != (lat.n,):
        raise ValueError(f"dimension mismatch: {w.shape} vs ({lat.n},)")
    u = w / lat.gamma
    v = np.round(u).astype(np.int64)
    if np.max(np.abs(w - lat.gamma * v)) > tol:
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


def _coset_points(cands: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Integer vectors of the given codeword cosets from a (T, n, p) table;
    words is (T, n), or (m, n) against a single-row table."""
    return np.take_along_axis(cands, words[:, :, None], axis=2)[:, :, 0]


def nearest_point(lat: Lattice, y) -> np.ndarray:
    """Euclidean-nearest lattice point to y; ties broken lexicographically
    on the integer coordinate vector (smallest first).

    Exact: every lattice coset of gamma*p*Z^n contributes its closed-form
    per-coordinate minimizer and the best candidate over all p**k cosets
    is returned.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (lat.n,):
        raise ValueError(f"dimension mismatch: {y.shape} vs ({lat.n},)")
    cands, d2 = _coset_table(lat, y[None, :])
    tied = lat.code.codewords[d2[0] == d2[0].min()]
    v = min(map(tuple, _coset_points(cands, tied)))
    return lat.gamma * np.array(v, dtype=float)


def nearest_points_batch(lat: Lattice, ys: np.ndarray) -> np.ndarray:
    """Vectorized nearest_point over the rows of ys (trials, n); exact ties
    take the first coset in codeword order."""
    ys = np.asarray(ys, dtype=float)
    cands, d2 = _coset_table(lat, ys)
    words = lat.code.codewords[np.argmin(d2, axis=1)]
    return lat.gamma * _coset_points(cands, words)


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

    def __post_init__(self):
        object.__setattr__(self, "shift", np.asarray(self.shift, dtype=float))
        object.__setattr__(self, "words", np.asarray(self.words, dtype=float))

    def __len__(self) -> int:
        return len(self.words)


def _shaping_frontier(lat: Lattice, shifts: np.ndarray, power: float):
    """The breadth-first frontier of every (shift, coset) prefix, shift-major,
    over the coordinates: each prefix is expanded into its ascending z-range
    and kept while its squared norm stays <= n * power. Returns the (shift,
    coset) root of each final point and, per level, the parent index and the
    coordinate of each kept point. None if the roots or a level would
    exceed MAX_SPHERE_POINTS, so memory stays bounded whatever the number
    of shifts; one shift's roots never do, as p**k <= MAX_COSETS =
    MAX_SPHERE_POINTS."""
    if len(shifts) * len(lat.code.codewords) > MAX_SPHERE_POINTS:
        return None
    n, gamma = lat.n, lat.gamma
    r2 = n * power
    step = gamma * lat.p
    offsets = gamma * lat.code.codewords
    owner = np.arange(len(shifts) * len(offsets))  # (shift, coset) root, shift-major
    used = np.zeros(len(owner))  # squared norm of each prefix
    levels = []
    for i in range(n):
        # coordinate i of every root, built one level at a time to save memory
        b = (offsets[:, i] + shifts[:, i, None]).ravel()[owner]
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
        levels.append((parent, w[keep]))
    return owner, levels


def _enumerate_shifted_spheres(
    lat: Lattice, shifts: np.ndarray, power: float
) -> tuple[int, np.ndarray]:
    """Index of the first of the shifts (rows) whose (lat + shift) has the
    most points of squared norm <= n * power, and those points, ordered by
    (coset, z_0, ..., z_{n-1}) where point = gamma*c + shift + gamma*p*z.

    One frontier serves all shifts and only the winner's words are rebuilt,
    by walking the parent indices back. A block of shifts whose frontier
    would exceed MAX_SPHERE_POINTS is split in halves; a single shift past
    it raises ValueError.
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
    sizes = np.bincount(owner // len(lat.code.codewords), minlength=len(shifts))
    best = int(np.argmax(sizes))
    start = int(sizes[:best].sum())
    node = np.arange(start, start + sizes[best])
    # each level is freed as soon as it is read, before the words are built
    columns = []
    while levels:
        parent, w = levels.pop()
        columns.append(w[node])
        node = parent[node]
    del parent, w, owner
    return best, np.column_stack(columns[::-1])


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
    if power <= 0:
        raise ValueError("power must be positive")
    if target_rate < 0:
        raise ValueError("target_rate must be nonnegative")
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

