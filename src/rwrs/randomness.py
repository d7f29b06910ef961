"""Reproducible randomness: seed streams, increment laws, scenery values.

All randomness is counter-based. Sequential streams (walk steps, Gaussian
draws, heavy-tailed jumps) come from numpy's Philox generator keyed by a
hash of ``(master_seed, stream_kind, replicate_index)``; scenery values are
a stateless 64-bit hash of ``(seed, site)``. Replicates can therefore run
in any order, on any worker, and reproduce bit-identically.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import zeta

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# Largest magnitude sampled from the tabulated inverse CDF; beyond it the
# tail is drawn from the analytic power-law approximation.
TAIL_CUTOFF = 1_000_000
# Analytic-tail draws are clipped here so that a single step fits in int64.
MAX_TAIL_STEP = 2**62


def _mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int (mod 2**64)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(*parts: int) -> int:
    state = 0
    for p in parts:
        state = _mix64((state + (p & _MASK64)) & _MASK64)
    return state


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z + np.uint64(_GOLDEN)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class StreamKind(enum.Enum):
    WALK = "walk"
    SCENERY = "scenery"
    KIEFER = "kiefer"
    LEVY = "levy"


_KIND_TAG = {
    StreamKind.WALK: 0x57414C4B,
    StreamKind.SCENERY: 0x5343454E,
    StreamKind.KIEFER: 0x4B494546,
    StreamKind.LEVY: 0x4C455659,
}


@dataclass(frozen=True)
class SeedScheme:
    """Identifies one independent random stream.

    Distinct (master_seed, stream_kind, replicate_index) tuples give
    statistically independent streams.
    """

    master_seed: int
    stream_kind: StreamKind
    replicate_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be >= 0")

    def philox_key(self, salt: int = 0) -> int:
        tag = _KIND_TAG[self.stream_kind]
        lo = _fold(self.master_seed, tag, self.replicate_index, salt, 0x1)
        hi = _fold(self.master_seed, tag, self.replicate_index, salt, 0x2)
        return lo | (hi << 64)


def stream_generator(seed: SeedScheme, salt: int = 0) -> Generator:
    """Philox generator for a seed tuple; ``salt`` derives sub-streams."""
    return Generator(Philox(key=seed.philox_key(salt)))


def derive_site_value(seed: SeedScheme, x) -> float | np.ndarray:
    """Scenery value at integer site(s) ``x``, uniform on (0, 1).

    Deterministic in (seed, x) and independent of query order; for a fixed
    seed the values over distinct sites behave as iid uniforms.
    """
    if seed.stream_kind is not StreamKind.SCENERY:
        raise ValueError("scenery values require a seed with stream_kind=SCENERY")
    base = np.uint64(_fold(seed.master_seed, _KIND_TAG[StreamKind.SCENERY],
                           seed.replicate_index, 0x53495445))
    sites = np.asarray(x, dtype=np.int64)
    scalar = sites.ndim == 0
    counters = np.atleast_1d(sites).astype(np.uint64) * np.uint64(_GOLDEN)
    h = _mix64_array(counters + base)
    vals = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    if scalar:
        return float(vals[0])
    return vals


@dataclass(frozen=True)
class Alpha:
    """Stability index of the attracting law, restricted to (1, 2]."""

    value: float

    def __post_init__(self) -> None:
        if not 1.0 < self.value <= 2.0:
            raise ValueError("alpha must satisfy 1 < alpha <= 2")

    @classmethod
    def of(cls, a) -> "Alpha":
        return a if isinstance(a, Alpha) else cls(float(a))


class LawKind(enum.Enum):
    LAZY_SIMPLE = "lazy_simple"
    SYMMETRIC_POWER_TAIL = "symmetric_power_tail"


@dataclass(frozen=True)
class IncrementLaw:
    """Symmetric integer step law attracted to an alpha-stable limit.

    ``lazy_simple`` (alpha = 2): P(0) = 1/2, P(+-1) = 1/4, variance 1/2.
    ``symmetric_power_tail`` (alpha < 2): P(+-k) = c k^(-alpha-1) for k >= 1
    and P(0) = 1 - 2 c zeta(alpha+1), giving exact tail index alpha.
    """

    alpha: Alpha
    kind: LawKind
    tail_constant: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is LawKind.LAZY_SIMPLE:
            if self.alpha.value != 2.0:
                raise ValueError("lazy_simple law requires alpha = 2")
        else:
            if self.alpha.value >= 2.0:
                raise ValueError("symmetric_power_tail law requires alpha < 2")
            if self.tail_constant < 0.0:
                raise ValueError("tail_constant must be >= 0")
            if self.p_zero < 0.0:
                raise ValueError("tail_constant too large: P(0) would be negative")

    @classmethod
    def lazy_simple(cls) -> "IncrementLaw":
        return cls(Alpha(2.0), LawKind.LAZY_SIMPLE)

    @classmethod
    def power_tail(cls, alpha, tail_constant: float | None = None) -> "IncrementLaw":
        a = Alpha.of(alpha)
        if tail_constant is None:
            # P(0) = 0.6 by default; any positive multiple of k^(-alpha-1)
            # works, fixing one keeps tests reproducible.
            tail_constant = 0.4 / (2.0 * float(zeta(a.value + 1.0)))
        return cls(a, LawKind.SYMMETRIC_POWER_TAIL, float(tail_constant))

    @classmethod
    def for_alpha(cls, alpha) -> "IncrementLaw":
        a = Alpha.of(alpha)
        if a.value == 2.0:
            return cls.lazy_simple()
        return cls.power_tail(a)

    @property
    def p_zero(self) -> float:
        if self.kind is LawKind.LAZY_SIMPLE:
            return 0.5
        return 1.0 - 2.0 * self.tail_constant * float(zeta(self.alpha.value + 1.0))

    def tail_probability(self, k: int) -> float:
        """Exact P(|X| > k) for integer k >= 0."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.kind is LawKind.LAZY_SIMPLE:
            return 0.5 if k == 0 else 0.0
        return 2.0 * self.tail_constant * float(zeta(self.alpha.value + 1.0, k + 1))

    @property
    def stable_scale(self) -> float:
        """Scale of the stable limit of n^(-1/alpha) S_n.

        At alpha < 2 the limit is ``scale`` times a draw of
        :func:`stable_standard_sample` (characteristic function
        exp(-|t|^alpha)). For P(+-k) = c k^(-alpha-1) each tail of the step
        is asymptotically (c/alpha) x^(-alpha), which gives
        scale^alpha = (2c/alpha) Gamma(1-alpha) cos(pi alpha/2)
        (Feller, Vol. II, XVII.5; Samorodnitsky and Taqqu 1994). For the
        lazy simple walk it is the per-step standard deviation sqrt(1/2).
        """
        if self.kind is LawKind.LAZY_SIMPLE:
            return math.sqrt(0.5)
        if self.tail_constant == 0.0:
            raise ValueError("increment law has a degenerate stable limit")
        a = self.alpha.value
        return (2.0 * self.tail_constant / a * math.gamma(1.0 - a)
                * math.cos(math.pi * a / 2.0)) ** (1.0 / a)

    @property
    def max_step(self) -> int:
        """Largest |step| that :func:`sample_increments` can draw."""
        if self.kind is LawKind.LAZY_SIMPLE:
            return 1
        return MAX_TAIL_STEP

    def probability_total(self) -> float:
        """Sum of all probability weights (tabulated part + analytic tail)."""
        if self.kind is LawKind.LAZY_SIMPLE:
            return 1.0
        k = np.arange(1, TAIL_CUTOFF + 1, dtype=np.float64)
        head = 2.0 * self.tail_constant * float(
            np.sum(k ** (-(self.alpha.value + 1.0))))
        return self.p_zero + head + self.tail_probability(TAIL_CUTOFF)


@lru_cache(maxsize=8)
def _magnitude_table(law: IncrementLaw) -> np.ndarray:
    """Cumulative one-sided weights c*sum_{j<=k} j^(-alpha-1), k=1..cutoff."""
    if law.kind is not LawKind.SYMMETRIC_POWER_TAIL:
        raise ValueError("magnitude table only defined for power-tail laws")
    k = np.arange(1, TAIL_CUTOFF + 1, dtype=np.float64)
    w = law.tail_constant * k ** (-(law.alpha.value + 1.0))
    return np.cumsum(w)


def _tail_magnitudes(law: IncrementLaw, u: np.ndarray) -> np.ndarray:
    # Inverse CDF of the analytic tail: continuous Pareto at cutoff+0.5,
    # rounded to the nearest integer >= cutoff+1.
    a = law.alpha.value
    x = (TAIL_CUTOFF + 0.5) * (1.0 - u) ** (-1.0 / a)
    x = np.minimum(x, float(MAX_TAIL_STEP))
    return np.floor(x + 0.5).astype(np.int64)


def sample_increments(law: IncrementLaw, rng: Generator, size: int) -> np.ndarray:
    """Draw ``size`` walk steps from ``law`` as an int64 array."""
    u = rng.random(size)
    if law.kind is LawKind.LAZY_SIMPLE:
        # 2*[u >= 3/4] - [u >= 1/2]: 0 below 1/2, -1 up to 3/4, +1 above
        out = (u >= 0.75).astype(np.int64)
        out *= 2
        out -= u >= 0.5
        return out

    p0 = law.p_zero
    side_mass = law.tail_constant * float(zeta(law.alpha.value + 1.0))
    out = np.zeros(size, dtype=np.int64)
    moving = u >= p0
    if not np.any(moving):
        return out
    z = u[moving] - p0
    neg = z < side_mass
    z = np.where(neg, z, z - side_mass)

    cum = _magnitude_table(law)
    tabulated = z < cum[-1]
    mags = np.empty(z.shape, dtype=np.int64)
    mags[tabulated] = np.searchsorted(cum, z[tabulated], side="right") + 1
    if np.any(~tabulated):
        u_tail = (z[~tabulated] - cum[-1]) / (side_mass - cum[-1])
        mags[~tabulated] = _tail_magnitudes(law, u_tail)
    out[moving] = np.where(neg, -mags, mags)
    return out


def sample_increment(law: IncrementLaw, rng: Generator) -> int:
    """Draw a single walk step."""
    return int(sample_increments(law, rng, 1)[0])


def stable_standard_sample(alpha: Alpha, size: int, rng: Generator) -> np.ndarray:
    """Symmetric alpha-stable draws (unit scale), alpha < 2.

    Uniform-exponential transform: with Theta uniform on (-pi/2, pi/2) and E
    standard exponential,
        sin(a Theta)/cos(Theta)^(1/a) * (cos((1-a) Theta)/E)^((1-a)/a)
    has characteristic function exp(-|t|^a).
    """
    a = alpha.value
    if a >= 2.0:
        raise ValueError("stable sampler is for alpha < 2; use Gaussian draws at alpha = 2")
    theta = np.pi * (rng.random(size) - 0.5)
    expo = rng.standard_exponential(size)
    s = np.sin(a * theta) / np.cos(theta) ** (1.0 / a)
    w = (np.cos((1.0 - a) * theta) / expo) ** ((1.0 - a) / a)
    return s * w

