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

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# Largest magnitude sampled from the tabulated inverse CDF; beyond it the
# tail is drawn from the analytic power-law approximation.
TAIL_CUTOFF = 1_000_000
# Analytic-tail draws are clipped here so that a single step fits in int64.
MAX_TAIL_STEP = 2**62
# Entries per block of a replicate kernel's elementwise passes: 64 KiB of
# float64, under glibc's 128 KiB mmap threshold, so block temporaries are
# reused from the heap instead of being mapped, faulted in and unmapped
# again in every replicate. Blocked results equal whole-array ones.
BLOCK = 8192


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


# B_2j/(2j)! for j = 1..8, the coefficients of the Euler-Maclaurin tail.
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600,
              -3617 / 10670622842880000)
# Terms of the Hurwitz sum added one by one before the tail expansion.
_EM_HEAD = 9


def _zeta(s: float, q: float = 1.0) -> float:
    """Hurwitz zeta sum_{k>=0} (q+k)^(-s) for s > 1 and q >= 1.

    Euler-Maclaurin summation (Abramowitz and Stegun 23.2; the method of
    Cephes' ``zeta(x, q)``): the first nine terms are added with
    ``math.fsum``, and the rest, at a = q + 9, is a^(1-s)/(s-1) + a^(-s)/2
    plus sum_{j=1..8} B_2j/(2j)! s(s+1)...(s+2j-2) a^(-s-2j+1). For s <= 3
    the truncation error is far below the rounding error.
    """
    head = math.fsum((q + k) ** -s for k in range(_EM_HEAD))
    a = q + _EM_HEAD
    tail = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s
    rising, power = s, a ** (-s - 1.0)
    for j, coeff in enumerate(_EM_COEFFS):
        tail += coeff * rising * power
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
        power /= a * a
    return head + tail


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
            tail_constant = 0.4 / (2.0 * _zeta(a.value + 1.0))
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
        return 1.0 - 2.0 * self.tail_constant * _zeta(self.alpha.value + 1.0)

    def tail_probability(self, k: int) -> float:
        """Exact P(|X| > k) for integer k >= 0."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.kind is LawKind.LAZY_SIMPLE:
            return 0.5 if k == 0 else 0.0
        return 2.0 * self.tail_constant * _zeta(self.alpha.value + 1.0, k + 1)

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
    """Draw ``size`` walk steps from ``law`` as an int64 array.

    Each step reads one uniform of ``rng.random``. Lazy steps are drawn
    :data:`BLOCK` uniforms at a time straight into the output; since
    ``Generator.random`` takes one 64-bit word per double, in order, the
    steps are those of a single ``rng.random(size)`` call.
    """
    if law.kind is LawKind.LAZY_SIMPLE:
        # 2*[u >= 3/4] - [u >= 1/2]: 0 below 1/2, -1 up to 3/4, +1 above
        out = np.empty(size, dtype=np.int64)
        for lo in range(0, size, BLOCK):
            u = rng.random(min(BLOCK, size - lo))
            block = out[lo:lo + u.size]
            np.greater_equal(u, 0.75, out=block)
            block *= 2
            block -= u >= 0.5
        return out

    u = rng.random(size)
    p0 = law.p_zero
    side_mass = law.tail_constant * _zeta(law.alpha.value + 1.0)
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


# Floor on min(u, 1 - u) in the stable sampler: Generator.random can return
# 0, where cos(Theta) would be 0 and the draw infinite.
_STABLE_V_MIN = 2.0**-54


def stable_standard_sample(alpha: Alpha, size: int, rng: Generator) -> np.ndarray:
    """Symmetric alpha-stable draws (unit scale), alpha < 2.

    Chambers-Mallows-Stuck transform (Chambers, Mallows and Stuck 1976;
    Weron 1996): with Theta = pi (u - 1/2) uniform on (-pi/2, pi/2) and E
    standard exponential,
        sin(a Theta)/cos(Theta)^(1/a) * (cos((1-a) Theta)/E)^((1-a)/a)
    has characteristic function exp(-|t|^a). The stream is read as
    ``rng.random(size)`` followed by ``rng.standard_exponential(size)``.

    Each trigonometric factor is taken from the tangent of a half angle,
    which numpy evaluates in vectorized loops where ``sin`` and ``cos`` may
    fall back to scalar libm: sin x = 2t/(1+t^2) and cos x = (1-t^2)/(1+t^2)
    with t = tan(x/2). For 1 < a < 2 every half angle lies inside
    (-pi/2, pi/2). cos(Theta) is taken as sin(pi v) with v = min(u, 1 - u),
    which keeps its relative accuracy near Theta = +-pi/2; v is floored at
    2^-54 so that u = 0 still gives a finite draw. The powers are one
    ``exp`` of a sum of logarithms. Entries are transformed :data:`BLOCK`
    at a time.
    """
    a = alpha.value
    if a >= 2.0:
        raise ValueError("stable sampler is for alpha < 2; use Gaussian draws at alpha = 2")
    u = rng.random(size)
    out = np.empty(size, dtype=np.float64)
    scratch = np.empty((4, min(size, BLOCK)))
    for lo in range(0, size, BLOCK):
        m = min(BLOCK, size - lo)
        ub, x = u[lo:lo + m], out[lo:lo + m]
        expo, t, w, y = scratch[:, :m]
        rng.standard_exponential(out=expo)
        # y = -log(cos Theta)/a, cos Theta = 2 t/(1 + t^2) at t = tan(pi v/2)
        np.subtract(1.0, ub, out=t)
        np.minimum(t, ub, out=t)
        np.maximum(t, _STABLE_V_MIN, out=t)
        t *= np.pi / 2.0
        np.tan(t, out=t)
        np.multiply(t, t, out=w)
        w += 1.0
        np.divide(t, w, out=y)
        y *= 2.0
        np.log(y, out=y)
        y *= -1.0 / a
        # y += (1-a)/a log(cos((1-a) Theta)/E), with
        # cos((1-a) Theta) = (1 - t^2)/(1 + t^2) at t = tan((1-a) Theta/2)
        np.subtract(ub, 0.5, out=x)
        np.multiply(x, (1.0 - a) * np.pi / 2.0, out=t)
        np.tan(t, out=t)
        t *= t
        np.add(t, 1.0, out=w)
        np.subtract(1.0, t, out=t)
        t /= w
        t /= expo
        np.log(t, out=t)
        t *= (1.0 - a) / a
        y += t
        np.exp(y, out=y)
        # x = sin(a Theta) exp(y), sin(a Theta) = 2 t/(1 + t^2) at t = tan(a Theta/2)
        x *= a * np.pi / 2.0
        np.tan(x, out=x)
        np.multiply(x, x, out=w)
        w += 1.0
        x *= 2.0
        x /= w
        x *= y
    return out

