"""Discrete side of the convergence: walks, occupation times, empirical sheets."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .randomness import (
    BLOCK,
    Alpha,
    IncrementLaw,
    SeedScheme,
    derive_site_value,
    sample_increments,
    stream_generator,
)


@dataclass(eq=False)
class WalkPath:
    """Lattice positions S_1..S_n of a random walk started at 0."""

    n: int
    positions: np.ndarray
    law: IncrementLaw | None = None
    seed: SeedScheme | None = None


@dataclass(eq=False)
class OccupationMap:
    """Visit counts over the first ``m`` steps, sparse over sites."""

    sites: np.ndarray
    counts: np.ndarray
    m: int

    def as_dict(self) -> dict[int, int]:
        return {int(s): int(c) for s, c in zip(self.sites, self.counts)}

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(eq=False)
class GridSpec:
    """Evaluation lattice on [0,1]^2; both axes strictly ascending with endpoints."""

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        self.s = _validated_axis(np.asarray(self.s, dtype=np.float64), "s")
        self.t = _validated_axis(np.asarray(self.t, dtype=np.float64), "t")

    @classmethod
    def uniform(cls, num_s: int, num_t: int) -> "GridSpec":
        return cls(np.linspace(0.0, 1.0, num_s), np.linspace(0.0, 1.0, num_t))


def _validated_axis(axis: np.ndarray, name: str) -> np.ndarray:
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{name}-grid must be 1-d with at least two points")
    if np.any(np.diff(axis) <= 0):
        raise ValueError(f"{name}-grid must be strictly ascending")
    if axis[0] != 0.0 or axis[-1] != 1.0:
        raise ValueError(f"{name}-grid must include the endpoints 0 and 1")
    return axis


@dataclass(eq=False)
class EmpiricalSheet:
    """Sequential empirical process values on a grid.

    ``values[i, j]`` is the centered indicator sum at level t_j over the
    prefix of the n scenery observations that :func:`prefix_counts` cuts
    at s_i, raw when ``scaled`` is False and multiplied by
    n^(-1+1/(2 alpha)) afterwards.
    """

    values: np.ndarray
    grid: GridSpec
    n: int
    alpha: Alpha
    scaled: bool
    walk_seed: SeedScheme | None = None
    scenery_seed: SeedScheme | None = None


_INT64_MAX = int(np.iinfo(np.int64).max)


def _positions(steps: np.ndarray, max_step: int | None = None) -> np.ndarray:
    """Partial sums S_1..S_n of int64 steps, summed in place; raises where int64 would wrap.

    ``max_step`` bounds |step| when the caller knows it. Only when
    ``max_step * n`` does not fit in int64 are the steps scanned for their
    largest magnitude, and only when that bound fails too are the sums
    checked: a sum that wraps moves against the sign of its step, and the
    wrapping difference of two consecutive sums gives that step back.
    """
    if max_step is None or max_step * steps.size > _INT64_MAX:
        max_step = max(int(steps.max()), -int(steps.min()))
    positions = np.cumsum(steps, out=steps)
    if max_step * steps.size > _INT64_MAX:
        prev = np.concatenate(([0], positions[:-1]))
        steps = positions - prev
        wrapped = ((steps > 0) & (positions < prev)) | ((steps < 0) & (positions > prev))
        if np.any(wrapped):
            k = int(np.argmax(wrapped)) + 1
            raise ValueError(f"walk position S_{k} exceeds the int64 range")
    return positions


def simulate_walk(n: int, law: IncrementLaw, seed: SeedScheme) -> WalkPath:
    """Walk of ``n`` cumulative steps drawn from ``law``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream_generator(seed)
    steps = sample_increments(law, rng, n)
    return WalkPath(n=n, positions=_positions(steps, law.max_step), law=law, seed=seed)


def walk_from_steps(steps, law: IncrementLaw | None = None,
                    seed: SeedScheme | None = None) -> WalkPath:
    """Path built from explicit steps; used for forced/deterministic walks."""
    steps = np.array(steps, dtype=np.int64)
    if steps.size < 1:
        raise ValueError("at least one step required")
    return WalkPath(n=int(steps.size), positions=_positions(steps), law=law, seed=seed)


def site_map(positions: np.ndarray):
    """Ascending sites of the positions and a blockwise map into them.

    Returns ``(sites, sequence, to_index)`` with
    ``sites[to_index(sequence)] == positions``; ``to_index`` maps entries
    one by one, so it can be applied to one block of ``sequence`` at a
    time, as :func:`prefix_counts` does. When the range ``hi - lo`` of the
    positions is below their number, ``sites`` is the whole range
    ``lo..hi`` (unvisited sites included), ``sequence`` is the positions
    themselves and ``to_index`` subtracts ``lo``, at linear cost. Otherwise,
    as for a heavy-tailed walk with a long jump, ``sites`` holds the
    distinct positions only, from ``np.unique``, whose inverse is the
    ``sequence`` and ``to_index`` is the identity. Either way ``sites``
    has at most ``len(positions)`` entries, so per-site work is never more
    than per-step work.
    """
    lo, hi = int(positions.min()), int(positions.max())
    if hi - lo < positions.size:
        return np.arange(lo, hi + 1, dtype=np.int64), positions, lambda p: p - lo
    sites, inverse = np.unique(positions, return_inverse=True)
    return sites, inverse, lambda i: i


def occupation_map(path: WalkPath, m: int) -> OccupationMap:
    """Exact visit counts of S_1..S_m (the start S_0 = 0 is not counted).

    Visits are counted once per site by a ``bincount`` over
    :func:`site_map` of the prefix: over the range lo..hi of S_1..S_m
    when it holds fewer than m sites, over the distinct positions
    otherwise. Sites with no visit are dropped, so ``sites`` holds the
    distinct visited sites in ascending order.
    """
    if not 1 <= m <= path.n:
        raise ValueError("prefix length m must satisfy 1 <= m <= path.n")
    sites, sequence, to_index = site_map(path.positions[:m])
    counts = np.bincount(to_index(sequence), minlength=sites.size)
    visited = np.flatnonzero(counts)
    return OccupationMap(sites=sites[visited], counts=counts[visited], m=m)


def prefix_counts(sequence, size: int, fractions,
                  to_bins=None) -> tuple[np.ndarray, np.ndarray]:
    """Running bin counts over the prefixes a sequence of fractions selects.

    This is the package's one rule from a fraction s to a prefix length:
    ``cuts[i] = floor(len(sequence) * s_i + 1e-9)``, where the guard keeps a
    decimal such as s = 0.57 from landing one short (0.57 * 100 evaluates
    to 56.99999999999999). ``counts[i]`` is the int64 row
    ``np.bincount(bins[:cuts[i]], minlength=size)``, where ``bins`` is
    ``to_bins(sequence)``, or the sequence itself when ``to_bins`` is None.
    Fractions must be ascending and lie in [0, 1]; repeats are allowed.

    The sequence is read :data:`~rwrs.randomness.BLOCK` entries at a time,
    and ``to_bins`` is applied to one block at a time, so bins derived from
    a long sequence never exist at its full length. ``to_bins`` must map
    entries one by one; the counts are then those of the whole-array form.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if np.any(np.diff(fractions) < 0):
        raise ValueError("fractions must be ascending")
    if not np.all((fractions >= 0.0) & (fractions <= 1.0)):
        raise ValueError("fractions must lie in [0, 1]")
    cuts = np.floor(fractions * len(sequence) + 1e-9).astype(np.int64)
    counts = np.empty((cuts.size, size), dtype=np.int64)
    running = np.zeros(size, dtype=np.int64)
    prev = 0
    for i, cut in enumerate(cuts):
        for lo in range(prev, cut, BLOCK):
            block = sequence[lo:min(lo + BLOCK, cut)]
            running += np.bincount(block if to_bins is None else to_bins(block),
                                   minlength=size)
        prev = cut
        counts[i] = running
    return cuts, counts


def _sheet_from_buckets(sequence, grid: GridSpec, to_buckets) -> np.ndarray:
    # to_buckets maps a block of the sequence to, for each Y_k, the first
    # t-level index j with Y_k <= t_j
    cuts, counts = prefix_counts(sequence, grid.t.size, grid.s, to_buckets)
    return np.cumsum(counts, axis=1) - cuts[:, None] * grid.t


def sheet_from_site_values(site_values: np.ndarray, n: int, grid: GridSpec) -> np.ndarray:
    """Raw sheet values from the sequence of scenery observations Y_1..Y_n."""
    y = np.asarray(site_values, dtype=np.float64)
    if y.size != n:
        raise ValueError("need one scenery observation per step")
    return _sheet_from_buckets(
        y, grid, lambda v: np.searchsorted(grid.t, v, side="left"))


def empirical_sheet(path: WalkPath, scenery_seed: SeedScheme, grid: GridSpec) -> EmpiricalSheet:
    """Evaluate the raw sequential empirical process of the walk's scenery.

    Y_k = xi(S_k) depends on the site only, so each site of
    :func:`site_map` is hashed and bucketed on the t-grid once, and the
    steps gather their bucket from it, one block at a time. The sites are
    the range lo..hi of the walk when it holds fewer than n sites, the
    distinct positions otherwise. The values equal
    :func:`sheet_from_site_values` of the per-step observations.
    """
    sites, sequence, to_index = site_map(path.positions)
    buckets = np.searchsorted(grid.t, derive_site_value(scenery_seed, sites), side="left")
    alpha = path.law.alpha if path.law is not None else Alpha(2.0)
    return EmpiricalSheet(
        values=_sheet_from_buckets(sequence, grid, lambda b: buckets[to_index(b)]),
        grid=grid,
        n=path.n,
        alpha=alpha,
        scaled=False,
        walk_seed=path.seed,
        scenery_seed=scenery_seed,
    )


def rescale_exponent(alpha) -> float:
    return -1.0 + 1.0 / (2.0 * Alpha.of(alpha).value)


def rescale_factor(alpha, n: int) -> float:
    return float(n) ** rescale_exponent(alpha)


def rescale(sheet: EmpiricalSheet) -> EmpiricalSheet:
    """Multiply a raw sheet by n^(-1+1/(2 alpha)); rejects double rescaling."""
    if sheet.scaled:
        raise ValueError("sheet is already rescaled")
    factor = rescale_factor(sheet.alpha, sheet.n)
    return replace(sheet, values=sheet.values * factor, scaled=True)


def occupation_quadratic(path: WalkPath, s_vec, alpha) -> np.ndarray:
    """Scaled occupation cross products over the prefixes of ``s_vec``.

    Q[i, j] = n^(-2+1/alpha) * sum_x N_{m_i}(x) N_{m_j}(x), with the prefix
    lengths m_i cut from ``s_vec`` by :func:`prefix_counts`. Visits are
    counted once per site of :func:`site_map`: the range lo..hi of the
    walk when it holds fewer than n sites, the distinct positions
    otherwise; a site with no visit adds nothing. The cross products are
    integers, exact in float64 while they stay below 2^53, that is for n
    up to 2^26.
    """
    sites, sequence, to_index = site_map(path.positions)
    _, counts = prefix_counts(sequence, sites.size, s_vec, to_index)
    snapshots = counts.astype(np.float64)
    raw = snapshots @ snapshots.T
    return raw * float(path.n) ** (-2.0 + 1.0 / Alpha.of(alpha).value)


def occupation_statistic(path: WalkPath, functional: str, alpha=None) -> float:
    """Scalar occupation functional of the full path."""
    counts = occupation_map(path, path.n).counts.astype(np.float64)
    if functional == "sumN2":
        return float(np.sum(counts**2))
    if functional == "sumN3":
        return float(np.sum(counts**3))
    if functional == "sumN4":
        return float(np.sum(counts**4))
    if functional == "sumN2_sq":
        return float(np.sum(counts**2) ** 2)
    if functional == "maxN_scaled":
        if alpha is None:
            if path.law is None:
                raise ValueError("maxN_scaled needs alpha when the path has no law")
            alpha = path.law.alpha
        return float(counts.max()) * rescale_factor(alpha, path.n)
    raise ValueError(f"unknown functional {functional!r}")
