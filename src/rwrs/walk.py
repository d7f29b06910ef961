"""Discrete side of the convergence: walks, occupation times, empirical sheets."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .randomness import (
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

    ``values[i, j]`` is the centered indicator sum over the first
    floor(n * s_i) scenery observations at level t_j, raw when
    ``scaled`` is False and multiplied by n^(-1+1/(2 alpha)) afterwards.
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
    """Partial sums S_1..S_n of int64 steps; raises where int64 would wrap.

    ``max_step`` bounds |step| when the caller knows it. Only when
    ``max_step * n`` does not fit in int64 are the steps scanned for their
    largest magnitude, and only when that bound fails too are the sums
    checked: a sum that wraps moves against the sign of its step.
    """
    if max_step is None or max_step * steps.size > _INT64_MAX:
        max_step = max(int(steps.max()), -int(steps.min()))
    positions = np.cumsum(steps)
    if max_step * steps.size > _INT64_MAX:
        prev = positions - steps
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
    steps = np.asarray(steps, dtype=np.int64)
    if steps.size < 1:
        raise ValueError("at least one step required")
    return WalkPath(n=int(steps.size), positions=_positions(steps), law=law, seed=seed)


def occupation_map(path: WalkPath, m: int) -> OccupationMap:
    """Exact visit counts of S_1..S_m (the start S_0 = 0 is not counted)."""
    if not 1 <= m <= path.n:
        raise ValueError("prefix length m must satisfy 1 <= m <= path.n")
    sites, counts = np.unique(path.positions[:m], return_counts=True)
    return OccupationMap(sites=sites, counts=counts, m=m)


def _prefix_cuts(n: int, fractions: np.ndarray) -> np.ndarray:
    # floor(n*s) with a tiny guard against binary representation of decimals
    return np.floor(np.asarray(fractions, dtype=np.float64) * n + 1e-9).astype(np.int64)


def sheet_from_site_values(site_values: np.ndarray, n: int, grid: GridSpec) -> np.ndarray:
    """Raw sheet values from the sequence of scenery observations Y_1..Y_n."""
    y = np.asarray(site_values, dtype=np.float64)
    if y.size != n:
        raise ValueError("need one scenery observation per step")
    buckets = np.searchsorted(grid.t, y, side="left")
    cuts = _prefix_cuts(n, grid.s)
    hist = np.zeros(grid.t.size, dtype=np.int64)
    values = np.empty((grid.s.size, grid.t.size), dtype=np.float64)
    prev = 0
    for i, cut in enumerate(cuts):
        if cut > prev:
            hist += np.bincount(buckets[prev:cut], minlength=grid.t.size)
            prev = cut
        values[i] = np.cumsum(hist) - cut * grid.t
    return values


def empirical_sheet(path: WalkPath, scenery_seed: SeedScheme, grid: GridSpec) -> EmpiricalSheet:
    """Evaluate the raw sequential empirical process of the walk's scenery."""
    y = derive_site_value(scenery_seed, path.positions)
    alpha = path.law.alpha if path.law is not None else Alpha(2.0)
    return EmpiricalSheet(
        values=sheet_from_site_values(y, path.n, grid),
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
    """Scaled occupation cross products over prefixes floor(n*s_i).

    Q[i, j] = n^(-2+1/alpha) * sum_x N_{floor(n s_i)}(x) N_{floor(n s_j)}(x).
    """
    s_vec = np.asarray(s_vec, dtype=np.float64)
    if np.any(np.diff(s_vec) < 0):
        raise ValueError("s_vec must be sorted ascending")
    if np.any((s_vec < 0) | (s_vec > 1)):
        raise ValueError("s_vec entries must lie in [0, 1]")
    a = Alpha.of(alpha)
    n = path.n
    uniq, inverse = np.unique(path.positions, return_inverse=True)
    cuts = _prefix_cuts(n, s_vec)
    counts = np.zeros(uniq.size, dtype=np.int64)
    snapshots = np.empty((s_vec.size, uniq.size), dtype=np.float64)
    prev = 0
    for i, cut in enumerate(cuts):
        if cut > prev:
            counts += np.bincount(inverse[prev:cut], minlength=uniq.size)
            prev = cut
        snapshots[i] = counts
    raw = snapshots @ snapshots.T
    return raw * float(n) ** (-2.0 + 1.0 / a.value)


OCCUPATION_FUNCTIONALS = ("sumN2", "sumN3", "sumN4", "sumN2_sq", "maxN_scaled")


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
