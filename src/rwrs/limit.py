"""Limit side of the convergence: stable paths, local time, the limit sheet.

The limit sheet W(s, t) = int L_s(x) dK(x, t) integrates the local time of a
stable path against an independent Kiefer sheet K. Given the path, W is
centered Gaussian with covariance (min(t,t') - t t') R(s,s'), R the Gram
int L_s L_s' dx of the local time, so on k s-cuts it is drawn as A B, with
A A^T = R and k Brownian bridges in B. R is an exact integer product of the
box counts, scaled once, and A B comes from ``einsum``, which uses no BLAS,
so neither depends on the BLAS thread count. A comes from LAPACK's ``eigh``,
whose bits matched at 1 and 2 OpenBLAS threads on up to 193 s-cuts but not
on 225 or more, where LAPACK hands larger blocks to threaded BLAS.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .randomness import (
    Alpha,
    SeedScheme,
    StreamKind,
    stable_standard_sample,
    stream_generator,
)
from .walk import _validated_axis, prefix_counts

# Largest path length whose local-time Gram is exact in float64: every product
# and partial sum of its count product is an integer of at most steps^2 < 2^53.
MAX_STEPS = 1 << 26


@dataclass(eq=False)
class LevyPath:
    """Stable path sampled on the uniform time grid k/steps, k=0..steps."""

    alpha: Alpha
    scale: float
    values: np.ndarray
    seed: SeedScheme | None = None

    @property
    def steps(self) -> int:
        return self.values.size - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) / self.steps


@dataclass(eq=False)
class LocalTimeField:
    """Box-counting local time on uniform spatial cells [x_j, x_j + dx).

    ``counts[i, j]`` is the number of grid times u_k, 1 <= k <= cut_i, with
    the path in cell j; the local time is ``counts / (steps * dx)``.
    """

    x_left: np.ndarray
    dx: float
    s_cuts: np.ndarray
    counts: np.ndarray  # int64, shape (len(s_cuts), cells)
    steps: int
    alpha: Alpha | None = None
    scale: float | None = None
    seed: SeedScheme | None = None

    @property
    def cells(self) -> int:
        return self.x_left.size

    @property
    def values(self) -> np.ndarray:
        return self.counts * (1.0 / (self.steps * self.dx))

    @cached_property
    def gram(self) -> np.ndarray:
        """R[i, j] = sum_x L[s_i][x] L[s_j][x] dx over every pair of cuts.

        The counts' product is exact (see ``MAX_STEPS``), in any summation
        order; the one rounding is the division by steps^2 * dx.
        """
        if self.steps > MAX_STEPS:
            raise ValueError(f"the local-time Gram is exact only for at most "
                             f"{MAX_STEPS} steps")
        c = self.counts.astype(np.float64)
        return (c @ c.T) / (float(self.steps) ** 2 * self.dx)


@dataclass(eq=False)
class LimitSheet:
    """Grid sample of the limit sheet: local time integrated against dK."""

    values: np.ndarray  # shape (len(s_cuts), len(t_grid))
    s_cuts: np.ndarray
    t_grid: np.ndarray
    provenance: dict | None = None


def simulate_levy_path(alpha, scale: float, steps: int, seed: SeedScheme) -> LevyPath:
    """Stable path from iid increments: Gaussian at alpha=2, stable below.

    Increment scale is ``scale * (1/steps)^(1/alpha)`` so the marginal at
    time 1 has scale ``scale`` regardless of resolution.
    """
    a = Alpha.of(alpha)
    if scale <= 0.0:
        raise ValueError("scale must be > 0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = stream_generator(seed)
    values = np.empty(steps + 1, dtype=np.float64)
    values[0] = 0.0
    increments = values[1:]
    if a.value == 2.0:
        rng.standard_normal(out=increments)
        increments *= scale * steps**-0.5
        np.cumsum(increments, out=increments)
    else:
        draws = stable_standard_sample(a, steps, rng)
        draws *= scale * float(steps) ** (-1.0 / a.value)
        np.cumsum(draws, out=increments)
    return LevyPath(alpha=a, scale=float(scale), values=values, seed=seed)


def levy_from_values(values, alpha, scale: float = 1.0) -> LevyPath:
    """Path wrapper around explicit grid values; used for forced paths."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2 or values[0] != 0.0:
        raise ValueError("values must start at 0 and contain at least one step")
    return LevyPath(alpha=Alpha.of(alpha), scale=float(scale), values=values)


def default_cell_width(path: LevyPath, cells: int) -> float:
    """Cell width making the path range span roughly ``cells`` cells."""
    if cells < 1:
        raise ValueError("cells must be >= 1")
    span = float(path.values.max() - path.values.min())
    if span <= 0.0:
        span = 1.0
    return span / cells


def local_time_field(path: LevyPath, dx: float, s_cuts) -> LocalTimeField:
    """Box-counting local time estimate at each s-cut.

    L[s][x_j] counts the grid times u_k, 1 <= k <= cut, with the path in
    cell j, normalized by steps * dx so that sum_j L[s][x_j] dx equals
    cut / steps exactly; s is cut by the rule of :func:`rwrs.walk.prefix_counts`.

    A sample v falls in cell ``1 + int((v - lo) / dx)``, lo the path's
    minimum, computed per block of :func:`rwrs.walk.prefix_counts`: the same
    subtraction, division and truncation as on the whole path, so the bins
    do not depend on the blocking. The minimum lands in cell 1 and, rounding
    being monotone, no sample lands past the maximum's cell. One empty cell
    pads each side.
    """
    if dx <= 0.0:
        raise ValueError("dx must be > 0")
    s_cuts = np.asarray(s_cuts, dtype=np.float64)
    if s_cuts.ndim != 1 or s_cuts.size == 0:
        raise ValueError("s_cuts must be a nonempty 1-d sequence")

    lo = float(path.values.min())
    occupied = int((float(path.values.max()) - lo) / dx) + 1
    _, counts = prefix_counts(path.values[1:], occupied, s_cuts,
                              lambda v: ((v - lo) / dx).astype(np.int64))
    return LocalTimeField(
        x_left=(lo - dx) + dx * np.arange(occupied + 2), dx=dx, s_cuts=s_cuts,
        counts=np.pad(counts, ((0, 0), (1, 1))), steps=path.steps,
        alpha=path.alpha, scale=path.scale, seed=path.seed)


def _bridges(rng: np.random.Generator, count: int, t_grid: np.ndarray) -> np.ndarray:
    """``count`` independent Brownian bridges on ``t_grid``, one per row.

    Each vanishes exactly at t = 0 and t = 1.
    """
    steps = rng.standard_normal((count, t_grid.size - 1)) * np.sqrt(np.diff(t_grid))
    walk = np.concatenate((np.zeros((count, 1)), np.cumsum(steps, axis=1)), axis=1)
    return walk - np.outer(walk[:, -1], t_grid)


def limit_sheet(lt: LocalTimeField, t_grid, seed: SeedScheme,
                s_cuts=None) -> LimitSheet:
    """The limit sheet on ``s_cuts`` x ``t_grid``, given the path of ``lt``.

    ``s_cuts`` (all of ``lt``'s cuts by default) are looked up as in
    :func:`local_time_quadratic`. The sheet is A B, where A = U sqrt(w) from
    ``eigh`` of the cuts' Gram and B holds one bridge per cut with nonzero
    local time, drawn from the start of ``seed``'s stream. Cuts without local
    time (s = 0) give exact zero rows. ``eigh`` rather than Cholesky: the
    Gram may be singular, and OpenBLAS threads ``potrf``, whose bits then
    follow the thread count.
    """
    t_grid = _validated_axis(np.asarray(t_grid, dtype=np.float64), "t")
    if seed.stream_kind is not StreamKind.KIEFER:
        raise ValueError("the limit sheet requires a seed with stream_kind=KIEFER")
    s_cuts = lt.s_cuts if s_cuts is None else np.asarray(s_cuts, dtype=np.float64)
    gram = local_time_quadratic(lt, s_cuts)
    live = np.flatnonzero(np.diag(gram) > 0.0)
    w, u = np.linalg.eigh(gram[np.ix_(live, live)])
    values = np.zeros((s_cuts.size, t_grid.size))
    values[live] = np.einsum("ij,jk->ik", u * np.sqrt(np.maximum(w, 0.0)),
                             _bridges(stream_generator(seed), live.size, t_grid))
    provenance = {
        "alpha": lt.alpha.value if lt.alpha else None,
        "scale": lt.scale,
        "steps": lt.steps,
        "dx": lt.dx,
        "levy_seed": _seed_tuple(lt.seed),
        "kiefer_seed": _seed_tuple(seed),
    }
    return LimitSheet(values=values, s_cuts=s_cuts, t_grid=t_grid,
                      provenance=provenance)


def _seed_tuple(seed: SeedScheme | None):
    if seed is None:
        return None
    return (seed.master_seed, seed.stream_kind.value, seed.replicate_index)


def local_time_quadratic(lt: LocalTimeField, s_vec) -> np.ndarray:
    """Cross products R[i, j] = sum_k L[s_i][x_k] L[s_j][x_k] dx: rows of the Gram.

    Each s takes the first cut of ``lt`` within 1e-12.
    """
    s_vec = np.asarray(s_vec, dtype=np.float64)
    matches = np.isclose(lt.s_cuts[None, :], s_vec[:, None], atol=1e-12)
    found = matches.any(axis=1)
    if not found.all():
        s = s_vec[np.argmin(found)]
        raise ValueError(f"s-cut {s} not present in the local-time field")
    rows = np.argmax(matches, axis=1)
    return lt.gram[np.ix_(rows, rows)]
