"""Limit side of the convergence: stable paths, local time, Gaussian sheet integrals.

The limit sheet is assembled cell by cell: the box-counting local time of a
simulated stable path is paired with independent Brownian-bridge increments
per spatial cell, and the stochastic integral becomes a finite sum over
cells. Conditional on the path this reproduces the exact sheet covariance
in the small-cell limit at linear cost in the number of cells.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .randomness import (
    Alpha,
    SeedScheme,
    StreamKind,
    stable_standard_sample,
    stream_generator,
)
from .walk import _validated_axis, prefix_counts


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
    """Box-counting local time on uniform spatial cells [x_j, x_j + dx)."""

    x_left: np.ndarray
    dx: float
    s_cuts: np.ndarray
    values: np.ndarray  # shape (len(s_cuts), cells)
    steps: int
    alpha: Alpha | None = None
    scale: float | None = None
    seed: SeedScheme | None = None

    @property
    def cells(self) -> int:
        return self.x_left.size


@dataclass(eq=False)
class KieferIncrements:
    """Per-cell bridge increments of the two-sided Gaussian sheet.

    Cells are independent; within a cell the column over t is a Brownian
    bridge scaled by sqrt(dx), so Cov(dK[j][t], dK[j][t']) =
    dx * (min(t,t') - t t'). Cells left of zero draw from one stream,
    cells right of zero from another.
    """

    x_left: np.ndarray
    dx: float
    t_grid: np.ndarray
    values: np.ndarray  # shape (cells, len(t_grid))
    seed: SeedScheme | None = None


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

    A sample v falls in cell ``int((v - x_lo) / dx)``, computed per block
    of :func:`rwrs.walk.prefix_counts`: the same subtraction, division and
    truncation as on the whole path, so the bins do not depend on the
    blocking. The cells pad the path's range by one ``dx`` on each side,
    so every bin lies inside them without clipping (rounding may put the
    path's minimum in the first cell); a bin outside would make the count
    raise.
    """
    if dx <= 0.0:
        raise ValueError("dx must be > 0")
    s_cuts = np.asarray(s_cuts, dtype=np.float64)
    if s_cuts.ndim != 1 or s_cuts.size == 0:
        raise ValueError("s_cuts must be a nonempty 1-d sequence")

    steps = path.steps
    x_lo = float(path.values.min()) - dx
    x_hi = float(path.values.max()) + dx
    cells = int(np.ceil((x_hi - x_lo) / dx)) + 1
    x_left = x_lo + dx * np.arange(cells)
    _, counts = prefix_counts(path.values[1:], cells, s_cuts,
                              lambda v: ((v - x_lo) / dx).astype(np.int64))
    return LocalTimeField(
        x_left=x_left, dx=dx, s_cuts=s_cuts, values=counts * (1.0 / (steps * dx)),
        steps=steps, alpha=path.alpha, scale=path.scale, seed=path.seed)


def kiefer_increments(x_left, dx: float, t_grid, seed: SeedScheme,
                      mirror: bool = False) -> KieferIncrements:
    """Independent bridge increments for each spatial cell.

    Cells whose midpoint is negative consume one stream, nonnegative cells
    the other; ``mirror=True`` swaps the two, which together with negating
    the driving path should leave the sheet distribution unchanged.
    """
    x_left = np.asarray(x_left, dtype=np.float64)
    if dx <= 0.0:
        raise ValueError("dx must be > 0")
    t_grid = _validated_axis(np.asarray(t_grid, dtype=np.float64), "t")
    if seed.stream_kind is not StreamKind.KIEFER:
        raise ValueError("kiefer increments require a seed with stream_kind=KIEFER")

    mids = x_left + dx / 2.0
    negative = mids < 0.0
    salts = (2, 1) if mirror else (1, 2)
    gen_pos = stream_generator(seed, salt=salts[0])
    gen_neg = stream_generator(seed, salt=salts[1])

    dt = np.diff(t_grid)
    values = np.empty((x_left.size, t_grid.size), dtype=np.float64)
    for gen, mask in ((gen_pos, ~negative), (gen_neg, negative)):
        count = int(mask.sum())
        if count == 0:
            continue
        steps = gen.standard_normal((count, dt.size)) * np.sqrt(dt)
        walk = np.concatenate(
            (np.zeros((count, 1)), np.cumsum(steps, axis=1)), axis=1)
        bridge = walk - np.outer(walk[:, -1], t_grid)
        values[mask] = np.sqrt(dx) * bridge
    return KieferIncrements(x_left=x_left, dx=dx, t_grid=t_grid,
                            values=values, seed=seed)


def _check_shared_grid(lt: LocalTimeField, kf: KieferIncrements) -> None:
    if lt.cells != kf.x_left.size or not np.allclose(lt.x_left, kf.x_left) \
            or not np.isclose(lt.dx, kf.dx):
        raise ValueError("local-time field and Kiefer increments use different x-grids")


def limit_sheet(lt: LocalTimeField, kf: KieferIncrements) -> LimitSheet:
    """Integrate the local-time field against the per-cell increments."""
    _check_shared_grid(lt, kf)
    values = lt.values @ kf.values
    provenance = {
        "alpha": lt.alpha.value if lt.alpha else None,
        "scale": lt.scale,
        "steps": lt.steps,
        "dx": lt.dx,
        "levy_seed": _seed_tuple(lt.seed),
        "kiefer_seed": _seed_tuple(kf.seed),
    }
    return LimitSheet(values=values, s_cuts=lt.s_cuts, t_grid=kf.t_grid,
                      provenance=provenance)


def _seed_tuple(seed: SeedScheme | None):
    if seed is None:
        return None
    return (seed.master_seed, seed.stream_kind.value, seed.replicate_index)


def local_time_quadratic(lt: LocalTimeField, s_vec) -> np.ndarray:
    """Cross products R[i, j] = sum_k L[s_i][x_k] L[s_j][x_k] dx."""
    s_vec = np.asarray(s_vec, dtype=np.float64)
    matches = np.isclose(lt.s_cuts[None, :], s_vec[:, None], atol=1e-12)
    found = matches.any(axis=1)
    if not found.all():
        s = s_vec[np.argmin(found)]
        raise ValueError(f"s-cut {s} not present in the local-time field")
    sel = lt.values[np.argmax(matches, axis=1)]
    return (sel @ sel.T) * lt.dx
