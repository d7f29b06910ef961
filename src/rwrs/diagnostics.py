"""Distributional comparisons, scaling-exponent fits, and regularity estimates.

Two-sample comparisons use the Kolmogorov-Smirnov statistic with
permutation p-values; exponent claims are checked as log-log regression
slopes. Each side is sampled by one replicate kernel, deterministic per
replicate index, so :func:`samples` accepts a ``map_fn`` (e.g. a process
pool's ``map``) and produces the same output for any degree of parallelism.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .limit import (
    LimitSheet,
    default_cell_width,
    limit_sheet,
    local_time_field,
    local_time_quadratic,
    simulate_levy_path,
)
from .randomness import (
    BLOCK,
    Alpha,
    IncrementLaw,
    SeedScheme,
    StreamKind,
    _fold,
    stream_generator,
)
from .walk import (
    EmpiricalSheet,
    GridSpec,
    empirical_sheet,
    occupation_quadratic,
    occupation_statistics,
    rescale,
    simulate_walk,
)

THETA_COMBINATIONS = ((1.0, 1.0), (1.0, -1.0))


@dataclass(eq=False)
class SampleSet:
    """Labelled vector of iid Monte Carlo draws of a scalar functional."""

    label: str
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.size == 0:
            raise ValueError("sample set must be nonempty")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample set must contain only finite values")


@dataclass(frozen=True)
class ComparisonReport:
    """Two-sample statistic with a permutation p-value."""

    statistic_name: str
    statistic: float
    p_value: float
    sample_sizes: tuple[int, int]
    permutations: int
    labels: tuple[str, str] = ("a", "b")


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (xs, ys); for exponent estimates both are logs."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    slope: float
    intercept: float
    stderr: float
    degenerate: bool = False


@dataclass(frozen=True)
class LimitConfig:
    """Resolution of the simulated limit process."""

    steps: int = 1 << 17
    cells: int = 512


@dataclass(frozen=True)
class FddResult:
    """Reports of :func:`verify_fdd` and the draws a variance check needs.

    ``discrete`` holds the rescaled empirical values, one row per replicate
    and one column per point. When a point lies on s = 1,
    ``terminal_quadratic`` holds the local-time quadratic at s = 1 (the
    integral of L_1^2 over space) of each limit replicate, with shape
    (replicates, 1, 1); otherwise it is None.
    """

    reports: dict
    discrete: np.ndarray
    terminal_quadratic: np.ndarray | None


def _as_sample(x, label: str) -> SampleSet:
    if isinstance(x, SampleSet):
        return x
    return SampleSet(label=label, values=np.asarray(x, dtype=np.float64))


def two_sample_distance(a, b, permutations: int = 1000,
                        seed: int = 0) -> ComparisonReport:
    """Two-sample KS statistic with a permutation p-value.

    KS is the sup-difference of the two empirical CDFs. The p-value
    permutes the pooled sample labels.
    """
    a = _as_sample(a, "a")
    b = _as_sample(b, "b")
    if permutations < 500:
        raise ValueError("permutations must be >= 500")

    labels_sorted, stats_for = _label_statistic(a.values, b.values)
    observed = float(stats_for(labels_sorted[None, :])[0])
    rng = stream_generator(SeedScheme(seed & 0xFFFFFFFFFFFFFFFF, StreamKind.KIEFER, 0),
                           salt=0x7E57)
    # row batches of at most BLOCK labels keep every array of a batch small;
    # permuted shuffles row after row, so the draws do not depend on the batch
    batch = max(1, BLOCK // labels_sorted.size)
    count = 0
    for done in range(0, permutations, batch):
        m = min(batch, permutations - done)
        rows = rng.permuted(np.tile(labels_sorted, (m, 1)), axis=1)
        count += int(np.sum(stats_for(rows) >= observed - 1e-15))
    p_value = (1.0 + count) / (permutations + 1.0)
    return ComparisonReport(
        statistic_name="ks", statistic=observed, p_value=p_value,
        sample_sizes=(a.values.size, b.values.size), permutations=permutations,
        labels=(a.label, b.label))


def _label_statistic(a: np.ndarray, b: np.ndarray):
    """Sorted pool labels (1 for ``a``) and the KS statistic of 0/1 label rows.

    The returned function maps an (m, na + nb) array of label rows, each a
    relabelling of the sorted pool, to the m statistics.
    """
    na, nb = a.size, b.size
    pooled = np.concatenate((a, b))
    labels = np.concatenate((np.ones(na, dtype=np.int64),
                             np.zeros(nb, dtype=np.int64)))
    order = np.argsort(pooled, kind="stable")
    v = pooled[order]
    # |F_a - F_b| may only be evaluated where the pooled value changes
    boundary = np.append(np.diff(v) > 0, True)
    ranks = np.arange(1, na + nb + 1, dtype=np.int64)

    def stats_for(rows: np.ndarray) -> np.ndarray:
        # rows holds 0/1 membership of sample a; integer arithmetic keeps the
        # KS statistic exact (0 for identical samples, 1 for disjoint ones)
        c = np.cumsum(rows, axis=1)
        numer = np.abs(c * (na + nb) - ranks * na)
        return np.max(numer * boundary, axis=1) / float(na * nb)

    return labels[order], stats_for


def ks_statistic(a, b) -> float:
    """Two-sample KS statistic alone (no permutation p-value)."""
    labels_sorted, stats_for = _label_statistic(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return float(stats_for(labels_sorted[None, :])[0])


def fit_loglog(x, y) -> SlopeFit:
    """OLS fit of log y on log x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 3:
        raise ValueError("need at least three points for a slope fit")
    if np.any(y <= 0.0):
        return SlopeFit(xs=tuple(np.log(x)), ys=tuple(np.full(x.size, -np.inf)),
                        slope=0.0, intercept=0.0, stderr=0.0, degenerate=True)
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(x.size - 2, 1)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    return SlopeFit(xs=tuple(lx), ys=tuple(ly), slope=float(slope),
                    intercept=float(intercept), stderr=stderr)


def limit_scale(alpha, config: LimitConfig | None = None) -> float:
    """Stable scale matching the walk law (:attr:`IncrementLaw.stable_scale`).

    ``config`` does not affect the result; it is accepted for existing callers.
    """
    return IncrementLaw.for_alpha(alpha).stable_scale


# ---------------------------------------------------------------------------
# Replicate kernels (module level so process pools can pickle them). Each call
# draws one walk or one Levy path from the replicate's seeds and returns only
# the small outputs asked of it, so one draw serves every output of a run.

def discrete_kernel(index: int, alpha, n: int, master_seed: int, *,
                    grid: GridSpec | None = None, scaled: bool = True,
                    s_vec=None, functionals=()) -> dict:
    """One discrete replicate: walk, then scenery, then the requested outputs.

    ``sheet`` holds the empirical sheet's values on ``grid`` (rescaled unless
    ``scaled`` is False), ``quadratic`` the occupation cross products at
    ``s_vec`` and ``functionals`` the named occupation functionals, in order.
    """
    path = simulate_walk(n, IncrementLaw.for_alpha(alpha),
                         SeedScheme(master_seed, StreamKind.WALK, index))
    out = {}
    if grid is not None:
        sheet = empirical_sheet(
            path, SeedScheme(master_seed, StreamKind.SCENERY, index), grid)
        out["sheet"] = (rescale(sheet) if scaled else sheet).values
    if s_vec is not None:
        out["quadratic"] = occupation_quadratic(path, np.asarray(s_vec), alpha)
    if functionals:
        out["functionals"] = occupation_statistics(path, functionals, alpha)
    return out


def limit_kernel(index: int, alpha, scale: float, config: LimitConfig,
                 master_seed: int, *, grids=(), s_vec=None) -> dict:
    """One limit replicate: Levy path, then local time, then the requested outputs.

    ``sheets`` holds one limit sheet per ``(s_cuts, t_grid)`` pair in
    ``grids``, each drawn from the start of the replicate's Kiefer stream;
    ``quadratic`` holds the local-time cross products at ``s_vec``. The path
    is binned once, at every requested cut, and every output reads its rows
    of that one field's Gram.
    """
    path = simulate_levy_path(alpha, scale, config.steps,
                              SeedScheme(master_seed, StreamKind.LEVY, index))
    cuts = [np.asarray(s_cuts, dtype=np.float64) for s_cuts, _ in grids]
    if s_vec is not None:
        cuts.append(np.asarray(s_vec, dtype=np.float64))
    lt = local_time_field(path, default_cell_width(path, config.cells),
                          np.unique(np.concatenate(cuts)))
    kiefer_seed = SeedScheme(master_seed, StreamKind.KIEFER, index)
    sheets = tuple(limit_sheet(lt, t_grid, kiefer_seed, s_cuts=s_cuts)
                   for s_cuts, (_, t_grid) in zip(cuts, grids))
    out = {"sheets": sheets} if grids else {}
    if s_vec is not None:
        out["quadratic"] = local_time_quadratic(lt, s_vec)
    return out


def matched_limit_kernel(alpha, config: LimitConfig, master_seed: int, **outputs):
    """:func:`limit_kernel` at the stable scale matching the walk law."""
    return partial(limit_kernel, alpha=alpha, scale=limit_scale(alpha),
                   config=config, master_seed=master_seed, **outputs)


def samples(kernel, replicates: int, map_fn=map) -> dict:
    """Outputs of ``kernel`` over replicate indices 0..replicates-1.

    ``map_fn`` (e.g. a process pool's ``map``) must return results in index
    order, which makes the samples the same for any degree of parallelism.
    Array and scalar outputs are stacked along a new first axis; a tuple
    output (the limit kernel's ``sheets``) becomes one list per position.
    """
    draws = list(map_fn(kernel, range(replicates)))
    out = {}
    for key in draws[0]:
        column = [draw[key] for draw in draws]
        if isinstance(column[0], tuple):
            out[key] = tuple(list(per_grid) for per_grid in zip(*column))
        else:
            out[key] = np.stack(column)
    return out


def _at_points(values: np.ndarray, s_axis, t_axis, points) -> np.ndarray:
    """Stacked sheet values at each (s, t) point, one row per replicate."""
    i = np.searchsorted(s_axis, [s for s, _ in points])
    j = np.searchsorted(t_axis, [t for _, t in points])
    return values[:, i, j]


# ---------------------------------------------------------------------------
# Verification operations.

def verify_lemma1(alpha, s_vec, n: int, replicates: int,
                  limit_config: LimitConfig | None = None, *,
                  master_seed: int = 0, permutations: int = 1000,
                  map_fn=map) -> dict[tuple[int, int], ComparisonReport]:
    """Compare occupation cross products against local-time cross products.

    Returns one report per upper-triangle entry of the k x k matrices.
    """
    if n < 4096:
        raise ValueError("n must be >= 4096")
    if replicates < 500:
        raise ValueError("replicates must be >= 500")
    s_vec = tuple(float(s) for s in s_vec)
    config = limit_config or LimitConfig()
    discrete = samples(partial(discrete_kernel, alpha=alpha, n=n,
                               master_seed=master_seed, s_vec=s_vec),
                       replicates, map_fn)["quadratic"]
    limit = samples(matched_limit_kernel(alpha, config, master_seed, s_vec=s_vec),
                    replicates, map_fn)["quadratic"]
    reports = {}
    for i in range(len(s_vec)):
        for j in range(i, len(s_vec)):
            reports[(i, j)] = two_sample_distance(
                SampleSet("occupation", discrete[:, i, j]),
                SampleSet("local-time", limit[:, i, j]),
                permutations=permutations,
                seed=(master_seed + 7919 * (i * len(s_vec) + j + 1)))
    return reports


def verify_fdd(alpha, points, n: int, replicates: int,
               limit_config: LimitConfig | None = None, *,
               master_seed: int = 0, permutations: int = 1000,
               map_fn=map) -> FddResult:
    """Compare rescaled discrete marginals against limit-sheet marginals.

    Reports are keyed by ("point", (s, t)) for single points and
    ("pair", p, q, theta) for fixed linear combinations of point pairs.
    """
    if n < 16384:
        raise ValueError("n must be >= 16384")
    points = tuple((float(s), float(t)) for s, t in points)
    if not points:
        raise ValueError("need at least one evaluation point")
    config = limit_config or LimitConfig()
    s_cuts = np.unique([s for s, _ in points])
    t_grid = np.unique(np.concatenate(([0.0, 1.0], [t for _, t in points])))
    grid = GridSpec(np.unique(np.concatenate(([0.0, 1.0], s_cuts))), t_grid)
    terminal = (1.0,) if 1.0 in s_cuts else None
    sheets = samples(partial(discrete_kernel, alpha=alpha, n=n,
                             master_seed=master_seed, grid=grid),
                     replicates, map_fn)["sheet"]
    drawn = samples(matched_limit_kernel(alpha, config, master_seed,
                                         grids=((s_cuts, t_grid),), s_vec=terminal),
                    replicates, map_fn)
    discrete = _at_points(sheets, grid.s, grid.t, points)
    limit = _at_points(np.stack([sheet.values for sheet in drawn["sheets"][0]]),
                       s_cuts, t_grid, points)
    reports = {}
    for k, point in enumerate(points):
        reports[("point", point)] = two_sample_distance(
            SampleSet("rescaled-empirical", discrete[:, k]),
            SampleSet("limit-sheet", limit[:, k]),
            permutations=permutations, seed=master_seed + 104729 * (k + 1))
    for k1 in range(len(points)):
        for k2 in range(k1 + 1, len(points)):
            for theta in THETA_COMBINATIONS:
                da = theta[0] * discrete[:, k1] + theta[1] * discrete[:, k2]
                la = theta[0] * limit[:, k1] + theta[1] * limit[:, k2]
                reports[("pair", points[k1], points[k2], theta)] = \
                    two_sample_distance(
                        SampleSet("rescaled-empirical", da),
                        SampleSet("limit-sheet", la),
                        permutations=permutations,
                        seed=master_seed + 1299709 * (k1 + 2) + 15485863 * (k2 + 3)
                        + int(theta[1] > 0))
    return FddResult(reports=reports, discrete=discrete,
                     terminal_quadratic=drawn.get("quadratic"))


def moment_scaling(alpha, n_lists, replicates: int, *, master_seed: int = 0,
                   map_fn=map) -> dict[str, SlopeFit]:
    """Log-log growth of occupation functionals against the walk length.

    ``n_lists`` maps each functional to its lengths; each n of their union
    is drawn once, and all functionals read the same walks. Sums are fitted
    over means, ``maxN_scaled`` over log-medians, whose (expected monotone
    decreasing) sequence ``ys`` is the interesting output.
    """
    n_lists = {functional: [int(n) for n in n_list]
               for functional, n_list in n_lists.items()}
    for n_list in n_lists.values():
        if len(n_list) < 4:
            raise ValueError("n_list must contain at least 4 points")
        ratios = np.diff(np.log(np.asarray(n_list, dtype=np.float64)))
        if np.any(ratios <= 0) or np.ptp(ratios) > 0.05 * ratios.mean():
            raise ValueError("n_list must be geometric")
    if replicates < 200:
        raise ValueError("replicates must be >= 200")
    levels = {functional: [] for functional in n_lists}
    for n in sorted(set().union(*n_lists.values())):
        kernel = partial(discrete_kernel, alpha=alpha, n=n,
                         master_seed=_per_n_seed(master_seed, n),
                         functionals=tuple(n_lists))
        stats = samples(kernel, replicates, map_fn)["functionals"]
        # each list ascends, so its levels are appended in its own order
        for (functional, n_list), column in zip(n_lists.items(), stats.T):
            if n in n_list:
                levels[functional].append(
                    np.median(column) if functional == "maxN_scaled" else column.mean())
    return {functional: fit_loglog(np.asarray(n_list, dtype=np.float64),
                                   np.asarray(levels[functional]))
            for functional, n_list in n_lists.items()}


def _per_n_seed(master_seed: int, n: int) -> int:
    # independent walks for each n in a scaling sweep
    return _fold(master_seed, n, 0x4D4F4D)


def sheet_axes(sheet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, s-axis, t-axis) for an empirical or limit sheet."""
    if isinstance(sheet, EmpiricalSheet):
        return sheet.values, sheet.grid.s, sheet.grid.t
    if isinstance(sheet, LimitSheet):
        return sheet.values, np.asarray(sheet.s_cuts), np.asarray(sheet.t_grid)
    raise TypeError("expected an EmpiricalSheet or LimitSheet")


def _uniform_spacing(axis: np.ndarray, name: str) -> float:
    gaps = np.diff(axis)
    if gaps.size == 0 or np.ptp(gaps) > 1e-9 * gaps.mean():
        raise ValueError(f"{name}-axis must be uniformly spaced for lag alignment")
    return float(gaps.mean())


def structure_function(sheets, direction: str, m: int, lags) -> SlopeFit:
    """Log-log fit of mean |increment|^m against the lag, along one axis.

    The smallest lag is dropped when it lies within two grid spacings, where
    discretization bias dominates.
    """
    if direction not in ("s", "t"):
        raise ValueError("direction must be 's' or 't'")
    if m not in (2, 4):
        raise ValueError("m must be 2 or 4")
    sheets = list(sheets)
    if not sheets:
        raise ValueError("need at least one sheet")
    _, s_axis, t_axis = sheet_axes(sheets[0])
    for sheet in sheets:
        if isinstance(sheet, EmpiricalSheet) and not sheet.scaled:
            raise ValueError("empirical sheets must be rescaled first")
    axis = s_axis if direction == "s" else t_axis
    spacing = _uniform_spacing(axis, direction)

    offsets = []
    for lag in sorted(float(x) for x in lags):
        k = int(round(lag / spacing))
        if k < 1 or abs(k * spacing - lag) > 1e-9:
            raise ValueError(f"lag {lag} is below or not aligned with the grid spacing")
        offsets.append(k)
    if offsets and offsets[0] * spacing < 2.0 * spacing:
        offsets = offsets[1:]
    if len(offsets) < 3:
        raise ValueError("need at least three usable lags")

    if direction == "s":
        cross_keep = (t_axis > 0.0) & (t_axis < 1.0)
    else:
        cross_keep = s_axis > 0.0

    means = []
    for k in offsets:
        total, count = 0.0, 0
        for sheet in sheets:
            vals, _, _ = sheet_axes(sheet)
            if direction == "s":
                diff = vals[k:, cross_keep] - vals[:-k, cross_keep]
            else:
                diff = vals[:, k:] - vals[:, :-k]
                diff = diff[cross_keep]
            total += float(np.sum(np.abs(diff) ** m))
            count += diff.size
        means.append(total / count)
    return fit_loglog(np.asarray(offsets, dtype=np.float64) * spacing,
                      np.asarray(means))


def self_similarity_factor(alpha, a: float) -> float:
    """Distributional scaling factor a^(1 - 1/(2 alpha)) for s -> a s."""
    return float(a) ** (1.0 - 1.0 / (2.0 * Alpha.of(alpha).value))


def self_similarity_test(alpha, a: float, s0: float, t0: float,
                         replicates: int,
                         limit_config: LimitConfig | None = None, *,
                         master_seed: int = 0, permutations: int = 1000,
                         map_fn=map) -> ComparisonReport:
    """Compare W(a s0, t0) with a^(1-1/(2 alpha)) W(s0, t0), independent sides.

    At a = 1 the two sides are identically distributed, which makes a useful
    null case for the comparison machinery.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")
    if not 0.0 < s0 <= 1.0:
        raise ValueError("s0 must lie in (0, 1]")
    s_cuts = (a * s0, s0)
    t_grid = tuple(np.unique(np.asarray([0.0, t0, 1.0])))
    kernel = matched_limit_kernel(alpha, limit_config or LimitConfig(), master_seed,
                                  grids=((s_cuts, t_grid),))
    sheets = samples(kernel, 2 * replicates, map_fn)["sheets"][0]
    j = int(np.searchsorted(np.asarray(t_grid), t0))
    shrunk = np.array([sheet.values[0, j] for sheet in sheets[:replicates]])
    scaled = self_similarity_factor(alpha, a) * np.array(
        [sheet.values[1, j] for sheet in sheets[replicates:]])
    return two_sample_distance(
        SampleSet("shrunk-time", shrunk), SampleSet("rescaled", scaled),
        permutations=permutations, seed=master_seed + 0x5E1F)


def bickel_wichura_modulus(sheet, delta: float) -> float:
    """Two-parameter sup-of-min increment modulus on the sheet's grid.

    For each axis, over triples a <= mid <= b with coordinate gap at most
    ``delta``, takes min of the two sup-norm increments and returns the
    larger of the two directional suprema (Bickel and Wichura 1971).
    """
    values, s_axis, t_axis = sheet_axes(sheet)
    for axis, name in ((s_axis, "s"), (t_axis, "t")):
        if delta < np.max(np.diff(axis)) - 1e-12:
            raise ValueError(f"delta is below the {name}-grid resolution")

    def directional(profiles: np.ndarray, coords: np.ndarray) -> float:
        # profiles: one row per coordinate, sup-norm taken across columns.
        # Only rows within delta of mid can pair with it, so each mid needs
        # the distances of its window alone, not an all-pairs matrix.
        best = 0.0
        for mid in range(coords.size):
            lo = int(np.searchsorted(coords, coords[mid] - delta, side="left"))
            hi = int(np.searchsorted(coords, coords[mid] + delta, side="right"))
            dist = np.max(np.abs(profiles[lo:hi] - profiles[mid]), axis=1)
            pair_min = np.minimum(dist[:mid - lo + 1, None], dist[None, mid - lo:])
            ok = (coords[mid:hi][None, :] - coords[lo:mid + 1][:, None]) <= delta + 1e-12
            best = max(best, float(np.max(pair_min[ok])))
        return best

    along_t = directional(values.T, t_axis)
    along_s = directional(values, s_axis)
    return max(along_t, along_s)


def holder_norm_estimate(sheet, gamma: float, gamma_prime: float) -> float:
    """Empirical lower estimate of the anisotropic Hoelder constant.

    Maximizes |V(p) - V(q)| / (|ds|^gamma + |dt|^gamma') over all grid
    point pairs. On uniform grids pairs are grouped by index offset (a, b),
    which gives the same maximum at a fraction of the cost.

    Offsets are pruned without changing the result. Every numerator is at
    most ``span = ptp(values)``, and the denominator
    (a ds)^gamma + (b dt)^gamma' grows in both a and b. So once
    span / den <= best the remaining b of that row cannot raise the
    maximum, and once span / (a ds)^gamma <= best no larger a can either.
    Rounding is monotone, so fl(|x - y|) <= fl(span) and each skipped
    ratio is at most ``best`` in floating point too: the maximum is the
    unpruned one, bit for bit.
    """
    if not (0.0 < gamma < 1.0 and 0.0 < gamma_prime < 1.0):
        raise ValueError("gamma and gamma_prime must lie in (0, 1)")
    values, s_axis, t_axis = sheet_axes(sheet)
    for axis in (s_axis, t_axis):
        gaps = np.diff(axis)
        if gaps.size and np.ptp(gaps) > 1e-9 * gaps.mean():
            return _holder_pairs(values, s_axis, t_axis, gamma, gamma_prime)

    n_s, n_t = values.shape
    ds = (s_axis[-1] - s_axis[0]) / (n_s - 1) if n_s > 1 else 0.0
    dt = (t_axis[-1] - t_axis[0]) / (n_t - 1) if n_t > 1 else 0.0
    span = float(np.ptp(values))
    best = 0.0
    for a in range(n_s):
        if a > 0 and span / (a * ds) ** gamma <= best:
            break
        lo = values[a:, :]
        hi = values[:n_s - a, :]
        for b in range(n_t):
            if a == 0 and b == 0:
                continue
            den = (a * ds) ** gamma + (b * dt) ** gamma_prime
            if span / den <= best:
                break
            if b == 0:
                num = float(np.max(np.abs(lo - hi)))
            else:
                num = float(np.max(np.abs(lo[:, b:] - hi[:, :n_t - b])))
                if a > 0:
                    num = max(num, float(np.max(np.abs(lo[:, :n_t - b]
                                                       - hi[:, b:]))))
            best = max(best, num / den)
    return best


def _holder_pairs(values: np.ndarray, s_axis: np.ndarray, t_axis: np.ndarray,
                  gamma: float, gamma_prime: float) -> float:
    flat = values.ravel()
    ss = np.repeat(s_axis, t_axis.size)
    tt = np.tile(t_axis, s_axis.size)
    best = 0.0
    chunk = 256
    for start in range(0, flat.size, chunk):
        stop = min(start + chunk, flat.size)
        num = np.abs(flat[start:stop, None] - flat[None, :])
        den = (np.abs(ss[start:stop, None] - ss[None, :]) ** gamma
               + np.abs(tt[start:stop, None] - tt[None, :]) ** gamma_prime)
        mask = den > 0.0
        if np.any(mask):
            best = max(best, float(np.max(num[mask] / den[mask])))
    return best
