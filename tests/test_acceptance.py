"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole module takes a few minutes at the stated sample sizes.
"""
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from rwrs.config import parse_config
from rwrs.diagnostics import (
    LimitConfig,
    discrete_kernel,
    ks_statistic,
    matched_limit_kernel,
    moment_scaling,
    samples,
    self_similarity_factor,
    self_similarity_test,
    structure_function,
    verify_fdd,
    verify_lemma1,
)
from rwrs.limit import (
    default_cell_width,
    limit_sheet,
    local_time_field,
    simulate_levy_path,
)
from rwrs.randomness import IncrementLaw, SeedScheme, StreamKind, derive_site_value
from rwrs.runner import run_experiment
from rwrs.walk import GridSpec, empirical_sheet, occupation_map, simulate_walk

pytestmark = pytest.mark.acceptance

FULL_RES = LimitConfig(steps=1 << 17, cells=512)


def _limit_samples(alpha, replicates, config, master_seed, **outputs):
    return samples(matched_limit_kernel(alpha, config, master_seed, **outputs),
                   replicates)


def _quadratic_samples(alpha, s_vec, n, replicates, master_seed):
    kernel = partial(discrete_kernel, alpha=alpha, n=n, master_seed=master_seed,
                     s_vec=s_vec)
    return samples(kernel, replicates)["quadratic"]


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


def test_criterion_1_exact_identities():
    start = time.time()
    # occupation totals over 100 walks, 5 prefixes each
    for r in range(100):
        alpha = 2.0 if r % 2 == 0 else 1.5
        law = IncrementLaw.for_alpha(alpha)
        path = simulate_walk(600, law, SeedScheme(1100, StreamKind.WALK, r))
        for m in (1, 60, 150, 451, 600):
            assert occupation_map(path, m).total == m

    # empirical sheets vanish on the boundary rows/columns
    grid = GridSpec.uniform(9, 9)
    law = IncrementLaw.lazy_simple()
    for r in range(10):
        path = simulate_walk(300, law, SeedScheme(1200, StreamKind.WALK, r))
        sheet = empirical_sheet(path, SeedScheme(1200, StreamKind.SCENERY, r), grid)
        assert np.all(sheet.values[0] == 0.0)
        assert np.all(sheet.values[:, 0] == 0.0)
        assert np.all(sheet.values[:, -1] == 0.0)

    # limit sheets vanish on s = 0 and at t in {0, 1}
    for r in range(20):
        path = simulate_levy_path(2.0, 0.8, 1024, SeedScheme(1300, StreamKind.LEVY, r))
        lt = local_time_field(path, default_cell_width(path, 32), [0.0, 0.5, 1.0])
        sheet = limit_sheet(lt, np.linspace(0.0, 1.0, 9),
                            SeedScheme(1300, StreamKind.KIEFER, r))
        assert np.all(sheet.values[0] == 0.0)
        assert np.all(sheet.values[:, 0] == 0.0)
        assert np.all(sheet.values[:, -1] == 0.0)

    # occupation identity of the box-counting local time, whose first and
    # last cells are empty padding
    steps = 2048
    rng = np.random.default_rng(14)
    for r in range(20):
        alpha = 2.0 if r % 2 == 0 else 1.7
        path = simulate_levy_path(alpha, 0.8, steps,
                                  SeedScheme(1400, StreamKind.LEVY, r))
        cuts = np.sort(rng.uniform(0.0, 1.0, 3))
        lt = local_time_field(path, default_cell_width(path, 100), cuts)
        assert np.all(lt.counts[:, 0] == 0) and np.all(lt.counts[:, -1] == 0)
        for i, s in enumerate(cuts):
            assert lt.counts[i].sum() == np.floor(s * steps + 1e-9)
            assert abs(float(np.sum(lt.values[i]) * lt.dx) - s) <= 1.0 / steps

    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"occupation totals, empirical/limit sheet boundary zeros, "
               f"occupation identity ({elapsed:.1f}s)")


def test_criterion_2_ito_isometry():
    start = time.time()
    path = simulate_levy_path(2.0, np.sqrt(0.5), 1 << 14,
                              SeedScheme(2100, StreamKind.LEVY, 0))
    lt = local_time_field(path, default_cell_width(path, 128), [0.5, 1.0])
    t_grid = np.array([0.0, 0.25, 0.5, 1.0])
    draws = np.empty((10_000, 2, 4))
    for r in range(10_000):
        draws[r] = limit_sheet(lt, t_grid, SeedScheme(2100, StreamKind.KIEFER, r)).values
    checks = []
    for (i, j, s, t) in [(0, 2, 0.5, 0.5), (1, 1, 1.0, 0.25), (1, 2, 1.0, 0.5)]:
        predicted = t * (1 - t) * float(np.sum(lt.values[i] ** 2) * lt.dx)
        observed = float(draws[:, i, j].var())
        rel = abs(observed - predicted) / predicted
        assert rel < 0.05, f"W({s},{t}): rel error {rel:.3f}"
        checks.append(f"W({s},{t}) rel={rel:.3f}")
    _report(2, "; ".join(checks) + f" ({time.time() - start:.0f}s)")


def test_criterion_3_occupation_vs_local_time():
    start = time.time()
    s_vec = (0.5, 1.0)

    # distributional match at n = 2^14, 1000 replicates per side
    reports = verify_lemma1(2.0, s_vec, 1 << 14, 1000, FULL_RES,
                            master_seed=3100, permutations=1000)
    p_detail = []
    for key, rep in sorted(reports.items()):
        assert rep.p_value > 0.01, f"entry {key}: p={rep.p_value}"
        p_detail.append(f"p{key}={rep.p_value:.3f}")

    # median KS shrinks from n = 2^12 to n = 2^16 over 10 meta-replicates;
    # 4000 samples per side resolve the systematic gap, and each meta
    # replicate pairs both walk lengths with one limit pool
    meta_cfg = LimitConfig(steps=1 << 16, cells=1024)
    entries = [(0, 0), (0, 1), (1, 1)]
    ks12, ks16 = [], []
    for meta in range(10):
        seed = 5000 + meta
        pool = _limit_samples(2.0, 4000, meta_cfg, seed, s_vec=s_vec)["quadratic"]
        d12 = _quadratic_samples(2.0, s_vec, 1 << 12, 4000, seed)
        d16 = _quadratic_samples(2.0, s_vec, 1 << 16, 4000, seed)
        ks12.append(np.mean([ks_statistic(d12[:, i, j], pool[:, i, j])
                             for i, j in entries]))
        ks16.append(np.mean([ks_statistic(d16[:, i, j], pool[:, i, j])
                             for i, j in entries]))
    med12, med16 = float(np.median(ks12)), float(np.median(ks16))
    assert med16 <= med12, f"median KS {med16:.4f} at 2^16 vs {med12:.4f} at 2^12"
    _report(3, " ".join(p_detail)
            + f"; median KS 2^16 {med16:.4f} <= 2^12 {med12:.4f}"
            + f" ({time.time() - start:.0f}s)")


def test_criterion_4_fdd_marginals():
    start = time.time()
    point = (1.0, 0.5)

    reports = verify_fdd(2.0, [point], 1 << 16, 1500, FULL_RES,
                         master_seed=4100, permutations=1000).reports
    p2 = reports[("point", point)].p_value
    assert p2 > 0.01

    # variance cross-check: rescaled discrete variance against
    # t(1-t) * E int L_1^2 dx, the latter both simulated and computed by
    # quadrature from the Gaussian transition density; replicates are not
    # pinned by the criterion, so 4000 keeps the estimator noise well under
    # the 10% tolerance
    grid = GridSpec(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]))
    sheets = samples(partial(discrete_kernel, alpha=2.0, n=1 << 16,
                             master_seed=4100, grid=grid), 4000)["sheet"]
    quadratic = _limit_samples(2.0, 4000, FULL_RES, 4150, s_vec=(1.0,))["quadratic"]
    var_d = float(np.var(sheets[:, 1, 1], ddof=1))
    mean_r = float(quadratic[:, 0, 0].mean())
    var_limit = 0.25 * mean_r
    rel = abs(var_d - var_limit) / var_limit
    assert rel <= 0.10, f"variance mismatch {rel:.3f}"
    sigma_sq = 0.5  # per-step variance of the lazy walk
    oracle, _ = quad(lambda h: 2.0 * (1.0 - h) / np.sqrt(2 * np.pi * sigma_sq * h),
                     0.0, 1.0)
    assert abs(mean_r - oracle) <= 0.10 * oracle

    reports15 = verify_fdd(1.5, [point], 1 << 16, 1500, FULL_RES,
                           master_seed=4200, permutations=1000).reports
    p15 = reports15[("point", point)].p_value
    assert p15 > 0.01
    _report(4, f"alpha=2 p={p2:.3f}, var rel={rel:.3f} "
               f"(sim {mean_r:.3f} vs quadrature {oracle:.3f}); "
               f"alpha=1.5 p={p15:.3f} ({time.time() - start:.0f}s)")


def test_criterion_5_moment_growth():
    start = time.time()
    slope_specs = [("sumN2", 1.5, 0.10), ("sumN3", 2.0, 0.15), ("sumN4", 2.5, 0.20)]
    n_list = (4096, 8192, 16384, 32768, 65536, 131072)
    details = []
    fits = moment_scaling(2.0, {functional: n_list for functional, _, _ in slope_specs},
                          300, master_seed=5100)
    for functional, target, tol in slope_specs:
        fit = fits[functional]
        assert abs(fit.slope - target) <= tol, \
            f"{functional}: slope {fit.slope:.3f} target {target}"
        details.append(f"{functional}={fit.slope:.3f}")
    maxn_list = (1024, 2048, 4096, 8192, 16384, 32768, 65536)
    med = moment_scaling(2.0, {"maxN_scaled": maxn_list}, 300,
                         master_seed=5200)["maxN_scaled"]
    medians = np.exp(np.asarray(med.ys))
    assert np.all(np.diff(medians) < 0.0), f"medians {medians}"
    _report(5, ", ".join(details) + "; scaled max occupation medians "
            f"strictly decreasing ({time.time() - start:.0f}s)")


def test_criterion_6_self_similarity():
    start = time.time()
    factor = self_similarity_factor(2.0, 0.25)
    assert factor == pytest.approx(0.35355, abs=5e-6)
    rep = self_similarity_test(2.0, 0.25, 1.0, 0.5, 2000, FULL_RES,
                               master_seed=6100, permutations=1000)
    assert rep.p_value > 0.01
    _report(6, f"factor={factor:.5f}, ks={rep.statistic:.4f}, "
               f"p={rep.p_value:.3f} ({time.time() - start:.0f}s)")


def test_criterion_7_directional_regularity():
    start = time.time()
    s_grid = tuple(np.linspace(0.0, 1.0, 33))
    t_grid = tuple(np.linspace(0.0, 1.0, 129))
    lags_s = [1 / 16, 1 / 8, 1 / 4]
    lags_t = [1 / 64, 1 / 32, 1 / 16]
    details = []
    for alpha, seed, target_s, tol_s in ((2.0, 7100, 1.5, 0.15),
                                         (1.5, 7200, 2 * (1 - 1 / 3), 0.15)):
        sheets = _limit_samples(alpha, 500, FULL_RES, seed,
                                grids=((s_grid, t_grid),))["sheets"][0]
        fit_s = structure_function(sheets, "s", 2, lags_s)
        fit_t = structure_function(sheets, "t", 2, lags_t)
        assert abs(fit_s.slope - target_s) <= tol_s, \
            f"alpha={alpha} s-slope {fit_s.slope:.3f}"
        assert abs(fit_t.slope - 1.0) <= 0.10, \
            f"alpha={alpha} t-slope {fit_t.slope:.3f}"
        details.append(f"alpha={alpha}: s={fit_s.slope:.3f} t={fit_t.slope:.3f}")
    _report(7, "; ".join(details) + f" ({time.time() - start:.0f}s)")


def test_criterion_8_fourth_moment_increment_bound():
    start = time.time()
    n = 1 << 14
    lags = (2.0**-3, 2.0**-5, 2.0**-7)
    assert min(lags) >= n**-0.5  # the bound needs |t1-t2| >= n^(-1/alpha)
    law = IncrementLaw.lazy_simple()
    sums = {d: [] for d in lags}
    for r in range(1500):
        path = simulate_walk(n, law, SeedScheme(8100, StreamKind.WALK, r))
        y = derive_site_value(SeedScheme(8100, StreamKind.SCENERY, r),
                              path.positions)
        for d in lags:
            t1, t2 = 0.5 - d / 2, 0.5 + d / 2
            diff = float(np.sum((y <= t1) - t1) - np.sum((y <= t2) - t2))
            sums[d].append(diff)
    normalized = {d: float(np.mean(np.asarray(sums[d]) ** 4)) / (n**3 * d**2)
                  for d in lags}
    values = list(normalized.values())
    ratio = max(values) / min(values)
    assert ratio <= 4.0, f"normalized means {normalized}"
    _report(8, "normalized fourth moments "
            + ", ".join(f"{d:g}:{normalized[d]:.2f}" for d in lags)
            + f"; max/min={ratio:.2f} ({time.time() - start:.0f}s)")


def test_criterion_9_experiment_determinism(tmp_path):
    start = time.time()
    configs = {
        "rwrs": ("experiment: simulate-rwrs\nalpha: 2.0\nn: 256\n"
                 "replicates: 8\nmaster_seed: 91\n"
                 "s_grid: 0, 0.25, 0.5, 0.75, 1\nt_grid: 0, 0.25, 0.5, 0.75, 1\n"),
        "limit": ("experiment: simulate-limit\nalpha: 2.0\nreplicates: 6\n"
                  "K: 1024\ncells: 32\nmaster_seed: 92\n"
                  "s_grid: 0, 0.5, 1\nt_grid: 0, 0.5, 1\n"),
    }
    for name, text in configs.items():
        outputs = {}
        for tag, workers in (("first", 1), ("again", 1), ("pool", 8)):
            out = tmp_path / f"{name}_{tag}"
            out.mkdir()
            cfg = parse_config(text, {"output_dir": str(out),
                                      "workers": str(workers)})
            run_experiment(cfg)
            outputs[tag] = out
        names = sorted(p.name for p in outputs["first"].glob("*.csv"))
        assert names
        for f in names:
            ref = (outputs["first"] / f).read_bytes()
            assert (outputs["again"] / f).read_bytes() == ref
            assert (outputs["pool"] / f).read_bytes() == ref
    _report(9, "byte-identical CSVs across reruns and workers 1 vs 8 "
               f"({time.time() - start:.0f}s)")
