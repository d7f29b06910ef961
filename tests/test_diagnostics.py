from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from rwrs.diagnostics import (
    LimitConfig,
    SampleSet,
    _holder_pairs,
    bickel_wichura_modulus,
    discrete_kernel,
    fit_loglog,
    holder_norm_estimate,
    ks_statistic,
    limit_kernel,
    matched_limit_kernel,
    moment_scaling,
    samples,
    self_similarity_factor,
    self_similarity_test,
    structure_function,
    two_sample_distance,
    verify_fdd,
    verify_lemma1,
)
from rwrs.limit import (
    LimitSheet,
    default_cell_width,
    kiefer_increments,
    limit_sheet,
    local_time_field,
    local_time_quadratic,
    simulate_levy_path,
)
from rwrs.walk import (
    EmpiricalSheet,
    GridSpec,
    empirical_sheet,
    occupation_quadratic,
    occupation_statistic,
    rescale,
    simulate_walk,
)
from rwrs.randomness import Alpha, IncrementLaw, SeedScheme, StreamKind, stream_generator

SMALL_LIMIT = LimitConfig(steps=2048, cells=64)


def _limit_samples(alpha, replicates, config, master_seed, **outputs):
    return samples(matched_limit_kernel(alpha, config, master_seed, **outputs),
                   replicates)


def _limit_sheet(values, s_axis, t_axis):
    return LimitSheet(values=np.asarray(values, dtype=float),
                      s_cuts=np.asarray(s_axis, dtype=float),
                      t_grid=np.asarray(t_axis, dtype=float))


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet("x", np.array([]))
    with pytest.raises(ValueError):
        SampleSet("x", np.array([1.0, np.nan]))


def test_ks_identical_and_disjoint():
    a = np.random.default_rng(0).normal(size=200)
    assert two_sample_distance(a, a, 500).statistic == 0.0
    assert two_sample_distance(a, a, 500).p_value == 1.0
    neg = -1.0 - np.abs(np.random.default_rng(1).normal(size=80))
    pos = 2.0 + np.abs(np.random.default_rng(2).normal(size=90))
    r = two_sample_distance(neg, pos, 500)
    assert r.statistic == 1.0 and r.p_value <= 0.01


def test_ks_bounds():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b = rng.normal(size=60), rng.normal(0.4, 1.3, size=45)
        ks = two_sample_distance(a, b, 500).statistic
        assert 0.0 <= ks <= 1.0


def test_ks_statistic_matches_report():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=90), rng.normal(0.2, 1.1, size=110)
    assert ks_statistic(a, b) == two_sample_distance(a, b, 500).statistic


# Small integers make ties within and across the two samples common.
_KS_SAMPLE = st.lists(
    st.one_of(st.integers(-3, 3).map(float),
              st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=40)


# only the statistic is compared; scipy warns about its p-value on tiny samples
@pytest.mark.filterwarnings("ignore::RuntimeWarning:scipy")
@settings(max_examples=300, deadline=None)
@given(_KS_SAMPLE, _KS_SAMPLE)
def test_ks_statistic_matches_scipy(a, b):
    expected = ks_2samp(a, b).statistic
    assert ks_statistic(a, b) == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=120), rng.normal(0.3, 1.0, size=140)
    base = two_sample_distance(a, b, 500).statistic
    warped = two_sample_distance(np.exp(a), np.exp(b), 500).statistic
    assert base == warped


def _batch250_ks(a, b, permutations, seed):
    # the permutation loop in its earlier form: int64 labels, 250-row batches
    na, nb = a.size, b.size
    pooled = np.concatenate((a, b))
    order = np.argsort(pooled, kind="stable")
    boundary = np.append(np.diff(pooled[order]) > 0, True)
    ranks = np.arange(1, na + nb + 1, dtype=np.int64)
    labels = np.concatenate((np.ones(na, dtype=np.int64),
                             np.zeros(nb, dtype=np.int64)))[order]

    def stats_for(rows):
        numer = np.abs(np.cumsum(rows, axis=1) * (na + nb) - ranks * na)
        return np.max(numer * boundary, axis=1) / float(na * nb)

    observed = float(stats_for(labels[None, :])[0])
    rng = stream_generator(SeedScheme(seed, StreamKind.KIEFER, 0), salt=0x7E57)
    count = done = 0
    while done < permutations:
        m = min(250, permutations - done)
        rows = rng.permuted(np.tile(labels, (m, 1)), axis=1)
        count += int(np.sum(stats_for(rows) >= observed - 1e-15))
        done += m
    return observed, (1.0 + count) / (permutations + 1.0)


@pytest.mark.parametrize("na, nb, ties", [
    (500, 500, False), (500, 500, True), (37, 91, True), (5000, 4000, False)])
def test_two_sample_distance_matches_batch250_form(na, nb, ties):
    # the label rows come in batches of at most BLOCK labels now; permuted
    # shuffles row after row, so the p-values must not move
    rng = np.random.default_rng(na + nb)
    a, b = rng.normal(size=na), rng.normal(0.1, 1.0, size=nb)
    if ties:
        a, b = np.round(a * 2.0), np.round(b * 2.0)
    for seed in (0, 104729):
        rep = two_sample_distance(a, b, 1003, seed=seed)
        assert (rep.statistic, rep.p_value) == _batch250_ks(a, b, 1003, seed)


def test_two_sample_validation():
    a = np.ones(10)
    with pytest.raises(ValueError):
        two_sample_distance(a, a, permutations=100)


def test_null_pvalue_calibration():
    # under the null the permutation p-value should rarely fall below 0.01
    rng = np.random.default_rng(13)
    hits = 0
    for meta in range(100):
        a = rng.normal(size=2000)
        b = rng.normal(size=2000)
        r = two_sample_distance(a, b, permutations=500, seed=meta)
        hits += r.p_value > 0.01
    assert hits >= 98


def test_fit_loglog_recovers_slope():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_loglog(x, 3.0 * x**1.7)
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)
    assert not fit.degenerate


def test_fit_loglog_degenerate():
    fit = fit_loglog(np.array([1.0, 2.0, 4.0]), np.array([0.0, 0.0, 0.0]))
    assert fit.degenerate


def test_moment_scaling_validation():
    with pytest.raises(ValueError):
        moment_scaling(2.0, [1024, 2048, 4096], "sumN2", 200)  # 3 points
    with pytest.raises(ValueError):
        moment_scaling(2.0, [1024, 2048, 4096, 5000], "sumN2", 200)  # not geometric
    with pytest.raises(ValueError):
        moment_scaling(2.0, [1024, 2048, 4096, 8192], "sumN2", 100)  # replicates


def test_moment_scaling_small_run():
    fit = moment_scaling(2.0, [512, 1024, 2048, 4096], "sumN2", 200, master_seed=3)
    assert 1.2 < fit.slope < 1.8
    med = moment_scaling(2.0, [512, 1024, 2048, 4096], "maxN_scaled", 200,
                         master_seed=3)
    assert np.all(np.diff(med.ys) < 0)


def test_structure_function_synthetic_slope():
    # V(s, t) = s has |increment|^2 = lag^2 along s, slope exactly 2
    s_axis = np.linspace(0, 1, 17)
    t_axis = np.linspace(0, 1, 17)
    values = np.tile(s_axis[:, None], (1, 17))
    sheets = [_limit_sheet(values, s_axis, t_axis)] * 3
    fit = structure_function(sheets, "s", 2, [0.125, 0.25, 0.5])
    assert fit.slope == pytest.approx(2.0, abs=1e-9)


def test_structure_function_degenerate_and_validation():
    s_axis = np.linspace(0, 1, 9)
    zero = [_limit_sheet(np.zeros((9, 9)), s_axis, s_axis)]
    fit = structure_function(zero, "t", 2, [0.25, 0.375, 0.5])
    assert fit.degenerate
    with pytest.raises(ValueError):
        structure_function(zero, "t", 2, [0.01, 0.25, 0.5])  # below spacing
    with pytest.raises(ValueError):
        structure_function(zero, "t", 3, [0.25, 0.375, 0.5])  # odd m
    with pytest.raises(ValueError):
        structure_function(zero, "x", 2, [0.25, 0.375, 0.5])
    # smallest lag within two grid spacings is dropped; only two remain
    with pytest.raises(ValueError):
        structure_function(zero, "t", 2, [0.125, 0.25, 0.5])


def test_structure_function_requires_rescaled_empirical():
    grid = GridSpec(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    raw = EmpiricalSheet(values=np.zeros((9, 9)), grid=grid, n=16,
                         alpha=Alpha(2.0), scaled=False)
    with pytest.raises(ValueError):
        structure_function([raw], "t", 2, [0.25, 0.375, 0.5])


def test_self_similarity_factor_value():
    assert self_similarity_factor(2.0, 0.25) == pytest.approx(0.25**0.75)
    assert self_similarity_factor(2.0, 0.25) == pytest.approx(0.35355, abs=5e-6)


def test_self_similarity_validation():
    with pytest.raises(ValueError):
        self_similarity_test(2.0, 1.5, 1.0, 0.5, 50, SMALL_LIMIT)
    with pytest.raises(ValueError):
        self_similarity_test(2.0, 0.0, 1.0, 0.5, 50, SMALL_LIMIT)
    with pytest.raises(ValueError):
        self_similarity_test(2.0, 0.25, 0.0, 0.5, 50, SMALL_LIMIT)


def test_self_similarity_null_at_unit_ratio():
    # a = 1 compares two independent draws of the same marginal
    rep = self_similarity_test(2.0, 1.0, 1.0, 0.5, 250, SMALL_LIMIT,
                               master_seed=15, permutations=500)
    assert rep.p_value > 0.01


def test_self_similarity_small_run():
    rep = self_similarity_test(2.0, 0.25, 1.0, 0.5, 300, SMALL_LIMIT,
                               master_seed=17, permutations=500)
    assert rep.p_value > 0.01


def test_bickel_wichura_trivials():
    s_axis = np.linspace(0, 1, 9)
    t_axis = np.linspace(0, 1, 17)
    const = _limit_sheet(np.ones((9, 17)), s_axis, t_axis)
    assert bickel_wichura_modulus(const, 0.25) == 0.0
    linear = _limit_sheet(np.tile(t_axis, (9, 1)), s_axis, t_axis)
    for delta in (0.125, 0.25):
        assert bickel_wichura_modulus(linear, delta) <= delta + 1e-12
    rng = np.random.default_rng(19)
    noisy = _limit_sheet(rng.normal(size=(9, 17)), s_axis, t_axis)
    mods = [bickel_wichura_modulus(noisy, d) for d in (0.125, 0.25, 0.5, 1.0)]
    assert np.all(np.diff(mods) >= 0)
    with pytest.raises(ValueError):
        bickel_wichura_modulus(noisy, 0.05)


def test_holder_norm_trivials():
    s_axis = np.linspace(0, 1, 9)
    zero = _limit_sheet(np.zeros((9, 9)), s_axis, s_axis)
    assert holder_norm_estimate(zero, 0.5, 0.5) == 0.0
    ramp = _limit_sheet(np.tile(s_axis[:, None], (1, 9)), s_axis, s_axis)
    assert holder_norm_estimate(ramp, 0.5, 0.5) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        holder_norm_estimate(zero, 0.0, 0.5)
    with pytest.raises(ValueError):
        holder_norm_estimate(zero, 0.5, 1.0)


def _modulus_dense(sheet, delta):
    # all-pairs distance matrix per axis: the modulus before it was banded
    values, s_axis, t_axis = sheet.values, sheet.s_cuts, sheet.t_grid

    def directional(profiles, coords):
        dist = np.max(np.abs(profiles[:, None, :] - profiles[None, :, :]), axis=2)
        best = 0.0
        for mid in range(coords.size):
            lo = int(np.searchsorted(coords, coords[mid] - delta, side="left"))
            hi = int(np.searchsorted(coords, coords[mid] + delta, side="right"))
            left = np.arange(lo, mid + 1)
            right = np.arange(mid, hi)
            pair_min = np.minimum(dist[left, mid][:, None], dist[mid, right][None, :])
            ok = (coords[right][None, :] - coords[left][:, None]) <= delta + 1e-12
            if np.any(ok):
                best = max(best, float(np.max(pair_min[ok])))
        return best

    return max(directional(values.T, t_axis), directional(values, s_axis))


def test_banded_modulus_equals_dense():
    rng = np.random.default_rng(23)
    uneven = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 10)), [1.0]))
    sheets = [
        _limit_sheet(rng.normal(size=(9, 17)), np.linspace(0, 1, 9), np.linspace(0, 1, 17)),
        _limit_sheet(np.cumsum(np.cumsum(rng.normal(size=(33, 33)), 0), 1),
                     np.linspace(0, 1, 33), np.linspace(0, 1, 33)),
        _limit_sheet(rng.standard_cauchy(size=(12, 5)), uneven, np.linspace(0, 1, 5)),
    ]
    for sheet in sheets:
        gap = max(np.max(np.diff(sheet.s_cuts)), np.max(np.diff(sheet.t_grid)))
        for delta in [d for d in (gap, 0.25, 0.5, 1.0) if d >= gap]:
            assert bickel_wichura_modulus(sheet, delta) == _modulus_dense(sheet, delta)


def _holder_unpruned(values, ds, dt, gamma, gamma_prime):
    # the offset loop without its early exits; pruning must not change a bit
    n_s, n_t = values.shape
    best = 0.0
    for a in range(n_s):
        lo = values[a:, :]
        hi = values[:n_s - a, :]
        for b in range(n_t):
            if a == 0 and b == 0:
                continue
            den = (a * ds) ** gamma + (b * dt) ** gamma_prime
            if b == 0:
                num = float(np.max(np.abs(lo - hi)))
            else:
                num = float(np.max(np.abs(lo[:, b:] - hi[:, :n_t - b])))
                if a > 0:
                    num = max(num, float(np.max(np.abs(lo[:, :n_t - b]
                                                       - hi[:, b:]))))
            best = max(best, num / den)
    return best


def _holder_oracles(values, gamma, gamma_prime):
    """(estimate, unpruned offset loop, all-pairs) on a unit-square grid."""
    n_s, n_t = values.shape
    s_axis = np.linspace(0.0, 1.0, n_s) if n_s > 1 else np.array([0.5])
    t_axis = np.linspace(0.0, 1.0, n_t) if n_t > 1 else np.array([0.5])
    ds = 1.0 / (n_s - 1) if n_s > 1 else 0.0
    dt = 1.0 / (n_t - 1) if n_t > 1 else 0.0
    sheet = _limit_sheet(values, s_axis, t_axis)
    return (holder_norm_estimate(sheet, gamma, gamma_prime),
            _holder_unpruned(values, ds, dt, gamma, gamma_prime),
            _holder_pairs(values, s_axis, t_axis, gamma, gamma_prime))


def _holder_test_sheets():
    rng = np.random.default_rng(29)
    spike = np.zeros((17, 17))
    spike[-1, -1] = 1.0  # largest offset from values[0, 0]
    return {
        "normal": rng.normal(size=(17, 17)),
        "normal-oblong": rng.normal(size=(33, 9)),
        "spike": spike,
        "cumulative": np.cumsum(np.cumsum(rng.normal(size=(33, 33)), 0), 1),
        "constant": np.full((9, 9), 3.5),
        "one-row": rng.normal(size=(1, 17)),
        "one-column": np.cumsum(rng.normal(size=(17, 1)), 0),
    }


@pytest.mark.parametrize("gamma, gamma_prime", [(0.7, 0.45), (0.3, 0.9), (0.99, 0.01)])
def test_holder_pruning_is_exact(gamma, gamma_prime):
    for name, values in _holder_test_sheets().items():
        pruned, unpruned, pairs = _holder_oracles(values, gamma, gamma_prime)
        assert pruned == unpruned, name
        # all-pairs rounds its denominators differently, by up to one ulp
        assert pruned == pytest.approx(pairs, rel=1e-12, abs=0.0), name


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_holder_pruning_is_exact_on_random_sheets(n_s, n_t, seed, gamma, gamma_prime):
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n_s, n_t))
    pruned, unpruned, pairs = _holder_oracles(values, gamma, gamma_prime)
    assert pruned == unpruned
    assert pruned == pytest.approx(pairs, rel=1e-12, abs=0.0)


@pytest.mark.slow
def test_structure_slope_ordering_in_alpha():
    # the level-direction exponent carries no alpha, while the time-direction
    # exponent 2(1 - 1/(2 alpha)) increases with alpha
    cfg = LimitConfig(steps=1 << 16, cells=512)
    s_grid = tuple(np.linspace(0.0, 1.0, 33))
    t_grid = tuple(np.linspace(0.0, 1.0, 65))
    fits = []
    for i, alpha in enumerate((1.2, 1.5, 2.0)):
        sheets = _limit_samples(alpha, 300, cfg, 900 + i,
                                grids=((s_grid, t_grid),))["sheets"][0]
        fits.append(structure_function(sheets, "s", 2, [1 / 16, 1 / 8, 1 / 4]))
    for lo, hi in zip(fits, fits[1:]):
        assert lo.slope + 2 * lo.stderr < hi.slope - 2 * hi.stderr


@pytest.mark.slow
def test_holder_estimate_refinement_behavior():
    # below the critical s-exponent the estimate is stable under grid
    # refinement (within a factor 2); above it the estimate keeps growing
    cfg = LimitConfig(steps=1 << 17, cells=512)
    medians = {}
    for gpts in (64, 128):
        axis = tuple(np.linspace(0.0, 1.0, gpts + 1))
        sheets = _limit_samples(2.0, 40, cfg, 701, grids=((axis, axis),))["sheets"][0]
        medians[gpts] = {
            g: float(np.median([holder_norm_estimate(s, g, 0.45) for s in sheets]))
            for g in (0.7, 0.9)}
    subcritical = medians[128][0.7] / medians[64][0.7]
    supercritical = medians[128][0.9] / medians[64][0.9]
    assert 0.5 <= subcritical <= 2.0
    assert supercritical > 1.0


def test_discrete_kernel_equals_direct_composition():
    law = IncrementLaw.for_alpha(1.5)
    grid = GridSpec(np.linspace(0.0, 1.0, 5), np.array([0.0, 0.3, 1.0]))
    s_vec = (0.5, 1.0)
    kernel = partial(discrete_kernel, alpha=1.5, n=512, master_seed=41, grid=grid,
                     s_vec=s_vec, functional="sumN2")
    drawn = samples(kernel, 8)
    for index in (0, 3, 7):
        path = simulate_walk(512, law, SeedScheme(41, StreamKind.WALK, index))
        sheet = empirical_sheet(path, SeedScheme(41, StreamKind.SCENERY, index), grid)
        out = kernel(index)
        assert np.array_equal(out["sheet"], rescale(sheet).values)
        assert np.array_equal(out["quadratic"],
                              occupation_quadratic(path, np.asarray(s_vec), 1.5))
        assert out["functional"] == occupation_statistic(path, "sumN2", 1.5)
        raw = discrete_kernel(index, 1.5, 512, 41, grid=grid, scaled=False)
        assert raw.keys() == {"sheet"}
        assert np.array_equal(raw["sheet"], sheet.values)
        for key in ("sheet", "quadratic", "functional"):
            assert np.array_equal(drawn[key][index], out[key])


def test_limit_kernel_equals_direct_composition():
    grids = ((np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3)),
             ((0.25, 1.0), (0.0, 0.5, 1.0)))
    cfg = SMALL_LIMIT
    # (0.5, 1) lies on the first grid's cuts, (0.3, 1) on no grid's
    for s_vec in ((0.5, 1.0), (0.3, 1.0)):
        kernel = partial(limit_kernel, alpha=1.5, scale=0.8, config=cfg,
                         master_seed=43, grids=grids, s_vec=s_vec)
        drawn = samples(kernel, 8)
        for index in (0, 3, 7):
            path = simulate_levy_path(1.5, 0.8, cfg.steps,
                                      SeedScheme(43, StreamKind.LEVY, index))
            dx = default_cell_width(path, cfg.cells)
            out = kernel(index)
            for g, (s_cuts, t_grid) in enumerate(grids):
                lt = local_time_field(path, dx, np.asarray(s_cuts))
                kf = kiefer_increments(lt.x_left, lt.dx, np.asarray(t_grid),
                                       SeedScheme(43, StreamKind.KIEFER, index))
                expected = limit_sheet(lt, kf)
                for sheet in (out["sheets"][g], drawn["sheets"][g][index]):
                    assert np.array_equal(sheet.values, expected.values)
                    assert sheet.provenance == expected.provenance
            lt = local_time_field(path, dx, np.asarray(s_vec))
            expected = local_time_quadratic(lt, np.asarray(s_vec))
            assert np.array_equal(out["quadratic"], expected)
            assert np.array_equal(drawn["quadratic"][index], expected)


def test_verify_lemma1_preconditions():
    with pytest.raises(ValueError):
        verify_lemma1(2.0, (0.5, 1.0), 2048, 500, SMALL_LIMIT)
    with pytest.raises(ValueError):
        verify_lemma1(2.0, (0.5, 1.0), 4096, 100, SMALL_LIMIT)


def test_verify_fdd_preconditions():
    with pytest.raises(ValueError):
        verify_fdd(2.0, [(1.0, 0.5)], 8192, 50, SMALL_LIMIT)


def test_degenerate_cut_gives_zero_distance():
    d = samples(partial(discrete_kernel, alpha=2.0, n=256, master_seed=23,
                        s_vec=(0.0, 1.0)), 40)["quadratic"]
    l = _limit_samples(2.0, 40, SMALL_LIMIT, 23, s_vec=(0.0, 1.0))["quadratic"]
    assert np.all(d[:, 0, 0] == 0.0) and np.all(l[:, 0, 0] == 0.0)
    assert np.all(d[:, 0, 1] == 0.0) and np.all(l[:, 0, 1] == 0.0)
    rep = two_sample_distance(d[:, 0, 1], l[:, 0, 1], 500)
    assert rep.statistic == 0.0 and rep.p_value == 1.0


def test_fdd_degenerate_point():
    grid = GridSpec(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]))
    d = samples(partial(discrete_kernel, alpha=2.0, n=16384, master_seed=29,
                        grid=grid), 30)["sheet"]
    l = _limit_samples(2.0, 30, SMALL_LIMIT, 29,
                       grids=(((0.0,), (0.0, 0.5, 1.0)),))["sheets"][0]
    assert np.all(d[:, 0, 1] == 0.0)
    assert all(sheet.values[0, 1] == 0.0 for sheet in l)


def test_fdd_small_run_shapes():
    points = [(1.0, 0.5), (0.5, 0.25)]
    reports = verify_fdd(2.0, points, 16384, 60, SMALL_LIMIT, master_seed=31,
                         permutations=500).reports
    point_keys = [k for k in reports if k[0] == "point"]
    pair_keys = [k for k in reports if k[0] == "pair"]
    assert len(point_keys) == 2
    assert len(pair_keys) == 2  # one pair, two theta combinations
    for rep in reports.values():
        assert 0.0 <= rep.statistic <= 1.0
        assert 0.0 <= rep.p_value <= 1.0
