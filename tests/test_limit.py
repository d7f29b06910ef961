import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rwrs.limit import (
    LocalTimeField,
    default_cell_width,
    kiefer_increments,
    levy_from_values,
    limit_sheet,
    local_time_field,
    local_time_quadratic,
    simulate_levy_path,
)
from rwrs.randomness import (
    BLOCK,
    Alpha,
    SeedScheme,
    StreamKind,
    stable_standard_sample,
    stream_generator,
)


def _levy_seed(r=0, master=7):
    return SeedScheme(master, StreamKind.LEVY, r)


def _kiefer_seed(r=0, master=7):
    return SeedScheme(master, StreamKind.KIEFER, r)


def test_levy_path_basics():
    p = simulate_levy_path(2.0, 1.0, 1000, _levy_seed())
    assert p.values[0] == 0.0
    assert p.steps == 1000
    assert p.times[0] == 0.0 and p.times[-1] == 1.0
    with pytest.raises(ValueError):
        simulate_levy_path(2.0, 0.0, 1000, _levy_seed())
    with pytest.raises(ValueError):
        simulate_levy_path(2.0, 1.0, 0, _levy_seed())


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_levy_path_matches_unbuffered_formula(alpha):
    # the path is built in one preallocated array; its bits must equal the
    # plain concatenate-of-cumsum construction on the same stream
    steps, scale = 4096, 1.3
    rng = stream_generator(_levy_seed(4))
    if alpha == 2.0:
        draws, c = rng.standard_normal(steps), scale * steps**-0.5
    else:
        draws = stable_standard_sample(Alpha(alpha), steps, rng)
        c = scale * float(steps) ** (-1.0 / alpha)
    expected = np.concatenate(([0.0], np.cumsum(draws * c)))
    values = simulate_levy_path(alpha, scale, steps, _levy_seed(4)).values
    assert values.dtype == expected.dtype and values.tobytes() == expected.tobytes()


def test_levy_terminal_variance():
    ends = np.array([simulate_levy_path(2.0, 1.0, 1000, _levy_seed(r)).values[-1]
                     for r in range(10_000)])
    assert abs(ends.var() - 1.0) < 0.03


def test_levy_increments_scale_with_resolution():
    p = simulate_levy_path(2.0, 1.0, 4000, _levy_seed(3))
    inc = np.diff(p.values)
    assert abs(inc.std() * np.sqrt(4000) - 1.0) < 0.05


def test_stable_tail_exponent():
    rng = stream_generator(_levy_seed(5))
    x = np.abs(stable_standard_sample(Alpha(1.5), 2_000_000, rng))
    normalized = [z**1.5 * np.mean(x > z) for z in (5.0, 10.0, 20.0, 50.0)]
    assert max(normalized) / min(normalized) < 1.35


def test_local_time_constant_path():
    p = levy_from_values(np.zeros(1001), 2.0)
    lt = local_time_field(p, 0.1, [1.0])
    occupied = lt.values[0] > 0
    assert occupied.sum() == 1
    assert lt.values[0][occupied][0] == pytest.approx(10.0)
    left = lt.x_left[occupied][0]
    assert left <= 0.0 < left + lt.dx


def test_local_time_occupation_identity():
    p = simulate_levy_path(2.0, 0.7, 4096, _levy_seed(1))
    cuts = [0.0, 0.31, 0.5, 0.77, 1.0]
    lt = local_time_field(p, default_cell_width(p, 200), cuts)
    for i, s in enumerate(cuts):
        total = float(np.sum(lt.values[i]) * lt.dx)
        assert total == pytest.approx(np.floor(s * 4096) / 4096, abs=1e-12)
        assert abs(total - s) <= 1.0 / 4096


def test_local_time_monotone_in_s():
    p = simulate_levy_path(1.5, 1.0, 2048, _levy_seed(2))
    lt = local_time_field(p, default_cell_width(p, 100), [0.2, 0.6, 1.0])
    assert np.all(lt.values[1] >= lt.values[0])
    assert np.all(lt.values[2] >= lt.values[1])


def test_local_time_validation():
    p = simulate_levy_path(2.0, 1.0, 1000, _levy_seed())
    with pytest.raises(ValueError):
        local_time_field(p, 0.0, [1.0])
    with pytest.raises(ValueError):
        local_time_field(p, 0.1, [0.5, 1.5])
    with pytest.raises(ValueError):
        local_time_field(p, 0.1, [0.8, 0.2])


def _whole_array_local_time(path, dx, s_cuts):
    # the binning formula applied to the whole path at once
    x_lo = float(path.values.min()) - dx
    x_hi = float(path.values.max()) + dx
    cells = int(np.ceil((x_hi - x_lo) / dx)) + 1
    offsets = path.values[1:] - x_lo
    offsets /= dx
    bins = offsets.astype(np.int64)
    cuts = np.floor(np.asarray(s_cuts) * path.steps + 1e-9).astype(np.int64)
    counts = np.array([np.bincount(bins[:cut], minlength=cells) for cut in cuts])
    return counts * (1.0 / (path.steps * dx))


@pytest.mark.parametrize("alpha", [2.0, 1.5])
@pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_local_time_blocked_equals_whole_array(steps, alpha):
    # blocks start at each cut: cuts on multiples of BLOCK leave whole blocks
    path = simulate_levy_path(alpha, 1.0, steps, _levy_seed(steps))
    edges = [k * BLOCK for k in (1, 2, 3) if k * BLOCK <= steps]
    around = [e + d for e in edges for d in (-1, 1) if e + d <= steps]
    dx = default_cell_width(path, 64)
    for cuts in ([], edges, around):
        s_cuts = sorted({0.0, 1.0, *(c / steps for c in cuts)})
        assert set(cuts) <= set(np.floor(np.asarray(s_cuts) * steps + 1e-9).tolist())
        lt = local_time_field(path, dx, s_cuts)
        expected = _whole_array_local_time(path, dx, s_cuts)
        assert lt.values.shape == expected.shape
        assert lt.values.tobytes() == expected.tobytes()


def test_local_time_field_peak_memory():
    # only the small outputs may reach full size, never a per-sample array
    path = simulate_levy_path(2.0, 1.0, 1 << 17, _levy_seed(3))
    dx = default_cell_width(path, 512)
    tracemalloc.start()
    try:
        local_time_field(path, dx, [0.25, 0.5, 1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def _jump_path(jump):
    values = np.concatenate(([0.0], np.cumsum(np.full(999, 0.01))))
    values[500:] += jump
    return levy_from_values(values, 1.5)


@pytest.mark.parametrize("make", [
    lambda r: simulate_levy_path(2.0, 1.0, 4096, _levy_seed(r)),
    lambda r: simulate_levy_path(1.5, 1.0, 4096, _levy_seed(r)),
    lambda r: simulate_levy_path(1.2, 1.0, 4096, _levy_seed(r)),
    lambda r: _jump_path(1e6 * (r + 1)),
    lambda r: _jump_path(-1e6 * (r + 1)),
], ids=["alpha2", "alpha1.5", "alpha1.2", "jump-up", "jump-down"])
def test_local_time_bins_stay_inside_padded_cells(make):
    # the last cell is padding only; the first can hold only samples at the
    # path's minimum, whose offset from x_lo = min - dx may round below dx
    for r in range(20):
        path = make(r)
        samples = path.values[1:]
        for cells in (16, 512):
            dx = default_cell_width(path, cells)
            lt = local_time_field(path, dx, [0.5, 1.0])
            assert np.all(lt.values[:, -1] == 0.0)
            first = int(np.rint(lt.values[-1, 0] * path.steps * dx))
            assert first <= int(np.sum(samples <= samples.min() + 1e-9 * dx))
            assert lt.values[-1].sum() * dx == pytest.approx(1.0, abs=1e-12)


def test_kiefer_bridge_endpoints():
    x_left = np.arange(-5, 5) * 0.25
    kf = kiefer_increments(x_left, 0.25, np.linspace(0, 1, 9), _kiefer_seed())
    assert np.all(kf.values[:, 0] == 0.0)
    assert np.all(kf.values[:, -1] == 0.0)


def test_kiefer_covariance():
    # cells are iid, so pool cells and draws; Var(dK(t)) = dx * t(1-t)
    x_left = np.arange(-16, 16) * 0.5
    t_grid = np.array([0.0, 0.25, 0.5, 1.0])
    rows = [kiefer_increments(x_left, 0.5, t_grid, _kiefer_seed(r)).values
            for r in range(400)]
    stacked = np.concatenate(rows, axis=0)
    var_half = stacked[:, 2].var()
    assert abs(var_half - 0.5 * 0.25) < 0.05 * 0.5 * 0.25
    var_quarter = stacked[:, 1].var()
    assert abs(var_quarter - 0.5 * 0.25 * 0.75) < 0.05 * 0.5 * 0.25 * 0.75
    # distinct cells are independent
    corr = np.corrcoef(np.array([r[3, 2] for r in rows]),
                       np.array([r[4, 2] for r in rows]))[0, 1]
    assert abs(corr) < 0.15


def test_kiefer_validation():
    x_left = np.array([0.0, 0.1])
    with pytest.raises(ValueError):
        kiefer_increments(x_left, 0.1, np.array([0.0, 0.5]), _kiefer_seed())
    with pytest.raises(ValueError):
        kiefer_increments(x_left, 0.1, np.array([0.2, 1.0]), _kiefer_seed())
    with pytest.raises(ValueError):
        kiefer_increments(x_left, 0.1, np.linspace(0, 1, 5), _levy_seed())


def test_limit_sheet_boundaries_and_mismatch():
    p = simulate_levy_path(2.0, 0.7, 2048, _levy_seed(4))
    lt = local_time_field(p, default_cell_width(p, 64), [0.0, 0.5, 1.0])
    kf = kiefer_increments(lt.x_left, lt.dx, np.linspace(0, 1, 9), _kiefer_seed(4))
    sheet = limit_sheet(lt, kf)
    assert np.all(sheet.values[0] == 0.0)
    assert np.all(sheet.values[:, 0] == 0.0)
    assert np.all(sheet.values[:, -1] == 0.0)
    other = kiefer_increments(lt.x_left[:-1], lt.dx, np.linspace(0, 1, 9),
                              _kiefer_seed(4))
    with pytest.raises(ValueError):
        limit_sheet(lt, other)


def test_ito_isometry_variance():
    p = simulate_levy_path(2.0, 0.7071, 16384, _levy_seed(6))
    lt = local_time_field(p, default_cell_width(p, 128), [0.5, 1.0])
    t_grid = np.array([0.0, 0.25, 0.5, 1.0])
    draws = np.empty((10_000, 2, 4))
    for r in range(10_000):
        kf = kiefer_increments(lt.x_left, lt.dx, t_grid, _kiefer_seed(r, master=21))
        draws[r] = limit_sheet(lt, kf).values
    for (i, j, s, t) in [(0, 2, 0.5, 0.5), (1, 1, 1.0, 0.25), (1, 2, 1.0, 0.5)]:
        predicted = t * (1 - t) * float(np.sum(lt.values[i] ** 2) * lt.dx)
        observed = draws[:, i, j].var()
        assert abs(observed - predicted) < 0.05 * predicted


def test_conditional_gaussianity():
    # conditional on the driving path, linear combinations of sheet values
    # are centered Gaussian with variance sum theta_j theta_l sigma_jl R_jl
    p = simulate_levy_path(2.0, 0.7071, 8192, _levy_seed(8))
    pairs = [(0.5, 0.25), (1.0, 0.75)]
    lt = local_time_field(p, default_cell_width(p, 128), [0.5, 1.0])
    R = local_time_quadratic(lt, [0.5, 1.0])
    t_grid = np.array([0.0, 0.25, 0.75, 1.0])
    theta = (1.0, -0.5)
    cols = {0.25: 1, 0.75: 2}
    z = np.empty(4000)
    for r in range(4000):
        kf = kiefer_increments(lt.x_left, lt.dx, t_grid, _kiefer_seed(r, master=33))
        sheet = limit_sheet(lt, kf)
        z[r] = (theta[0] * sheet.values[0, cols[0.25]]
                + theta[1] * sheet.values[1, cols[0.75]])
    var = 0.0
    for j, (s_j, t_j) in enumerate(pairs):
        for l, (s_l, t_l) in enumerate(pairs):
            sigma = min(t_j, t_l) - t_j * t_l
            var += theta[j] * theta[l] * sigma * R[j, l]
    assert abs(z.var() - var) < 0.07 * var
    assert abs(z.mean()) < 4 * z.std() / np.sqrt(z.size)
    p_norm = stats.kstest(z, "norm", args=(0.0, np.sqrt(var))).pvalue
    assert p_norm > 0.001


def test_sup_local_time_scaling():
    # E (sup_x L_s)^2 grows like s^(2 (alpha-1)/alpha); equality in the
    # exponent by self-similarity of the local time
    s_cuts = [0.125, 0.25, 0.5, 1.0]
    sups = np.empty((200, 4))
    for r in range(200):
        p = simulate_levy_path(2.0, 0.7071, 8192, _levy_seed(r, master=44))
        lt = local_time_field(p, default_cell_width(p, 256), s_cuts)
        sups[r] = lt.values.max(axis=1)
    means = (sups**2).mean(axis=0)
    slope = np.polyfit(np.log(s_cuts), np.log(means), 1)[0]
    assert abs(slope - 1.0) < 0.2


def test_two_sided_mirror_symmetry():
    # negating the path and swapping the two spatial streams leaves the
    # sheet distribution unchanged
    from rwrs.diagnostics import two_sample_distance

    def marginal(r, mirrored):
        p = simulate_levy_path(2.0, 0.7071, 2048, _levy_seed(r, master=55))
        values = p.values if not mirrored else -p.values
        q = levy_from_values(values, 2.0, 0.7071)
        lt = local_time_field(q, default_cell_width(q, 64), [1.0])
        kf = kiefer_increments(lt.x_left, lt.dx, np.array([0.0, 0.5, 1.0]),
                               _kiefer_seed(r, master=56), mirror=mirrored)
        return limit_sheet(lt, kf).values[0, 1]

    plain = np.array([marginal(r, False) for r in range(400)])
    mirrored = np.array([marginal(r + 400, True) for r in range(400)])
    report = two_sample_distance(plain, mirrored, permutations=600)
    assert report.p_value > 0.005


def test_local_time_quadratic_examples():
    p = levy_from_values(np.zeros(1001), 2.0)
    lt = local_time_field(p, 0.1, [0.0, 1.0])
    R = local_time_quadratic(lt, [1.0, 1.0])
    assert R.shape == (2, 2)
    assert R[0, 0] == pytest.approx(10.0)
    zero = local_time_quadratic(lt, [0.0, 1.0])
    assert zero[0, 0] == 0.0 and zero[0, 1] == 0.0
    with pytest.raises(ValueError):
        local_time_quadratic(lt, [0.3])


def test_local_time_quadratic_cauchy_schwarz():
    p = simulate_levy_path(1.5, 1.2, 4096, _levy_seed(10))
    lt = local_time_field(p, default_cell_width(p, 128), [0.25, 0.5, 1.0])
    R = local_time_quadratic(lt, [0.25, 0.5, 1.0])
    for i in range(3):
        for j in range(3):
            assert R[i, j] ** 2 <= R[i, i] * R[j, j] * (1 + 1e-12)


def test_local_time_quadratic_cut_lookup():
    # each s takes the first cut within 1e-12; the rows are told apart here
    lt = LocalTimeField(x_left=np.array([0.0, 1.0]), dx=1.0,
                        s_cuts=np.array([0.5, 0.5 + 5e-13, 1.0]),
                        values=np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]]), steps=1)
    assert np.array_equal(local_time_quadratic(lt, [0.5, 1.0]),
                          np.array([[1.0, 2.0], [2.0, 13.0]]))
    with pytest.raises(ValueError, match=r"^s-cut 0\.3 not present in the local-time field$"):
        local_time_quadratic(lt, [1.0, 0.3, 0.7])
