import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwrs.walk as walk_mod
from rwrs.limit import local_time_field, simulate_levy_path
from rwrs.randomness import BLOCK, IncrementLaw, SeedScheme, StreamKind, derive_site_value
from rwrs.walk import (
    GridSpec,
    empirical_sheet,
    occupation_map,
    occupation_quadratic,
    occupation_statistic,
    prefix_counts,
    rescale,
    rescale_factor,
    sheet_from_site_values,
    simulate_walk,
    site_map,
    walk_from_steps,
)

LAW = IncrementLaw.lazy_simple()


def _walk_seed(r=0, master=42):
    return SeedScheme(master, StreamKind.WALK, r)


def _scenery_seed(r=0, master=42):
    return SeedScheme(master, StreamKind.SCENERY, r)


def test_simulate_walk_forced_steps(monkeypatch):
    forced = iter([np.array([1, 1, 1]), np.array([1, -1, 1, -1])])
    monkeypatch.setattr(walk_mod, "sample_increments",
                        lambda law, rng, size: next(forced))
    p1 = simulate_walk(3, LAW, _walk_seed())
    assert p1.positions.tolist() == [1, 2, 3]
    p2 = simulate_walk(4, LAW, _walk_seed())
    assert p2.positions.tolist() == [1, 0, 1, 0]


def test_simulate_walk_rejects_zero_length():
    with pytest.raises(ValueError):
        simulate_walk(0, LAW, _walk_seed())


def test_walk_positions_raise_instead_of_wrapping(monkeypatch):
    big = 2**62
    with pytest.raises(ValueError, match="S_2 exceeds the int64 range"):
        walk_from_steps([big, big])
    # S_3 is back in range, but S_2 was not
    with pytest.raises(ValueError, match="S_2 exceeds the int64 range"):
        walk_from_steps([big, big, -big])
    # sums that reach either end of the int64 range exactly are kept
    assert walk_from_steps([big, big - 1]).positions.tolist() == [big, 2**63 - 1]
    assert walk_from_steps([-big, -big]).positions.tolist() == [-big, -2**63]

    law = IncrementLaw.power_tail(1.5)
    assert law.max_step == big
    monkeypatch.setattr(walk_mod, "sample_increments",
                        lambda law, rng, size: np.full(size, big, dtype=np.int64))
    with pytest.raises(ValueError, match="S_2 exceeds the int64 range"):
        simulate_walk(3, law, _walk_seed())


def test_walk_variance_rate():
    # Var(S_n)/n = Var(X) = 1/2 for the lazy walk; estimated from the pooled
    # step increments of 100 walks (a 100-point variance of S_n alone has a
    # standard error of ~0.07 and cannot resolve +-0.01)
    n = 1_000_000
    total_sq, total, count = 0.0, 0.0, 0
    ends = []
    for r in range(100):
        pos = simulate_walk(n, LAW, _walk_seed(r)).positions
        steps = np.diff(np.concatenate(([0], pos))).astype(np.float64)
        total_sq += float(np.sum(steps**2))
        total += float(steps.sum())
        count += steps.size
        ends.append(pos[-1])
    pooled_var = total_sq / count - (total / count) ** 2
    assert abs(pooled_var - 0.5) < 0.01
    # endpoint-level sanity at the resolution 100 replicates can support
    assert abs(np.var(ends) / n - 0.5) < 0.3


def test_occupation_map_examples():
    assert occupation_map(walk_from_steps([1, 1, 1]), 3).as_dict() == {1: 1, 2: 1, 3: 1}
    p = walk_from_steps([1, -1, 1])  # positions 1, 0, 1
    assert occupation_map(p, 3).as_dict() == {0: 1, 1: 2}


def test_occupation_total_is_prefix_length():
    for r in range(10):
        p = simulate_walk(500, LAW, _walk_seed(r))
        for m in (1, 17, 250, 500):
            assert occupation_map(p, m).total == m


def test_occupation_map_rejects_bad_prefix():
    p = walk_from_steps([1, 1])
    with pytest.raises(ValueError):
        occupation_map(p, 3)
    with pytest.raises(ValueError):
        occupation_map(p, 0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(np.array([0.0, 0.5]), np.array([0.0, 1.0]))  # s misses 1
    with pytest.raises(ValueError):
        GridSpec(np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.0, 1.0]))  # not strict
    g = GridSpec.uniform(5, 9)
    assert g.s.size == 5 and g.t.size == 9


def test_sheet_boundary_zeros():
    p = simulate_walk(200, LAW, _walk_seed())
    sheet = empirical_sheet(p, _scenery_seed(), GridSpec.uniform(9, 9))
    assert np.all(sheet.values[0] == 0.0)       # s = 0 row
    assert np.all(sheet.values[:, 0] == 0.0)    # t = 0 column
    assert np.all(sheet.values[:, -1] == 0.0)   # t = 1 column


def test_sheet_two_step_example():
    grid = GridSpec(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]))
    values = sheet_from_site_values(np.array([0.3, 0.7]), 2, grid)
    assert values[1, 1] == pytest.approx((1 - 0.5) + (0 - 0.5))


def test_sheet_matches_bruteforce():
    n = 50
    grid = GridSpec(np.array([0.0, 0.2, 0.5, 0.83, 1.0]),
                    np.array([0.0, 0.1, 0.42, 0.75, 0.9, 1.0]))
    p = simulate_walk(n, LAW, _walk_seed(3))
    sheet = empirical_sheet(p, _scenery_seed(3), grid)
    y = derive_site_value(_scenery_seed(3), p.positions)
    for i, s in enumerate(grid.s):
        for j, t in enumerate(grid.t):
            expected = sum((1.0 if y[k] <= t else 0.0) - t
                           for k in range(int(np.floor(n * s))))
            assert sheet.values[i, j] == pytest.approx(expected, abs=1e-9)


def test_sheet_indicator_count_monotone_in_t():
    p = simulate_walk(300, LAW, _walk_seed(5))
    grid = GridSpec.uniform(5, 17)
    sheet = empirical_sheet(p, _scenery_seed(5), grid)
    for i, s in enumerate(grid.s):
        m = int(np.floor(300 * s))
        raw_counts = sheet.values[i] + m * grid.t
        assert np.all(np.diff(raw_counts) >= 0)
        assert np.allclose(raw_counts, np.round(raw_counts))


def test_sheet_refinement_consistency():
    p = simulate_walk(128, LAW, _walk_seed(9))
    coarse = GridSpec(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0]))
    fine = GridSpec(np.linspace(0, 1, 9), np.array([0.0, 0.25, 1.0]))
    a = empirical_sheet(p, _scenery_seed(9), coarse)
    b = empirical_sheet(p, _scenery_seed(9), fine)
    for i, s in enumerate(coarse.s):
        j = int(np.where(np.isclose(fine.s, s))[0][0])
        assert np.array_equal(a.values[i], b.values[j])


def test_rescale_factors():
    assert rescale_factor(2.0, 16) == pytest.approx(0.125)
    assert rescale_factor(2.0, 1) == 1.0
    assert rescale_factor(1.5, 4096) == pytest.approx(1.0 / 256.0)


def test_rescale_flips_flag_and_rejects_double():
    p = simulate_walk(64, LAW, _walk_seed())
    sheet = empirical_sheet(p, _scenery_seed(), GridSpec.uniform(3, 3))
    scaled = rescale(sheet)
    assert scaled.scaled and not sheet.scaled
    assert np.allclose(scaled.values, sheet.values * 64.0**-0.75)
    with pytest.raises(ValueError):
        rescale(scaled)


def test_occupation_quadratic_zero_cut():
    p = walk_from_steps([1, 1, 1])
    q = occupation_quadratic(p, [0.0, 1.0], 2.0)
    assert q[0, 0] == 0.0 and q[0, 1] == 0.0 and q[1, 0] == 0.0
    assert q[1, 1] > 0


def test_occupation_quadratic_three_distinct_sites():
    q = occupation_quadratic(walk_from_steps([1, 1, 1]), [1.0], 2.0)
    assert q[0, 0] == pytest.approx(3.0**-0.5)


def test_occupation_quadratic_cauchy_schwarz():
    for r in range(5):
        p = simulate_walk(400, LAW, _walk_seed(r, master=7))
        q = occupation_quadratic(p, [0.25, 0.6, 1.0], 2.0)
        for i in range(3):
            for j in range(3):
                assert q[i, j] ** 2 <= q[i, i] * q[j, j] * (1 + 1e-12)


def test_occupation_quadratic_monotone_before_scaling():
    p = simulate_walk(512, LAW, _walk_seed(11))
    lo = occupation_quadratic(p, [0.3], 2.0) * 512**1.5
    hi = occupation_quadratic(p, [0.8], 2.0) * 512**1.5
    assert hi[0, 0] >= lo[0, 0]


def test_occupation_quadratic_validates_svec():
    p = walk_from_steps([1, 1])
    with pytest.raises(ValueError):
        occupation_quadratic(p, [0.5, 0.2], 2.0)
    with pytest.raises(ValueError):
        occupation_quadratic(p, [0.5, 1.5], 2.0)


_FRACTIONS = st.lists(st.one_of(st.sampled_from([0.0, 0.57, 1.0]), st.floats(0.0, 1.0)),
                      min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(bins=st.lists(st.integers(0, 5), max_size=120), fractions=_FRACTIONS)
def test_prefix_counts_rows_are_prefix_bincounts(bins, fractions):
    bins = np.asarray(bins, dtype=np.int64)
    fractions = sorted(fractions)
    cuts, counts = prefix_counts(bins, 6, fractions)
    assert counts.dtype == np.int64 and counts.shape == (len(fractions), 6)
    assert np.array_equal(cuts, np.floor(np.asarray(fractions) * bins.size + 1e-9))
    for cut, row in zip(cuts, counts):
        assert np.array_equal(row, np.bincount(bins[:cut], minlength=6))


@settings(max_examples=200, deadline=None)
@given(fractions=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=6))
def test_prefix_counts_rejects_unsorted_or_out_of_range(fractions):
    bins = np.arange(10) % 3
    bad = (any(b < a for a, b in zip(fractions, fractions[1:]))
           or not all(0.0 <= s <= 1.0 for s in fractions))
    if bad:
        with pytest.raises(ValueError):
            prefix_counts(bins, 3, fractions)
    else:
        prefix_counts(bins, 3, fractions)
    with pytest.raises(ValueError):
        prefix_counts(bins, 3, [np.nan])


def test_cut_guard_applies_on_both_sides():
    # 0.57 * 100 evaluates to 56.99999999999999: without the guard the
    # prefix of s = 0.57 would hold 56 steps instead of 57
    s, n = 0.57, 100
    assert s * n < 57
    # every site of a unit-drift walk is visited once, so sum_x N^2 = cut
    q = occupation_quadratic(walk_from_steps(np.ones(n, dtype=np.int64)), [s], 2.0)
    assert q[0, 0] * n**1.5 == pytest.approx(57, abs=1e-9)
    # every observation lies below t = 0.5, so the raw count there is cut
    grid = GridSpec(np.array([0.0, s, 1.0]), np.array([0.0, 0.5, 1.0]))
    raw = sheet_from_site_values(np.full(n, 0.25), n, grid)
    assert raw[1, 1] == 57 - 57 * 0.5  # count minus cut * t
    # the local time at s carries mass cut / K
    path = simulate_levy_path(2.0, 1.0, n, SeedScheme(3, StreamKind.LEVY, 0))
    lt = local_time_field(path, 0.1, [s, 1.0])
    assert lt.values[0].sum() * lt.dx == pytest.approx(57 / n, abs=1e-12)


def _heavy_step_walk(n=300, r=0):
    # one step longer than n puts the range past n: site_map falls back
    steps = np.diff(simulate_walk(n, LAW, _walk_seed(r)).positions, prepend=0)
    steps[n // 3] = n + 7
    return walk_from_steps(steps)


_BRANCH_WALKS = {
    "range-lazy": lambda: simulate_walk(300, LAW, _walk_seed(1)),
    "range-power-tail": lambda: simulate_walk(
        300, IncrementLaw.power_tail(1.5), _walk_seed(2)),
    "fallback": _heavy_step_walk,
}


def _cut(n, s):
    return int(np.floor(n * s + 1e-9))


def _oracle_quadratic(positions, s_vec, alpha):
    # per-prefix visit counts from np.unique, crossed site by site
    n = positions.size
    maps = [dict(zip(*np.unique(positions[:_cut(n, s)], return_counts=True)))
            for s in s_vec]
    raw = np.array([[float(sum(c * b.get(x, 0) for x, c in a.items())) for b in maps]
                    for a in maps])
    return raw * float(n) ** (-2.0 + 1.0 / alpha)


def _oracle_sheet(positions, seed, grid):
    # hashes the scenery once per step, the way the sheet is defined
    return sheet_from_site_values(derive_site_value(seed, positions), positions.size, grid)


def _assert_kernels_match_oracles(path, s_vec, ms):
    for m in ms:
        occ = occupation_map(path, m)
        sites, counts = np.unique(path.positions[:m], return_counts=True)
        assert np.array_equal(occ.sites, sites) and np.array_equal(occ.counts, counts)
        assert occ.sites.dtype == sites.dtype and occ.counts.dtype == counts.dtype
    for alpha in (2.0, 1.5):
        assert np.array_equal(occupation_quadratic(path, s_vec, alpha),
                              _oracle_quadratic(path.positions, s_vec, alpha))
    grid = GridSpec(np.array([0.0, 0.25, 0.57, 1.0]), np.array([0.0, 0.2, 0.57, 1.0]))
    sheet = empirical_sheet(path, _scenery_seed(4), grid)
    assert np.array_equal(sheet.values, _oracle_sheet(path.positions, _scenery_seed(4), grid))


@pytest.mark.parametrize("make", list(_BRANCH_WALKS.values()), ids=list(_BRANCH_WALKS))
def test_site_index_branches(make):
    path = make()
    sites, sequence, to_index = site_map(path.positions)
    # to_index maps entry by entry, so it may be applied block by block
    index = np.concatenate([to_index(sequence[lo:lo + 64])
                            for lo in range(0, path.n, 64)])
    lo, hi = path.positions.min(), path.positions.max()
    assert np.array_equal(sites[index], path.positions)
    assert np.all(np.diff(sites) > 0)
    if hi - lo < path.n:
        assert np.array_equal(sites, np.arange(lo, hi + 1))
    else:
        assert np.array_equal(sites, np.unique(path.positions))
    assert (hi - lo >= path.n) == (make is _heavy_step_walk)


@pytest.mark.parametrize("make", list(_BRANCH_WALKS.values()), ids=list(_BRANCH_WALKS))
def test_site_kernels_match_per_step_oracles(make):
    path = make()
    _assert_kernels_match_oracles(path, [0.0, 0.25, 0.57, 0.57, 1.0], (1, 17, 100, path.n))


_STEPS = st.lists(st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6)),
                  min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS, fractions=_FRACTIONS, data=st.data())
def test_site_kernels_match_oracles_on_random_steps(steps, fractions, data):
    path = walk_from_steps(steps)
    m = data.draw(st.integers(1, path.n))
    _assert_kernels_match_oracles(path, sorted(fractions), (m, path.n))


# sizes around the block length of the blocked passes, and cuts on block edges
_BLOCK_SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


def _block_edge_fraction_sets(n):
    """Fractions whose cuts land on block edges, next to them, or only at n.

    Blocks start at each cut, so only cuts at multiples of BLOCK leave
    whole blocks between them.
    """
    edges = [k * BLOCK for k in (1, 2, 3) if k * BLOCK <= n]
    around = [e + d for e in edges for d in (-1, 1) if e + d <= n]
    sets = [sorted({0.0, 1.0, *(c / n for c in cuts)}) for cuts in ([], edges, around)]
    for fractions, cuts in zip(sets[1:], (edges, around)):
        assert set(cuts) <= set(np.floor(np.asarray(fractions) * n + 1e-9).tolist())
    return sets


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_prefix_counts_blocked_equals_whole_array(n):
    values = np.random.default_rng(n).normal(size=n)

    def to_bins(v):
        return (np.abs(v) * 3.0).astype(np.int64)

    bins = to_bins(values)
    size = int(bins.max()) + 1
    for fractions in _block_edge_fraction_sets(n):
        cuts, counts = prefix_counts(values, size, fractions, to_bins)
        assert np.array_equal(cuts, np.floor(np.asarray(fractions) * n + 1e-9))
        for cut, row in zip(cuts, counts):
            assert np.array_equal(row, np.bincount(bins[:cut], minlength=size))
        # without a map the sequence holds the bins themselves
        assert np.array_equal(prefix_counts(bins, size, fractions)[1], counts)


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_site_kernels_blocked_match_oracles(n):
    for path in (simulate_walk(n, LAW, _walk_seed(n)), _heavy_step_walk(n, r=n)):
        for fractions in _block_edge_fraction_sets(n):
            assert np.array_equal(occupation_quadratic(path, fractions, 2.0),
                                  _oracle_quadratic(path.positions, fractions, 2.0))
            grid = GridSpec(np.array(fractions), np.array([0.0, 0.2, 0.57, 1.0]))
            assert np.array_equal(
                empirical_sheet(path, _scenery_seed(n), grid).values,
                _oracle_sheet(path.positions, _scenery_seed(n), grid))


def test_occupation_statistics_match_counts():
    p = simulate_walk(300, LAW, _walk_seed(2))
    counts = occupation_map(p, 300).counts.astype(float)
    assert occupation_statistic(p, "sumN2") == pytest.approx(np.sum(counts**2))
    assert occupation_statistic(p, "sumN3") == pytest.approx(np.sum(counts**3))
    assert occupation_statistic(p, "sumN4") == pytest.approx(np.sum(counts**4))
    assert occupation_statistic(p, "sumN2_sq") == pytest.approx(np.sum(counts**2) ** 2)
    expected_max = counts.max() * 300.0**-0.75
    assert occupation_statistic(p, "maxN_scaled", 2.0) == pytest.approx(expected_max)
    with pytest.raises(ValueError):
        occupation_statistic(p, "nope")


def test_unit_drift_walk_sum_of_squares():
    # every site visited exactly once, so sum N^2 = n and the growth
    # exponent over n is exactly 1
    from rwrs.diagnostics import fit_loglog

    ns = (10, 100, 1000, 10000)
    stats = []
    for n in ns:
        p = walk_from_steps(np.ones(n, dtype=np.int64))
        stat = occupation_statistic(p, "sumN2")
        assert stat == n
        stats.append(stat)
    assert fit_loglog(np.array(ns, float), np.array(stats, float)).slope == \
        pytest.approx(1.0, abs=1e-12)
