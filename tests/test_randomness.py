import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta

from rwrs.diagnostics import two_sample_distance
from rwrs.randomness import (
    BLOCK,
    Alpha,
    IncrementLaw,
    LawKind,
    SeedScheme,
    StreamKind,
    _zeta,
    derive_site_value,
    sample_increments,
    stable_standard_sample,
    stream_generator,
)

SCENERY = SeedScheme(1234, StreamKind.SCENERY, 0)


def test_alpha_bounds():
    Alpha(1.5)
    Alpha(2.0)
    with pytest.raises(ValueError):
        Alpha(1.0)
    with pytest.raises(ValueError):
        Alpha(2.1)
    with pytest.raises(ValueError):
        Alpha(0.5)


def test_seed_scheme_validation():
    with pytest.raises(ValueError):
        SeedScheme(-1, StreamKind.WALK, 0)
    with pytest.raises(ValueError):
        SeedScheme(0, StreamKind.WALK, -2)


def test_site_value_deterministic():
    assert derive_site_value(SCENERY, 17) == derive_site_value(SCENERY, 17)
    v = derive_site_value(SCENERY, -93)
    assert 0.0 <= v < 1.0


def test_site_value_order_independent():
    sites = np.arange(-500, 500)
    rng = np.random.default_rng(3)
    shuffled = rng.permutation(sites)
    a = derive_site_value(SCENERY, sites)
    b = derive_site_value(SCENERY, shuffled)
    lookup = dict(zip(shuffled.tolist(), b.tolist()))
    assert all(lookup[int(s)] == float(x) for s, x in zip(sites, a))


def test_site_value_distinct_streams():
    other_seed = SeedScheme(1235, StreamKind.SCENERY, 0)
    other_rep = SeedScheme(1234, StreamKind.SCENERY, 1)
    x = np.arange(100)
    base = derive_site_value(SCENERY, x)
    assert not np.allclose(base, derive_site_value(other_seed, x))
    assert not np.allclose(base, derive_site_value(other_rep, x))


def test_site_value_requires_scenery_kind():
    with pytest.raises(ValueError):
        derive_site_value(SeedScheme(1, StreamKind.WALK, 0), 0)


def test_site_value_mean_over_lattice_window():
    vals = derive_site_value(SCENERY, np.arange(-50000, 50001))
    assert vals.min() >= 0.0 and vals.max() < 1.0
    assert abs(vals.mean() - 0.5) < 0.005


def test_lazy_law_frequencies():
    law = IncrementLaw.lazy_simple()
    rng = stream_generator(SeedScheme(7, StreamKind.WALK, 0))
    x = sample_increments(law, rng, 1_000_000)
    freqs = {k: np.mean(x == k) for k in (-1, 0, 1)}
    assert abs(freqs[0] - 0.5) < 0.002
    assert abs(freqs[-1] - 0.25) < 0.002
    assert abs(freqs[1] - 0.25) < 0.002
    assert np.all(np.isin(x, [-1, 0, 1]))


class _FixedUniforms:
    """Generator stub whose ``random`` returns preset uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def test_lazy_law_boundaries():
    u = [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.75, 0.0), 0.75, 1.0 - 2.0**-53]
    x = sample_increments(IncrementLaw.lazy_simple(), _FixedUniforms(u), len(u))
    assert x.dtype == np.int64
    assert x.tolist() == [0, 0, -1, -1, 1, 1]


@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_lazy_increments_blocked_equal_one_draw(size):
    seed = SeedScheme(11, StreamKind.WALK, size)
    rng = stream_generator(seed)
    x = sample_increments(IncrementLaw.lazy_simple(), rng, size)
    oracle = stream_generator(seed)
    u = oracle.random(size)
    expected = 2 * (u >= 0.75).astype(np.int64) - (u >= 0.5)
    assert x.dtype == np.int64 and np.array_equal(x, expected)
    # the stream goes on where a single call would have left it
    assert rng.random() == oracle.random()


def test_lazy_increments_peak_memory():
    n = 1 << 16
    rng = stream_generator(SeedScheme(12, StreamKind.WALK, 0))
    tracemalloc.start()
    try:
        sample_increments(IncrementLaw.lazy_simple(), rng, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 8 + 256 * 1024


def test_lazy_law_requires_alpha_two():
    with pytest.raises(ValueError):
        IncrementLaw(Alpha(1.5), LawKind.LAZY_SIMPLE)


def test_power_tail_requires_alpha_below_two():
    with pytest.raises(ValueError):
        IncrementLaw.power_tail(2.0)


def test_power_tail_normalization():
    for alpha in (1.2, 1.5, 1.9):
        law = IncrementLaw.power_tail(alpha)
        assert abs(law.probability_total() - 1.0) < 1e-12
        assert abs(law.p_zero - 0.6) < 1e-12


@pytest.mark.parametrize("q", [1.0, 2.0, 11.0, 1e6 + 1])
def test_zeta_matches_scipy(q):
    # s = alpha + 1 for alpha in (1, 2]; q > 1 is tail_probability's k + 1
    s_values = np.concatenate([[2.05, 2.2, 2.5, 2.7, 2.95, 3.0],
                               np.random.default_rng(17).uniform(2.0, 3.0, 200)])
    for s in s_values:
        expected = float(zeta(s, q))
        assert abs(_zeta(s, q) - expected) <= 1.5e-15 * expected, s


def test_zeta_closed_forms():
    for s, exact in ((2.0, math.pi**2 / 6), (4.0, math.pi**4 / 90)):
        assert abs(_zeta(s) - exact) <= 2 * math.ulp(exact)


def test_power_tail_too_heavy_rejected():
    # weights summing past 1 leave no room for P(0)
    c = 1.1 / (2.0 * float(zeta(2.5)))
    with pytest.raises(ValueError):
        IncrementLaw.power_tail(1.5, tail_constant=c)


def test_power_tail_exact_tail_index():
    law = IncrementLaw.power_tail(1.5)
    rng = stream_generator(SeedScheme(11, StreamKind.WALK, 0))
    draws = 10_000_000
    counts = {k: 0 for k in (10, 20, 40, 80)}
    batch = 2_000_000
    done = 0
    while done < draws:
        x = np.abs(sample_increments(law, rng, batch))
        for k in counts:
            counts[k] += int(np.sum(x > k))
        done += batch
    normalized = []
    for k in (10, 20, 40, 80):
        emp = counts[k] / draws
        exact = law.tail_probability(k)
        se = np.sqrt(exact * (1 - exact) / draws)
        assert abs(emp - exact) < 4 * se
        normalized.append(k**1.5 * emp)
    spread = max(normalized) / min(normalized) - 1.0
    assert spread < 0.15


def test_increment_symmetry_and_odd_moments():
    law = IncrementLaw.power_tail(1.5)
    rng = stream_generator(SeedScheme(13, StreamKind.WALK, 0))
    x = sample_increments(law, rng, 1_000_000).astype(np.float64)
    n = x.size
    for k in (1, 2, 5):
        p_pos = np.mean(x == k)
        p_neg = np.mean(x == -k)
        se = np.sqrt(2 * p_pos * (1 - p_pos) / n)
        assert abs(p_pos - p_neg) <= 3 * se + 1e-12
    for power in (1, 3):
        moments = x**power
        se = moments.std() / np.sqrt(n)
        assert abs(moments.mean()) <= 4 * se


def test_stream_determinism_and_independence():
    seed = SeedScheme(99, StreamKind.LEVY, 3)
    a = stream_generator(seed).random(8)
    b = stream_generator(seed).random(8)
    assert np.array_equal(a, b)
    c = stream_generator(SeedScheme(99, StreamKind.LEVY, 4)).random(8)
    assert not np.array_equal(a, c)
    d = stream_generator(SeedScheme(99, StreamKind.WALK, 3)).random(8)
    assert not np.array_equal(a, d)


def test_stable_sampler_rejects_alpha_two():
    rng = stream_generator(SeedScheme(1, StreamKind.LEVY, 0))
    with pytest.raises(ValueError):
        stable_standard_sample(Alpha(2.0), 10, rng)


def _stable_reference(alpha, u, expo):
    # the same transform of the same (u, E) in long double, with
    # cos(Theta) = sin(pi v), v = min(u, 1 - u), exact near Theta = +-pi/2
    ld = np.longdouble
    a, u, e = ld(alpha), u.astype(ld), expo.astype(ld)
    pi = 4 * np.arctan(ld(1))
    theta = pi * (u - ld(0.5))
    cos_theta = np.sin(pi * np.minimum(u, 1 - u))
    return (np.sin(a * theta) / cos_theta ** (1 / a)
            * (np.cos((1 - a) * theta) / e) ** ((1 - a) / a))


@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
def test_stable_sample_matches_long_double_reference(alpha):
    n = 1 << 16
    seed = SeedScheme(31, StreamKind.LEVY, 0)
    x = stable_standard_sample(Alpha(alpha), n, stream_generator(seed))
    oracle = stream_generator(seed)
    u = oracle.random(n)
    expected = _stable_reference(alpha, u, oracle.standard_exponential(n))
    assert np.all(np.isfinite(x))
    rel = np.abs((x - expected) / expected).astype(np.float64)
    assert rel.max() <= 1e-13


def _state(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"])


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_stable_sample_reads_uniforms_then_exponentials(size):
    seed = SeedScheme(32, StreamKind.LEVY, size)
    rng = stream_generator(seed)
    x = stable_standard_sample(Alpha(1.5), size, rng)
    oracle = stream_generator(seed)
    oracle.random(size)
    oracle.standard_exponential(size)
    assert x.shape == (size,)
    assert _state(rng) == _state(oracle)


class _ZeroUniforms:
    """Generator stub: every uniform is 0 and every exponential 1."""

    def random(self, size):
        return np.zeros(size)

    def standard_exponential(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = 1.0
        return out


@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
def test_stable_sample_finite_at_zero_uniform(alpha):
    # u = 0 is Theta = -pi/2, where cos(Theta) vanishes
    x = stable_standard_sample(Alpha(alpha), 3, _ZeroUniforms())
    assert np.all(np.isfinite(x)) and np.all(x < 0.0)


def test_stable_scale_lazy_exact():
    assert IncrementLaw.lazy_simple().stable_scale == pytest.approx(
        np.sqrt(0.5), abs=0.0)


def test_stable_scale_degenerate_law_errors():
    frozen = IncrementLaw.power_tail(1.5, tail_constant=0.0)
    assert frozen.p_zero == 1.0
    with pytest.raises(ValueError):
        frozen.stable_scale


def test_stable_scale_matches_normalized_sums():
    # n^(-1/alpha) S_n at n = 20000 against the closed-form limit
    alpha, n, draws = 1.5, 20_000, 2000
    law = IncrementLaw.power_tail(alpha)
    sums = np.array([
        sample_increments(law, stream_generator(SeedScheme(1500, StreamKind.WALK, r)),
                          n).sum()
        for r in range(draws)])
    limit = law.stable_scale * stable_standard_sample(
        law.alpha, draws, stream_generator(SeedScheme(1500, StreamKind.LEVY, 0)))
    report = two_sample_distance(sums * float(n) ** (-1.0 / alpha), limit, seed=1500)
    assert report.p_value > 0.01
