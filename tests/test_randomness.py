import numpy as np
import pytest
from scipy.special import zeta

from rwrs.diagnostics import two_sample_distance
from rwrs.randomness import (
    Alpha,
    IncrementLaw,
    LawKind,
    SeedScheme,
    StreamKind,
    derive_site_value,
    sample_increment,
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


def test_single_increment_matches_stream():
    law = IncrementLaw.lazy_simple()
    seed = SeedScheme(21, StreamKind.WALK, 5)
    one = sample_increment(law, stream_generator(seed))
    many = sample_increments(law, stream_generator(seed), 4)
    assert one == many[0]


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
