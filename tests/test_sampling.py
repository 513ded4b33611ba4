"""Sampler tests: stream determinism and splitting, the Poisson and
jump subroutines, and cross-validation of the two variate routes."""

import math

import numpy as np
import pytest
from scipy import stats

import bellproc as bp
from bellproc.verify import chisq_pvalue_two_sample, chisq_pvalue_vs_table


def test_stream_determinism():
    a = bp.RngStream(123).random(1000)
    b = bp.RngStream(123).random(1000)
    assert (a == b).all()


def test_stream_seeds_differ():
    a = bp.RngStream(1).random(100)
    b = bp.RngStream(2).random(100)
    assert (a != b).any()


def test_stream_split_reproducible_and_distinct():
    root = bp.RngStream(99)
    again = bp.RngStream(99)
    assert (root.split(3).random(50) == again.split(3).random(50)).all()
    assert (bp.RngStream(99).split(3).random(50) != bp.RngStream(99).split(4).random(50)).any()
    # nested splits address a tree of streams
    assert (
        bp.RngStream(99).split(3).split(1).random(10)
        == bp.RngStream(99).split(3).split(1).random(10)
    ).all()


def test_stream_seed_must_be_non_negative():
    with pytest.raises(bp.ParameterError):
        bp.RngStream(-1)
    with pytest.raises(bp.ParameterError):
        bp.RngStream(1).split(-1)
    for bad in (1.5, True, "1"):
        with pytest.raises(bp.ParameterError):
            bp.RngStream(bad)
        with pytest.raises(bp.ParameterError):
            bp.RngStream(1).split(bad)
    # numpy integers are integers
    stream = bp.RngStream(np.int64(5)).split(np.uint8(2))
    assert stream.random() == bp.RngStream(5).split(2).random()
    # seeds past 64 bits are accepted, as numpy's SeedSequence takes them
    assert bp.RngStream(2**64 + 5).random() != bp.RngStream(5).random()


def test_stream_splits_statistically_independent():
    n = 200_000
    a = bp.RngStream(7).split(0).random(n)
    b = bp.RngStream(7).split(1).random(n)
    c = bp.RngStream(8).random(n)  # different seed entirely
    for x, y in ((a, b), (a, c)):
        rho = float(np.corrcoef(x, y)[0, 1])
        assert abs(rho) < 4.0 / math.sqrt(n)


# ----------------------------------------------------------------------
# Poisson subroutine


def test_poisson_zero_mean():
    rng = bp.RngStream(5)
    assert bp.sample_poisson(0.0, rng) == 0
    assert (bp.sample_poisson(0.0, rng, 100) == 0).all()


def test_poisson_negative_mean_rejected():
    with pytest.raises(bp.ParameterError):
        bp.sample_poisson(-1.0, bp.RngStream(5))


def test_poisson_empirical_mean():
    draws = bp.sample_poisson(4.0, bp.RngStream(2024), 1_000_000)
    assert abs(float(draws.mean()) - 4.0) <= 0.006  # 3 sigma / sqrt(N)


def test_poisson_mass_at_zero():
    draws = bp.sample_poisson(1.0, bp.RngStream(7), 1_000_000)
    assert abs(float((draws == 0).mean()) - math.exp(-1.0)) <= 0.0015


# ----------------------------------------------------------------------
# jump subroutine


def test_jump_order_one_always_unit():
    law = bp.decompose(bp.validate(1.0, 1.0, 1.0))
    rng = bp.RngStream(11)
    assert bp.sample_jump(law, rng) == 1
    assert (bp.sample_jump(law, rng, 1000) == 1).all()


def test_jump_two_probability():
    law = bp.decompose(bp.validate(1.0, 1.0, 0.5))
    draws = bp.sample_jump(law, bp.RngStream(13), 1_000_000)
    assert abs(float((draws == 2).mean()) - 0.2) <= 0.0012  # 3 sigma band


@pytest.mark.parametrize("lam,m", [(0.5, 2), (0.25, 4), (0.1, 10)])
def test_jump_support_bounded(lam, m):
    law = bp.decompose(bp.validate(1.5, 1.0, lam))
    draws = bp.sample_jump(law, bp.RngStream(17), 50_000)
    assert draws.min() >= 1
    assert draws.max() <= m


# ----------------------------------------------------------------------
# inverse-CDF sampler


def test_inverse_cdf_low_uniform_gives_zero():
    table = bp.build_pmf_table(bp.validate(1.0, 1.0, 0.5))
    assert table.quantile(float(table.probs[0]) / 2) == 0


def test_inverse_cdf_poisson_collapse_mean():
    table = bp.build_pmf_table(bp.validate(1.0, 1.0, 1.0))
    draws = bp.sample_inverse_cdf(table, bp.RngStream(19), 1_000_000)
    assert abs(float(draws.mean()) - 1.0) <= 0.004  # 3 sigma, sigma = 1


def test_inverse_cdf_example_law_mean():
    params = bp.validate(2.0, 0.5, 0.5)
    table = bp.build_pmf_table(params)
    draws = bp.sample_inverse_cdf(table, bp.RngStream(23), 1_000_000)
    sigma = math.sqrt(bp.variance(params))
    assert abs(float(draws.mean()) - 1.25) <= 3 * sigma / 1000  # ~0.005


def test_inverse_cdf_matches_table_distribution():
    params = bp.validate(1.0, 2.0, 0.25)
    table = bp.build_pmf_table(params)
    draws = bp.sample_inverse_cdf(table, bp.RngStream(29), 100_000)
    assert chisq_pvalue_vs_table(draws, table) > 0.001


# ----------------------------------------------------------------------
# compound sampler


def test_compound_order_one_is_poisson():
    law = bp.decompose(bp.validate(1.0, 1.0, 1.0))
    draws = bp.sample_compound(law, bp.RngStream(31), 100_000)
    ref = stats.poisson.rvs(1.0, size=100_000, random_state=np.random.default_rng(37))
    assert chisq_pvalue_two_sample(draws, ref.astype(np.int64)) > 0.001


def test_compound_vanishing_rate_gives_zero():
    law = bp.JumpLaw(burst_rate=1e-9, jump_probs=np.array([1.0]))
    draws = bp.sample_compound(law, bp.RngStream(41), 10_000)
    assert (draws == 0).mean() > 0.999


def test_compound_scalar_matches_law():
    law = bp.decompose(bp.validate(1.0, 1.0, 0.5))
    rng = bp.RngStream(43)
    draws = np.array([bp.sample_compound(law, rng) for _ in range(2000)])
    assert draws.min() >= 0
    assert abs(draws.mean() - 1.5) < 0.15


def test_samplers_agree_chisq():
    params = bp.validate(1.0, 1.0, 0.5)
    table = bp.build_pmf_table(params)
    law = bp.decompose(params)
    rng = bp.RngStream(47)
    a = bp.sample_inverse_cdf(table, rng, 100_000)
    b = bp.sample_compound(law, rng, 100_000)
    assert chisq_pvalue_two_sample(a, b) > 0.001


def test_compound_moment_recovery():
    params = bp.validate(2.0, 0.5, 0.5)
    law = bp.decompose(params)
    draws = bp.sample_compound(law, bp.RngStream(53), 1_000_000)
    mu, var = bp.mean(params), bp.variance(params)
    table = bp.build_pmf_table(params)
    k = np.arange(len(table.probs))
    fourth = float(np.dot((k - mu) ** 4, table.probs))
    se_mean = math.sqrt(var / len(draws))
    se_var = math.sqrt((fourth - var**2) / len(draws))
    assert abs(float(draws.mean()) - mu) <= 4 * se_mean
    assert abs(float(draws.var()) - var) <= 4 * se_var


def test_sampler_integer_determinism():
    params = bp.validate(1.0, 1.0, 0.25)
    table = bp.build_pmf_table(params)
    law = bp.decompose(params)
    a1 = bp.sample_inverse_cdf(table, bp.RngStream(59), 5000)
    a2 = bp.sample_inverse_cdf(table, bp.RngStream(59), 5000)
    b1 = bp.sample_compound(law, bp.RngStream(61), 5000)
    b2 = bp.sample_compound(law, bp.RngStream(61), 5000)
    assert (a1 == a2).all() and (b1 == b2).all()


def test_scalar_draws_are_size_one_draws():
    # a scalar draw is the size-1 draw, so seeded streams stay bit-for-bit
    params = bp.validate(1.0, 1.0, 0.25)
    table, law = bp.build_pmf_table(params), bp.decompose(params)
    for seed in range(300):
        for sampler, source in ((bp.sample_inverse_cdf, table), (bp.sample_compound, law)):
            scalar, batch = bp.RngStream(seed), bp.RngStream(seed)
            draws = [sampler(source, scalar) for _ in range(5)]
            assert all(type(d) is int for d in draws)
            assert draws == [int(sampler(source, batch, 1)[0]) for _ in range(5)]


def test_sampler_sizes_must_be_counts():
    params = bp.validate(1.0, 1.0, 0.5)
    table, law = bp.build_pmf_table(params), bp.decompose(params)
    samplers = (
        lambda size: bp.sample_inverse_cdf(table, bp.RngStream(3), size),
        lambda size: bp.sample_compound(law, bp.RngStream(3), size),
        lambda size: bp.sample_poisson(1.0, bp.RngStream(3), size),
        lambda size: bp.sample_jump(law, bp.RngStream(3), size),
    )
    for draw in samplers:
        for bad in (-1, 2.5, True):
            with pytest.raises(bp.ParameterError):
                draw(bad)
        assert (draw(np.int64(4)) == draw(4)).all() and len(draw(0)) == 0
