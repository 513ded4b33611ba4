"""Sampler tests: stream determinism and splitting, the Poisson and
jump subroutines, and cross-validation of the two variate routes."""

import math
import time

import numpy as np
import pytest
from scipy import stats

import bellproc as bp
from bellproc import sampling
from bellproc.sampling import _invert
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


def test_uniforms_are_the_raw_words_shifted():
    # Generator.random makes raw PCG64 word w the uniform (w >> 11) * 2**-53,
    # and both calls use up the same words: the identity the batch draws
    # rest on
    uniforms, words = bp.RngStream(2024), bp.RngStream(2024)
    for n in (1, 511, 16_385, 1_000_003):
        raw = words.generator.bit_generator.random_raw(n)
        assert (uniforms.generator.random(n) == (raw >> np.uint64(11)) * 2.0**-53).all()
    assert uniforms.random() == words.random()
    assert uniforms._words(3).tolist() == words._words(3).tolist()


class _Recording:
    """Forwards attribute reads to ``target`` and records their names;
    its ``bit_generator`` records under that prefix."""

    def __init__(self, target, seen, prefix=""):
        self._target, self._seen, self._prefix = target, seen, prefix

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if name == "bit_generator":
            return _Recording(value, self._seen, "bit_generator.")
        self._seen.add(self._prefix + name)
        return value


def test_draws_read_only_random_and_raw_words():
    # seeded output depends on numpy only through SeedSequence, PCG64's raw
    # words and Generator.random of them
    params = bp.validate(2.0, 0.5, 0.25)
    table, law = bp.build_pmf_table(params), bp.decompose(params)
    seen = set()
    rng = bp.RngStream(5)
    rng.generator = _Recording(rng.generator, seen)
    for size in (None, 7, 511, 512, 20_000):
        bp.sample_inverse_cdf(table, rng, size)
        bp.sample_compound(law, rng, size)
        bp.sample_jump(law, rng, size)
        bp.sample_poisson(2.5, rng, size)
        bp.sample_poisson(2500.0, rng, size)  # 4 parts of 625
    bp.simulate_paths(params, 2.0, 3000, rng)
    assert seen == {"random", "bit_generator.random_raw"}


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
    with pytest.raises(bp.ParameterError) as nan_mean:
        bp.sample_poisson(math.nan, bp.RngStream(5))
    assert not isinstance(nan_mean.value, bp.RangeError)
    # the stated limit, 2e7, is the largest mean a compound draw asks for;
    # a refusal draws nothing, and a draw at the limit is prompt
    limit = 2e7
    for mean in (math.inf, 1e30, np.nextafter(limit, math.inf)):
        rng = bp.RngStream(5)
        with pytest.raises(bp.RangeError):
            bp.sample_poisson(mean, rng, 3)
        assert rng.random() == bp.RngStream(5).random()
    start = time.perf_counter()
    draw = bp.sample_poisson(limit, bp.RngStream(5))
    assert time.perf_counter() - start < 5.0
    assert abs(draw - limit) <= 8 * math.sqrt(limit)


def _searchsorted_draws(table, rng, size):
    """Binary-search inversion of one draw of ``size`` uniforms, with the
    tail-sliver redraw in stream order: the reference for the table route."""
    out = np.searchsorted(table.cumulative, rng.random(size), side="right")
    bad = np.flatnonzero(out > table.support_max)
    while bad.size:
        out[bad] = np.searchsorted(table.cumulative, rng.random(bad.size), side="right")
        bad = bad[out[bad] > table.support_max]
    return out


@pytest.mark.parametrize("mean", [0.3, 3.0, 250.0])
def test_poisson_is_the_binary_search_of_its_table(mean):
    table = bp.build_pmf_table(bp.validate(mean, 1.0, 1.0))
    for seed, size in ((1, 100_003), (2, 7)):
        draws = bp.sample_poisson(mean, bp.RngStream(seed), size)
        assert (draws == _searchsorted_draws(table, bp.RngStream(seed), size)).all()
        assert (draws == bp.sample_inverse_cdf(table, bp.RngStream(seed), size)).all()


def test_uncapped_samplers_refuse_uniforms_past_the_budget():
    # more than 2e7 uniforms in one call are refused before anything is
    # drawn or allocated; a Poisson variate takes one uniform per part
    params = bp.validate(1.0, 1.0, 0.5)
    table, law = bp.build_pmf_table(params), bp.decompose(params)
    draws = [
        lambda rng: bp.sample_inverse_cdf(table, rng, 10**13),
        lambda rng: bp.sample_jump(law, rng, 10**13),
        lambda rng: bp.sample_poisson(1.0, rng, 10**13),
        lambda rng: bp.sample_poisson(0.0, rng, 10**13),
        lambda rng: bp.sample_poisson(2e7, rng, 10**8),  # 32,768 parts each
        lambda rng: bp.sample_poisson(2000.0, rng, 10_000_001),  # 2 parts each
    ]
    for draw in draws:
        rng = bp.RngStream(7)
        with pytest.raises(bp.ParameterError, match="budget"):
            draw(rng)
        assert rng._words(1) == bp.RngStream(7)._words(1)


def test_compound_draws_jumps_past_the_budget_in_pieces(monkeypatch):
    # a chunk whose expected jumps sit at the budget may draw more; it
    # draws them in calls within the budget, from the same stream
    law = bp.JumpLaw(burst_rate=40.0, jump_probs=np.array([0.5, 0.25, 0.25]))
    seeds = range(40)
    expected = [bp.sample_compound(law, bp.RngStream(s), 1) for s in seeds]
    assert sum(bp.sample_poisson(40.0, bp.RngStream(s)) > 40 for s in seeds) >= 5
    monkeypatch.setattr(sampling, "_JUMP_BUDGET", 40)
    assert [bp.sample_compound(law, bp.RngStream(s), 1) for s in seeds] == expected


def test_poisson_split_mean_sums_consecutive_parts():
    # 2,500 > 1,000 is drawn as 4 parts of 625: variate i sums the draws
    # of uniforms 4i .. 4i + 3
    table = bp.build_pmf_table(bp.validate(625.0, 1.0, 1.0))
    parts = _searchsorted_draws(table, bp.RngStream(3), 4 * 20_001)
    draws = bp.sample_poisson(2500.0, bp.RngStream(3), 20_001)
    assert (draws == parts.reshape(20_001, 4).sum(axis=1)).all()


def _poisson_chisq_p(draws: np.ndarray, mean: float) -> float:
    """Chi-square p-value of draws against exact Poisson masses from
    lgamma, both tails merged into bins of at least 5 expected."""
    n, top = len(draws), int(mean + 12 * math.sqrt(mean) + 30)
    k = np.arange(top + 1)
    log_fact = np.array([math.lgamma(j + 1.0) for j in k])
    expected = n * np.exp(k * math.log(mean) - mean - log_fact)
    expected[-1] = n - expected[:-1].sum()  # the last bin takes every k >= top
    observed = np.bincount(np.minimum(draws, top), minlength=top + 1).astype(float)
    lo = int(np.searchsorted(np.cumsum(expected), 5.0))
    hi = top - int(np.searchsorted(np.cumsum(expected[::-1]), 5.0))
    obs = np.concatenate(([observed[: lo + 1].sum()], observed[lo + 1 : hi], [observed[hi:].sum()]))
    exp = np.concatenate(([expected[: lo + 1].sum()], expected[lo + 1 : hi], [expected[hi:].sum()]))
    return float(stats.chisquare(obs, exp).pvalue)


@pytest.mark.parametrize("mean, seed", [(0.5, 61), (3.0, 62), (12.0, 63), (200.0, 64), (12_000.0, 65)])
def test_poisson_law_chisq(mean, seed):
    draws = bp.sample_poisson(mean, bp.RngStream(seed), 1_000_000)
    assert _poisson_chisq_p(draws, mean) > 0.001


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


def test_jump_fold_to_support_bound():
    # uniforms past the last cumulative entry give the largest jump
    law = bp.JumpLaw(burst_rate=1.0, jump_probs=np.array([0.25, 0.25]))
    u = bp.RngStream(3).random(50_000)
    expected = np.minimum(np.searchsorted(law.cumulative, u, side="right"), 1) + 1
    assert (bp.sample_jump(law, bp.RngStream(3), 50_000) == expected).all()
    assert set(np.unique(expected)) == {1, 2}


# ----------------------------------------------------------------------
# indexed search shared by the table and jump inversions

SEARCH_LAWS = [
    (2.0, 1.0, 0.25),  # the four laws of the benchmark's draws workload
    (1.0, 1.0, 0.5),
    (0.5, 2.0, 1 / 16),
    (1.5, 1.0, 1.0),
    (42.795017938700305, 2.0, 0.4996),  # near the radius: 53,112 masses
    (1.0, 1.0, 1.0),  # m = 1
    (1.0, 1.0, 0.001),  # m = 1000: most jump cumulative entries are 1.0
]


# hand-built laws with masses short of 1: half the table draws fall in
# the tail sliver and are redrawn, and over half the jump draws fold
# back, some of them from the bin that holds the last entry
HALF_TABLE = bp.PmfTable(bp.validate(1.0, 1.0, 0.5), np.array([0.125, 0.25, 0.0, 0.125]), 0.5)
SHORT_JUMPS = bp.JumpLaw(burst_rate=1.0, jump_probs=np.array([0.25, 0.0, 0.125, 0.1]))


def _search_sources(triple):
    params = bp.validate(*triple)
    sources = [bp.build_pmf_table(params)]
    if params.validity is bp.Validity.STRICT:
        sources.append(bp.decompose(params))
    return sources


def _drawn(source, u):
    """The draw of uniforms ``u`` by binary search: the table's search
    result, or the jump size with u past the last entry folded back."""
    r = np.searchsorted(source.cumulative, u, side="right")
    return np.minimum(r, len(source.cumulative) - 1) + 1 if isinstance(source, bp.JumpLaw) else r


def _adversarial_words(cum: np.ndarray, bins: int) -> np.ndarray:
    """Raw words whose uniforms sit on and next to every cumulative entry
    and bin edge on the 2**-53 grid of ``Generator.random``, at both ends
    of the range and past the last entry, each with its low 11 bits (which
    the uniform drops) all clear and all set; and 200,000 at random."""
    past = cum[-1] + (1.0 - cum[-1]) * np.array([0.0, 0.5])
    grid = np.floor(np.concatenate([cum, np.arange(bins + 1) / bins, [0.0, 1.0], past]) * 2.0**53)
    k = np.concatenate([grid - 1, grid, grid + 1])
    k = k[(k >= 0) & (k < 2.0**53)].astype(np.uint64) << np.uint64(11)
    noise = np.random.default_rng(0).integers(0, 2**64, 200_000, dtype=np.uint64)
    return np.concatenate([k, k | np.uint64(0x7FF), noise])


@pytest.mark.parametrize("triple", SEARCH_LAWS)
def test_indexed_search_is_the_binary_search(triple):
    for source in _search_sources(triple) + [HALF_TABLE, SHORT_JUMPS]:
        cum, guide = source.cumulative, source.guide
        bins = len(guide)
        assert bins & (bins - 1) == 0 and bins >= max(1024, 4 * len(cum))
        words = _adversarial_words(cum, bins)
        out = np.empty(len(words), dtype=np.int64)
        searched = _invert(guide, cum, words, out)
        # only the words of a -1 bin are searched, and they hold the search
        shift = np.uint64(64 - (bins.bit_length() - 1))
        assert (searched == np.flatnonzero(guide[(words >> shift).astype(np.intp)] < 0)).all()
        u = (words >> np.uint64(11)) * 2.0**-53
        r = np.searchsorted(cum, u, side="right")
        assert (out[searched] == r[searched]).all()
        out[searched] = _drawn(source, u[searched])
        assert (out == _drawn(source, u)).all()


@pytest.mark.parametrize("triple", SEARCH_LAWS)
def test_guide_marks_entry_and_sliver_bins(triple):
    # -1 exactly where the bin's range (g/G, (g+1)/G] holds a cumulative
    # entry or, for a table, where the search lands past the support;
    # elsewhere the draw itself
    for source in _search_sources(triple) + [HALF_TABLE, SHORT_JUMPS]:
        cum, guide = source.cumulative, source.guide
        r = np.searchsorted(cum, np.arange(len(guide) + 1) / len(guide), side="right")
        marked = r[:-1] != r[1:]
        if isinstance(source, bp.PmfTable):
            marked |= r[:-1] > source.support_max
        assert ((guide < 0) == marked).all()
        assert (guide[~marked] == _drawn(source, np.arange(len(guide))[~marked] / len(guide))).all()
    assert (HALF_TABLE.guide[len(HALF_TABLE.guide) // 2 :] == -1).all()
    assert (SHORT_JUMPS.guide[len(SHORT_JUMPS.guide) // 2 + 1 :] == 4).all()


ROUTE_SIZES = (1, 511, 512, 16_383, 16_384, 16_385, 100_003)


@pytest.mark.parametrize("triple", SEARCH_LAWS[:5] + [None])
def test_routes_are_the_binary_search_of_one_stream(triple):
    # batches on both sides of the plain-search threshold and of a chunk,
    # drawn in turn from one stream, against np.searchsorted of
    # Generator.random over a second stream of the same seed
    sources = [HALF_TABLE, SHORT_JUMPS] if triple is None else _search_sources(triple)
    for source in sources:
        rng, ref = bp.RngStream(71), bp.RngStream(71)
        for size in ROUTE_SIZES:
            if isinstance(source, bp.PmfTable):
                got = bp.sample_inverse_cdf(source, rng, size)
                want = _searchsorted_draws(source, ref, size)
            else:
                got, want = bp.sample_jump(source, rng, size), _drawn(source, ref.random(size))
            assert got.dtype == np.int64 and (got == want).all(), size
        assert rng.random() == ref.random()


def test_draws_refuse_masses_that_are_not_a_law():
    # refused where the table or jump law is made, so no draw or lookup
    # ever sees them
    params = bp.validate(1.0, 1.0, 0.5)
    for probs in ([], [math.nan, 0.5], [0.5, math.nan], [-0.5, 1.0], [0.5, -0.25, 0.5], [math.inf]):
        with pytest.raises(bp.ParameterError):
            bp.PmfTable(params, np.array(probs, dtype=float), 0.0)
        with pytest.raises(bp.ParameterError):
            bp.JumpLaw(burst_rate=1.0, jump_probs=np.array(probs, dtype=float))
    with pytest.raises(bp.ParameterError):
        bp.PmfTable(params, [], 1.0)


def test_set_up_and_lookups_build_no_guide():
    params = bp.validate(0.375, 1.25, 1 / 3)  # a law no other test samples
    table, law = bp.build_pmf_table(params), bp.decompose(params)
    for k in range(5):
        bp.pmf(k, params), bp.log_pmf(k, params), bp.cdf(k, params)
        table.cdf(k), table.quantile(k / 5), law.prob(k)
    assert "guide" not in table.__dict__ and "guide" not in law.__dict__
    bp.sample_inverse_cdf(table, bp.RngStream(1), 10)
    assert "guide" in table.__dict__ and "guide" not in law.__dict__
    bp.sample_compound(law, bp.RngStream(1), 10)
    assert "guide" in law.__dict__
    assert not table.guide.flags.writeable and not law.guide.flags.writeable


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


def test_compound_refuses_jumps_past_budget():
    # burst_rate * size expected jumps past the budget are refused before
    # a variate is drawn, so the stream is left as it was
    large = bp.decompose(bp.validate(1e5, 1.0, 1.0))
    cases = [(large, 1000), (large, 10**30)]
    for rate in (3e7, math.inf, math.nan):
        cases.append((bp.JumpLaw(burst_rate=rate, jump_probs=np.array([1.0])), None))
    for law, size in cases:
        rng = bp.RngStream(7)
        with pytest.raises(bp.ParameterError, match="budget"):
            bp.sample_compound(law, rng, size)
        assert rng.random() == bp.RngStream(7).random()


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


def test_scalar_draw_is_one_public_call(monkeypatch):
    # a scalar draw goes through the private helpers, so a wrapper on the
    # module name (as a tracer puts there) sees it once
    params = bp.validate(1.0, 1.0, 0.25)
    sources = {
        "sample_inverse_cdf": bp.build_pmf_table(params),
        "sample_compound": bp.decompose(params),
        "sample_jump": bp.decompose(params),
        "sample_poisson": 2.5,
    }
    for name, source in sources.items():
        calls = []
        original = getattr(sampling, name)

        def counting(*args, original=original, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sampling, name, counting)
        assert type(counting(source, bp.RngStream(3))) is int
        assert len(calls) == 1, name
        monkeypatch.undo()


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
