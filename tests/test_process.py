"""Process tests: trajectory invariants, marginal law, stationary and
independent increments, superposition, the Laplace functional, and the
short-window intensity."""

import math

import numpy as np
import pytest
from scipy import stats

import bellproc as bp
from bellproc import process
from bellproc.verify import chisq_pvalue_two_sample, chisq_pvalue_vs_table

P_HALF = bp.validate(1.0, 1.0, 0.5)


def _one_path(times, sizes, horizon=1.0, params=P_HALF):
    """The one-path ensemble of the given bursts."""
    return bp.PathEnsemble(params, horizon, [0, len(times)], times, sizes)


@pytest.fixture(scope="module")
def ensemble():
    """20k trajectories of the (1, 1, 1/2) process on [0, 2]."""
    paths = bp.simulate_paths(P_HALF, 2.0, 20_000, bp.RngStream(4242))
    return paths, paths.counts_at((0.5, 1.0, 1.5, 2.0))


# ----------------------------------------------------------------------
# trajectory construction


def test_simulate_requires_strict_and_positive_horizon():
    with pytest.raises(bp.ParameterError):
        bp.simulate_path(bp.validate(1.0, 1.0, 0.013), 1.0, bp.RngStream(1))
    with pytest.raises(bp.ParameterError):
        bp.simulate_path(P_HALF, 0.0, bp.RngStream(1))
    for n_paths in (2.5, True, -1, 0):
        with pytest.raises(bp.ParameterError):
            bp.simulate_paths(P_HALF, 1.0, n_paths, bp.RngStream(1))
    assert len(bp.simulate_paths(P_HALF, 1.0, np.int64(3), bp.RngStream(1))) == 3


def test_tiny_horizon_paths_mostly_empty():
    paths = bp.simulate_paths(P_HALF, 1e-3, 20_000, bp.RngStream(3))
    empty = int((paths.counts_at((1e-3,)) == 0).sum())
    # burst probability ~ rate * T = 1.25e-3
    assert empty / 20_000 == pytest.approx(math.exp(-1.25e-3), abs=3e-3)


def test_order_one_plain_poisson_process():
    p = bp.validate(1.0, 1.0, 1.0)
    path = bp.simulate_path(p, 10.0, bp.RngStream(5))
    assert (path.sizes == 1).all()
    totals = bp.simulate_paths(p, 10.0, 5000, bp.RngStream(6)).counts_at((10.0,))[:, 0]
    assert np.mean(totals) == pytest.approx(10.0, abs=0.2)  # ~4.7 sigma band


def test_path_invariants(ensemble):
    paths, _ = ensemble
    for path in paths[:200]:
        assert (np.diff(path.times) > 0).all() if len(path.times) > 1 else True
        assert (path.sizes >= 1).all()
        assert (path.sizes <= 2).all()  # lam = 1/2
        if len(path.times):
            assert 0.0 < path.times[0] and path.times[-1] <= 2.0


def test_path_counts_monotone(ensemble):
    paths, _ = ensemble
    grid = np.linspace(0.0, 2.0, 21)
    for path in paths[:100]:
        values = [bp.count_at(path, t) for t in grid]
        assert values[0] == 0
        assert all(b >= a for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# count_at / increment


def test_count_at_zero_is_zero(ensemble):
    paths, _ = ensemble
    assert bp.count_at(paths[0], 0.0) == 0


def test_count_at_step_function():
    path = _one_path(np.array([0.5]), np.array([2]))
    assert bp.count_at(path, 0.4) == 0
    assert bp.count_at(path, 0.5) == 2  # burst at t counts at t
    assert bp.count_at(path, 0.6) == 2


def test_count_at_horizon_is_total(ensemble):
    paths, _ = ensemble
    for path in paths[:50]:
        assert bp.count_at(path, 2.0) == path.sizes.sum()


def test_count_at_domain():
    path = _one_path(np.array([]), np.array([]))
    with pytest.raises(bp.ParameterError):
        bp.count_at(path, -0.1)
    with pytest.raises(bp.ParameterError):
        bp.count_at(path, 1.1)
    assert bp.count_at(path, 1.0) == 0


def test_increment_full_window_is_total(ensemble):
    paths, _ = ensemble
    for path in paths[:50]:
        assert bp.increment(path, 0.0, 2.0) == bp.count_at(path, path.horizon)


def test_increment_requires_ordered_times():
    path = _one_path(np.array([]), np.array([]))
    with pytest.raises(bp.ParameterError):
        bp.increment(path, 0.5, 0.5)


def test_count_at_and_increment_take_one_path():
    paths = bp.PathEnsemble(P_HALF, 1.0, [0, 1, 2], [0.5, 0.25], [1, 2])
    for call in (lambda: bp.count_at(paths, 0.5), lambda: bp.increment(paths, 0.0, 1.0)):
        with pytest.raises(bp.ParameterError, match="counts_at"):
            call()
    assert [bp.count_at(path, 0.5) for path in paths] == [1, 2]


def test_path_rejects_bad_data():
    with pytest.raises(bp.ParameterError):
        _one_path(np.array([0.5, 0.4]), np.array([1, 1]))
    with pytest.raises(bp.ParameterError):
        _one_path(np.array([0.5]), np.array([0]))
    with pytest.raises(bp.ParameterError):
        _one_path(np.array([1.5]), np.array([1]))
    with pytest.raises(bp.ParameterError):
        _one_path(np.array([]), np.array([], dtype=int), horizon=math.nan)
    # a nan burst time fails every comparison, so the bound is written to refuse it
    with pytest.raises(bp.ParameterError):
        _one_path(np.array([math.nan]), np.array([1]))
    with pytest.raises(bp.ParameterError):
        bp.PathEnsemble(P_HALF, 1.0, np.array([0, 1]), np.array([math.nan]), np.array([1]))


def test_paths_are_read_only():
    paths = bp.simulate_paths(P_HALF, 2.0, 50, bp.RngStream(61))
    view = paths[int(np.argmax(np.diff(paths.offsets)))]
    arrays = (
        paths.offsets, paths.times, paths.sizes, paths.owners, paths.cumulative,
        view.offsets, view.times, view.sizes, view.cumulative,
    )
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 99
    with pytest.raises(ValueError):
        paths.times[0] = -5.0
    # a caller's writable array or list is copied once, so later writes do not reach the path
    times = np.array([0.5])
    path = _one_path(times, [2])
    times[0] = 5.0
    assert path.times.tolist() == [0.5] and bp.count_at(path, 1.0) == 2
    with pytest.raises(ValueError):
        path.sizes[0] = 3
    # so is a read-only view of a writable array; views of the ensemble's own columns are not
    times = np.array([0.5])
    view_of_writable = times.view()
    view_of_writable.setflags(write=False)
    path = _one_path(view_of_writable, [1])
    times[0] = -3.0
    assert path.times.tolist() == [0.5]
    assert np.shares_memory(view.times, paths.times) and np.shares_memory(view.sizes, paths.sizes)


# ----------------------------------------------------------------------
# marginal law and increments


def test_marginal_law_chisq(ensemble):
    _, counts = ensemble
    for column, t in ((0, 0.5), (1, 1.0), (3, 2.0)):
        table = bp.build_pmf_table(bp.validate(t, 1.0, 0.5))
        assert chisq_pvalue_vs_table(counts[:, column], table) > 0.001


def test_marginal_mean(ensemble):
    _, counts = ensemble
    expected = bp.mean(P_HALF)  # 1.5 at t = 1
    se = math.sqrt(bp.variance(P_HALF) / len(counts))
    assert abs(float(counts[:, 1].mean()) - expected) <= 4 * se


def test_stationary_increments(ensemble):
    _, counts = ensemble
    inc_a = counts[:, 0]  # (0, 0.5]
    inc_b = counts[:, 2] - counts[:, 1]  # (1, 1.5]
    assert chisq_pvalue_two_sample(inc_a, inc_b) > 0.001


def test_increment_law_matches_length(ensemble):
    _, counts = ensemble
    inc = counts[:, 3] - counts[:, 1]  # (1, 2], length 1
    table = bp.build_pmf_table(bp.validate(1.0, 1.0, 0.5))
    assert chisq_pvalue_vs_table(inc, table) > 0.001


def test_independent_increments_correlation(ensemble):
    _, counts = ensemble
    inc_a = counts[:, 1]  # (0, 1]
    inc_b = counts[:, 3] - counts[:, 1]  # (1, 2]
    rho = float(np.corrcoef(inc_a, inc_b)[0, 1])
    assert abs(rho) < 0.02  # 1/sqrt(20k) ~ 0.007


# ----------------------------------------------------------------------
# superposition


def test_superpose_single_path_identity(ensemble):
    paths, _ = ensemble
    path = paths[0]
    assert bp.superpose([path]) is path


def test_superpose_merges_and_adds_rates():
    rng_a, rng_b = bp.RngStream(71), bp.RngStream(73)
    p2 = bp.validate(2.0, 1.0, 0.5)
    merged = bp.superpose(
        [
            bp.simulate_paths(P_HALF, 1.0, 20_000, rng_a),
            bp.simulate_paths(p2, 1.0, 20_000, rng_b),
        ]
    )
    merged_counts = merged.counts_at((1.0,))[:, 0]
    assert merged.params.alpha == pytest.approx(3.0)
    table = bp.build_pmf_table(bp.validate(3.0, 1.0, 0.5))
    assert chisq_pvalue_vs_table(merged_counts, table) > 0.001


def test_superpose_family_of_three():
    # partial sums stay in the family: three independent processes with
    # rates 0.5, 1, 1.5 merge into one with rate 3
    rngs = [bp.RngStream(1234).split(i) for i in range(3)]
    alphas = (0.5, 1.0, 1.5)
    merged = bp.superpose(
        [
            bp.simulate_paths(bp.validate(a, 1.0, 0.5), 1.0, 20_000, rng)
            for a, rng in zip(alphas, rngs)
        ]
    )
    merged_counts = merged.counts_at((1.0,))[:, 0]
    assert merged.params.alpha == pytest.approx(3.0)
    table = bp.build_pmf_table(bp.validate(3.0, 1.0, 0.5))
    assert chisq_pvalue_vs_table(merged_counts, table) > 0.001


def test_superpose_sorted_times():
    rng_a, rng_b = bp.RngStream(79), bp.RngStream(83)
    merged = bp.superpose(
        [bp.simulate_path(P_HALF, 5.0, rng_a), bp.simulate_path(P_HALF, 5.0, rng_b)]
    )
    assert (np.diff(merged.times) > 0).all()


def test_superpose_coincident_times_coalesced():
    # coincident burst times are an fp artifact; the merge sums their
    # sizes (the counting function is unchanged) so times stay strictly
    # increasing, deterministically
    first = _one_path(np.array([0.25, 0.5]), np.array([1, 1]))
    second = _one_path(
        np.array([0.5, 0.75]), np.array([2, 2]), params=bp.validate(2.0, 1.0, 0.5)
    )
    merged = bp.superpose([first, second])
    assert isinstance(merged, bp.PathEnsemble) and len(merged) == 1
    assert list(merged.times) == [0.25, 0.5, 0.75]
    assert list(merged.sizes) == [1, 3, 2]
    assert bp.count_at(merged, 0.5) == 4
    assert bp.count_at(merged, 1.0) == bp.count_at(first, 1.0) + bp.count_at(second, 1.0)


def test_superpose_rejects_mismatches():
    rng = bp.RngStream(89)
    base = bp.simulate_path(P_HALF, 1.0, rng)
    other_theta = bp.simulate_path(bp.validate(1.0, 0.7, 0.5), 1.0, rng)
    other_lam = bp.simulate_path(bp.validate(1.0, 1.0, 0.25), 1.0, rng)
    other_horizon = bp.simulate_path(P_HALF, 2.0, rng)
    # horizons are compared relatively: 1e-13 and 5e-13 differ by a factor 5
    short = bp.simulate_path(P_HALF, 1e-13, rng)
    shorter = bp.simulate_path(P_HALF, 5e-13, rng)
    for first, bad in (
        (base, other_theta), (base, other_lam), (base, other_horizon), (short, shorter)
    ):
        with pytest.raises(bp.IncompatibleParametersError):
            bp.superpose([first, bad])
    with pytest.raises(bp.ParameterError):
        bp.superpose([])


def test_superpose_ensembles_path_by_path():
    a = bp.simulate_paths(P_HALF, 1.0, 500, bp.RngStream(107))
    b = bp.simulate_paths(bp.validate(2.0, 1.0, 0.5), 1.0, 500, bp.RngStream(109))
    merged = bp.superpose([a, b])
    assert isinstance(merged, bp.PathEnsemble) and len(merged) == 500
    assert merged.params.alpha == pytest.approx(3.0)
    for i, view in enumerate(merged):
        ref = bp.superpose([a[i], b[i]])
        assert (view.times == ref.times).all() and (view.sizes == ref.sizes).all()
        assert (view.times == np.sort(np.concatenate([a[i].times, b[i].times]))).all()
    with pytest.raises(bp.IncompatibleParametersError):
        bp.superpose([a, b[:499]])
    with pytest.raises(bp.IncompatibleParametersError):
        bp.superpose([a, a[0]])


def test_superpose_ensembles_coalesce_within_a_path_only():
    # path 0 of both items bursts at 0.5: one burst of size 3; path 1
    # of the first item also bursts at 0.5 and stays a burst of its own
    first = bp.PathEnsemble(
        P_HALF, 1.0, np.array([0, 1, 2]), np.array([0.5, 0.5]), np.array([1, 1])
    )
    second = bp.PathEnsemble(
        P_HALF, 1.0, np.array([0, 2, 2]), np.array([0.25, 0.5]), np.array([2, 2])
    )
    merged = bp.superpose([first, second])
    assert list(merged.offsets) == [0, 2, 3]
    assert list(merged.times) == [0.25, 0.5, 0.5]
    assert list(merged.sizes) == [2, 3, 1]
    assert merged.counts_at((0.5,)).tolist() == [[5], [1]]


# ----------------------------------------------------------------------
# ordering within paths, against a global lexsort over (path, time)


def _simulate_by_lexsort(params, horizon, n_paths, rng):
    """simulate_paths with its epochs ordered by one lexsort."""
    law = bp.decompose(params)
    counts = process.sample_poisson(law.burst_rate * horizon, rng, n_paths)
    owners = np.repeat(np.arange(n_paths), counts)
    epochs = horizon * (1.0 - rng.random(len(owners)))
    epochs = epochs[np.lexsort((epochs, owners))]
    sizes = process.sample_jump(law, rng, len(epochs))
    return process._coalesced(params, horizon, n_paths, owners, epochs, sizes)


def _superpose_by_lexsort(items):
    """superpose with its bursts ordered by one lexsort."""
    owners = np.concatenate([p.owners for p in items])
    times = np.concatenate([p.times for p in items])
    sizes = np.concatenate([p.sizes for p in items])
    order = np.lexsort((times, owners))
    first = items[0].params
    params = bp.validate(math.fsum(p.params.alpha for p in items), first.theta, first.lam)
    return process._coalesced(
        params, items[0].horizon, len(items[0]), owners[order], times[order], sizes[order]
    )


def _same_bits(got, want):
    assert got.params == want.params and got.horizon == want.horizon
    for name in ("offsets", "times", "sizes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _gridded(counts, rng, grid=512, alpha=1.0):
    """An ensemble whose path i holds counts[i] bursts on the epochs
    k/grid, so that separate ensembles share epochs."""
    times = [np.sort(rng.choice(grid, c, replace=False) + 1.0) / grid for c in counts]
    return bp.PathEnsemble(
        bp.validate(alpha, 1.0, 0.5), 1.0, np.concatenate(([0], np.cumsum(counts))),
        np.concatenate([[], *times]), rng.integers(1, 3, int(np.sum(counts))),
    )


@pytest.mark.parametrize(
    "horizon, n_paths, seed",
    [
        (0.3, 500, 1),  # most paths empty
        (2000.0, 1, 2),  # one path holds every burst
        (1.0, 3000, 3),
        (40.0, 250, 4),  # about 60 distinct counts
    ],
)
def test_simulate_orders_as_lexsort(horizon, n_paths, seed):
    got = bp.simulate_paths(P_HALF, horizon, n_paths, bp.RngStream(seed))
    _same_bits(got, _simulate_by_lexsort(P_HALF, horizon, n_paths, bp.RngStream(seed)))


def test_simulate_orders_as_lexsort_over_400_counts(monkeypatch):
    # every count from 0 to 399, twice, in shuffled path order
    counts = np.random.default_rng(5).permutation(np.repeat(np.arange(400), 2))
    monkeypatch.setattr(process, "sample_poisson", lambda mean, rng, size: counts.copy())
    got = bp.simulate_paths(P_HALF, 1.0, len(counts), bp.RngStream(6))
    assert len(np.unique(np.diff(got.offsets))) == 400
    _same_bits(got, _simulate_by_lexsort(P_HALF, 1.0, len(counts), bp.RngStream(6)))


def test_simulate_orders_tied_epochs_as_lexsort():
    got = bp.simulate_paths(P_HALF, 2.0, 300, _TiedUniforms(7))
    _same_bits(got, _simulate_by_lexsort(P_HALF, 2.0, 300, _TiedUniforms(7)))


def test_superpose_orders_as_lexsort_with_shared_epochs():
    rng = np.random.default_rng(8)
    spread = rng.permutation(np.arange(400))  # 400 distinct counts
    lone = np.zeros(400, dtype=np.int64)
    lone[17] = 500  # one path holds every burst
    items = [
        _gridded(spread, rng), _gridded(rng.integers(0, 5, 400), rng, alpha=2.0),
        _gridded(lone, rng), _gridded(spread[::-1], rng, alpha=0.5),
    ]
    for picked in (items[:2], items[1:3], items[2:3] * 2, items):
        got = bp.superpose(picked)
        # shared epochs across items coalesce, so some paths hold fewer bursts
        assert len(got.times) < sum(len(p.times) for p in picked)
        _same_bits(got, _superpose_by_lexsort(picked))
    simulated = [bp.simulate_paths(P_HALF, 0.3, 500, bp.RngStream(s)) for s in (9, 10)]
    _same_bits(bp.superpose(simulated), _superpose_by_lexsort(simulated))


def test_superpose_of_empty_ensembles():
    empty = _gridded(np.zeros(0, dtype=np.int64), np.random.default_rng(11))
    assert len(empty) == 0
    _same_bits(bp.superpose([empty, empty]), _superpose_by_lexsort([empty, empty]))


# ----------------------------------------------------------------------
# path ensembles


class _TiedUniforms(bp.RngStream):
    """A stream whose uniforms are all 1/2: every epoch of a path ties.
    Its raw words, which the batch draws read, are all 2**63, the word
    whose uniform is 1/2."""

    def random(self, size=None):
        return np.full(size, 0.5)

    def _words(self, size):
        return np.full(size, 1 << 63, dtype=np.uint64)


def test_ensemble_counts_at_matches_count_at_on_every_view():
    paths = bp.simulate_paths(P_HALF, 2.0, 3000, bp.RngStream(113))
    # unsorted, with a repeat, both ends and a time that is a burst epoch
    grid = (2.0, 0.0, 0.7, 1.0, 0.25, float(paths.times[0]), 1.0, 1.5)
    counts = paths.counts_at(grid)
    assert counts.shape == (3000, len(grid)) and counts.dtype == np.int64
    reference = [[bp.count_at(view, t) for t in grid] for view in paths]
    assert counts.tolist() == reference


def test_ensemble_counts_at_domain():
    paths = bp.simulate_paths(P_HALF, 2.0, 10, bp.RngStream(127))
    for bad in ((-0.1,), (2.1,), (float("nan"),), [[1.0]]):
        with pytest.raises(bp.ParameterError):
            paths.counts_at(bad)
    assert paths.counts_at(()).shape == (10, 0)


class _TiedAfterCounts(_TiedUniforms):
    """A stream whose first draw, a simulation's burst counts, is its own,
    and whose later uniforms and raw words are all 1/2: every epoch of a
    path ties."""

    def random(self, size=None):
        if getattr(self, "_counted", False):
            return super().random(size)
        self._counted = True
        return bp.RngStream.random(self, size)

    def _words(self, size):
        if getattr(self, "_counted", False):
            return super()._words(size)
        self._counted = True
        return bp.RngStream._words(self, size)


def test_ensemble_coalesces_tied_epochs():
    paths = bp.simulate_paths(P_HALF, 2.0, 200, _TiedAfterCounts(131))
    bursts = np.diff(paths.offsets)
    assert bursts.max() <= 1 and bursts.sum() > 0
    assert (paths.times == 1.0).all()
    # every jump is 1 at u = 1/2, so a path's one burst carries its
    # Poisson count, drawn from the stream's own first uniforms
    totals = bp.sample_poisson(1.25 * 2.0, bp.RngStream(131), 200)
    assert len(np.unique(totals[totals >= 2])) > 1  # distinct counts, each coalesced
    assert paths.counts_at((0.5, 1.0, 2.0)).tolist() == [[0, n, n] for n in totals]


@pytest.mark.parametrize("lam, m", [(1.0, 1), (0.5, 2), (0.25, 4)])
def test_ensemble_views_satisfy_path_invariants(lam, m):
    paths = bp.simulate_paths(bp.validate(1.0, 2.0, lam), 2.0, 2000, bp.RngStream(137))
    assert len(paths) == 2000 and sum(1 for _ in paths) == 2000
    seen = 0
    for view in paths:
        assert isinstance(view, bp.PathEnsemble) and len(view) == 1
        assert (np.diff(view.times) > 0).all()
        if len(view.times):
            assert 0.0 < view.times[0] and view.times[-1] <= 2.0
        assert ((view.sizes >= 1) & (view.sizes <= m)).all()
        seen += len(view.times)
    assert seen == len(paths.times) > 0
    assert (paths.cumulative == np.concatenate([v.cumulative for v in paths])).all()


def test_ensemble_indexing_and_slicing():
    paths = bp.simulate_paths(P_HALF, 2.0, 50, bp.RngStream(139))
    views = list(paths)
    assert (paths[-1].times == views[49].times).all()
    with pytest.raises(IndexError):
        paths[50]
    for piece in (slice(10, 20), slice(None, None, 7), slice(None, None, -3), slice(5, 5)):
        sub = paths[piece]
        assert isinstance(sub, bp.PathEnsemble)
        expected = views[piece]
        assert len(sub) == len(expected)
        for got, want in zip(sub, expected):
            assert (got.times == want.times).all() and (got.sizes == want.sizes).all()


def test_ensemble_same_seed_same_arrays():
    first = bp.simulate_paths(P_HALF, 2.0, 1000, bp.RngStream(149))
    second = bp.simulate_paths(P_HALF, 2.0, 1000, bp.RngStream(149))
    for name in ("offsets", "times", "sizes"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    other = bp.simulate_paths(P_HALF, 2.0, 1000, bp.RngStream(151))
    assert not np.array_equal(first.times, other.times)


def test_simulate_path_is_the_one_path_ensemble():
    path = bp.simulate_path(P_HALF, 5.0, bp.RngStream(157))
    ensemble = bp.simulate_paths(P_HALF, 5.0, 1, bp.RngStream(157))
    assert isinstance(path, bp.PathEnsemble) and len(path) == 1
    for name in ("offsets", "times", "sizes"):
        assert np.array_equal(getattr(path, name), getattr(ensemble, name))


def test_ensemble_rejects_bad_columns():
    good = dict(params=P_HALF, horizon=1.0, offsets=np.array([0, 1, 2]))
    for times, sizes in (
        ([0.5, 0.5], [1, 0]),  # size below 1
        ([0.5, 1.5], [1, 1]),  # past the horizon
        ([0.0, 0.5], [1, 1]),  # at time 0
        ([0.5], [1]),  # offsets do not end at the burst count
    ):
        with pytest.raises(bp.ParameterError):
            bp.PathEnsemble(times=np.array(times), sizes=np.array(sizes), **good)
    with pytest.raises(bp.ParameterError):  # falls back inside a path
        bp.PathEnsemble(P_HALF, 1.0, np.array([0, 2]), np.array([0.5, 0.4]), np.array([1, 1]))
    # a fall back where a new path starts is fine
    bp.PathEnsemble(P_HALF, 1.0, np.array([0, 1, 2]), np.array([0.5, 0.4]), np.array([1, 1]))


@pytest.mark.parametrize(
    "horizon, n_paths",
    [
        (math.inf, 1),
        (1e300, 1),
        (math.nan, 1),
        (1e-9, process.SIMULATION_BUDGET + 1),
        (2.0 * process.SIMULATION_BUDGET / 1.25, 1),
        (2.0, process.SIMULATION_BUDGET // 2),
    ],
)
def test_simulation_budget_refused_up_front(horizon, n_paths):
    # refused before anything is drawn: the stream is left untouched
    rng = bp.RngStream(163)
    with pytest.raises(bp.ParameterError):
        bp.simulate_paths(P_HALF, horizon, n_paths, rng)
    assert rng.random() == bp.RngStream(163).random()


# ----------------------------------------------------------------------
# Laplace functional


def test_laplace_at_zero_is_one():
    for t in (1.0, 1e300, math.inf):
        assert bp.laplace_functional(P_HALF, t, 0.0) == 1.0
    # and 0 at t = inf for every x > 0, also where exp(-x) rounds to 1
    for x in (1e-300, 1e-17, 0.5):
        assert bp.laplace_functional(P_HALF, math.inf, x) == 0.0
    # and exp(-t*x*mean) at finite t where exp(-x) rounds to 1 (mean 1.5)
    assert bp.laplace_functional(P_HALF, 1e16, 1e-17) == pytest.approx(math.exp(-0.15), rel=1e-12)
    assert bp.laplace_functional(P_HALF, 1e20, 1e-17) == 0.0
    # where lam*theta*(1 - exp(-x)) underflows: exp(-t*theta*(1 - exp(-x))) to first order
    tiny = bp.validate(1.0, 1e-300, 0.5)
    expected = math.exp(1e8 * math.expm1(-1e-10))
    assert bp.laplace_functional(tiny, 1e308, 1e-10) == pytest.approx(expected, rel=1e-14)


def test_laplace_is_mgf_at_negative_argument():
    for t in (0.5, 1.0, 2.0):
        scaled = bp.validate(t, 1.0, 0.5)
        for x in (0.25, 0.7, 1.5):
            assert bp.laplace_functional(P_HALF, t, x) == pytest.approx(
                bp.mgf(-x, scaled), rel=1e-13
            )


def test_laplace_monte_carlo(ensemble):
    _, counts = ensemble
    n = len(counts)
    for column, t in ((0, 0.5), (1, 1.0), (3, 2.0)):
        for x in (0.25, 0.7, 1.5):
            values = np.exp(-x * counts[:, column])
            se = float(values.std(ddof=1)) / math.sqrt(n)
            assert abs(float(values.mean()) - bp.laplace_functional(P_HALF, t, x)) <= 4 * se


def test_laplace_domain():
    for t, x in ((0.0, 0.5), (1.0, -0.5), (math.nan, 1.0), (math.nan, 0.0), (1.0, math.nan)):
        with pytest.raises(bp.ParameterError):
            bp.laplace_functional(P_HALF, t, x)


# ----------------------------------------------------------------------
# short-window intensity


def test_intensity_linear_coefficient():
    assert bp.small_s_intensity(1, P_HALF, 1e-3) == pytest.approx(1e-3)
    assert bp.small_s_intensity(2, bp.validate(1, 1, 1), 1e-3) == 0.0


def test_intensity_matches_pmf_to_first_order():
    s = 1e-3
    value = bp.pmf(1, bp.validate(1e-3, 1.0, 0.5)) / s
    assert value == pytest.approx(1.0, abs=2e-3)


def test_intensity_error_is_first_order():
    # error at window s shrinks linearly: successive ratios near 10; at
    # order one the k = 3 coefficient vanishes and the error is second order
    order_one = bp.validate(1, 1, 1)
    for params, k in ((P_HALF, 1), (P_HALF, 2), (order_one, 1), (order_one, 2)):
        errs = []
        for s in (1e-2, 1e-3, 1e-4):
            approx = bp.small_s_intensity(k, params, s)
            exact = bp.pmf(k, bp.validate(params.alpha * s, params.theta, params.lam))
            errs.append(abs(exact / s - approx / s))
        assert 5 <= errs[0] / errs[1] <= 20
        assert 5 <= errs[1] / errs[2] <= 20


def test_intensity_domain():
    for k, s in ((0, 0.1), (1.5, 0.1), (True, 0.1), (1, 0.0), (1, math.nan)):
        with pytest.raises(bp.ParameterError):
            bp.small_s_intensity(k, P_HALF, s)


# ----------------------------------------------------------------------
# order-one degeneracy: exponential gaps


def test_order_one_gaps_exponential():
    p = bp.validate(1.5, 1.0, 1.0)
    path = bp.simulate_path(p, 5000.0, bp.RngStream(97))
    gaps = np.diff(np.concatenate([[0.0], path.times]))
    # rate alpha*theta = 1.5
    assert stats.kstest(gaps, "expon", args=(0.0, 1.0 / 1.5)).pvalue > 0.001
