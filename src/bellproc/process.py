"""Continuous-time simulation of the degenerate Bell counting process.

The process is realized constructively as a marked Poisson process:
burst epochs arrive at rate R = alpha*(e_lam(theta)-1) and each carries
an iid positive jump size from the compound decomposition.  The marginal
count at time t then has the counting law with rate parameter alpha*t,
which the verification battery confirms by goodness of fit rather than
by derivation.

Paths are simulated by the order-statistics property of the Poisson
process: given N(T) = k bursts on (0, T], their epochs are k iid
uniforms on (0, T] in sorted order.  An ensemble of n paths therefore
takes n Poisson(R*T) burst counts, one batch of uniform epochs sorted
within each path, and one batch of jump sizes, with no loop over paths
or bursts.  Nothing sorts a whole column: the paths that hold c bursts
are sorted together as one block of c columns, one block per count.  It
is held as ragged columns (:class:`PathEnsemble`), and one path is a
one-path ensemble: simulation, counting and superposition all take and
give that one type.  An ensemble holds its columns read-only and is
checked by one rule, :func:`_check_paths`.  Writing it out as text is
left to :mod:`bellproc.cli`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distribution import (
    DegenParams,
    Validity,
    _LOG_MAX,
    _exp_series,
    _log_e,
    _same_family,
    decompose,
    validate,
)
from .errors import IncompatibleParametersError, ParameterError
from .sampling import RngStream, sample_jump, sample_poisson
from .special import _frozen, _non_negative_int, _read_only


def _check_paths(
    horizon: float, times: np.ndarray, sizes: np.ndarray, offsets: np.ndarray
) -> None:
    """Raise ParameterError where an ensemble breaks the
    :class:`PathEnsemble` invariants.  ``offsets`` bound its paths, and
    a time may fall back only where a path starts."""
    if not horizon > 0.0:  # also refuses nan
        raise ParameterError(f"horizon must be positive, got {horizon}")
    if len(times) != len(sizes):
        raise ParameterError("times and sizes must have equal length")
    if (
        len(offsets) < 1 or offsets[0] != 0 or offsets[-1] != len(times)
        or (np.diff(offsets) < 0).any()
    ):
        raise ParameterError("offsets must rise from 0 to the number of bursts")
    if len(times) == 0:
        return
    rising = times[1:] > times[:-1]
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < len(times))] - 1] = True
    low, high = times.min(), times.max()
    if not rising.all():
        raise ParameterError("burst times must be strictly increasing within a path")
    if not (low > 0.0 and high <= horizon):  # also refuses nan
        raise ParameterError("burst times must lie in (0, horizon]")
    if (sizes < 1).any():
        raise ParameterError("burst sizes must be >= 1")


# Simulations expected to hold more than this many bursts, or asking for
# more than this many paths, are refused before anything is allocated.
# Each burst takes about 50 bytes of working memory, and a non-finite
# horizon would otherwise never finish.
SIMULATION_BUDGET = 10_000_000


@dataclass(frozen=True, eq=False)
class PathEnsemble(Sequence):
    """Independent trajectories of one process over [0, T], as columns.

    Path i owns the bursts ``times[offsets[i]:offsets[i+1]]`` with the
    matching ``sizes``.  Within a path, bursts lie in (0, T], times
    strictly increase and sizes are positive integers (at most m when
    lam = 1/m).  A path's count starts at zero and jumps by ``sizes[j]``
    at ``times[j]``; a burst at exactly T counts at T (right-continuous
    convention).  One path is an ensemble of length 1.  Indexing gives
    path i as such an ensemble, whose columns are views of these;
    slicing gives a sub-ensemble, and iteration yields the one-path
    ensembles in order.  Immutable: the columns, owners and cumulative
    are read-only (a caller's arrays are copied unless their memory is
    read-only already).
    """

    params: DegenParams
    horizon: float
    offsets: np.ndarray
    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        for name in ("offsets", "times", "sizes"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        _check_paths(self.horizon, self.times, self.sizes, self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            picked = np.arange(len(self))[index]
            counts = np.diff(self.offsets)[picked]
            offsets = np.concatenate(([0], np.cumsum(counts)))
            rows = np.repeat(self.offsets[picked] - offsets[:-1], counts) + np.arange(offsets[-1])
        else:
            i = range(len(self))[index]  # IndexError past either end, as for a list
            a, b = self.offsets[i], self.offsets[i + 1]
            offsets, rows = np.array([0, b - a]), slice(a, b)
        # Whole paths of a checked ensemble hold its invariants, so the part
        # skips __post_init__: its columns are not copied or checked again.
        part = object.__new__(PathEnsemble)
        vars(part).update(params=self.params, horizon=self.horizon, offsets=_read_only(offsets))
        vars(part).update(times=_read_only(self.times[rows]), sizes=_read_only(self.sizes[rows]))
        return part

    @cached_property
    def owners(self) -> np.ndarray:
        """Path index of each burst."""
        return _read_only(np.repeat(np.arange(len(self)), np.diff(self.offsets)))

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Running count within its own path at each burst."""
        running = np.cumsum(self.sizes)
        # less the running count where each path starts
        starts = np.concatenate(([0], running))[self.offsets[:-1]]
        running -= np.repeat(starts, np.diff(self.offsets))
        return _read_only(running)

    def counts_at(self, ts) -> np.ndarray:
        """Counts of every path at every time in ``ts``, as an array of
        shape (n_paths, len(ts)); :func:`count_at` of each path."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ParameterError("ts must be a one-dimensional sequence of times")
        if not ((ts >= 0.0) & (ts <= self.horizon)).all():
            raise ParameterError(f"times must lie in [0, {self.horizon}]")
        order = np.argsort(ts)
        m = len(ts)
        # A burst counts at every grid time at or after its epoch: add its
        # size at the first such column, then sum along the row.
        first = np.searchsorted(ts[order], self.times, side="left")
        jumps = np.bincount(
            self.owners * (m + 1) + first, weights=self.sizes, minlength=len(self) * (m + 1)
        )
        sorted_counts = np.cumsum(
            jumps.reshape(len(self), m + 1)[:, :m].astype(np.int64), axis=1
        )
        counts = np.empty_like(sorted_counts)
        counts[:, order] = sorted_counts
        return counts


def _blocks_by_count(counts: np.ndarray):
    """One block of burst indices for each count c >= 2 in ``counts``:
    row i holds the c indices of the i-th path with c bursts, in columns
    that hold the ``counts[0]`` bursts of path 0, then those of path 1,
    and so on."""
    by_count = np.argsort(counts, kind="stable")
    ordered = counts[by_count]
    starts = np.cumsum(counts) - counts
    edges = [0, *(np.flatnonzero(np.diff(ordered)) + 1), len(ordered)]
    for lo, hi in zip(edges, edges[1:]):
        if hi > lo and ordered[lo] >= 2:
            yield starts[by_count[lo:hi], None] + np.arange(ordered[lo])


def _coalesced(
    params: DegenParams,
    horizon: float,
    n_paths: int,
    owners: np.ndarray,
    times: np.ndarray,
    sizes: np.ndarray,
) -> PathEnsemble:
    """Ensemble from bursts sorted by (path, time): grouped by path in
    path order, and by time within each path.  Bursts that share a path
    and an epoch, a measure-zero fp artifact, become one burst with the
    summed size: every counting function is unchanged and the times stay
    strictly increasing."""
    if len(times) > 1:
        new = np.concatenate(([True], (np.diff(times) != 0.0) | (np.diff(owners) != 0)))
        if not new.all():
            starts = np.flatnonzero(new)
            owners, times = owners[starts], times[starts]
            sizes = np.add.reduceat(sizes, starts)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=n_paths))))
    # columns made here are flagged read-only in place, not copied
    return PathEnsemble(params, horizon, *map(_read_only, (offsets, times, sizes)))


def simulate_paths(
    params: DegenParams, horizon: float, n_paths: int, rng: RngStream
) -> PathEnsemble:
    """Simulate independent trajectories on (0, horizon] as one ensemble.

    Exact by the order statistics of the Poisson process: each path
    draws a Poisson(R*T) burst count, its epochs are iid uniforms on
    (0, T] sorted within the path, and the jump sizes are iid from the
    jump law.  The counts come from :func:`sample_poisson`'s certified
    table, within 1e-12 of Poisson(R*T) in total variation for R*T up
    to 1,000 and within 2e-15 * R*T past it.  The stream gives the
    counts, then the epochs, then the sizes.  The paths that hold c >= 2
    bursts are sorted together, as one (paths, c) block along its rows.
    Raises ParameterError for non-strict parameters, for an ``n_paths``
    that is not a positive integer and for a simulation past
    :data:`SIMULATION_BUDGET`.
    """
    if params.validity is not Validity.STRICT:
        raise ParameterError("path simulation requires strict validity")
    if not horizon > 0.0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    n_paths = _non_negative_int(n_paths, "n_paths")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    law = decompose(params)
    mean_bursts = law.burst_rate * horizon
    if not (n_paths <= SIMULATION_BUDGET and mean_bursts * n_paths <= SIMULATION_BUDGET):
        raise ParameterError(
            f"{n_paths} paths with {mean_bursts * n_paths:.3g} expected bursts exceed "
            f"the simulation budget of {SIMULATION_BUDGET} paths and bursts"
        )
    counts = sample_poisson(mean_bursts, rng, n_paths)
    epochs = horizon * (1.0 - rng.random(int(counts.sum())))  # 1 - u lies in (0, 1]
    for rows in _blocks_by_count(counts):
        block = epochs[rows]
        block.sort(axis=1)
        epochs[rows] = block
    sizes = sample_jump(law, rng, len(epochs))
    owners = np.repeat(np.arange(n_paths), counts)
    return _coalesced(params, horizon, n_paths, owners, epochs, sizes)


def simulate_path(params: DegenParams, horizon: float, rng: RngStream) -> PathEnsemble:
    """Simulate one trajectory on (0, horizon]: :func:`simulate_paths`
    with one path (a Poisson burst count, sorted uniform epochs, iid jump
    sizes), returned as that one-path ensemble."""
    return simulate_paths(params, horizon, 1, rng)


def count_at(path: PathEnsemble, t: float) -> int:
    """Count of a one-path ensemble by time t (0 at t = 0; a
    nondecreasing step function).  :meth:`PathEnsemble.counts_at`
    counts every path of a larger ensemble."""
    if len(path) != 1:
        raise ParameterError(f"count_at takes one path, got {len(path)}; use counts_at")
    if not 0.0 <= t <= path.horizon:
        raise ParameterError(f"t={t} outside [0, {path.horizon}]")
    return int(path.sizes[: np.searchsorted(path.times, t, side="right")].sum())


def increment(path: PathEnsemble, s: float, t: float) -> int:
    """Events of a one-path ensemble in the interval (s, t]."""
    if s >= t:
        raise ParameterError(f"need s < t, got s={s}, t={t}")
    return count_at(path, t) - count_at(path, s)


def superpose(paths: Sequence[PathEnsemble]) -> PathEnsemble:
    """Pathwise sum of independent trajectories.

    The items are ensembles holding equally many paths (one path is a
    one-path ensemble), and path i of the sum merges path i of every
    item.  Closed within the family only when every item shares theta,
    lam and the horizon; the sum carries the summed rate parameter.
    Coincident burst times within a merged path (possible only as an fp
    artifact) are coalesced by summing their sizes.  The bursts are
    grouped by path with a stable sort, then each block of paths with
    equally many bursts is ordered by time with a stable sort along its
    rows; tied epochs keep the order of the items.  A single item is
    returned as it is.
    """
    if not paths:
        raise ParameterError("need at least one path")
    first = paths[0]
    for p in paths[1:]:
        if not _same_family(p.params, first.params):
            raise IncompatibleParametersError(
                "superposition of processes with different theta or lam is not "
                "a degenerate Bell process"
            )
        if not math.isclose(p.horizon, first.horizon, rel_tol=1e-12):
            raise IncompatibleParametersError("superposition requires a common horizon")
    if len(paths) == 1:
        return first
    n_paths = len(first)
    if any(len(p) != n_paths for p in paths):
        raise IncompatibleParametersError("superposition requires equally many paths")
    owners = np.concatenate([p.owners for p in paths])
    times = np.concatenate([p.times for p in paths])
    order = np.argsort(owners, kind="stable")
    for rows in _blocks_by_count(np.bincount(owners, minlength=n_paths)):
        block = order[rows]
        order[rows] = np.take_along_axis(
            block, np.argsort(times[block], axis=1, kind="stable"), axis=1
        )
    sizes = np.concatenate([p.sizes for p in paths])
    merged_params = validate(
        math.fsum(p.params.alpha for p in paths), first.params.theta, first.params.lam
    )
    return _coalesced(
        merged_params, first.horizon, n_paths, owners[order], times[order], sizes[order]
    )


def laplace_functional(params: DegenParams, t: float, x: float) -> float:
    """E[exp(-x * N(t))]: exp(alpha*t*(e_lam(exp(-x)*theta) - e_lam(theta)))."""
    if not t > 0.0:  # also refuses nan
        raise ParameterError(f"t must be positive, got {t}")
    if not x >= 0.0:  # also refuses nan
        raise ParameterError(f"x must be >= 0, got {x}")
    if x == 0.0:  # exp(-0 * N(t)) = 1, also for t = inf
        return 1.0
    # log L = -t*alpha*e_lam(theta)*(1 - e**g), g = log(e_lam(theta*exp(-x))/e_lam(theta))
    # = log1p(y)/lam from expm1(-x), as exp(-x) is 1 below x ~ 1.1e-16; t = inf gives 0.
    lam, theta = params.lam, params.theta
    y = lam * theta * math.expm1(-x) / (1.0 + lam * theta)
    if y < -1e-300:
        log_gap = math.log(-math.expm1(math.log1p(y) / lam))
    else:  # 1 - e**g = -y/lam to first order, where y underflows
        log_gap = math.log(theta) + math.log(-math.expm1(-x)) - math.log1p(lam * theta)
    log_size = math.log(t) + math.log(params.alpha) + _log_e(lam, theta) + log_gap
    return math.exp(-math.exp(log_size)) if log_size < _LOG_MAX else 0.0


def small_s_intensity(k: int, params: DegenParams, s: float) -> float:
    """Linear-in-s approximation alpha*s*c_k*theta**k of the probability
    of k events in a window of length s; c_k is the k-th coefficient of
    the degenerate exponential, 0 past m when lam = 1/m."""
    if _non_negative_int(k, "k") < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not s > 0.0:  # also refuses nan
        raise ParameterError(f"s must be positive, got {s}")
    series = _exp_series(params, k)
    return params.alpha * s * float(series[k]) if k < len(series) else 0.0
