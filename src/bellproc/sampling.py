"""Random variate generation.

Two mutually independent exact samplers for the counting law: inversion
of the certified table (the oracle route) and the compound construction
of a Poisson number of bursts with iid positive jump sizes (the route
that extends to path simulation).  Their agreement is part of the
verification battery.  Both invert their uniforms by one exact indexed
search, a chunk at a time.  The Poisson burst counts take the table
route too: Poisson(mu) is the law (mu, 1, 1), so its counts are drawn
from that law's certified table, for means up to 2e7 (the most a
compound draw can ask for).  A batch of 512 or more reads PCG64's raw
64-bit words, and smaller batches and path epochs read
``Generator.random``, which makes its uniforms from the same words; so
every seeded draw depends on numpy only through ``SeedSequence``,
PCG64's raw stream and ``Generator.random``.  Seeds, stream indices
and sizes are checked by the integer rule of :mod:`bellproc.special`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .distribution import DEFAULT_TAIL_TOL, DegenParams, JumpLaw, PmfTable, Validity, _pmf_table
from .errors import ParameterError, RangeError
from .special import _non_negative_int

# Uniforms drawn and inverted per pass, so that a pass's temporaries stay
# in cache.  Draws in passes give the stream of one long draw.
_CHUNK = 1 << 14

# Fewer draws than this take ``Generator.random`` and a plain binary
# search, which cost less than the raw words and the guide there; the
# uniforms are those of the same words, so the stream stays aligned.
_GUIDE_MIN_DRAWS = 512

# Compound draws expected to take more than this many jumps are refused
# before anything is drawn, as process.SIMULATION_BUDGET refuses bursts.
# A chunk's jumps are held at once, about 16 bytes each.  It is also the
# largest Poisson mean drawn (a compound draw of size 1 reaches it), and
# the most uniforms one inverse-CDF, jump or Poisson call may draw.
_JUMP_BUDGET = 20_000_000

# A Poisson mean past this is drawn as the sum of a power of two of
# equal parts, each at most this mean, so no Poisson table holds more
# than 1,255 masses.
_POISSON_PART_MEAN = 1_000.0


@dataclass
class RngStream:
    """Deterministic, splittable random stream (PCG64 behind the scenes).

    The same non-negative seed always reproduces the same variate sequence.
    ``split(i)`` derives stream i, statistically independent of the
    parent and of every sibling; each stream must be owned by a single
    logical thread of execution.
    """

    seed: int
    spawn_key: tuple[int, ...] = ()
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.seed = _non_negative_int(self.seed, "seed")
        self.spawn_key = tuple(_non_negative_int(i, "stream index") for i in self.spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def split(self, index: int) -> "RngStream":
        return RngStream(seed=self.seed, spawn_key=self.spawn_key + (index,))

    def random(self, size: int | None = None):
        return self.generator.random(size)

    def _words(self, size: int) -> np.ndarray:
        """The next ``size`` raw 64-bit PCG64 words: the words that
        ``random(size)`` would turn into its uniforms."""
        return self.generator.bit_generator.random_raw(size)


def _invert(
    guide: np.ndarray, cumulative: np.ndarray, words: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Indexed search (Chen and Asau, 1974; Devroye, Non-Uniform Random
    Variate Generation, 1986, section III.2.4) of the uniforms of raw
    PCG64 ``words`` into ``out``; returns the positions it searched.

    ``Generator.random`` makes word w the uniform u = (w >> 11) * 2**-53.
    The guide's G bins are a power of two, 2**b with b <= 53, so u's bin
    floor(u * G) is w >> (64 - b), with no rounding.  Each word takes its
    bin's encoded entry (see :func:`bellproc.distribution._guide_table`)
    by one gather; only the words whose entry is -1 become uniforms and
    are binary-searched, and for those ``out`` holds
    ``np.searchsorted(cumulative, u, side="right")``, which the caller
    folds (jumps) or checks for the tail sliver (tables).  So every
    integer is the plain search's.
    """
    bins = (words >> (65 - len(guide).bit_length())).view(np.int64)
    # every bin is in range; "clip" spares the buffered copy of out that "raise" makes
    np.take(guide, bins, out=out, mode="clip")
    searched = (out < 0).nonzero()[0]
    out[searched] = np.searchsorted(cumulative, (words[searched] >> 11) * 2.0**-53, side="right")
    return searched


def _sizes(size: int | None) -> int:
    """The count of variates a draw of ``size`` makes: 1 for a scalar."""
    return 1 if size is None else _non_negative_int(size, "size")


def _budgeted(n: int, parts: int = 1) -> int:
    """``n``, for a draw of n variates at ``parts`` uniforms each;
    ParameterError, before anything is drawn, past :data:`_JUMP_BUDGET`
    uniforms."""
    if n * parts > _JUMP_BUDGET:
        raise ParameterError(
            f"{n} draws taking {n * parts} uniforms exceed the budget of {_JUMP_BUDGET} uniforms"
        )
    return n


def _shaped(out: np.ndarray, size: int | None):
    """A draw's variates as the caller asked: an int for a scalar."""
    return int(out[0]) if size is None else out


def _first_draws(table: PmfTable, rng: RngStream, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` draws from the table, and the positions, ascending, whose
    uniform fell in the uncovered tail sliver."""
    guide, cum = table.guide, table.cumulative
    if size < _GUIDE_MIN_DRAWS:
        out = np.searchsorted(cum, rng.random(size), side="right")
        return out, (out > table.support_max).nonzero()[0]
    out = np.empty(size, dtype=np.int64)
    sliver = []
    for start in range(0, size, _CHUNK):
        part = out[start : start + _CHUNK]
        searched = _invert(guide, cum, rng._words(len(part)), part)
        sliver.append(searched[part[searched] > table.support_max] + start)
    return out, sliver[0] if len(sliver) == 1 else np.concatenate(sliver)


def _draw_table(table: PmfTable, rng: RngStream, size: int) -> np.ndarray:
    """The one table route, of :func:`sample_inverse_cdf` and
    :func:`sample_poisson`: ``size`` draws, tail sliver redrawn once
    every first draw is made."""
    out, bad = _first_draws(table, rng, size)
    while bad.size:
        again, still = _first_draws(table, rng, bad.size)
        out[bad] = again
        bad = bad[still]
    return out


@lru_cache(maxsize=64)
def _poisson_table(mean: float) -> PmfTable:
    """The certified table of Poisson(mean), the law (mean, 1, 1)."""
    return _pmf_table(DegenParams(mean, 1.0, 1.0, Validity.STRICT), DEFAULT_TAIL_TOL)


def _poisson_parts(mean: float) -> int:
    """p, the least power of two that brings mean / p to at most
    :data:`_POISSON_PART_MEAN`."""
    parts = 1
    while mean > _POISSON_PART_MEAN * parts:
        parts *= 2
    return parts


def _draw_poisson(mean: float, parts: int, rng: RngStream, size: int) -> np.ndarray:
    """``size`` Poisson(mean) variates for a checked mean in [0, 2e7],
    each the sum of ``parts`` = :func:`_poisson_parts` (mean) draws.

    As p is a power of two, mean / p is exact, so the sum of p
    independent Poisson(mean / p) variates has exactly the Poisson(mean)
    law.  Variate i sums the draws of uniforms i*p .. i*p + p - 1 of one
    draw of p * size uniforms.
    """
    if mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    out = _draw_table(_poisson_table(mean / parts), rng, parts * size)
    return out if parts == 1 else out.reshape(size, parts).sum(axis=1)


def sample_poisson(mean: float, rng: RngStream, size: int | None = None):
    """Poisson variates with the given mean (mean 0 gives 0, drawing nothing).

    Drawn by inversion of the certified table of the law (mean, 1, 1),
    through the same indexed search and tail-sliver redraw as
    :func:`sample_inverse_cdf`.  A mean past mu0 = 1,000 is split into p
    equal parts (p the least power of two with mean / p <= mu0), whose
    sum has exactly the Poisson(mean) law.  Each part lies within its
    table's certified tail (<= 1e-12) of its Poisson law in total
    variation, so a variate lies within p * 1e-12 of Poisson(mean):
    1e-12 up to mu0, and under 2e-15 * mean past it.

    ParameterError for a negative or nan mean; RangeError for a mean
    past 2e7, infinity included.  2e7 is the largest mean a compound
    draw asks for; one variate there takes 32,768 parts of mean about
    610, a few milliseconds.  ParameterError where the p * size
    uniforms exceed :data:`_JUMP_BUDGET` (20 million; p is 1 at mean 0).
    Nothing is drawn before a refusal.
    """
    if not mean >= 0.0:  # also refuses nan
        raise ParameterError(f"Poisson mean must be >= 0, got {mean}")
    if mean > _JUMP_BUDGET:
        raise RangeError(f"Poisson mean {mean} exceeds the limit of {_JUMP_BUDGET:.3g}")
    mean = float(mean)
    parts = _poisson_parts(mean)
    return _shaped(_draw_poisson(mean, parts, rng, _budgeted(_sizes(size), parts)), size)


def _draw_jumps(jump_law: JumpLaw, rng: RngStream, size: int) -> np.ndarray:
    guide, cum, top = jump_law.guide, jump_law.cumulative, jump_law.support_bound - 1
    if size < _GUIDE_MIN_DRAWS:
        # u landing past the last cumulative entry is fp dust; fold it back.
        return np.minimum(np.searchsorted(cum, rng.random(size), side="right"), top) + 1
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, _CHUNK):
        part = out[start : start + _CHUNK]
        searched = _invert(guide, cum, rng._words(len(part)), part)
        part[searched] = np.minimum(part[searched], top) + 1
    return out


def sample_jump(jump_law: JumpLaw, rng: RngStream, size: int | None = None):
    """Jump sizes >= 1, by inversion over the finite support.

    The uniforms are drawn and inverted :data:`_CHUNK` at a time by the
    exact indexed search of :func:`_invert`; the stream and the result
    are those of one draw of ``size`` uniforms and a binary search.
    ParameterError, before anything is drawn, for a ``size`` past
    :data:`_JUMP_BUDGET` (20 million).
    """
    return _shaped(_draw_jumps(jump_law, rng, _budgeted(_sizes(size))), size)


def sample_inverse_cdf(table: PmfTable, rng: RngStream, size: int | None = None):
    """Inverse-transform draws from a certified table.

    The uniforms are drawn and inverted :data:`_CHUNK` at a time by the
    exact indexed search of :func:`_invert`.  A uniform falling in the
    uncovered tail sliver (probability at most the table's tail mass,
    <= 1e-12 by default) is redrawn once every first draw is made, so
    the stream order and the result are those of a binary search over
    one draw of ``size`` uniforms.  :func:`sample_poisson` draws its
    counts by the same route.  ParameterError, before anything is
    drawn, for a ``size`` past :data:`_JUMP_BUDGET` (20 million).
    """
    return _shaped(_draw_table(table, rng, _budgeted(_sizes(size))), size)


def _draw_compound(jump_law: JumpLaw, rng: RngStream, size: int) -> np.ndarray:
    expected = jump_law.burst_rate * size
    if not expected <= _JUMP_BUDGET:  # also refuses nan
        raise ParameterError(
            f"{size} compound draws with {expected:.3g} expected jumps exceed "
            f"the budget of {_JUMP_BUDGET} jumps"
        )
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, _CHUNK):
        counts = sample_poisson(jump_law.burst_rate, rng, min(_CHUNK, size - start))
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total <= _JUMP_BUDGET:
            jumps = sample_jump(jump_law, rng, total)
        else:  # only where the chunk's expected jumps sit near the budget
            pieces = [min(_JUMP_BUDGET, total - lo) for lo in range(0, total, _JUMP_BUDGET)]
            jumps = np.concatenate([sample_jump(jump_law, rng, n) for n in pieces])
        run = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(jumps, out=run[1:])
        out[start : start + _CHUNK] = run[ends] - run[ends - counts]
    return out


def sample_compound(jump_law: JumpLaw, rng: RngStream, size: int | None = None):
    """Sum of a Poisson number of iid jumps; same law as the table route.

    The outputs are made :data:`_CHUNK` at a time, in output order: a
    chunk's burst counts by :func:`sample_poisson`, then their jumps by
    :func:`sample_jump`.  So the stream alternates between each chunk's
    counts and its jumps, and no more than one chunk's counts are held
    at once.  Each output is the difference of the jumps' running sum
    across its own jumps.  ParameterError where ``burst_rate * size``
    expected jumps exceed :data:`_JUMP_BUDGET` (20 million), before
    anything is drawn.
    """
    return _shaped(_draw_compound(jump_law, rng, _sizes(size)), size)
