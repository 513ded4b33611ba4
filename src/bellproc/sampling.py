"""Random variate generation.

Two mutually independent exact samplers for the counting law: inversion
of the certified table (the oracle route) and the compound construction
of a Poisson number of bursts with iid positive jump sizes (the route
that extends to path simulation).  Their agreement is part of the
verification battery.  Both invert their uniforms by one exact indexed
search, a chunk at a time.  Seeds, stream indices and sizes are checked by
the integer rule of :mod:`bellproc.special`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import JumpLaw, PmfTable
from .errors import ParameterError, RangeError
from .special import _non_negative_int

# Uniforms drawn and inverted per pass, so that a pass's temporaries stay
# in cache.  Draws in passes give the stream of one long draw.
_CHUNK = 1 << 14

# numpy's Generator.poisson refuses a larger mean: its POISSON_LAM_MAX,
# the int64 maximum less ten times its square root, as a double.
_POISSON_MAX_MEAN = 9.223372006484771e18

# Compound draws expected to take more than this many jumps are refused
# before anything is drawn, as process.SIMULATION_BUDGET refuses bursts.
# A chunk's jumps are held at once, about 16 bytes each.
_JUMP_BUDGET = 20_000_000


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


def sample_poisson(mean: float, rng: RngStream, size: int | None = None):
    """Exact Poisson variates with the given mean (mean 0 gives 0).

    ParameterError for a negative or nan mean; RangeError for a mean
    past numpy's limit of about 9.2e18, infinity included.
    """
    if not mean >= 0.0:  # also refuses nan
        raise ParameterError(f"Poisson mean must be >= 0, got {mean}")
    if mean > _POISSON_MAX_MEAN:
        raise RangeError(f"Poisson mean {mean} exceeds numpy's limit of {_POISSON_MAX_MEAN!r}")
    if size is not None:
        size = _non_negative_int(size, "size")
    out = rng.generator.poisson(mean, size)
    return np.asarray(out, dtype=np.int64) if size is not None else int(out)


def _invert(guide: np.ndarray, cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cumulative, u, side="right") for u in [0, 1), by
    indexed search (Chen and Asau, 1974; Devroye, Non-Uniform Random
    Variate Generation, 1986, section III.2.4).

    With G = len(guide) - 1 bins, a power of two, u * G is exact, so
    g = floor(u * G) puts u in [g/G, (g+1)/G).  The search result is
    nondecreasing in u, and guide[g] is its value at g/G, so guide[g] <=
    result <= guide[g+1].  Where the two bounds agree, that is the
    answer; the few uniforms whose bin holds a cumulative entry are
    searched alone.  So the result equals the plain search's, integer
    for integer.
    """
    g = (u * (len(guide) - 1)).astype(np.intp)
    out = guide[g]
    ambiguous = np.flatnonzero(out != guide[g + 1])
    out[ambiguous] = np.searchsorted(cumulative, u[ambiguous], side="right")
    return out


def sample_jump(jump_law: JumpLaw, rng: RngStream, size: int | None = None):
    """Jump sizes >= 1, by inversion over the finite support.

    The uniforms are drawn and inverted :data:`_CHUNK` at a time by the
    exact indexed search of :func:`_invert`; the stream and the result
    are those of one draw of ``size`` uniforms and a binary search.
    """
    if size is None:
        return int(sample_jump(jump_law, rng, 1)[0])
    size = _non_negative_int(size, "size")
    guide, cum = jump_law.guide, jump_law.cumulative
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, _CHUNK):
        part = out[start : start + _CHUNK]
        idx = _invert(guide, cum, rng.random(len(part)))
        # u landing past the last cumulative entry is fp dust; fold it back.
        np.add(np.minimum(idx, jump_law.support_bound - 1, out=idx), 1, out=part)
    return out


def sample_inverse_cdf(table: PmfTable, rng: RngStream, size: int | None = None):
    """Inverse-transform draws from a certified table.

    The uniforms are drawn and inverted :data:`_CHUNK` at a time by the
    exact indexed search of :func:`_invert`.  A uniform falling in the
    uncovered tail sliver (probability at most the table's tail mass,
    <= 1e-12 by default) is redrawn once every first draw is made, so
    the stream order and the result are those of a binary search over
    one draw of ``size`` uniforms.
    """
    if size is None:
        return int(sample_inverse_cdf(table, rng, 1)[0])
    size = _non_negative_int(size, "size")
    guide, cum = table.guide, table.cumulative
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, _CHUNK):
        part = out[start : start + _CHUNK]
        part[:] = _invert(guide, cum, rng.random(len(part)))
    bad = np.flatnonzero(out > table.support_max)
    while bad.size:
        out[bad] = _invert(guide, cum, rng.random(bad.size))
        bad = bad[out[bad] > table.support_max]
    return out


def sample_compound(jump_law: JumpLaw, rng: RngStream, size: int | None = None):
    """Sum of a Poisson number of iid jumps; same law as the table route.

    All burst counts are drawn first, then, :data:`_CHUNK` outputs at a
    time and in output order, their jumps by :func:`sample_jump`, so the
    stream is that of one draw of every jump.  Each output is the
    difference of the jumps' running sum across its own jumps.
    ParameterError where ``burst_rate * size`` expected jumps exceed
    :data:`_JUMP_BUDGET` (20 million).
    """
    if size is None:
        return int(sample_compound(jump_law, rng, 1)[0])
    size = _non_negative_int(size, "size")
    expected = jump_law.burst_rate * size
    if not expected <= _JUMP_BUDGET:  # also refuses nan
        raise ParameterError(
            f"{size} compound draws with {expected:.3g} expected jumps exceed "
            f"the budget of {_JUMP_BUDGET} jumps"
        )
    counts = sample_poisson(jump_law.burst_rate, rng, size)
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, _CHUNK):
        part = counts[start : start + _CHUNK]
        ends = np.cumsum(part)
        run = np.zeros(ends[-1] + 1, dtype=np.int64)
        np.cumsum(sample_jump(jump_law, rng, ends[-1]), out=run[1:])
        out[start : start + _CHUNK] = run[ends] - run[ends - part]
    return out
