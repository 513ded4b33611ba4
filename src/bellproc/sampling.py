"""Random variate generation.

Two mutually independent exact samplers for the counting law: inversion
of the certified table (the oracle route) and the compound construction
of a Poisson number of bursts with iid positive jump sizes (the route
that extends to path simulation).  Their agreement is part of the
verification battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import JumpLaw, PmfTable
from .errors import ParameterError


def _non_negative_int(value, name: str) -> int:
    """A seed, stream index or count as an int; ParameterError for a
    negative value, a bool or a non-integer (numpy integers are fine)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
    if value < 0:
        raise ParameterError(f"{name} must be non-negative, got {value}")
    return int(value)


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
    """Exact Poisson variates with the given mean (mean 0 gives 0)."""
    if mean < 0.0:
        raise ParameterError(f"Poisson mean must be >= 0, got {mean}")
    if size is not None:
        size = _non_negative_int(size, "size")
    out = rng.generator.poisson(mean, size)
    return np.asarray(out, dtype=np.int64) if size is not None else int(out)


def sample_jump(jump_law: JumpLaw, rng: RngStream, size: int | None = None):
    """Jump sizes >= 1, by table inversion over the finite support."""
    if size is not None:
        size = _non_negative_int(size, "size")
    u = rng.random(size)
    idx = np.searchsorted(jump_law.cumulative, u, side="right")
    # u landing past the last cumulative entry is fp dust; fold it back.
    idx = np.minimum(idx, jump_law.support_bound - 1)
    out = idx + 1
    return np.asarray(out, dtype=np.int64) if size is not None else int(out)


def sample_inverse_cdf(table: PmfTable, rng: RngStream, size: int | None = None):
    """Inverse-transform draws from a certified table.

    A uniform falling in the uncovered tail sliver (probability at most
    the table's tail mass, <= 1e-12 by default) is redrawn.
    """
    if size is None:
        return int(sample_inverse_cdf(table, rng, 1)[0])
    size = _non_negative_int(size, "size")
    cum = table.cumulative
    top = table.support_max
    out = np.searchsorted(cum, rng.random(size), side="right")
    bad = out > top
    while bad.any():
        out[bad] = np.searchsorted(cum, rng.random(int(bad.sum())), side="right")
        bad = out > top
    return np.asarray(out, dtype=np.int64)


def sample_compound(jump_law: JumpLaw, rng: RngStream, size: int | None = None):
    """Sum of a Poisson number of iid jumps; same law as the table route."""
    if size is None:
        return int(sample_compound(jump_law, rng, 1)[0])
    size = _non_negative_int(size, "size")
    counts = sample_poisson(jump_law.burst_rate, rng, size)
    jumps = sample_jump(jump_law, rng, int(counts.sum()))
    owners = np.repeat(np.arange(size), counts)
    sums = np.bincount(owners, weights=jumps, minlength=size)
    return sums.astype(np.int64)
