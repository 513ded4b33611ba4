"""Degenerate special functions.

The kernel everything else is built on: generalized falling factorials,
degenerate exponentials, degenerate Stirling numbers of the second kind,
and degenerate Bell polynomials, together with their classical (order
zero) counterparts used as limit references.

Conventions
-----------
``lam`` is the degeneracy order.  The falling-factorial kernel is total
(any real ``lam``, including 0, where it reduces to plain powers, and 1,
where it reduces to the ordinary falling factorial), and takes an array
of x as well as one x.  The degenerate exponential requires ``lam != 0``
and ``1 + lam*t > 0``.  Every order and index (n, k, ``max_n``) is a
non-negative integer, checked by one rule, :func:`_non_negative_int`,
which the samplers and the path simulator use too; bools are refused.
Triangles are filled a row at a time, and a triangle's size is the size
of its entries.  Every array the library holds is frozen by one rule,
:func:`_frozen`, kept here in the bottom layer for the layers above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ParameterError, RangeError

# Linear-domain triangles lose headroom to overflow / digit loss well
# before this; values past n ~ 100 with large x should not be trusted
# blindly.  The masses of the law never come from a triangle: they come
# from the recurrence in bellproc.distribution, at any n.
MAX_TABLE_N = 200
MAX_LOG_TABLE_N = 2000

_DOBINSKI_MAX_TERMS = 10_000

# Tolerance for recognizing lam = 1/m (reciprocal integer), the regime
# in which every triangle entry is provably nonnegative.
RECIPROCAL_INT_TOL = 1e-9


def _non_negative_int(value, name: str) -> int:
    """An order, index, seed or count as an int; ParameterError for a
    negative value, a bool or a non-integer (numpy integers are fine)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
    if value < 0:
        raise ParameterError(f"{name} must be non-negative, got {value}")
    return int(value)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _frozen(values) -> np.ndarray:
    """``values`` read-only: kept if it and the array that owns its memory
    are read-only already, else copied once."""
    if isinstance(values, np.ndarray) and not values.flags.writeable:
        owner = values if values.base is None else values.base
        if isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable:
            return values
    return _read_only(np.array(values))


def _square(entries) -> np.ndarray:
    """A triangle's entries, frozen; ParameterError unless they form a
    square 2-D array."""
    entries = _frozen(entries)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ParameterError(f"triangle entries must form a square array, got {entries.shape}")
    return entries


def falling_factorial(x, n: int, lam: float):
    """Generalized falling factorial x(x-lam)(x-2*lam)...(x-(n-1)*lam).

    Total function: returns 1.0 for n = 0; lam may be any real.  lam = 0
    gives x**n and lam = 1 the ordinary falling factorial.  An array x
    gives an array of its shape, each element as a scalar call gives it.
    """
    n = _non_negative_int(n, "order n")
    out = np.ones(np.shape(x)) if isinstance(x, np.ndarray) else 1.0
    for j in range(n):
        out *= x - j * lam
    return out


def degenerate_exp(x: float, lam: float, t: float) -> float:
    """Degenerate exponential (1 + lam*t)**(x/lam).

    Defined on the principal real branch, so 1 + lam*t must be positive;
    lam must be nonzero.  Reduces to exp(x*t) as lam -> 0.
    """
    if math.isnan(x) or math.isnan(lam) or math.isnan(t):
        raise ParameterError(f"degenerate_exp of nan: x={x}, lam={lam}, t={t}")
    if lam == 0.0:
        raise ParameterError("degenerate_exp requires lam != 0 (use exp for the limit)")
    base = 1.0 + lam * t
    if base <= 0.0:
        raise ParameterError(
            f"degenerate_exp outside principal branch: 1 + lam*t = {base} <= 0"
        )
    try:
        return base ** (x / lam)
    except OverflowError:
        raise RangeError(
            f"degenerate_exp({x}, {lam}, {t}) is past the largest double"
        ) from None


@dataclass(frozen=True)
class StirlingTable:
    """Lower-triangular cache of degenerate Stirling numbers (2nd kind).

    ``entries[n, k]`` expands the generalized falling factorial of order
    n over the ordinary falling-factorial basis.  Immutable; safe to
    share between threads: entries are read-only (copied unless their
    memory is read-only already).
    """

    lam: float
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _square(self.entries))

    @property
    def max_n(self) -> int:
        return len(self.entries) - 1

    def value(self, n: int, k: int) -> float:
        if _non_negative_int(n, "n") > self.max_n:
            raise ParameterError(f"n={n} outside table range 0..{self.max_n}")
        if _non_negative_int(k, "k") > n:
            return 0.0
        return float(self.entries[n, k])


@dataclass(frozen=True)
class LogStirlingTable:
    """Log-domain triangle for reciprocal-integer lam.

    Only for lam = 1 or lam = 1/m: there every entry is nonnegative
    (the generating function ((1 + t/m)**m - 1)**k / k! has nonnegative
    coefficients), so the recurrence never subtracts and the whole
    triangle is representable as logs, with -inf marking exact zeros,
    at indices far past linear-domain overflow.  Immutable, as
    :class:`StirlingTable` is.
    """

    lam: float
    log_entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_entries", _square(self.log_entries))

    @property
    def max_n(self) -> int:
        return len(self.log_entries) - 1

    def log_value(self, n: int, k: int) -> float:
        if _non_negative_int(n, "n") > self.max_n:
            raise ParameterError(f"n={n} outside table range 0..{self.max_n}")
        if _non_negative_int(k, "k") > n:
            return -math.inf
        return float(self.log_entries[n, k])


def _check_cap(max_n: int, cap: int) -> None:
    if _non_negative_int(max_n, "max_n") > cap:
        raise ConvergenceError(f"max_n={max_n} exceeds table cap {cap}")


def build_stirling_table(lam: float, max_n: int) -> StirlingTable:
    """Build the triangle of degenerate Stirling numbers up to max_n.

    Uses the triangular recurrence

        S(n+1, k) = S(n, k-1) + (k - n*lam) * S(n, k)

    obtained by multiplying the defining expansion by (x - n*lam) and
    rewriting x * (x)_k = (x)_{k+1} + k * (x)_k.  The recurrence is
    checked against the definitional identity (evaluation at integer
    points) by the test suite.  RangeError names the first row with an
    entry past the largest double.
    """
    _check_cap(max_n, MAX_TABLE_N)
    entries = np.zeros((max_n + 1, max_n + 1))
    entries[0, 0] = 1.0
    try:
        with np.errstate(over="raise"):
            for n in range(max_n):
                factor = np.arange(1, n + 2) - n * lam
                entries[n + 1, 1 : n + 2] = entries[n, 0 : n + 1] + factor * entries[n, 1 : n + 2]
    except FloatingPointError:
        raise RangeError(
            f"row {n + 1} of the lam={lam} triangle is past the largest double; "
            f"max_n={max_n} must be at most {n}"
        ) from None
    entries.setflags(write=False)
    return StirlingTable(lam=lam, entries=entries)


def build_log_stirling_table(lam: float, max_n: int) -> LogStirlingTable:
    """Log-domain triangle; requires lam = 1/m for a positive integer m.

    Entries vanish exactly for n > m*k; the factor (k - n*lam) is
    nonnegative everywhere S(n, k) is nonzero, so each row is a pure
    log-add of the previous one.  The sign guard below also absorbs the
    case where floating-point lam makes the boundary factor a tiny
    negative instead of zero.
    """
    _check_cap(max_n, MAX_LOG_TABLE_N)
    m = round(1.0 / lam)
    if m < 1 or abs(1.0 / lam - m) >= RECIPROCAL_INT_TOL:
        raise ParameterError(
            f"log-domain triangle requires lam = 1/m for integer m, got lam={lam}"
        )
    log_entries = np.full((max_n + 1, max_n + 1), -np.inf)
    log_entries[0, 0] = 0.0
    for n in range(max_n):
        k = np.arange(1, n + 2)
        factor = k - n * lam
        prev_shift = log_entries[n, 0 : n + 1]
        prev_same = log_entries[n, 1 : n + 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            grown = np.where(
                factor > 0.0, np.log(np.where(factor > 0.0, factor, 1.0)) + prev_same, -np.inf
            )
            log_entries[n + 1, 1 : n + 2] = np.logaddexp(prev_shift, grown)
    log_entries.setflags(write=False)
    return LogStirlingTable(lam=lam, log_entries=log_entries)


def bell_poly(n: int, x: float, table: StirlingTable) -> float:
    """Degenerate Bell polynomial: sum_k S(n, k) * x**k from the table.

    Compensated summation (math.fsum); the coefficients alternate in
    sign for some lam, so naive accumulation can lose digits.
    """
    if _non_negative_int(n, "n") > table.max_n:
        raise ParameterError(f"n={n} outside table range 0..{table.max_n}")
    if not math.isfinite(x):
        raise ParameterError(f"x must be finite, got {x}")
    if n == 0:
        return 1.0
    row = table.entries[n]
    return math.fsum(row[k] * x**k for k in range(n + 1))


def bell_number(n: int, table: StirlingTable) -> float:
    """Degenerate Bell number: the Bell polynomial at x = 1."""
    return bell_poly(n, 1.0, table)


def bell_poly_dobinski(n: int, x: float, lam: float, tol: float = 1e-12) -> float:
    """Degenerate Bell polynomial by its exponentially weighted series.

    Sums exp(-x) * sum_k ff(k, n, lam) * x**k / k! until the remaining
    tail is certifiably below ``tol``.  Past k >= n every series term is
    positive and the term ratio

        r_k = [ff(k+1, n, lam) / ff(k, n, lam)] * x / (k + 1)

    is decreasing in k, so once r_k <= 1/2 the tail after term k is at
    most term_k * r_k / (1 - r_k); we stop when that bound (times the
    exp(-x) prefactor) drops below tol (ConvergenceError past
    _DOBINSKI_MAX_TERMS terms).

    Independent of the table route in bell_poly: the two are
    cross-checked by the test suite.
    """
    n = _non_negative_int(n, "n")
    if not 0.0 < x < math.inf:
        raise ParameterError(f"series route requires finite x > 0, got {x}")
    if not tol > 0.0:  # also refuses nan
        raise ParameterError(f"tol must be > 0, got {tol}")
    prefactor = math.exp(-x)
    terms: list[float] = []
    term_prev = None
    log_xk_over_kfact = 0.0  # log(x**k / k!) accumulated incrementally
    for k in range(_DOBINSKI_MAX_TERMS):
        if k % 64 == 0:  # the falling factorials of the next 64 values of k
            ffs = falling_factorial(np.arange(k, k + 64.0), n, lam).tolist()
        if k > 0:
            log_xk_over_kfact += math.log(x) - math.log(k)
        term = ffs[k % 64] * math.exp(log_xk_over_kfact)
        terms.append(term)
        if k > n and term_prev is not None and term_prev > 0.0:
            ratio = term / term_prev
            if 0.0 <= ratio <= 0.5:
                tail_bound = term * ratio / (1.0 - ratio)
                if prefactor * tail_bound <= tol:
                    return prefactor * math.fsum(terms)
        term_prev = term
    raise ConvergenceError(
        f"series for n={n}, x={x}, lam={lam} did not certify tol={tol} "
        f"within {_DOBINSKI_MAX_TERMS} terms"
    )


@lru_cache(maxsize=None)
def _stirling2_classical_cached(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2_classical_cached(n - 1, k) + _stirling2_classical_cached(n - 1, k - 1)


def stirling2_classical(n: int, k: int) -> float:
    """Classical Stirling number of the second kind (limit reference).

    Standard recurrence S(n, k) = k*S(n-1, k) + S(n-1, k-1); exact
    integer arithmetic internally.  Intended for small n (<= 25).
    """
    n, k = _non_negative_int(n, "n"), _non_negative_int(k, "k")
    if n > 25:
        raise ParameterError(f"classical reference capped at n <= 25, got n={n}")
    return float(_stirling2_classical_cached(n, k))


def bell_poly_classical(n: int, x: float) -> float:
    """Classical Bell (Touchard) polynomial: sum_k S2(n, k) * x**k."""
    n = _non_negative_int(n, "n")
    if n > 25:
        raise ParameterError(f"classical reference capped at n <= 25, got n={n}")
    return math.fsum(_stirling2_classical_cached(n, k) * x**k for k in range(n + 1))
