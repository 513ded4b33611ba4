"""The two-parameter degenerate Bell counting distribution.

Parameter validation, exact PMF/CDF/quantile backed by a truncated
table with a certified tail, generating functions, closed-form moments,
closure under convolution, and the compound (burst/jump) decomposition
that powers the samplers and the path simulator.

Validity regimes
----------------
Write e_lam(x) = (1 + lam*x)**(1/lam) = sum_j c_j x**j, with c_0 = 1 and
c_j = c_{j-1} * (1 - (j-1)*lam) / j.  When ``lam`` is 1 or 1/m for a
positive integer m, every c_j is nonnegative and vanishes past j = m, so
the law is provably nonnegative (``Validity.STRICT``).  For any other
``lam`` in (0, 1] the c_j alternate in sign past j = 1/lam + 1, and so
do the masses far out; such parameters (``Validity.ASYMPTOTIC``) are
accepted only if their certified table has no mass below -1e-12 (lam =
0.6 with small rate is rejected, for example).

Both regimes take one route.  With b_j = alpha * c_j * theta**j, the
pgf exp(alpha*(e_lam(theta*t) - e_lam(theta))) gives the Panjer
recurrence k * p_k = sum_{j=1..min(k, m)} j * b_j * p_{k-j}, started
from p_0 = exp(-R) on a moving log scale.  The table stops at the cutoff
K certified by Cauchy's estimate: for 1 < r < 1/(lam*theta) (any r > 1
when lam = 1/m) the pgf is analytic on |t| <= r, where its modulus is at
most M(r) = exp(alpha*(e_lam(theta*r) - e_lam(theta))), so
sum_{k>K} |p_k| <= M(r) * r**-(K+1) / (1 - 1/r), signed masses included.
A non-reciprocal ``lam`` with lam*theta >= 1 leaves no such r and is
refused.

Tables (``build_pmf_table``) and jump laws (``decompose``) are built once
per law, memoized for the 128 most recent, and shared read-only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    IncompatibleParametersError,
    ParameterError,
    RangeError,
    TailSliverError,
)
from .special import RECIPROCAL_INT_TOL, _frozen, _non_negative_int, _read_only

DEFAULT_TAIL_TOL = 1e-12

# Entries this small in magnitude are floating-point dust, clamped to 0;
# anything more negative means the parameters do not define a law.
NEGATIVE_MASS_TOL = 1e-12

# A recurrence to K costs a dot product over min(K, m) weights per mass,
# plus a fixed interpreter cost per mass worth about _STEP_COST of its
# multiply-adds.  Work past RECURRENCE_BUDGET multiply-adds (about a
# second) is refused before anything is allocated.
RECURRENCE_BUDGET = 4_000_000_000
_STEP_COST = 10_000

# The recurrence keeps its working values within [1/_SCALE_LIMIT,
# _SCALE_LIMIT] by moving the log scale.
_SCALE_LIMIT = 1e150

# exp overflows past this.
_LOG_MAX = math.log(sys.float_info.max)


class Validity(Enum):
    STRICT = "strict"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class DegenParams:
    """Validated parameter triple (alpha, theta, lam) plus its regime."""

    alpha: float
    theta: float
    lam: float
    validity: Validity

    @property
    def reciprocal_order(self) -> int | None:
        """m with lam = 1/m under strict validity, else None."""
        if self.validity is Validity.STRICT:
            return round(1.0 / self.lam)
        return None


def _is_reciprocal_integer(lam: float) -> bool:
    if lam == 1.0:
        return True
    inv = 1.0 / lam
    return math.isfinite(inv) and abs(inv - round(inv)) < RECIPROCAL_INT_TOL


def _log_e(lam: float, x: float) -> float:
    """log e_lam(x) = log1p(lam*x) / lam; x itself where lam*x underflows."""
    y = lam * x
    return math.log1p(y) / lam if abs(y) > 1e-300 else x


def burst_rate(alpha: float, theta: float, lam: float) -> float:
    """Rate alpha * (e_lam(theta) - 1) of the underlying burst process;
    inf where it overflows."""
    try:
        return alpha * math.expm1(_log_e(lam, theta))
    except OverflowError:
        return math.inf


def validate(alpha: float, theta: float, lam: float) -> DegenParams:
    """Classify and return validated parameters, or raise ParameterError.

    Strict: lam is 1 or a reciprocal integer (law provably nonnegative).
    Asymptotic: other lam in (0, 1], with lam*theta < 1 so that the pgf's
    radius of convergence exceeds 1; accepted only if the certified table
    has no mass below -1e-12, and its clamped negative masses plus its
    certified tail stay within the default tail tolerance.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if not (theta > 0.0 and math.isfinite(theta)):
        raise ParameterError(f"theta must be positive and finite, got {theta}")
    if not (0.0 < lam <= 1.0):
        raise ParameterError(f"lam must lie in (0, 1], got {lam}")
    # Plain floats, so a memoized table's params do not depend on who built it first.
    alpha, theta, lam = float(alpha), float(theta), float(lam)
    if _is_reciprocal_integer(lam):
        return DegenParams(alpha, theta, lam, Validity.STRICT)
    if lam * theta >= 1.0:
        raise ParameterError(
            f"lam*theta = {lam * theta} >= 1 for non-reciprocal lam={lam}: the "
            f"generating function's radius of convergence 1/(lam*theta) = "
            f"{1.0 / (lam * theta)} is not above 1, so no tail can be certified"
        )
    params = DegenParams(alpha, theta, lam, Validity.ASYMPTOTIC)
    # Builds the table, which itself rejects negative mass.
    _pmf_table(params, DEFAULT_TAIL_TOL)
    return params


# ----------------------------------------------------------------------
# The one route to the masses: series coefficients, the Cauchy cutoff
# and the Panjer recurrence.


def _check_budget(steps: float, width: float) -> None:
    """Refuse a recurrence of `steps` masses over `width` weights past the budget."""
    if not steps * (width + _STEP_COST) <= RECURRENCE_BUDGET:  # also refuses nan
        raise ConvergenceError(
            f"a recurrence to K = {steps:.6g} over {width:.6g} weights exceeds "
            f"the budget of {RECURRENCE_BUDGET:.3g} multiply-adds"
        )


def _exp_series(params: DegenParams, n: int) -> np.ndarray:
    """c_j * theta**j for j = 0..min(n, m): the series of e_lam(theta*t).

    Under strict validity every later coefficient is exactly 0, so the
    array stops at j = m.
    """
    m = params.reciprocal_order
    top = n if m is None else min(n, m)
    _check_budget(top, 0)
    j = np.arange(1, top + 1)
    factors = params.theta * (1.0 - (j - 1) * params.lam) / j
    return np.concatenate(([1.0], np.cumprod(factors)))


def _cutoff(params: DegenParams, target: float) -> int:
    """Least K whose Cauchy estimate bounds sum_{k>K} |p_k| by target.

    With r = exp(s), K + 1 >= (log M(r) - log(1 - exp(-s)) - log target)/s
    suffices, M(r) = exp(alpha*(e_lam(theta*r) - e_lam(theta))).  Refuses
    a K past the budget.
    """
    alpha, theta, lam = params.alpha, params.theta, params.lam
    m = params.reciprocal_order
    log_e_theta = _log_e(lam, theta)
    log_prefix = math.log(alpha) + log_e_theta
    log_target = math.log(target)

    def needed(s: float) -> float:
        d = _log_e(lam, theta * math.exp(s)) - log_e_theta
        if not d > 0.0:  # s below rounding: no usable estimate
            return math.inf
        # log(alpha*(e_lam(theta*e**s) - e_lam(theta))), free of overflow
        log_cumulant = log_prefix + d + math.log(-math.expm1(-d))
        if log_cumulant > 700.0:
            return math.inf
        return (math.exp(log_cumulant) - math.log(-math.expm1(-s)) - log_target) / s

    # Any radius gives a valid bound; a geometric grid in s = log r,
    # below s = 40 and the radius of convergence, finds a near-least one.
    hi = -math.log(lam * theta) if m is None and lam * theta > math.exp(-40.0) else 40.0
    need = min(needed(hi * 2.0 ** (-i / 4)) for i in range(1, 161))
    _check_budget(need, need if m is None else min(need, m))
    return max(math.ceil(need) - 1, 0)


def _masses(params: DegenParams, n: int) -> tuple[np.ndarray, list[int]]:
    """Log magnitudes log|p_k| for k = 0..n, and the k with p_k < 0.

    Runs the Panjer recurrence on q_k = p_k * exp(-shift), moving the
    shift whenever q_k leaves [1/_SCALE_LIMIT, _SCALE_LIMIT].  Each log
    mass is taken as its q_k is made, so it stays exact where the mass
    itself underflows.  Stops with ParameterError at the first mass below
    -NEGATIVE_MASS_TOL.
    """
    m = params.reciprocal_order
    width = n if m is None else min(n, m)
    _check_budget(n, width)
    # weights[width - j] = j * b_j, so each step is one contiguous dot.
    series = _exp_series(params, width)
    weights = (params.alpha * np.arange(1, width + 1) * series[1:])[::-1].copy()
    q = np.empty(n + 1)
    logs = np.empty(n + 1)
    # With every weight present, R is their sum: the closed form differs
    # in the last bits, which at R ~ 3000 moves the total mass by 1e-12.
    if width == m:
        shift = -params.alpha * math.fsum(series[1:])
    else:
        shift = -burst_rate(params.alpha, params.theta, params.lam)
    q[0], logs[0] = 1.0, shift
    log_tol = math.log(NEGATIVE_MASS_TOL)
    negative = []
    for k in range(1, n + 1):
        lo = max(k - width, 0)
        acc = float(np.dot(weights[width - (k - lo) :], q[lo:k])) / k
        q[k] = acc
        size = abs(acc)
        if size > _SCALE_LIMIT or 0.0 < size < 1.0 / _SCALE_LIMIT:
            window = q[max(k - width + 1, 0) : k + 1]
            scale = max(size, float(np.abs(window).max()) / _SCALE_LIMIT)
            window /= scale
            # Values this far below the window's largest are negligible;
            # left as subnormals they would only slow every later dot.
            window[np.abs(window) < 1e-300] = 0.0
            shift += math.log(scale)
            size = abs(q[k])
        logs[k] = math.log(size) + shift if size > 0.0 else -math.inf
        if acc < 0.0:
            if logs[k] > log_tol:
                raise ParameterError(
                    f"parameters (alpha={params.alpha}, theta={params.theta}, "
                    f"lam={params.lam}) give negative mass {-math.exp(logs[k]):.3e} "
                    f"at k={k}: not a probability law"
                )
            negative.append(k)
    return logs, negative


# ----------------------------------------------------------------------
# PMF and friends.


def log_pmf(k: int, params: DegenParams) -> float:
    """Log of the mass at k.

    Finite wherever the mass is positive; -inf where a signed mass of
    the asymptotic regime is clamped to 0.  Read from the cached table,
    or from the recurrence run to k where the table's entry underflows
    or k lies past its end.
    """
    k = _non_negative_int(k, "k")
    probs = _pmf_table(params, DEFAULT_TAIL_TOL).probs
    if k < len(probs) and probs[k] >= sys.float_info.min:
        return math.log(probs[k])
    logs, negative = _masses(params, k)
    return -math.inf if k in negative else float(logs[k])


def pmf(k: int, params: DegenParams) -> float:
    """Mass at k: exp(-rate) * theta**k / k! * poly_k(alpha)."""
    return math.exp(log_pmf(k, params))


@dataclass(frozen=True)
class PmfTable:
    """Truncated PMF with a certified tail.

    probs[k] is the mass at k for k = 0..K; tail_mass is the residual
    beyond K, certified at construction to be at most the requested
    tolerance.  Immutable: probs and cumulative are read-only (probs is
    copied unless its memory is read-only already).
    """

    params: DegenParams
    probs: np.ndarray
    tail_mass: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _frozen(self.probs))

    @cached_property
    def cumulative(self) -> np.ndarray:
        return _read_only(np.cumsum(self.probs))

    @property
    def support_max(self) -> int:
        return len(self.probs) - 1

    def cdf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return float(self.cumulative[min(k, self.support_max)])

    def quantile(self, u: float) -> int:
        """Least k with cdf(k) > u (right-continuous inverse)."""
        if not 0.0 <= u < 1.0:
            raise ParameterError(f"u must lie in [0, 1), got {u}")
        idx = int(np.searchsorted(self.cumulative, u, side="right"))
        if idx > self.support_max:
            raise TailSliverError(
                f"u={u} beyond covered mass {self.cumulative[-1]!r} "
                f"(tail sliver of at most {self.tail_mass!r})"
            )
        return idx

    def mean(self) -> float:
        k = np.arange(len(self.probs))
        return float(np.dot(k, self.probs))

    def variance(self) -> float:
        k = np.arange(len(self.probs))
        mu = self.mean()
        return float(np.dot((k - mu) ** 2, self.probs))


def build_pmf_table(params: DegenParams, tail_tol: float = DEFAULT_TAIL_TOL) -> PmfTable:
    """Tabulate the law with tail mass certified at most tail_tol.

    The cutoff is the least K whose Cauchy estimate bounds the absolute
    tail by tail_tol/2.  Masses in (-NEGATIVE_MASS_TOL, 0) are clamped
    to 0; their total counts against tail_tol with the certified tail,
    and ParameterError is raised when the two exceed it.

    Tables are memoized per (params, tail_tol), the 128 most recent, and
    shared read-only: validate, log_pmf, cdf and quantile read the same
    table that is returned here.
    """
    return _pmf_table(params, tail_tol)


def _check_tail_tol(tail_tol: float) -> None:
    if not 0.0 < tail_tol < 1.0:
        raise ParameterError(f"tail_tol must lie in (0, 1), got {tail_tol}")


# The one table builder and cache; every caller passes both arguments positionally.
@lru_cache(maxsize=128)
def _pmf_table(params: DegenParams, tail_tol: float) -> PmfTable:
    _check_tail_tol(tail_tol)
    certified = tail_tol / 2.0
    logs, negative = _masses(params, _cutoff(params, certified))
    probs = np.exp(logs)
    clamped = math.fsum(probs[negative])
    if clamped + certified > tail_tol:
        raise ParameterError(
            f"clamped negative mass {clamped:.3e} plus the certified tail "
            f"{certified:.3e} exceeds tail_tol {tail_tol:.3e} for {params}"
        )
    probs[negative] = 0.0
    residual = 1.0 - math.fsum(probs)
    if abs(residual) > tail_tol:
        raise ConvergenceError(
            f"residual mass {residual:.3e} exceeds certified tolerance {tail_tol:.3e}"
        )
    return PmfTable(params=params, probs=_read_only(probs), tail_mass=max(residual, 0.0))


def cdf(k: int, params: DegenParams, tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Partial sum of the masses through k."""
    k = _non_negative_int(k, "k")
    return _pmf_table(params, tail_tol).cdf(k)


def quantile(u: float, params: DegenParams, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Least k with cdf(k) > u, for u in [0, 1)."""
    return _pmf_table(params, tail_tol).quantile(u)


# ----------------------------------------------------------------------
# Generating functions and moments (closed forms).


def _log_pgf(t: float, params: DegenParams) -> float:
    """log pgf(t) = alpha*(e_lam(theta*t) - e_lam(theta)), formed from the
    logs of its two terms so that neither overflows on its own; -inf or
    inf only where the difference itself is past the double range."""
    alpha, theta, lam = params.alpha, params.theta, params.lam
    if not 1.0 + lam * theta * t > 0.0:
        raise ParameterError(
            f"pgf outside the principal branch: 1 + lam*theta*t = {1.0 + lam * theta * t} <= 0"
        )
    at_t, at_one = _log_e(lam, theta * t), _log_e(lam, theta)
    if at_t == at_one:
        return 0.0
    top, gap = max(at_t, at_one), abs(at_t - at_one)
    log_size = math.log(alpha) + top + math.log(-math.expm1(-gap))
    size = math.exp(log_size) if log_size < _LOG_MAX else math.inf
    return size if at_t > at_one else -size


def _exp_finite(log_value: float, what: str) -> float:
    """exp(log_value) for a quantity whose true value is finite: 0.0 where
    it underflows, RangeError where it is past the largest double."""
    if not log_value < _LOG_MAX:
        raise RangeError(f"{what} = exp({log_value:.6g}) is past the largest double")
    return math.exp(log_value)


def pgf(t: float, params: DegenParams) -> float:
    """Probability generating function exp(alpha*(e_lam(theta*t) - e_lam(theta))).

    0.0 where it underflows; RangeError where it is past the largest double.
    """
    return _exp_finite(_log_pgf(t, params), f"pgf({t})")


def mgf(t: float, params: DegenParams) -> float:
    """Moment generating function; identically pgf evaluated at exp(t).

    Raises RangeError (a ParameterError and an OverflowError) where the
    value, or exp(t) itself, is past the largest double.
    """
    return pgf(_exp_finite(t, "exp(t)"), params)


def _log_mean(params: DegenParams) -> float:
    alpha, theta, lam = params.alpha, params.theta, params.lam
    return math.log(theta) + math.log(alpha) + (1.0 - lam) * _log_e(lam, theta)


def mean(params: DegenParams) -> float:
    """Closed-form expectation theta * alpha * e_lam^(1-lam)(theta).

    Taken from its log: 0.0 where it underflows, RangeError where it is
    past the largest double.
    """
    return _exp_finite(_log_mean(params), "mean")


def _excess_dispersion(params: DegenParams) -> float:
    """variance/mean - 1 = theta*(1-lam)/(1 + lam*theta), free of the mean."""
    theta, lam = params.theta, params.lam
    return theta * (1.0 - lam) / (1.0 + lam * theta)


def variance(params: DegenParams) -> float:
    """Closed-form variance mean * (1 + theta*(1-lam)/(1 + lam*theta));
    exceeds the mean whenever lam < 1.  Bounds as for mean."""
    return _exp_finite(_log_mean(params) + math.log1p(_excess_dispersion(params)), "variance")


def _same_family(p1: DegenParams, p2: DegenParams) -> bool:
    """theta and lam agree to 1e-12 relative: only then is a sum in the family."""
    return math.isclose(p1.theta, p2.theta, rel_tol=1e-12) and math.isclose(
        p1.lam, p2.lam, rel_tol=1e-12
    )


def convolve(p1: DegenParams, p2: DegenParams) -> DegenParams:
    """Law of the sum of independent variables: rates add.

    Only within the family: theta and lam must agree, otherwise the sum
    is not of this type and IncompatibleParametersError is raised.
    """
    if not _same_family(p1, p2):
        raise IncompatibleParametersError(
            "sum of laws with different theta or lam is not a degenerate Bell law "
            f"(theta {p1.theta} vs {p2.theta}, lam {p1.lam} vs {p2.lam})"
        )
    return validate(p1.alpha + p2.alpha, p1.theta, p1.lam)


# ----------------------------------------------------------------------
# Compound (burst/jump) decomposition.


@dataclass(frozen=True)
class JumpLaw:
    """Zero-truncated jump-size law of the compound decomposition.

    jump_probs[i] is P(J = i+1); under strict validity with lam = 1/m
    the support is exactly {1, ..., m}.  burst_rate is the intensity of
    the Poisson process of jump epochs.  Immutable, as :class:`PmfTable`
    is: jump_probs and cumulative are read-only.
    """

    burst_rate: float
    jump_probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "jump_probs", _frozen(self.jump_probs))

    @property
    def support_bound(self) -> int:
        return len(self.jump_probs)

    @cached_property
    def cumulative(self) -> np.ndarray:
        return _read_only(np.cumsum(self.jump_probs))

    def prob(self, k: int) -> float:
        if 1 <= k <= self.support_bound:
            return float(self.jump_probs[k - 1])
        return 0.0

    def pgf(self, t: float) -> float:
        """Generating function of the jump size: (e_lam(theta*t)-1)/(e_lam(theta)-1)
        evaluated through the stored weights."""
        k = np.arange(1, self.support_bound + 1)
        return float(np.dot(self.jump_probs, np.power(float(t), k)))

    def mean(self) -> float:
        k = np.arange(1, self.support_bound + 1)
        return float(np.dot(k, self.jump_probs))


@lru_cache(maxsize=128)
def decompose(params: DegenParams) -> JumpLaw:
    """Split the law into Poisson bursts of iid positive jumps.

    Writing the PGF as exp(R*(H(t) - 1)) with R the burst rate forces H
    to be the normalized zero-truncated series of the degenerate
    exponential, i.e. jump weights proportional to c_k * theta**k, the
    coefficients the mass recurrence runs on.  Requires strict validity:
    for other lam some weight is negative and no such decomposition
    exists.  Memoized per law (the 128 most recent) and shared read-only.
    """
    if params.validity is not Validity.STRICT:
        raise ParameterError(
            "compound decomposition requires strict validity (lam = 1 or 1/m); "
            f"got lam={params.lam}"
        )
    rate = burst_rate(params.alpha, params.theta, params.lam)
    if not math.isfinite(rate):
        raise ParameterError(f"burst rate of {params} overflows")
    weights = _exp_series(params, params.reciprocal_order)[1:]
    probs = _read_only(weights / math.fsum(weights))
    return JumpLaw(burst_rate=rate, jump_probs=probs)
