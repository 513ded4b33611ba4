"""Self-contained verification battery.

Bundles every analytic identity and statistical property the library
promises into one reproducible run: special-function identities,
table coherence (normalization, generating functions, moments,
convolution), sampler cross-validation, and path-level goodness of
fit.  Used by ``bellproc verify`` and called by the acceptance tests.
The reference distributions of its tests (chi-square, Poisson,
Kolmogorov-Smirnov) are computed here from numpy and math alone, with
no BLAS call.  The Kolmogorov-Smirnov law is exact where n*d**1.5 is
small and elsewhere the Pelz-Good series, within 0.5/n**2 relative of
the exact law (3.1e-9 at the battery's n = 11,984); :func:`ks_sf` gives
the split.

A named reference value can be deliberately perturbed (multiplied by a
factor) to demonstrate that the harness actually fails when the
numbers are wrong.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from . import process as proc
from .distribution import DegenParams, build_pmf_table, validate
from .errors import IncompatibleParametersError, ParameterError
from .sampling import RngStream, sample_compound, sample_inverse_cdf
from .special import (
    bell_poly,
    bell_poly_classical,
    bell_poly_dobinski,
    build_stirling_table,
    falling_factorial,
)

DEFAULT_SEED = 12345

# Grid covering the Poisson collapse (lam = 1), small-batch laws and the
# near-classical regime, while keeping the full battery under a minute.
GRID_ALPHA = (0.5, 1.0, 2.0)
GRID_THETA = (0.5, 1.0)
GRID_LAM = (1.0, 0.5, 0.25, 0.1)

PERTURBABLE = ("mean", "variance", "pgf", "burst_rate")


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool


@dataclass
class VerifyReport:
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_le(name: str, statistic: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(statistic), float(threshold), "<=", statistic <= threshold)


def _check_ge(name: str, statistic: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(statistic), float(threshold), ">=", statistic >= threshold)


# ----------------------------------------------------------------------
# Reference distributions.

# Relative step below which the series and continued fraction stop, and
# the floor Lentz's method puts under vanishing denominators.
_EPS = 1e-16
_TINY = 1e-300


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(chi2_dof > x): the regularized incomplete gamma
    Q(dof/2, x/2).

    Below a + 1 the power series of P(a, y) (DLMF 8.11.4), above it the
    continued fraction of Q(a, y) (DLMF 8.9.2) by Lentz's method; each
    is the one that converges fast, without cancellation, on its side.
    """
    a, y = dof / 2.0, x / 2.0
    if not y > 0.0:
        return 1.0
    log_prefix = a * math.log(y) - y - math.lgamma(a)
    if y < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= y / n
            total += term
        return 1.0 - total * math.exp(log_prefix)
    b = y + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(log_prefix) * h


def contingency_pvalue(tab: np.ndarray) -> float:
    """Pearson's chi-square test of independence on a table of counts
    (no continuity correction), on (rows - 1)(columns - 1) dof."""
    tab = np.asarray(tab, dtype=float)
    expected = np.outer(tab.sum(axis=1), tab.sum(axis=0)) / tab.sum()
    chi2 = float(((tab - expected) ** 2 / expected).sum())
    return chi2_sf(chi2, (tab.shape[0] - 1) * (tab.shape[1] - 1))


def _normalized(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a scaled by a power of two to largest magnitude in [1/2, 1), with
    the power's exponent."""
    e = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -e), e


def _ks_cdf(d: float, n: int) -> float:
    """P(D_n < d) for the two-sided statistic of n uniforms, exactly:
    (n!/n**n) (H**n)[k, k] (Marsaglia, Tsang and Wang 2003).

    With n*d = k - h, 0 <= h < 1, H is the m = 2k - 1 square matrix of
    1/(i - j + 1)! corrected along its first column and last row.  The
    power runs by squaring, applied to row k alone, each factor carried
    as a scaled matrix and a binary exponent; the cost is
    O(m**3 log n).  The products are einsum loops, not BLAS calls, so
    the bits do not depend on the BLAS build, its CPU kernel or its
    thread count.
    """
    nd = n * d
    if nd <= 0.5:
        return 0.0
    k = math.ceil(nd)
    h = k - nd
    m = 2 * k - 1
    inv_fact = np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1, m + 1))))
    idx = np.arange(m)
    g = idx[:, None] - idx[None, :] + 1
    H = np.where(g >= 0, inv_fact[np.clip(g, 0, m)], 0.0)
    v = (1.0 - h ** np.arange(1, m + 1)) * inv_fact[1:]
    H[:, 0] = v
    H[-1, :] = v[::-1]
    H[-1, 0] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[m]
    H, h_exp = _normalized(H)
    row = np.zeros(m)
    row[k - 1] = 1.0
    row_exp = 0
    bits = n
    while True:
        if bits & 1:
            row, e = _normalized(np.einsum("i,ij->j", row, H))
            row_exp += h_exp + e
        bits >>= 1
        if not bits:
            break
        H, e = _normalized(np.einsum("ij,jk->ik", H, H))
        h_exp = 2 * h_exp + e
    if row[k - 1] == 0.0:
        return 0.0
    log_scale = math.fsum(np.log(np.arange(1, n + 1) / n))  # log(n!/n**n)
    return math.exp(math.log(row[k - 1]) + row_exp * math.log(2.0) + log_scale)


def _pelz_good_cdf(d: float, n: int) -> float:
    """P(D_n < d) by the Pelz-Good (1976) asymptotic series,
    K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n**1.5 with z = sqrt(n)*d,
    each K_i in its Jacobi theta form for small z; a port of scipy's
    ``stats._ksstats._kolmogn_PelzGood``.  The first omitted term is
    O(1/n**2)."""
    z = math.sqrt(n) * d
    z2 = z * z
    q_log = -math.pi**2 / (8.0 * z2)
    if q_log < -708.0:  # exp underflows: z below about 0.0417
        return 0.0
    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    z4, z6 = z2 * z2, z2 * z2 * z2
    # coefficients of the sums over odd j = 2k - 1 of c(j) q**(j**2)
    k1 = (-z2, pi2 / 4.0)
    k2 = (6.0 * z6 + 2.0 * z4, (2.0 * z4 - 5.0 * z2) * pi2 / 4.0, pi4 * (1.0 - 2.0 * z2) / 16.0)
    k3 = (
        -30.0 * z6 - 90.0 * z4 * z4,
        pi2 * (135.0 * z4 - 96.0 * z6) / 4.0,
        pi4 * (212.0 * z4 - 60.0 * z2) / 16.0,
        pi6 * (5.0 - 30.0 * z2) / 64.0,
    )
    q = math.exp(q_log)
    top = math.ceil(16.0 * z / math.pi)
    sums = [0.0, 0.0, 0.0, 0.0]
    for k in range(top, 0, -1):  # Horner in q**(8k) = q**((2k+1)**2 - (2k-1)**2)
        j2 = float((2 * k - 1) ** 2)
        step = q ** (8 * k)
        terms = (
            1.0,
            k1[0] + k1[1] * j2,
            k2[0] + (k2[1] + k2[2] * j2) * j2,
            k3[0] + (k3[1] + (k3[2] + k3[3] * j2) * j2) * j2,
        )
        sums = [s * step + t for s, t in zip(sums, terms)]
    root_2pi = math.sqrt(2.0 * math.pi)
    scales = (z, 6.0 * z4, 72.0 * z6 * z, 6480.0 * z4 * z6)
    K = [s * q * root_2pi / c for s, c in zip(sums, scales)]
    # K2 and K3 also hold sums over all k >= 1 of pi**2 k**2 q'**(k**2)
    q_all = math.exp(-pi2 / (2.0 * z2))
    k_sq = [float(k * k) for k in range(top, 0, -1)]
    weights = [kk * q_all**kk for kk in k_sq]
    K[2] += math.fsum(weights) * pi2 * root_2pi / (-36.0 * z2 * z)
    three_z2 = 3.0 * z2
    K[3] += math.fsum(
        (three_z2 - pi2 * kk) * w for kk, w in zip(k_sq, weights)
    ) * pi2 * root_2pi / (216.0 * z6)
    return K[0] + K[1] / math.sqrt(n) + K[2] / n + K[3] / (n * math.sqrt(n))


def _smirnov_sf(d: float, n: int) -> float:
    """P(D+_n >= d) for the one-sided statistic: the Birnbaum-Tingey sum
    d * sum_j C(n, j) (1 - d - j/n)**(n-j) (d + j/n)**(j-1), of positive
    terms, summed from their logs."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    u = d + j / n
    with np.errstate(divide="ignore"):
        logs = (
            log_fact[n] - log_fact[j] - log_fact[n - j]
            + (n - j) * np.log1p(-u) + (j - 1) * np.log(u) + math.log(d)
        )
    top = float(logs.max())
    return math.exp(top + math.log(float(np.exp(logs - top).sum())))


def ks_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided Kolmogorov-Smirnov statistic of n
    observations, split as Simard and L'Ecuyer (2011) and scipy's
    ``kstwo``:

    - below n*d**2 = 2.2, 1 - P(D_n < d) from the exact
      Marsaglia-Tsang-Wang law for n <= 140, and for 140 < n <= 100,000
      where n*d**1.5 <= 1.4 (there its matrix has at most about
      2.5 n**(1/3) rows, 57 at n = 11,984);
    - elsewhere below 2.2, from the Pelz-Good series, whose first
      omitted term is O(1/n**2).  Over its whole region it was within
      0.5/n**2 relative of the exact law at every n measured, 141 to
      20,000: 2.4e-5 at n = 141, 4.6e-7 at 1,000, 3.1e-9 at 11,984
      (the battery's size) and 1.2e-9 at 20,000;
    - from 2.2 on, 2 P(D+_n >= d), where the chance that both sides
      exceed d is at most about 2e-6 of the answer;
    - 0 from 370 on, where the answer is below 2 exp(-740), about
      1e-321.

    No route makes a BLAS call.
    """
    x = n * d * d
    if x >= 370.0 or d >= 1.0:
        return 0.0
    if x >= 2.2:
        return min(2.0 * _smirnov_sf(d, n), 1.0)
    if n <= 140 or (n <= 100_000 and n * d**1.5 <= 1.4):
        return 1.0 - _ks_cdf(d, n)
    return 1.0 - _pelz_good_cdf(d, n)


def ks_pvalue(cdf_values: np.ndarray) -> float:
    """Two-sided KS p-value of a sample given its hypothesized cdf values."""
    u = np.sort(cdf_values)
    n = len(u)
    d_plus = float((np.arange(1.0, n + 1) / n - u).max())
    d_minus = float((u - np.arange(0.0, n) / n).max())
    return ks_sf(max(d_plus, d_minus), n)


def poisson_pmf(k: np.ndarray, mu: float) -> np.ndarray:
    """Poisson masses P(K = k) of mean mu > 0, from logs."""
    log_fact = np.array([math.lgamma(j + 1.0) for j in k])
    return np.exp(k * math.log(mu) - mu - log_fact)


# ----------------------------------------------------------------------
# Chi-square helpers (right tail merged so expected counts stay sane).


def merge_tail_counts(
    observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0
) -> tuple[np.ndarray, np.ndarray]:
    """Merge right-tail bins until every expected count is at least
    min_expected (the final bin absorbs everything beyond)."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    n_bins = len(exp)
    while n_bins > 2 and exp[n_bins - 1 :].sum() < min_expected:
        n_bins -= 1
    obs_m = np.append(obs[: n_bins - 1], obs[n_bins - 1 :].sum())
    exp_m = np.append(exp[: n_bins - 1], exp[n_bins - 1 :].sum())
    keep = exp_m >= min_expected
    return obs_m[keep], exp_m[keep]


def chisq_pvalue_vs_table(samples: np.ndarray, table: dist.PmfTable) -> float:
    """One-sample goodness of fit of integer draws against a certified
    table (catch-all bin beyond the table support)."""
    n = len(samples)
    top = table.support_max
    obs = np.bincount(np.minimum(samples, top + 1), minlength=top + 2).astype(float)
    exp = np.append(table.probs * n, table.tail_mass * n)
    obs_m, exp_m = merge_tail_counts(obs, exp)
    exp_m *= obs_m.sum() / exp_m.sum()
    chi2 = float(((obs_m - exp_m) ** 2 / exp_m).sum())
    return chi2_sf(chi2, len(obs_m) - 1)


def chisq_pvalue_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample chi-square between integer draws (pooled right tail
    merged until each pooled bin holds at least 10 counts)."""
    top = int(max(a.max(), b.max())) + 1
    ca = np.bincount(a, minlength=top).astype(float)
    cb = np.bincount(b, minlength=top).astype(float)
    pooled = ca + cb
    n_bins = top
    while n_bins > 2 and pooled[n_bins - 1 :].sum() < 10:
        n_bins -= 1
    ca_m = np.append(ca[: n_bins - 1], ca[n_bins - 1 :].sum())
    cb_m = np.append(cb[: n_bins - 1], cb[n_bins - 1 :].sum())
    keep = (ca_m + cb_m) > 0
    tab = np.vstack([ca_m[keep], cb_m[keep]])
    if tab.shape[1] < 2:
        return 1.0
    return contingency_pvalue(tab)


# ----------------------------------------------------------------------
# Individual check groups.


def _kernel_checks() -> list[CheckResult]:
    # One triangle per order; a row's values do not depend on max_n.
    tables = {lam: build_stirling_table(lam, 20) for lam in GRID_LAM}
    out = []
    # Triangle vs the definitional identity at integer points.
    xs = np.arange(1.0, 22.0)
    ordinary = [falling_factorial(xs, k, 1.0).tolist() for k in range(21)]  # (x)_k at every x
    worst = 0.0
    for lam, table in tables.items():
        for n in range(21):
            lhs = falling_factorial(xs[: n + 1], n, lam).tolist()
            for i in range(n + 1):
                rhs = math.fsum(table.entries[n, k] * ordinary[k][i] for k in range(n + 1))
                worst = max(worst, abs(lhs[i] - rhs) / max(1.0, abs(lhs[i])))
    out.append(_check_le("kernel.triangle_identity", worst, 1e-9))

    # Series route vs table route.  Scale-relative: the values reach
    # ~1e20 at n = 20, x = 5, where doubles are spaced ~1e4 apart.
    worst = 0.0
    for lam, table in tables.items():
        for n in range(21):
            for x in (0.5, 1.0, 2.0, 5.0):
                ref = bell_poly(n, x, table)
                diff = abs(bell_poly_dobinski(n, x, lam, 1e-12) - ref)
                worst = max(worst, diff / max(1.0, abs(ref)))
    out.append(_check_le("kernel.dobinski_agreement", worst, 1e-8))

    # Binomial convolution identity of the polynomials.
    worst = 0.0
    points = (0.5, 1.0, 2.0)
    for table in tables.values():
        poly = {
            x: [bell_poly(n, x, table) for n in range(16)]
            for x in {x + y for x in points for y in points}.union(points)
        }
        for n in range(16):
            for x in points:
                for y in points:
                    lhs = poly[x + y][n]
                    rhs = math.fsum(
                        math.comb(n, k) * poly[x][k] * poly[y][n - k] for k in range(n + 1)
                    )
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    out.append(_check_le("kernel.binomial_identity", worst, 1e-9))

    # Order-one collapse to plain powers.
    worst = 0.0
    for n in range(21):
        for x in (0.5, 1.0, 2.0, 5.0):
            worst = max(worst, abs(bell_poly(n, x, tables[1.0]) - x**n) / max(1.0, x**n))
    out.append(_check_le("kernel.order_one_collapse", worst, 1e-12))
    return out


def _grid_params() -> list[DegenParams]:
    return [
        validate(a, th, lam) for a in GRID_ALPHA for th in GRID_THETA for lam in GRID_LAM
    ]


def _dist_checks(grid: list[DegenParams], perturb: dict[str, float]) -> list[CheckResult]:
    out = []
    tables = {p: build_pmf_table(p) for p in grid}

    worst = max(abs(float(t.probs.sum()) + t.tail_mass - 1.0) for t in tables.values())
    out.append(_check_le("dist.normalization", worst, 1e-12))

    worst = 0.0
    factor = perturb.get("pgf", 1.0)
    for p, t in tables.items():
        k = np.arange(len(t.probs))
        for tt in (0.0, 0.3, 0.7, 1.0):
            series = float(np.dot(t.probs, np.power(tt, k)))
            worst = max(worst, abs(series - factor * dist.pgf(tt, p)))
    out.append(_check_le("dist.pgf_series", worst, 1e-10))

    worst_mean = max(
        abs(t.mean() - perturb.get("mean", 1.0) * dist.mean(p)) for p, t in tables.items()
    )
    out.append(_check_le("dist.mean", worst_mean, 1e-9))
    worst_var = max(
        abs(t.variance() - perturb.get("variance", 1.0) * dist.variance(p))
        for p, t in tables.items()
    )
    out.append(_check_le("dist.variance", worst_var, 1e-8))

    worst = max(
        abs(dist.mgf(tt, p) - dist.pgf(math.exp(tt), p))
        for p in grid
        for tt in (-1.0, 0.0, 0.3)
    )
    out.append(_check_le("dist.mgf_is_pgf_at_exp", worst, 0.0))

    h = 1e-5
    worst = max(
        abs((dist.mgf(h, p) - dist.mgf(-h, p)) / (2 * h) - dist.mean(p)) for p in grid
    )
    out.append(_check_le("dist.mgf_derivative_vs_mean", worst, 1e-6))

    # Compound factorization: exp(R*(H(t)-1)) must reproduce the pgf.
    worst = 0.0
    rate_factor = perturb.get("burst_rate", 1.0)
    for p in grid:
        law = dist.decompose(p)
        rate = rate_factor * law.burst_rate
        for tt in np.linspace(0.0, 1.0, 10):
            lhs = math.exp(rate * (law.pgf(float(tt)) - 1.0))
            worst = max(worst, abs(lhs - dist.pgf(float(tt), p)))
    out.append(_check_le("dist.compound_identity", worst, 1e-10))

    # lam = 1 collapse to the Poisson law.
    worst = 0.0
    for p in grid:
        if p.lam == 1.0:
            t = tables[p]
            ref = poisson_pmf(np.arange(len(t.probs)), p.alpha * p.theta)
            worst = max(worst, float(np.abs(t.probs - ref).max()))
    out.append(_check_le("dist.poisson_collapse", worst, 1e-13))

    # Near-zero order: classical Bell-Touchard masses.
    p = validate(1.0, 1.0, 1e-4)
    t = build_pmf_table(p)
    pref = math.exp(-(math.e - 1.0))
    worst = 0.0
    for k in range(21):
        classical = pref / math.factorial(k) * bell_poly_classical(k, 1.0)
        worst = max(worst, abs(float(t.probs[k]) - classical))
    out.append(_check_le("dist.classical_limit", worst, 1e-3))

    # Convolution closure, entrywise.
    pa, pb = validate(1.0, 1.0, 0.5), validate(2.0, 1.0, 0.5)
    ta, tb = build_pmf_table(pa), build_pmf_table(pb)
    tsum = build_pmf_table(dist.convolve(pa, pb))
    worst = 0.0
    for k in range(31):
        conv = math.fsum(
            float(ta.probs[i]) * float(tb.probs[k - i])
            for i in range(k + 1)
            if i <= ta.support_max and k - i <= tb.support_max
        )
        worst = max(worst, abs(conv - float(tsum.probs[k])))
    out.append(_check_le("dist.convolution", worst, 1e-10))

    # Short-window linearization: the mass of k events in a window of
    # length s is the linear intensity plus an O(s) relative error, so
    # error ratios across decade steps of s sit near 10.
    ratio_min, ratio_max = math.inf, 0.0
    base = validate(1.0, 1.0, 0.5)
    for k in (1, 2, 3):
        errs = []
        for s in (1e-2, 1e-3, 1e-4):
            scaled = validate(base.alpha * s, base.theta, base.lam)
            linear = proc.small_s_intensity(k, base, s)
            errs.append(abs(dist.pmf(k, scaled) / s - linear / s))
        for coarse, fine in zip(errs, errs[1:]):
            ratio_min = min(ratio_min, coarse / fine)
            ratio_max = max(ratio_max, coarse / fine)
    out.append(_check_ge("dist.linearization_ratio_min", ratio_min, 5.0))
    out.append(_check_le("dist.linearization_ratio_max", ratio_max, 20.0))

    # Negative control: mixed theta must be refused.
    try:
        dist.convolve(validate(1.0, 0.5, 0.5), validate(1.0, 0.7, 0.5))
        rejected = 0.0
    except IncompatibleParametersError:
        rejected = 1.0
    out.append(_check_ge("dist.mixed_theta_rejected", rejected, 1.0))
    return out


def _sampler_checks(seed: int) -> list[CheckResult]:
    out = []
    rng = RngStream(seed)
    worst_p = 1.0
    for i, p in enumerate(_grid_params()):
        table = build_pmf_table(p)
        law = dist.decompose(p)
        sub = rng.split(i)
        a = sample_inverse_cdf(table, sub, 100_000)
        b = sample_compound(law, sub, 100_000)
        worst_p = min(worst_p, chisq_pvalue_two_sample(a, b))
    out.append(_check_ge("sampler.agreement_chisq_min_p", worst_p, 0.001))

    p = validate(2.0, 0.5, 0.5)
    table = build_pmf_table(p)
    draws = sample_inverse_cdf(table, rng.split(1000), 1_000_000)
    mu, var = dist.mean(p), dist.variance(p)
    se_mean = math.sqrt(var / len(draws))
    k = np.arange(len(table.probs))
    fourth = float(np.dot((k - mu) ** 4, table.probs))
    se_var = math.sqrt((fourth - var**2) / len(draws))
    z_mean = abs(float(draws.mean()) - mu) / se_mean
    z_var = abs(float(draws.var()) - var) / se_var
    out.append(_check_le("sampler.moment_recovery_mean_z", z_mean, 4.0))
    out.append(_check_le("sampler.moment_recovery_var_z", z_var, 4.0))

    law = dist.decompose(validate(1.0, 1.0, 0.5))
    first = sample_compound(law, RngStream(seed), 1000)
    second = sample_compound(law, RngStream(seed), 1000)
    out.append(
        _check_ge("sampler.determinism", 1.0 if (first == second).all() else 0.0, 1.0)
    )
    return out


def _process_checks(seed: int) -> list[CheckResult]:
    out = []
    p = validate(1.0, 1.0, 0.5)
    rng = RngStream(seed).split(2_000_000)
    horizon = 2.0
    n_paths = 100_000
    counts = proc.simulate_paths(p, horizon, n_paths, rng).counts_at((0.5, 1.0, 1.5, 2.0))

    worst_p = 1.0
    for j, t in enumerate((0.5, 1.0, 2.0)):
        table = build_pmf_table(validate(p.alpha * t, p.theta, p.lam))
        col = counts[:, (0, 1, 3)[j]]
        worst_p = min(worst_p, chisq_pvalue_vs_table(col, table))
    out.append(_check_ge("process.marginal_chisq_min_p", worst_p, 0.001))

    inc_a = counts[:, 0]
    inc_b = counts[:, 2] - counts[:, 1]
    out.append(
        _check_ge(
            "process.stationarity_chisq_p",
            chisq_pvalue_two_sample(inc_a, inc_b),
            0.001,
        )
    )

    inc_c = counts[:, 1] - counts[:, 0]
    rho = float(np.corrcoef(inc_a, inc_c)[0, 1])
    out.append(_check_le("process.disjoint_increment_corr", abs(rho), 0.01))

    # Laplace functional against its closed form on a 3x3 grid.
    worst_z = 0.0
    for j, t in enumerate((0.5, 1.0, 2.0)):
        col = counts[:, (0, 1, 3)[j]]
        for x in (0.25, 0.7, 1.5):
            vals = np.exp(-x * col)
            se = float(vals.std(ddof=1)) / math.sqrt(n_paths)
            z = abs(float(vals.mean()) - proc.laplace_functional(p, t, x)) / se
            worst_z = max(worst_z, z)
    out.append(_check_le("process.laplace_max_z", worst_z, 4.0))

    # Superposition of independent rate-1 and rate-2 processes.
    rng_a = RngStream(seed).split(3_000_001)
    rng_b = RngStream(seed).split(3_000_002)
    p2 = validate(2.0, 1.0, 0.5)
    merged = proc.superpose(
        [
            proc.simulate_paths(p, 1.0, n_paths, rng_a),
            proc.simulate_paths(p2, 1.0, n_paths, rng_b),
        ]
    )
    merged_counts = merged.counts_at((1.0,))[:, 0]
    table3 = build_pmf_table(validate(3.0, 1.0, 0.5))
    out.append(
        _check_ge(
            "process.superposition_chisq_p",
            chisq_pvalue_vs_table(merged_counts, table3),
            0.001,
        )
    )
    try:
        proc.superpose(
            [
                proc.simulate_path(p, 1.0, rng_a),
                proc.simulate_path(validate(1.0, 0.7, 0.5), 1.0, rng_b),
            ]
        )
        rejected = 0.0
    except IncompatibleParametersError:
        rejected = 1.0
    out.append(_check_ge("process.mixed_theta_rejected", rejected, 1.0))

    # Order-one degeneracy: unit jumps, exponential gaps at rate alpha*theta.
    p1 = validate(1.5, 1.0, 1.0)
    long_path = proc.simulate_path(p1, 8000.0, RngStream(seed).split(4_000_000))
    all_unit = 1.0 if (long_path.sizes == 1).all() else 0.0
    out.append(_check_ge("process.order_one_unit_jumps", all_unit, 1.0))
    gaps = np.diff(np.concatenate([[0.0], long_path.times]))
    ks_p = ks_pvalue(-np.expm1(-gaps / (1.0 / 1.5)))
    out.append(_check_ge("process.order_one_gap_ks_p", ks_p, 0.001))
    return out


def run_verification(
    seed: int = DEFAULT_SEED, perturb: dict[str, float] | None = None
) -> VerifyReport:
    """Run the full battery; deterministic for a given seed."""
    perturb = dict(perturb or {})
    unknown = set(perturb) - set(PERTURBABLE)
    if unknown:
        raise ParameterError(
            f"unknown perturbation target(s) {sorted(unknown)}; "
            f"choose from {list(PERTURBABLE)}"
        )
    start = time.perf_counter()
    report = VerifyReport(seed=seed)
    report.checks.extend(_kernel_checks())
    report.checks.extend(_dist_checks(_grid_params(), perturb))
    report.checks.extend(_sampler_checks(seed))
    report.checks.extend(_process_checks(seed))
    report.wall_time = time.perf_counter() - start
    return report
