"""Acceptance battery.

One test per criterion, each pinned at its stated tolerance and
printing a single machine-greppable pass/fail line.  Everything is
analytic-identity or property-based at desk scale; fixed seeds keep the
statistical checks reproducible.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest
from scipy import stats

import bellproc as bp
from bellproc.verify import chisq_pvalue_vs_table

LAM_GRID = (1.0, 0.5, 0.25, 0.1)
DIST_GRID = [
    bp.validate(a, th, lam)
    for a in (0.5, 1.0, 2.0, 5.0)
    for th in (0.25, 0.5, 1.0, 2.0)
    for lam in (1.0, 0.5, 0.25, 0.2, 0.1)
]
# The battery's default grid: covers the Poisson collapse, small-batch
# laws and the near-classical regime at desk scale.
DEFAULT_GRID = [
    bp.validate(a, th, lam)
    for a in (0.5, 1.0, 2.0)
    for th in (0.5, 1.0)
    for lam in LAM_GRID
]
SEED = 20250810

P_HALF = bp.validate(1.0, 1.0, 0.5)


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})", flush=True)
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def ensemble_100k():
    """100k trajectories of the (1, 1, 1/2) process on [0, 2]."""
    paths = bp.simulate_paths(P_HALF, 2.0, 100_000, bp.RngStream(SEED))
    return paths.counts_at((0.5, 1.0, 2.0))


def test_01_dobinski_equivalence():
    # series route vs triangle route; tolerance is scale-relative since
    # the values reach ~1e20 where doubles are ~1e4 apart
    worst = 0.0
    for lam in LAM_GRID:
        table = bp.build_stirling_table(lam, 20)
        for n in range(21):
            for x in (0.5, 1.0, 2.0, 5.0):
                ref = bp.bell_poly(n, x, table)
                diff = abs(bp.bell_poly_dobinski(n, x, lam, 1e-12) - ref)
                worst = max(worst, diff / max(1.0, abs(ref)))
    _report(1, "dobinski-equivalence", worst <= 1e-8, f"worst={worst:.3e} tol=1e-8")


def test_02_triangle_definitional_identity():
    worst = 0.0
    for lam in LAM_GRID:
        table = bp.build_stirling_table(lam, 20)
        for n in range(21):
            for x in range(1, n + 2):
                lhs = bp.falling_factorial(float(x), n, lam)
                rhs = math.fsum(
                    table.value(n, k) * bp.falling_factorial(float(x), k, 1.0)
                    for k in range(n + 1)
                )
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _report(2, "triangle-identity", worst <= 1e-9, f"worst={worst:.3e} tol=1e-9")


def test_03_binomial_identity():
    worst = 0.0
    for lam in LAM_GRID:
        table = bp.build_stirling_table(lam, 15)
        for n in range(16):
            for x in (0.5, 1.0, 2.0):
                for y in (0.5, 1.0, 2.0):
                    lhs = bp.bell_poly(n, x + y, table)
                    rhs = math.fsum(
                        math.comb(n, k)
                        * bp.bell_poly(k, x, table)
                        * bp.bell_poly(n - k, y, table)
                        for k in range(n + 1)
                    )
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _report(3, "binomial-identity", worst <= 1e-9, f"worst={worst:.3e} tol=1e-9")


def test_04_normalization():
    worst = 0.0
    for params in DIST_GRID:
        table = bp.build_pmf_table(params, 1e-12)
        worst = max(worst, abs(float(table.probs.sum()) + table.tail_mass - 1.0))
    _report(4, "normalization", worst <= 1e-12, f"worst={worst:.3e} tol=1e-12")


def test_05_generating_functions():
    worst_series = 0.0
    worst_exact = 0.0
    worst_deriv = 0.0
    h = 1e-5
    for params in DIST_GRID:
        table = bp.build_pmf_table(params, 1e-12)
        k = np.arange(len(table.probs))
        for t in (0.0, 0.3, 0.7, 1.0):
            series = float(np.dot(table.probs, np.power(t, k)))
            worst_series = max(worst_series, abs(series - bp.pgf(t, params)))
        for t in (-1.0, 0.0, 0.3):
            worst_exact = max(worst_exact, abs(bp.mgf(t, params) - bp.pgf(math.exp(t), params)))
    # The 1e-6 band only makes sense where the h^2 truncation term
    # (E[X^3]/6)*h^2 sits below it, i.e. on the desk-scale default grid;
    # at mean ~ 52 the central difference itself is off by ~2.6e-6.
    for params in DEFAULT_GRID:
        deriv = (bp.mgf(h, params) - bp.mgf(-h, params)) / (2 * h)
        worst_deriv = max(worst_deriv, abs(deriv - bp.mean(params)))
    passed = worst_series <= 1e-10 and worst_exact == 0.0 and worst_deriv <= 1e-6
    _report(
        5,
        "generating-functions",
        passed,
        f"series={worst_series:.3e} exact={worst_exact:.1e} deriv={worst_deriv:.3e}",
    )


def test_06_moments():
    worst_tbl = 0.0
    for params in DIST_GRID:
        table = bp.build_pmf_table(params, 1e-12)
        worst_tbl = max(worst_tbl, abs(table.mean() - bp.mean(params)))
        worst_tbl = max(worst_tbl, abs(table.variance() - bp.variance(params)))

    params = bp.validate(2.0, 0.5, 0.5)
    table = bp.build_pmf_table(params)
    law = bp.decompose(params)
    mu, var = bp.mean(params), bp.variance(params)
    k = np.arange(len(table.probs))
    fourth = float(np.dot((k - mu) ** 4, table.probs))
    n = 1_000_000
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt((fourth - var**2) / n)
    worst_z = 0.0
    for i, sampler in enumerate((bp.sample_inverse_cdf, bp.sample_compound)):
        source = table if sampler is bp.sample_inverse_cdf else law
        draws = sampler(source, bp.RngStream(SEED).split(i), n)
        worst_z = max(worst_z, abs(float(draws.mean()) - mu) / se_mean)
        worst_z = max(worst_z, abs(float(draws.var()) - var) / se_var)
    passed = worst_tbl <= 1e-8 and worst_z <= 4.0
    _report(6, "moments", passed, f"table={worst_tbl:.3e} tol=1e-8; mc_z={worst_z:.2f} tol=4se")


def test_07_convolution_and_superposition():
    pa, pb = bp.validate(1.0, 1.0, 0.5), bp.validate(2.0, 1.0, 0.5)
    ta, tb = bp.build_pmf_table(pa), bp.build_pmf_table(pb)
    tsum = bp.build_pmf_table(bp.convolve(pa, pb))
    worst = 0.0
    for k in range(31):
        conv = math.fsum(
            float(ta.probs[i]) * float(tb.probs[k - i])
            for i in range(k + 1)
            if i <= ta.support_max and k - i <= tb.support_max
        )
        worst = max(worst, abs(conv - float(tsum.probs[k])))

    rng_a = bp.RngStream(SEED).split(100)
    rng_b = bp.RngStream(SEED).split(101)
    n = 100_000
    merged = bp.superpose(
        [bp.simulate_paths(pa, 1.0, n, rng_a), bp.simulate_paths(pb, 1.0, n, rng_b)]
    )
    merged_counts = merged.counts_at((1.0,))[:, 0]
    p_value = chisq_pvalue_vs_table(merged_counts, tsum)
    passed = worst <= 1e-10 and p_value > 0.001
    _report(
        7,
        "convolution-superposition",
        passed,
        f"conv={worst:.3e} tol=1e-10; chisq_p={p_value:.4f} min=0.001",
    )


def test_08_marginal_law(ensemble_100k):
    counts = ensemble_100k
    worst_p = 1.0
    for column, t in ((0, 0.5), (1, 1.0), (2, 2.0)):
        table = bp.build_pmf_table(bp.validate(t, 1.0, 0.5))
        worst_p = min(worst_p, chisq_pvalue_vs_table(counts[:, column], table))
    mean_t1 = float(counts[:, 1].mean())
    mean_ok = abs(mean_t1 - 1.5) <= 0.015
    _report(
        8,
        "marginal-law",
        worst_p > 0.001 and mean_ok,
        f"min_p={worst_p:.4f} min=0.001; mean(N(1))={mean_t1:.4f} in 1.5+-0.015",
    )


def test_09_short_window_linearization():
    windows = (1e-2, 1e-3, 1e-4)
    worst_low, worst_high = math.inf, 0.0
    # combos with a nonvanishing linear error coefficient; at order one
    # the k = 3 coefficient vanishes identically and convergence is
    # second order, outside the stated first-order band
    combos = [(P_HALF, 1), (P_HALF, 2), (P_HALF, 3),
              (bp.validate(1.0, 1.0, 1.0), 1), (bp.validate(1.0, 1.0, 1.0), 2)]
    for params, k in combos:
        errs = []
        for s in windows:
            scaled = bp.validate(params.alpha * s, params.theta, params.lam)
            exact_rate = bp.pmf(k, scaled) / s
            linear_rate = bp.small_s_intensity(k, params, s) / s
            errs.append(abs(exact_rate - linear_rate))
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse / fine
            worst_low = min(worst_low, ratio)
            worst_high = max(worst_high, ratio)
    # no multi-jumps in the order-one collapse: the linear weight is 0
    intensity_zero = bp.small_s_intensity(2, bp.validate(1.0, 1.0, 1.0), 1e-3) == 0.0
    passed = 5.0 <= worst_low and worst_high <= 20.0 and intensity_zero
    _report(
        9,
        "short-window-linearization",
        passed,
        f"error ratios in [{worst_low:.2f}, {worst_high:.2f}], required [5, 20]; "
        f"order-one k=2 weight zero: {intensity_zero}",
    )


def test_10_limit_collapses():
    worst_poisson = 0.0
    for a in (0.5, 1.0, 2.0):
        for th in (0.5, 1.0, 2.0):
            table = bp.build_pmf_table(bp.validate(a, th, 1.0), 1e-12)
            k = np.arange(len(table.probs))
            ref = stats.poisson.pmf(k, a * th)
            worst_poisson = max(worst_poisson, float(np.abs(table.probs - ref).max()))

    table = bp.build_pmf_table(bp.validate(1.0, 1.0, 1e-4))
    pref = math.exp(-(math.e - 1.0))
    worst_classical = 0.0
    for k in range(21):
        classical = pref / math.factorial(k) * bp.bell_poly_classical(k, 1.0)
        worst_classical = max(worst_classical, abs(float(table.probs[k]) - classical))
    passed = worst_poisson <= 1e-13 and worst_classical <= 1e-3
    _report(
        10,
        "limit-collapses",
        passed,
        f"poisson={worst_poisson:.3e} tol=1e-13; classical={worst_classical:.3e} tol=1e-3",
    )


def test_11_laplace_functional(ensemble_100k):
    counts = ensemble_100k
    n = len(counts)
    worst_z = 0.0
    for column, t in ((0, 0.5), (1, 1.0), (2, 2.0)):
        for x in (0.25, 0.7, 1.5):
            values = np.exp(-x * counts[:, column])
            se = float(values.std(ddof=1)) / math.sqrt(n)
            z = abs(float(values.mean()) - bp.laplace_functional(P_HALF, t, x)) / se
            worst_z = max(worst_z, z)
    _report(11, "laplace-functional", worst_z <= 4.0, f"max_z={worst_z:.2f} tol=4se")


def test_12_negative_controls():
    convolve_rejected = False
    superpose_rejected = False
    try:
        bp.convolve(bp.validate(1.0, 0.5, 0.5), bp.validate(1.0, 0.7, 0.5))
    except bp.IncompatibleParametersError:
        convolve_rejected = True
    rng = bp.RngStream(SEED).split(200)
    try:
        bp.superpose(
            [
                bp.simulate_path(bp.validate(1.0, 0.5, 0.5), 1.0, rng),
                bp.simulate_path(bp.validate(1.0, 0.7, 0.5), 1.0, rng),
            ]
        )
    except bp.IncompatibleParametersError:
        superpose_rejected = True
    passed = convolve_rejected and superpose_rejected
    _report(
        12,
        "negative-controls",
        passed,
        f"convolve_rejected={convolve_rejected} superpose_rejected={superpose_rejected}",
    )
