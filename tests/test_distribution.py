"""Distribution tests: validation, PMF/CDF/quantile, generating
functions, moments, convolution closure, and the compound split."""

import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import bellproc as bp
from bellproc import (
    BellprocError,
    ConvergenceError,
    IncompatibleParametersError,
    ParameterError,
    RangeError,
    TailSliverError,
    Validity,
)
from bellproc import distribution as dist

GRID = [
    bp.validate(a, th, lam)
    for a in (0.5, 1.0, 2.0, 5.0)
    for th in (0.25, 0.5, 1.0, 2.0)
    for lam in (1.0, 0.5, 0.25, 0.2, 0.1)
]


# ----------------------------------------------------------------------
# validate


def test_validate_order_one_is_strict():
    assert bp.validate(1.0, 1.0, 1.0).validity is Validity.STRICT


def test_validate_reciprocal_integer_is_strict():
    p = bp.validate(2.0, 0.5, 0.5)
    assert p.validity is Validity.STRICT
    assert p.reciprocal_order == 2


def test_validate_rejects_law_with_negative_mass():
    # the cubic coefficient (1)(1-0.6)(1-1.2) < 0 eventually surfaces as
    # negative mass; at alpha=1 the first offender is k=15
    with pytest.raises(ParameterError, match="negative mass"):
        bp.validate(1.0, 1.0, 0.6)
    with pytest.raises(ParameterError, match="negative mass"):
        bp.validate(0.05, 1.0, 0.6)


def test_validate_accepts_numerically_clean_general_order():
    p = bp.validate(1.0, 1.0, 0.013)
    assert p.validity is Validity.ASYMPTOTIC
    assert p.reciprocal_order is None


def test_validate_recognizes_inexact_reciprocals():
    # 1/3 and 1/7 are not representable exactly; the reciprocal test
    # must still classify them as strict
    for m in (3, 6, 7, 10, 10_000):
        p = bp.validate(1.0, 1.0, 1.0 / m)
        assert p.validity is Validity.STRICT
        assert p.reciprocal_order == m


def test_extreme_scale_rejected_honestly():
    # mean ~ 1e33: no table can certify this, and the failure must be an
    # explicit cap/convergence error rather than a silent wrong answer
    with pytest.raises((ConvergenceError, ParameterError)):
        bp.build_pmf_table(bp.validate(1.0, 60.0, 0.013))


@pytest.mark.parametrize(
    "alpha,theta,lam",
    [(-1.0, 1.0, 0.5), (0.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, -2.0, 0.5),
     (1.0, 1.0, 0.0), (1.0, 1.0, 1.5), (1.0, 1.0, -0.5), (math.inf, 1.0, 0.5)],
)
def test_validate_domain_errors(alpha, theta, lam):
    with pytest.raises(ParameterError):
        bp.validate(alpha, theta, lam)


# ----------------------------------------------------------------------
# pmf / log_pmf


def test_pmf_at_zero_is_exp_of_minus_rate():
    for p in (bp.validate(1, 1, 1), bp.validate(2, 0.5, 0.25)):
        rate = bp.burst_rate(p.alpha, p.theta, p.lam)
        assert bp.pmf(0, p) == pytest.approx(math.exp(-rate), rel=1e-14)


def test_pmf_poisson_point():
    p = bp.validate(1.0, 1.0, 1.0)
    assert bp.pmf(1, p) == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_pmf_half_order_point():
    p = bp.validate(1.0, 1.0, 0.5)
    assert bp.pmf(2, p) == pytest.approx(math.exp(-1.25) * 0.75, rel=1e-13)


def test_log_pmf_consistency():
    p = bp.validate(2.0, 1.0, 0.25)
    for k in (0, 1, 5, 31, 60):
        assert math.exp(bp.log_pmf(k, p)) == pytest.approx(bp.pmf(k, p), rel=1e-12)


def test_pmf_rejects_negative_k():
    with pytest.raises(ParameterError):
        bp.pmf(-1, bp.validate(1, 1, 1))


def test_lookups_take_integer_k():
    p = bp.validate(1, 1, 0.5)
    for lookup, k in (
        (bp.pmf, 2.5), (bp.pmf, 3.0), (bp.log_pmf, 2.5), (bp.cdf, 2.5), (bp.cdf, math.nan),
        (bp.pmf, True), (bp.pmf, math.nan), (bp.cdf, -1),
    ):
        with pytest.raises(ParameterError):
            lookup(k, p)
    assert bp.pmf(np.int64(2), p) == bp.pmf(2, p)
    assert bp.cdf(np.int32(2), p) == bp.cdf(2, p)


def test_log_pmf_past_table_end_against_poisson():
    # the table stops near k = 16; k = 5000 extends the recurrence, and
    # its mass (about 1e-16327) is far below the double range
    p = bp.validate(1.0, 1.0, 1.0)
    assert bp.build_pmf_table(p).support_max < 5000
    assert bp.log_pmf(5000, p) == pytest.approx(-1.0 - math.lgamma(5001), rel=1e-13)
    assert bp.pmf(5000, p) == 0.0


def test_log_pmf_crosses_linear_log_boundary_smoothly():
    # consecutive mass ratios vary smoothly across k = 30
    p = bp.validate(1.5, 1.0, 0.5)
    ratios = [bp.pmf(k + 1, p) / bp.pmf(k, p) for k in (27, 28, 29, 30, 31)]
    diffs = np.abs(np.diff(ratios))
    assert (diffs < 0.05).all()


# ----------------------------------------------------------------------
# tables


def test_table_poisson_collapse_entrywise():
    p = bp.validate(1.0, 1.0, 1.0)
    table = bp.build_pmf_table(p, 1e-12)
    k = np.arange(len(table.probs))
    ref = stats.poisson.pmf(k, 1.0)
    assert np.abs(table.probs - ref).max() <= 1e-13


@pytest.mark.parametrize("params", GRID, ids=lambda p: f"a{p.alpha}-t{p.theta}-l{p.lam}")
def test_table_normalization(params):
    table = bp.build_pmf_table(params, 1e-12)
    assert table.tail_mass <= 1e-12
    assert abs(float(table.probs.sum()) + table.tail_mass - 1.0) <= 1e-12
    assert table.probs.min() >= 0.0


def test_table_mean_example():
    table = bp.build_pmf_table(bp.validate(2.0, 0.5, 0.5), 1e-12)
    assert table.mean() == pytest.approx(1.25, abs=1e-9)


def test_table_moments_match_closed_forms():
    for params in GRID:
        table = bp.build_pmf_table(params, 1e-12)
        assert abs(table.mean() - bp.mean(params)) <= 1e-9
        assert abs(table.variance() - bp.variance(params)) <= 1e-8


def test_table_tail_tol_respected():
    p = bp.validate(1.0, 1.0, 0.5)
    loose = bp.build_pmf_table(p, 1e-6)
    tight = bp.build_pmf_table(p, 1e-12)
    assert loose.support_max <= tight.support_max
    assert loose.tail_mass <= 1e-6
    with pytest.raises(ParameterError):
        bp.build_pmf_table(p, 0.0)


# ----------------------------------------------------------------------
# cdf / quantile


def test_quantile_zero_gives_zero():
    p = bp.validate(1.0, 1.0, 0.5)
    assert bp.quantile(0.0, p) == 0


def test_cdf_saturates_at_one():
    p = bp.validate(2.0, 1.0, 0.25)
    assert bp.cdf(10_000, p) == pytest.approx(1.0, abs=1e-12)


def test_quantile_poisson_point():
    p = bp.validate(1.0, 1.0, 1.0)
    assert bp.quantile(0.9, p) == 2


def test_quantile_domain():
    p = bp.validate(1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        bp.quantile(1.0, p)
    with pytest.raises(ParameterError):
        bp.quantile(-0.1, p)


def test_quantile_tail_sliver():
    table = bp.build_pmf_table(bp.validate(1.0, 1.0, 0.5), 1e-12)
    covered = float(table.cumulative[-1])
    if covered < 1.0:
        with pytest.raises(TailSliverError):
            table.quantile(covered + (1.0 - covered) / 2)


@given(u=st.floats(0.0, 0.999999, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_quantile_cdf_adjunction(u):
    # least k with cdf(k) > u: cdf at the quantile exceeds u, cdf below misses
    table = bp.build_pmf_table(bp.validate(1.0, 1.0, 0.5), 1e-12)
    k = table.quantile(u)
    assert table.cdf(k) > u
    if k > 0:
        assert table.cdf(k - 1) <= u


# ----------------------------------------------------------------------
# generating functions


def test_pgf_at_one():
    for p in (bp.validate(1, 1, 0.5), bp.validate(2, 0.5, 0.25)):
        assert bp.pgf(1.0, p) == pytest.approx(1.0, rel=1e-14)


def test_pgf_at_zero_equals_mass_at_zero():
    p = bp.validate(1.0, 1.0, 1.0)
    assert bp.pgf(0.0, p) == pytest.approx(bp.pmf(0, p), rel=1e-14)


def test_pgf_half_order_value():
    p = bp.validate(1.0, 1.0, 0.5)
    assert bp.pgf(0.5, p) == pytest.approx(math.exp(1.5625 - 2.25), rel=1e-14)
    assert bp.pgf(-0.5, p) == pytest.approx(math.exp(0.5625 - 2.25), rel=1e-14)


def test_pgf_series_consistency():
    for params in GRID[:20]:
        table = bp.build_pmf_table(params, 1e-12)
        k = np.arange(len(table.probs))
        for t in (0.0, 0.3, 0.7, 1.0):
            series = float(np.dot(table.probs, np.power(t, k)))
            assert abs(series - bp.pgf(t, params)) <= 1e-10


def test_pgf_domain_error():
    p = bp.validate(1.0, 2.0, 0.5)
    with pytest.raises(ParameterError):
        bp.pgf(-1.5, p)  # 1 + lam*theta*t = -0.5


def test_mgf_at_zero():
    assert bp.mgf(0.0, bp.validate(1, 1, 0.5)) == pytest.approx(1.0, rel=1e-14)


def test_mgf_is_pgf_at_exp():
    p = bp.validate(1.0, 1.0, 0.5)
    for t in (-1.0, 0.0, 0.3):
        assert bp.mgf(t, p) == bp.pgf(math.exp(t), p)


def test_mgf_derivative_is_mean():
    h = 1e-5
    for p in GRID[:20]:
        d = (bp.mgf(h, p) - bp.mgf(-h, p)) / (2 * h)
        assert d == pytest.approx(bp.mean(p), abs=1e-6)


def test_mgf_overflow_reported():
    with pytest.raises(OverflowError):
        bp.mgf(500.0, bp.validate(1, 1, 0.5))


def test_closed_forms_past_the_double_range():
    # e_lam(theta) = (1 + 1e8)**100 overflows, yet the law is strict
    p = bp.validate(1.0, 1e10, 0.01)
    for closed_form in (bp.mean, bp.variance):
        with pytest.raises(RangeError):
            closed_form(p)
    # log pgf(t) = e_lam(1e10 t) - e_lam(1e10): 0 at t = 1, hugely
    # negative below (the value underflows), hugely positive above
    assert bp.pgf(1.0, p) == 1.0 and bp.mgf(0.0, p) == 1.0
    assert bp.pgf(0.5, p) == 0.0 and bp.mgf(-1.0, p) == 0.0
    for t in (1.5, 1e300):
        with pytest.raises(RangeError):
            bp.pgf(t, p)
    for t in (0.1, 710.0):  # exp(710) alone is past the largest double
        with pytest.raises(RangeError):
            bp.mgf(t, p)
    assert bp.laplace_functional(p, 1.0, 0.0) == 1.0
    assert bp.laplace_functional(p, 1.0, 0.5) == 0.0
    assert issubclass(RangeError, ParameterError)


def test_moments_underflow_to_zero():
    p = bp.validate(5e-324, 1e-10, 1.0)  # mean 5e-334
    assert bp.mean(p) == 0.0 and bp.variance(p) == 0.0


# ----------------------------------------------------------------------
# moments


def test_poisson_moments():
    p = bp.validate(1.0, 1.0, 1.0)
    assert bp.mean(p) == pytest.approx(1.0)
    assert bp.variance(p) == pytest.approx(1.0)


def test_mean_example():
    assert bp.mean(bp.validate(2.0, 0.5, 0.5)) == pytest.approx(1.25)


def test_overdispersion_identity():
    # variance - mean = theta^2 * alpha * (1-lam) * e_lam^(1-2lam)(theta) >= 0
    for p in GRID:
        gap = bp.variance(p) - bp.mean(p)
        closed = (
            p.theta**2
            * p.alpha
            * (1 - p.lam)
            * bp.degenerate_exp(1 - 2 * p.lam, p.lam, p.theta)
        )
        assert gap == pytest.approx(closed, rel=1e-12, abs=1e-12)
        assert gap >= -1e-12


# ----------------------------------------------------------------------
# convolution


def test_convolve_adds_rates():
    p = bp.convolve(bp.validate(1, 1, 1), bp.validate(2, 1, 1))
    assert (p.alpha, p.theta, p.lam) == (3.0, 1.0, 1.0)


def test_convolve_near_identity():
    base = bp.validate(1.0, 1.0, 0.5)
    merged = bp.convolve(base, bp.validate(1e-12, 1.0, 0.5))
    assert merged.alpha == pytest.approx(1.0, abs=1e-11)
    table = bp.build_pmf_table(merged)
    ref = bp.build_pmf_table(base)
    top = min(table.support_max, ref.support_max)
    assert np.abs(table.probs[: top + 1] - ref.probs[: top + 1]).max() < 1e-11


def test_convolve_rejects_mismatched_theta():
    # theta is compared relatively: 1e-14 and 2e-14 differ by a factor 2
    for theta_a, theta_b in ((0.5, 0.7), (1e-14, 2e-14)):
        with pytest.raises(IncompatibleParametersError):
            bp.convolve(bp.validate(1, theta_a, 0.5), bp.validate(1, theta_b, 0.5))


def test_convolve_rejects_mismatched_order():
    with pytest.raises(IncompatibleParametersError):
        bp.convolve(bp.validate(1, 1, 0.5), bp.validate(1, 1, 0.25))


def test_convolution_matches_discrete_convolution():
    pa, pb = bp.validate(1.0, 1.0, 0.5), bp.validate(2.0, 1.0, 0.5)
    ta, tb = bp.build_pmf_table(pa), bp.build_pmf_table(pb)
    tsum = bp.build_pmf_table(bp.convolve(pa, pb))
    for k in range(31):
        conv = math.fsum(
            float(ta.probs[i]) * float(tb.probs[k - i])
            for i in range(k + 1)
            if i <= ta.support_max and k - i <= tb.support_max
        )
        assert abs(conv - float(tsum.probs[k])) <= 1e-10


# ----------------------------------------------------------------------
# compound decomposition


def test_decompose_poisson_degenerates():
    law = bp.decompose(bp.validate(1.0, 1.0, 1.0))
    assert law.burst_rate == pytest.approx(1.0)
    assert law.support_bound == 1
    assert law.prob(1) == pytest.approx(1.0)
    assert law.prob(2) == 0.0


def test_decompose_half_order():
    law = bp.decompose(bp.validate(1.0, 1.0, 0.5))
    assert law.burst_rate == pytest.approx(1.25)
    assert law.prob(1) == pytest.approx(0.8)
    assert law.prob(2) == pytest.approx(0.2)


def test_decompose_probs_sum_to_one():
    for params in GRID:
        law = bp.decompose(params)
        assert abs(float(law.jump_probs.sum()) - 1.0) <= 1e-12
        assert law.jump_probs.min() >= 0.0
        assert law.support_bound == round(1.0 / params.lam)


def test_decompose_requires_strict():
    p = bp.validate(1.0, 1.0, 0.013)
    with pytest.raises(ParameterError):
        bp.decompose(p)


def test_decompose_pgf_identity():
    # exp(R*(H(t) - 1)) must equal the distribution's pgf everywhere
    for params in (bp.validate(1, 1, 0.5), bp.validate(2, 0.5, 0.25), bp.validate(1, 2, 0.1)):
        law = bp.decompose(params)
        for t in np.linspace(0.0, 1.0, 10):
            lhs = math.exp(law.burst_rate * (law.pgf(float(t)) - 1.0))
            assert lhs == pytest.approx(bp.pgf(float(t), params), abs=1e-10)


@pytest.mark.parametrize("m", [171, 200, 10_000])
def test_decompose_past_factorial_overflow(m):
    # the jump weights theta**k / k! * ff(1, k, 1/m) overflow factorials
    # past k = 170; built from the series coefficients they do not
    params = bp.validate(1.0, 2.0, 1.0 / m)
    law = bp.decompose(params)
    assert law.support_bound == len(law.jump_probs) == m
    assert abs(math.fsum(law.jump_probs) - 1.0) <= 1e-12
    for t in np.linspace(0.0, 1.0, 10):
        lhs = math.exp(law.burst_rate * (law.pgf(float(t)) - 1.0))
        assert abs(lhs - bp.pgf(float(t), params)) <= 1e-10


def test_tables_and_jump_laws_freeze_what_they_are_given():
    probs = np.array([0.5, 0.5])
    table = bp.PmfTable(bp.validate(1, 1, 0.5), probs, 0.0)
    law = bp.JumpLaw(1.0, probs)
    probs[0] = -3.0
    for held in (table.probs, law.jump_probs):
        assert not held.flags.writeable and held.tolist() == [0.5, 0.5]
    # the support is the length of the jump probabilities
    assert law.support_bound == 2 and law.mean() == 1.5
    draws = bp.sample_jump(law, bp.RngStream(5), 10_000)
    assert set(np.unique(draws).tolist()) == {1, 2}
    # what the builders made read-only is kept, not copied
    built = bp.build_pmf_table(bp.validate(1, 1, 0.5))
    assert bp.PmfTable(built.params, built.probs, built.tail_mass).probs is built.probs
    jumps = bp.decompose(built.params)
    assert bp.JumpLaw(jumps.burst_rate, jumps.jump_probs).jump_probs is jumps.jump_probs


def test_jump_mean_times_rate_is_distribution_mean():
    for params in GRID[:20]:
        law = bp.decompose(params)
        assert law.burst_rate * law.mean() == pytest.approx(bp.mean(params), rel=1e-12)


# ----------------------------------------------------------------------
# near-classical limit


def test_near_zero_order_matches_bell_touchard():
    p = bp.validate(1.0, 1.0, 1e-4)
    table = bp.build_pmf_table(p)
    pref = math.exp(-(math.e - 1.0))
    for k in range(21):
        classical = pref / math.factorial(k) * bp.bell_poly_classical(k, 1.0)
        assert abs(float(table.probs[k]) - classical) <= 1e-3


# ----------------------------------------------------------------------
# high-precision oracles: the 60-digit triangle and the Poisson closed form


def _oracle_pmf(k, alpha, theta, lam):
    # 60-digit arithmetic end to end: triangle by the same recurrence,
    # then the mass assembled without any log-domain tricks
    from mpmath import mp, mpf

    mp.dps = 60
    a, th, lm = mpf(alpha), mpf(theta), mpf(lam)
    prev = [mpf(1)]
    for n in range(k):
        cur = [mpf(0)] * (n + 2)
        for j in range(1, n + 2):
            left = prev[j - 1] if j - 1 <= n else mpf(0)
            same = prev[j] if j <= n else mpf(0)
            cur[j] = left + (j - n * lm) * same
        prev = cur
    phi = sum(prev[j] * a**j for j in range(k + 1)) if k else mpf(1)
    e_lam = (1 + lm * th) ** (1 / lm)
    return float(mp.e ** (-a * (e_lam - 1)) * th**k / mp.factorial(k) * phi)


def test_log_domain_route_against_high_precision_oracle():
    # deep into the certified table, far past where theta**k / k! and
    # the polynomial values leave plain arithmetic
    params = bp.validate(5.0, 2.0, 0.1)
    for k in (0, 3, 30, 50, 100, 164):
        oracle = _oracle_pmf(k, 5.0, 2.0, 0.1)
        assert bp.pmf(k, params) == pytest.approx(oracle, rel=1e-12)


def test_large_rate_poisson_collapse_all_log_regime():
    # rate 40: every mass is built up from p_0 = exp(-40)
    params = bp.validate(40.0, 1.0, 1.0)
    table = bp.build_pmf_table(params, 1e-12)
    k = np.arange(len(table.probs))
    ref = stats.poisson.pmf(k, 40.0)
    assert np.abs(table.probs - ref).max() <= 1e-13


def test_large_rate_against_poisson_closed_form():
    # p_0 = exp(-1000) underflows; the log masses must not
    params = bp.validate(1000.0, 1.0, 1.0)
    table = bp.build_pmf_table(params, 1e-12)
    assert 1200 <= table.support_max <= 1300
    assert table.probs[0] == 0.0
    assert bp.log_pmf(0, params) == -1000.0
    for k in (1, 500, 1000, table.support_max, 3000):
        ref = -1000.0 + k * math.log(1000.0) - math.lgamma(k + 1)
        assert bp.log_pmf(k, params) == pytest.approx(ref, rel=1e-13, abs=1e-10)
    k = np.arange(len(table.probs))
    assert np.abs(table.probs - stats.poisson.pmf(k, 1000.0)).max() <= 1e-13


def test_large_rate_strict_table_normalizes():
    # a tables-grid triple with burst rate 3030, m = 242: a rate that
    # disagrees with the jump weights in its last bits would move the
    # total mass by 1e-12
    table = bp.build_pmf_table(bp.validate(478.81202009967103, 2.0, 0.004132231404958678))
    assert table.tail_mass <= 1e-12
    assert abs(math.fsum(table.probs) + table.tail_mass - 1.0) <= 1e-12


def test_order_one_over_200_past_factorial_overflow():
    # theta**k / k! overflows past k = 170; the oracle assembles it exactly
    params = bp.validate(50.0, 2.0, 1.0 / 200)
    for k in (171, 200):
        assert bp.pmf(k, params) == pytest.approx(_oracle_pmf(k, 50.0, 2.0, 1.0 / 200), rel=1e-12)


def test_near_radius_general_order_against_oracle():
    # lam*theta = 0.997: the Cauchy radius is 1.003 and the cutoff near
    # 12,000; masses alternate in sign far out and are clamped there
    alpha, theta, lam = 42.795017938700305, 2.0, 0.4985392293755286
    params = bp.validate(alpha, theta, lam)
    assert params.validity is Validity.ASYMPTOTIC
    table = bp.build_pmf_table(params, 1e-12)
    assert table.support_max > 10_000
    assert table.tail_mass <= 1e-12
    assert abs(math.fsum(table.probs) + table.tail_mass - 1.0) <= 1e-12
    mode = float(table.probs.max())
    for k in (0, 10, 100, 200, 300):
        oracle = _oracle_pmf(k, alpha, theta, lam)
        if oracle >= 1e-10 * mode:
            assert bp.pmf(k, params) == pytest.approx(oracle, rel=1e-12)
        else:
            assert abs(bp.pmf(k, params) - oracle) <= 1e-20


def test_clamped_negative_mass_counts_against_tail_tol():
    # a tables-grid triple whose signed masses dip just below 0 several
    # times: clamped, they would push the total mass past 1 + tail_tol
    try:
        table = bp.build_pmf_table(bp.validate(2.6032474385474034, 0.5, 0.8104869695997854))
    except BellprocError:
        return
    assert table.probs.min() >= 0.0
    assert table.tail_mass <= 1e-12
    assert abs(math.fsum(table.probs) + table.tail_mass - 1.0) <= 1e-12


def test_general_order_refused_at_radius_one():
    # lam*theta >= 1 for non-reciprocal lam: no radius above 1 to certify
    with pytest.raises(ParameterError, match="radius"):
        bp.validate(1.0, 2.0, 0.6)


def test_recurrence_budget_refuses_before_building():
    with pytest.raises(ConvergenceError, match="K ="):
        bp.build_pmf_table(bp.validate(1e12, 1.0, 1.0))


def _built_once_and_shared(monkeypatch, triple):
    # one recurrence serves the build, every tail_tol spelling and the lookups
    calls = []
    recurrence = dist._masses
    monkeypatch.setattr(dist, "_masses", lambda *args: calls.append(args) or recurrence(*args))
    dist._pmf_table.cache_clear()
    params = bp.validate(*triple)
    table = bp.build_pmf_table(params)
    assert table is bp.build_pmf_table(params, dist.DEFAULT_TAIL_TOL)
    assert table is bp.build_pmf_table(params, tail_tol=dist.DEFAULT_TAIL_TOL)
    lookups = (bp.cdf(3, params), bp.pmf(3, params), bp.quantile(0.5, params))
    assert len(calls) == 1 and lookups[0] == table.cdf(3)
    # shared, so read-only: a write would change every later lookup
    with pytest.raises(ValueError):
        table.cumulative[:] = 0.0
    return params


def test_asymptotic_build_reads_the_table_validate_cached(monkeypatch):
    _built_once_and_shared(monkeypatch, (42.795017938700305, 2.0, 0.4996))


def test_strict_law_built_once_and_shared_read_only(monkeypatch):
    params = _built_once_and_shared(monkeypatch, (1.0, 1.0, 0.5))
    law = bp.decompose(params)
    assert law is bp.decompose(params)
    with pytest.raises(ValueError):
        law.cumulative[:] = 0.0
    # integer and float parameters name one law, held as plain floats
    dist._pmf_table.cache_clear()
    shared = bp.build_pmf_table(bp.validate(1, 1, 0.5))
    assert shared is bp.build_pmf_table(params)
    law_params = shared.params
    assert all(type(v) is float for v in (law_params.alpha, law_params.theta, law_params.lam))


# ----------------------------------------------------------------------
# fuzzed surface: every input ends in a BellprocError or a certified law

_EDGE_FLOATS = st.sampled_from(
    [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 1.0, 1e12, 1e300,
     1.7976931348623157e308, math.inf, -math.inf, math.nan, -1.0]
)
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(1e-3, 1e3), st.floats())


@st.composite
def _triples(draw):
    alpha = draw(_FLOATS)
    near_reciprocal = st.builds(
        lambda m, e: 1.0 / m + e, st.integers(1, 10**6), st.floats(-1e-9, 1e-9)
    )
    lam = draw(st.one_of(_FLOATS, st.floats(0.0, 1.0), near_reciprocal))
    near_radius = st.floats(-1e-6, 1e-6).map(lambda e: (1.0 + e) / lam if lam else e)
    theta = draw(st.one_of(_FLOATS, near_radius))
    return alpha, theta, lam


@given(_triples())
@settings(max_examples=60, deadline=timedelta(seconds=10))
def test_distribution_surface_fuzz(triple):
    try:
        params = bp.validate(*triple)
        table = bp.build_pmf_table(params)
        law = bp.decompose(params) if params.validity is Validity.STRICT else None
    except BellprocError:
        return
    assert table.probs.min() >= 0.0
    assert 0.0 <= table.tail_mass <= 1e-12
    assert abs(math.fsum(table.probs) + table.tail_mass - 1.0) <= 1e-12
    if law is not None:
        assert law.support_bound == len(law.jump_probs) <= params.reciprocal_order
        assert law.jump_probs.min() >= 0.0
        assert abs(math.fsum(law.jump_probs) - 1.0) <= 1e-12
