"""The battery's reference distributions against scipy and mpmath, and
its power against faults injected into the compound law."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

import bellproc as bp
from bellproc import distribution, process, verify
from bellproc.distribution import JumpLaw
from bellproc.verify import chi2_sf, contingency_pvalue, ks_pvalue, ks_sf, poisson_pmf

# Tail probabilities from 1e-12 up to 1 - 1e-9.
P_GRID = np.concatenate([np.geomspace(1e-12, 0.5, 14), 1.0 - np.geomspace(1e-9, 0.4, 10)])


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 5, 7, 10, 17, 30, 50, 99, 100, 101, 257, 399, 400])
def test_chi2_sf_against_scipy_and_mpmath(dof):
    for p in P_GRID:
        x = float(stats.chi2.isf(p, dof))
        ours = chi2_sf(x, dof)
        exact = float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                      regularized=True))
        assert ours == pytest.approx(exact, rel=1e-12, abs=0)
        assert ours == pytest.approx(float(stats.chi2.sf(x, dof)), rel=1e-12, abs=0)


def test_chi2_sf_at_nonpositive_statistic():
    assert chi2_sf(0.0, 3) == 1.0 and chi2_sf(-1.0, 3) == 1.0


def test_contingency_pvalue_against_scipy():
    rng = np.random.default_rng(2024)
    for cols in (2, 3, 8, 25, 40):
        for shift in (0.0, 0.05, 0.3):  # equal rows, then rows that differ
            base = rng.dirichlet(np.ones(cols))
            other = np.abs(base + shift * rng.standard_normal(cols))
            tab = np.vstack([
                rng.multinomial(5000, base), rng.multinomial(4000, other / other.sum())
            ]).astype(float)
            tab = tab[:, tab.sum(axis=0) > 0]
            _, ref, _, _ = stats.chi2_contingency(tab, correction=False)
            assert contingency_pvalue(tab) == pytest.approx(ref, rel=1e-12, abs=0)


def _ks_points(n, grid):
    for x in grid:
        if abs(x - 2.2) > 1e-9:  # 2.2 is where both split the method
            yield math.sqrt(x / n)


@pytest.mark.parametrize("n", [11_984, 20_000])
def test_ks_sf_against_scipy_at_battery_sizes(n):
    # scipy takes the Pelz-Good asymptotic series below n*d**2 = 2.2 at
    # these n; the exact law agrees with it to about 3e-9
    for d in _ks_points(n, np.geomspace(0.05, 40.0, 41)):
        ref = float(stats.kstwo.sf(d, n))
        assert ref >= 1e-300
        assert ks_sf(d, n) == pytest.approx(ref, rel=1e-8, abs=0)


def test_ks_sf_against_scipy_exact_small_n():
    # up to n = 140 and n*d**2 = 0.75 scipy computes the same exact law
    for n in range(1, 141):
        for d in _ks_points(n, np.linspace(0.01, 0.75, 12)):
            assert ks_sf(d, n) == pytest.approx(float(stats.kstwo.sf(d, n)), rel=1e-10, abs=0)


def test_ks_pvalue_matches_kstest_on_exponential_gaps():
    # the battery's order-one check, on samples of its size and a little
    # off the null
    rng = np.random.default_rng(11)
    scale = 1.0 / 1.5
    for size, stretch in ((11_984, 1.0), (11_984, 1.01), (20_000, 1.02)):
        gaps = rng.exponential(scale * stretch, size)
        ref = stats.kstest(gaps, "expon", args=(0.0, scale)).pvalue
        ours = ks_pvalue(-np.expm1(-gaps / scale))
        assert ours == pytest.approx(ref, rel=1e-8, abs=0)


def test_poisson_pmf_against_scipy():
    # the reference of dist.poisson_collapse, at every lam = 1 law of the
    # acceptance tests' wide grid, over each table's support
    for a in (0.5, 1.0, 2.0, 5.0):
        for th in (0.25, 0.5, 1.0, 2.0):
            k = np.arange(len(bp.build_pmf_table(bp.validate(a, th, 1.0)).probs))
            ref = stats.poisson.pmf(k, a * th)
            np.testing.assert_allclose(poisson_pmf(k, a * th), ref, rtol=1e-12, atol=0)


def _rate_fault(law):
    return JumpLaw(1.02 * law.burst_rate, law.jump_probs)


def _jump_fault(law):
    # single-size (lam = 1) laws are left alone: a jump of 2 there trips
    # process.order_one_unit_jumps at any fault size
    if law.support_bound < 2:
        return law
    probs = law.jump_probs.copy()
    probs[:2] += (-0.02, 0.02)
    return JumpLaw(law.burst_rate, probs)


@pytest.mark.parametrize("fault", [_rate_fault, _jump_fault], ids=["rate_x1.02", "jump_0.02_to_2"])
def test_battery_detects_compound_law_faults(monkeypatch, fault):
    # the sampler and path simulation read the compound law through these
    # two names; faults of 0.5% pass both groups at this seed
    true_decompose = distribution.decompose

    def faulty(params):
        return fault(true_decompose(params))

    monkeypatch.setattr(distribution, "decompose", faulty)
    monkeypatch.setattr(process, "decompose", faulty)
    for group in (verify._sampler_checks, verify._process_checks):
        assert not all(c.passed for c in group(verify.DEFAULT_SEED)), group.__name__
