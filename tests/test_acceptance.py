"""Acceptance battery.

One test per criterion, each printing a single machine-greppable
pass/fail line.  The criteria are the named checks of the verification
battery (``bellproc.verify``), read from two results: the full run at
the battery's own seed, the one ``bellproc verify`` gates on, and its
distribution group on a wider grid of 80 laws.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import pytest

import bellproc as bp
from bellproc import verify

DIST_GRID = [
    bp.validate(a, th, lam)
    for a in (0.5, 1.0, 2.0, 5.0)
    for th in (0.25, 0.5, 1.0, 2.0)
    for lam in (1.0, 0.5, 0.25, 0.2, 0.1)
]
SEED = 20250810

P_HALF = bp.validate(1.0, 1.0, 0.5)


@pytest.fixture(scope="module")
def battery():
    """(default-run checks, wide-grid distribution checks), each by name."""
    default = verify.run_verification(verify.DEFAULT_SEED).checks
    wide = verify._dist_checks(DIST_GRID, {})
    return {c.name: c for c in default}, {c.name: c for c in wide}


def _report(number: int, name: str, checks: list[verify.CheckResult]) -> None:
    passed = all(c.passed for c in checks)
    detail = "; ".join(f"{c.name}={c.statistic:.3e} {c.comparison} {c.threshold:g}" for c in checks)
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})", flush=True)
    assert passed, f"criterion {number} {name}: {detail}"


def test_01_dobinski_equivalence(battery):
    default, _ = battery
    _report(1, "dobinski-equivalence", [default["kernel.dobinski_agreement"]])


def test_02_triangle_definitional_identity(battery):
    default, _ = battery
    _report(2, "triangle-identity", [default["kernel.triangle_identity"]])


def test_03_binomial_identity(battery):
    default, _ = battery
    _report(3, "binomial-identity", [default["kernel.binomial_identity"]])


def test_04_normalization(battery):
    _, wide = battery
    _report(4, "normalization", [wide["dist.normalization"]])


def test_05_generating_functions(battery):
    default, wide = battery
    # The derivative's 1e-6 band holds only where the h^2 truncation
    # term (E[X^3]/6)*h^2 sits below it, i.e. on the default grid; at the
    # wide grid's mean ~ 52 the central difference is off by ~2.6e-6.
    _report(
        5,
        "generating-functions",
        [
            wide["dist.pgf_series"],
            wide["dist.mgf_is_pgf_at_exp"],
            default["dist.mgf_derivative_vs_mean"],
        ],
    )


def test_06_moments(battery):
    default, wide = battery
    _report(
        6,
        "moments",
        [
            wide["dist.mean"],
            wide["dist.variance"],
            default["sampler.moment_recovery_mean_z"],
            default["sampler.moment_recovery_var_z"],
        ],
    )


def test_07_convolution_and_superposition(battery):
    default, _ = battery
    _report(
        7,
        "convolution-superposition",
        [default["dist.convolution"], default["process.superposition_chisq_p"]],
    )


def test_08_marginal_law(battery):
    default, _ = battery
    paths = bp.simulate_paths(P_HALF, 2.0, 100_000, bp.RngStream(SEED))
    mean_t1 = float(paths.counts_at((1.0,)).mean())
    mean_check = verify._check_le("|mean(N(1))-1.5|", abs(mean_t1 - 1.5), 0.015)
    _report(8, "marginal-law", [default["process.marginal_chisq_min_p"], mean_check])


def test_09_short_window_linearization(battery):
    default, _ = battery
    _report(
        9,
        "short-window-linearization",
        [default["dist.linearization_ratio_min"], default["dist.linearization_ratio_max"]],
    )


def test_10_limit_collapses(battery):
    default, wide = battery
    _report(10, "limit-collapses", [wide["dist.poisson_collapse"], default["dist.classical_limit"]])


def test_11_laplace_functional(battery):
    default, _ = battery
    _report(11, "laplace-functional", [default["process.laplace_max_z"]])


def test_12_negative_controls(battery):
    default, _ = battery
    _report(
        12,
        "negative-controls",
        [default["dist.mixed_theta_rejected"], default["process.mixed_theta_rejected"]],
    )
