"""Kernel tests: falling factorials, degenerate exponentials, triangles,
Bell polynomials, and their classical limit references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellproc import special
from bellproc import (
    ConvergenceError,
    LogStirlingTable,
    ParameterError,
    RangeError,
    StirlingTable,
    bell_number,
    bell_poly,
    bell_poly_classical,
    bell_poly_dobinski,
    build_log_stirling_table,
    build_stirling_table,
    degenerate_exp,
    falling_factorial,
    stirling2_classical,
)

STRICT_LAMS = (1.0, 0.5, 0.25, 0.1)


# ----------------------------------------------------------------------
# falling_factorial


def test_falling_factorial_order_zero_is_one():
    assert falling_factorial(3.0, 0, 0.5) == 1.0


def test_falling_factorial_vanishing_factor():
    assert falling_factorial(1.0, 2, 1.0) == 0.0


def test_falling_factorial_direct_product():
    assert falling_factorial(2.0, 3, 0.5) == pytest.approx(3.0, abs=1e-15)


@given(
    x=st.floats(-5, 5, allow_nan=False),
    n=st.integers(0, 15),
    lam=st.floats(0, 1, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_falling_factorial_recursion(x, n, lam):
    assert falling_factorial(x, n + 1, lam) == pytest.approx(
        falling_factorial(x, n, lam) * (x - n * lam), rel=1e-12, abs=1e-300
    )


def test_falling_factorial_limits():
    # lam -> 0 gives powers, lam = 1 the ordinary falling factorial
    assert falling_factorial(2.5, 4, 0.0) == pytest.approx(2.5**4)
    assert falling_factorial(6.0, 3, 1.0) == pytest.approx(6 * 5 * 4)


def test_falling_factorial_rejects_negative_order():
    with pytest.raises(ParameterError):
        falling_factorial(1.0, -1, 0.5)


def test_falling_factorial_over_an_array_matches_scalar_calls():
    xs = np.linspace(-7.0, 9.0, 12).reshape(3, 4)
    for n in (0, 1, 5, 17):
        for lam in (0.0, 0.3, 1.0, -1.5):
            got = falling_factorial(xs, n, lam)
            assert got.shape == xs.shape
            assert got.tolist() == [[falling_factorial(float(x), n, lam) for x in row] for row in xs]
    assert falling_factorial(xs, 0, 0.5).tolist() == np.ones((3, 4)).tolist()


def test_orders_and_indices_must_be_non_negative_integers():
    table = build_stirling_table(0.5, 5)
    log_table = build_log_stirling_table(0.5, 5)
    refused = (
        lambda: falling_factorial(2.0, 2.5, 0.5),
        lambda: falling_factorial(2.0, True, 0.5),
        lambda: build_stirling_table(0.5, 2.5),
        lambda: build_log_stirling_table(0.5, True),
        lambda: bell_poly(2.5, 1.0, table),
        lambda: bell_poly(True, 2.0, table),
        lambda: table.value(2.5, 1),
        lambda: table.value(2, 1.5),
        lambda: table.value(2, -1),
        lambda: log_table.log_value(2.5, 1),
        lambda: bell_poly_dobinski(2.5, 1.0, 0.5),
        lambda: stirling2_classical(2.5, 1),
        lambda: stirling2_classical(3, 1.5),
        lambda: bell_poly_classical(2.5, 1.0),
    )
    for call in refused:
        with pytest.raises(ParameterError):
            call()
    # numpy integers are integers
    assert bell_poly(np.int64(2), 1.0, table) == bell_poly(2, 1.0, table)
    assert table.value(np.int64(2), np.int64(3)) == 0.0


# ----------------------------------------------------------------------
# degenerate_exp


def test_degenerate_exp_zero_exponent():
    assert degenerate_exp(0.0, 0.5, 3.0) == 1.0


def test_degenerate_exp_order_one():
    assert degenerate_exp(1.0, 1.0, 0.5) == pytest.approx(1.5)


def test_degenerate_exp_half_order():
    assert degenerate_exp(1.0, 0.5, 1.0) == pytest.approx(2.25)


def test_degenerate_exp_domain_errors():
    with pytest.raises(ParameterError):
        degenerate_exp(1.0, 0.5, -3.0)  # 1 + lam*t < 0
    with pytest.raises(ParameterError):
        degenerate_exp(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        degenerate_exp(1.0, math.nan, 1.0)
    with pytest.raises(RangeError):
        degenerate_exp(1e3, 1e-3, 1e3)


def test_degenerate_exp_approaches_exp():
    assert degenerate_exp(2.0, 1e-9, 1.5) == pytest.approx(math.exp(3.0), rel=1e-6)


# ----------------------------------------------------------------------
# Stirling triangle


def test_table_trivial():
    table = build_stirling_table(0.5, 0)
    assert table.value(0, 0) == 1.0


@pytest.mark.parametrize("lam", STRICT_LAMS + (0.7, 0.37, 1e-3))
def test_table_rows_match_the_cell_recurrence(lam):
    # the cell-by-cell recurrence as the reference: the row-wise fill
    # performs the same operations on every cell, so the bits agree
    ref = np.zeros((61, 61))
    ref[0, 0] = 1.0
    for n in range(60):
        for k in range(1, n + 2):
            ref[n + 1, k] = ref[n, k - 1] + (k - n * lam) * ref[n, k]
    assert build_stirling_table(lam, 60).entries.tobytes() == ref.tobytes()


def test_table_size_comes_from_its_entries():
    table = StirlingTable(0.5, build_stirling_table(0.5, 5).entries)
    assert table.max_n == 5
    with pytest.raises(ParameterError):
        table.value(7, 2)


def test_triangles_freeze_and_check_what_they_are_given():
    entries = np.eye(3)
    table, log_table = StirlingTable(0.5, entries), LogStirlingTable(0.5, entries)
    entries[0, 0] = -3.0
    for held in (table.entries, log_table.log_entries):
        assert not held.flags.writeable and held[0, 0] == 1.0
    for bad in (np.ones((3, 2)), np.ones(3), np.ones((2, 2, 2))):
        for cls in (StirlingTable, LogStirlingTable):
            with pytest.raises(ParameterError):
                cls(0.5, bad)
    # what the builders made read-only is kept, not copied
    built = build_stirling_table(0.5, 5)
    assert StirlingTable(0.5, built.entries).entries is built.entries
    logs = build_log_stirling_table(0.5, 5)
    assert LogStirlingTable(0.5, logs.log_entries).log_entries is logs.log_entries


def test_table_first_column_half():
    # expanding x(x - lam) over the falling-factorial basis
    table = build_stirling_table(0.5, 2)
    assert table.value(2, 1) == pytest.approx(0.5)


def test_table_order_one_is_identity():
    table = build_stirling_table(1.0, 3)
    for n in range(4):
        for k in range(n + 1):
            assert table.value(n, k) == (1.0 if n == k else 0.0)


@pytest.mark.parametrize("lam", STRICT_LAMS + (0.7, 1e-3))
def test_table_structure(lam):
    table = build_stirling_table(lam, 12)
    for n in range(13):
        assert table.value(n, n) == pytest.approx(1.0)
        if n >= 1:
            assert table.value(n, 0) == 0.0
    for k in range(1, 13):
        assert table.value(k, 1) == pytest.approx(
            falling_factorial(1.0, k, lam), rel=1e-13, abs=1e-300
        )


@pytest.mark.parametrize("lam", STRICT_LAMS)
def test_table_matches_definition_at_integer_points(lam):
    # the triangle must reproduce the generalized falling factorial when
    # contracted against the ordinary falling-factorial basis
    table = build_stirling_table(lam, 20)
    for n in range(21):
        for x in range(1, n + 2):
            lhs = falling_factorial(float(x), n, lam)
            rhs = math.fsum(
                table.value(n, k) * falling_factorial(float(x), k, 1.0)
                for k in range(n + 1)
            )
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("lam", (0.7, 0.37))
def test_table_matches_definition_general_order(lam):
    # non-reciprocal lam: the triangle entries alternate in sign and the
    # contraction cancels catastrophically past n ~ 15, so the identity
    # is only well-conditioned at moderate n
    table = build_stirling_table(lam, 12)
    for n in range(13):
        for x in range(1, n + 2):
            lhs = falling_factorial(float(x), n, lam)
            rhs = math.fsum(
                table.value(n, k) * falling_factorial(float(x), k, 1.0)
                for k in range(n + 1)
            )
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def _newton_coefficient(n, k, lam):
    # Divided difference of the generalized falling factorial at nodes
    # 0..k: an independent (definitional) route to the triangle entry.
    total = math.fsum(
        (-1) ** (k - j) * math.comb(k, j) * falling_factorial(float(j), n, lam)
        for j in range(k + 1)
    )
    return total / math.factorial(k)


@pytest.mark.parametrize("lam", STRICT_LAMS + (0.7,))
def test_table_matches_newton_coefficients(lam):
    table = build_stirling_table(lam, 12)
    for n in range(13):
        for k in range(n + 1):
            oracle = _newton_coefficient(n, k, lam)
            assert table.value(n, k) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_table_cap():
    with pytest.raises(ConvergenceError):
        build_stirling_table(0.5, 201)
    with pytest.raises(ParameterError):
        build_stirling_table(0.5, -1)


def test_table_refuses_rows_past_the_double_range():
    # lam = 0.7 overflows from row 187 on; the rows before it all fit
    with pytest.raises(RangeError, match="row 187"):
        build_stirling_table(0.7, 200)
    assert np.isfinite(build_stirling_table(0.7, 186).entries).all()


# ----------------------------------------------------------------------
# log-domain triangle


@pytest.mark.parametrize("lam", STRICT_LAMS)
def test_log_table_matches_linear(lam):
    log_table = build_log_stirling_table(lam, 40)
    table = build_stirling_table(lam, 40)
    for n in range(41):
        for k in range(n + 1):
            linear = table.value(n, k)
            logged = log_table.log_value(n, k)
            if linear == 0.0:
                assert logged == -math.inf or math.exp(logged) < 1e-250
            else:
                assert math.exp(logged) == pytest.approx(linear, rel=1e-12)


def test_log_table_rejects_general_order():
    with pytest.raises(ParameterError):
        build_log_stirling_table(0.7, 10)


def test_log_table_exact_zero_region():
    # entries vanish identically for n > m*k (generating polynomial of
    # degree m*k); lam = 0.1 is not exactly 1/10 in binary, so this also
    # exercises the boundary sign guard
    log_table = build_log_stirling_table(0.1, 50)
    for k in range(1, 5):
        assert log_table.log_value(10 * k + 1, k) == -math.inf
        assert log_table.log_value(10 * k, k) > -math.inf


# ----------------------------------------------------------------------
# Bell polynomials: table route


def test_bell_poly_order_zero():
    table = build_stirling_table(0.5, 5)
    assert bell_poly(0, 7.0, table) == 1.0


def test_bell_poly_quadratic():
    table = build_stirling_table(0.5, 5)
    assert bell_poly(2, 1.0, table) == pytest.approx(1.5)


def test_bell_poly_cubic():
    # x^3 + 3(1-lam)x^2 + (1-lam)(1-2lam)x at lam=0.25, x=2
    table = build_stirling_table(0.25, 5)
    assert bell_poly(3, 2.0, table) == pytest.approx(17.75)


def test_bell_poly_out_of_range():
    table = build_stirling_table(0.5, 5)
    with pytest.raises(ParameterError):
        bell_poly(6, 1.0, table)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            bell_poly(3, x, table)
    # finite x whose powers, terms or sum pass the double range
    for n, x in ((3, 1e200), (3, -1e200), (20, 1e20)):
        with pytest.raises(RangeError):
            bell_poly(n, x, build_stirling_table(0.5, 20))


@pytest.mark.parametrize("lam", STRICT_LAMS)
def test_bell_poly_binomial_identity(lam):
    table = build_stirling_table(lam, 15)
    for n in range(16):
        for x in (0.5, 1.0, 2.0):
            for y in (0.5, 1.0, 2.0):
                lhs = bell_poly(n, x + y, table)
                rhs = math.fsum(
                    math.comb(n, k) * bell_poly(k, x, table) * bell_poly(n - k, y, table)
                    for k in range(n + 1)
                )
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_bell_poly_order_one_collapse():
    table = build_stirling_table(1.0, 20)
    for n in range(21):
        for x in (0.5, 1.0, 3.0):
            assert bell_poly(n, x, table) == x**n


# ----------------------------------------------------------------------
# Bell polynomials: series route


def test_dobinski_order_zero():
    assert bell_poly_dobinski(0, 1.0, 0.5, 1e-12) == pytest.approx(1.0, abs=1e-10)


def test_dobinski_linear():
    assert bell_poly_dobinski(1, 1.0, 0.5, 1e-12) == pytest.approx(1.0, abs=1e-10)


def test_dobinski_quadratic():
    assert bell_poly_dobinski(2, 1.0, 0.5, 1e-12) == pytest.approx(1.5, abs=1e-10)


@pytest.mark.parametrize("lam", STRICT_LAMS)
def test_dobinski_agrees_with_table(lam):
    table = build_stirling_table(lam, 20)
    for n in range(21):
        # past x of about 697, x**k / k! alone would pass the largest double
        for x in (0.5, 1.0, 2.0, 5.0, 700.0):
            ref = bell_poly(n, x, table)
            got = bell_poly_dobinski(n, x, lam, 1e-12)
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))


def test_dobinski_domain_errors(monkeypatch):
    with pytest.raises(ParameterError):
        bell_poly_dobinski(2, -1.0, 0.5, 1e-12)
    with pytest.raises(ParameterError):
        bell_poly_dobinski(2, 1.0, 0.5, 0.0)
    # refused up front, not after every term of a series that cannot certify
    for x, tol in ((math.inf, 1e-12), (math.nan, 1e-12), (1.0, math.nan)):
        with pytest.raises(ParameterError):
            bell_poly_dobinski(2, x, 0.5, tol)
    monkeypatch.setattr(special, "_DOBINSKI_MAX_TERMS", 3)
    with pytest.raises(ConvergenceError):
        bell_poly_dobinski(2, 1.0, 0.5, 1e-12)


# ----------------------------------------------------------------------
# Bell numbers


def test_bell_number_zero():
    table = build_stirling_table(0.5, 5)
    assert bell_number(0, table) == 1.0


def test_bell_number_half():
    table = build_stirling_table(0.5, 5)
    assert bell_number(2, table) == pytest.approx(1.5)


def test_bell_number_order_one():
    table = build_stirling_table(1.0, 5)
    assert bell_number(2, table) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# classical references


def _partitions_into_blocks(items, k):
    # brute-force set partitions of `items` into exactly k blocks
    if len(items) == 0:
        yield from ([[]] if k == 0 else [])
        return
    if k == 0:
        return
    first, rest = items[0], items[1:]
    for part in _partitions_into_blocks(rest, k - 1):
        yield [[first]] + part
    for part in _partitions_into_blocks(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def test_classical_stirling_vs_enumeration():
    for n in range(1, 8):
        for k in range(1, n + 1):
            count = sum(1 for _ in _partitions_into_blocks(list(range(n)), k))
            assert stirling2_classical(n, k) == count


def test_classical_stirling_examples():
    assert stirling2_classical(3, 2) == 3.0
    assert stirling2_classical(7, 7) == 1.0
    assert stirling2_classical(5, 0) == 0.0


def test_classical_bell_polynomial():
    assert bell_poly_classical(2, 1.0) == pytest.approx(2.0)  # Bell number B_2
    assert bell_poly_classical(0, 3.0) == 1.0
    # B_0..B_6 = 1, 1, 2, 5, 15, 52, 203
    bells = [bell_poly_classical(n, 1.0) for n in range(7)]
    assert bells == pytest.approx([1, 1, 2, 5, 15, 52, 203])


def test_classical_cap():
    with pytest.raises(ParameterError):
        stirling2_classical(26, 3)


def test_degenerate_triangle_limit_to_classical():
    # |S_lam(n, k) - S2(n, k)| <= C * lam, with C bounded and the error
    # shrinking as lam does
    errs = {}
    for lam in (1e-3, 1e-4):
        table = build_stirling_table(lam, 12)
        errs[lam] = max(
            abs(table.value(n, k) - stirling2_classical(n, k))
            for n in range(13)
            for k in range(n + 1)
        )
    assert errs[1e-4] < errs[1e-3]
    c_coarse = errs[1e-3] / 1e-3
    c_fine = errs[1e-4] / 1e-4
    assert c_fine <= c_coarse * 1.5


def test_degenerate_bell_limit_to_classical():
    table = build_stirling_table(1e-6, 12)
    for n in range(13):
        assert bell_poly(n, 1.0, table) == pytest.approx(
            bell_poly_classical(n, 1.0), rel=1e-4
        )
