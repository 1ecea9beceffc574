import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from annulab import specfun


def test_log_gamma_exact_points():
    assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert specfun.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert specfun.log_gamma(11.0) == pytest.approx(math.log(3628800.0), rel=1e-14)


def test_log_gamma_relative_accuracy():
    for x in [0.5, 0.7, 1.0, 2.5, 17.0, 123.4, 5678.0, 1e4]:
        exact = float(mpmath.log(mpmath.gamma(x)))
        if exact != 0.0:
            assert abs(specfun.log_gamma(x) - exact) <= 1e-12 * abs(exact)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        specfun.log_gamma(0.0)
    with pytest.raises(ValueError):
        specfun.log_gamma(-3.0)


def test_bessel_trivial_values():
    assert specfun.bessel_j(0.0, 0.0) == 1.0
    assert specfun.bessel_j(1.0, 0.0) == 0.0
    # half-integer closed form: J_{1/2}(r) = sqrt(2/(pi r)) sin(r)
    assert specfun.bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_series_vs_integral_cross_oracle():
    # the two independent in-package evaluation routes must agree
    a = specfun.bessel_j(1.0, 1.0)
    b = specfun.bessel_j_integral(1.0, 1.0)
    assert abs(a - b) <= 1e-10

    for nu in (1.0, 2.0, 5.0, 10.0):
        for frac in np.linspace(0.1, 1.0, 10):
            r = 2.0 * nu * frac
            s = specfun.bessel_j(nu, r)
            i = specfun.bessel_j_integral(nu, r)
            assert abs(s - i) <= 1e-8 * max(abs(s), abs(i)), (nu, r, s, i)


def test_bessel_against_scipy():
    for nu in (0.0, 0.5, 1.0, 3.0, 8.0, 12.5):
        for r in (0.1, 1.0, 4.0, 9.0, 20.0):
            assert specfun.bessel_j(nu, r) == pytest.approx(float(sp.jv(nu, r)), abs=2e-13, rel=1e-9)
    # large orders on either side of the first zero, where the double-precision
    # series cancels and the mpmath rescue carries the value
    for order in (64, 80, 100):
        j1 = float(sp.jn_zeros(order, 1)[0])
        for r in (0.99 * j1, 1.01 * j1):
            assert specfun.bessel_j(float(order), r) == pytest.approx(
                float(sp.jv(order, r)), abs=2e-13, rel=1e-9
            )


def test_bessel_log_underflow_regime():
    # linear evaluation underflows; log-magnitude form stays finite
    logmag, sign = specfun.bessel_j_log(200.0, 0.1)
    assert sign == 1
    assert math.isfinite(logmag) and logmag < -600
    assert specfun.bessel_j(200.0, 0.1) == 0.0  # graceful underflow


def test_bessel_positive_below_first_zero():
    for nu in (0.0, 1.0, 5.0):
        alpha = specfun.first_positive_zero(nu)
        for r in np.linspace(0.05, 0.999 * alpha, 17):
            assert specfun.bessel_j(nu, r) > 0.0


def test_first_zero_values():
    assert specfun.first_positive_zero(0.5) == pytest.approx(math.pi, abs=1e-9)
    assert specfun.first_positive_zero(0.0) == pytest.approx(2.404825557695773, abs=1e-9)
    # scipy zeros as an extra oracle for integer orders
    for order in (1, 2, 10):
        assert specfun.first_positive_zero(float(order)) == pytest.approx(
            float(sp.jn_zeros(order, 1)[0]), abs=1e-8
        )
    # mpmath zeros at the sector orders and at large order
    for nu in (3.003, 32.0, 64.0, 100.0):
        assert specfun.first_positive_zero(nu) == pytest.approx(
            float(mpmath.besseljzero(mpmath.mpf(nu), 1)), abs=1e-10
        )


def test_first_zero_bracket_changes_sign():
    # the bracket's end signs checked with scipy, independent of the series
    for nu in np.linspace(0.0, 200.0, 401):
        lo, hi = specfun._first_zero_bracket(nu)
        assert nu <= lo < hi
        assert sp.jv(nu, lo) > 0.0 > sp.jv(nu, hi), (nu, lo, hi)


# The sector orders 1/beta of every benchmark variant: the fixed openings,
# and beta = 1/m for the integer orders m = 8, 16, 32 moved by at most one.
SECTOR_ORDERS = [1.0 / b for b in (0.333, 0.25, 0.2, 0.125, 0.0625, 0.03125)] + [
    1.0 / (1.0 / m) for m in (7, 8, 9, 15, 16, 17, 31, 32, 33)]


def test_first_zero_is_brentq_to_the_bit():
    from scipy.optimize import brentq

    for nu in [0.0, 0.5, 1.0, 2.5, 7.3, 31.15, 64.0, 99.5, 100.0] + SECTOR_ORDERS:
        lo, hi = specfun._first_zero_bracket(nu)
        expected = brentq(lambda x: specfun.bessel_j(nu, x), lo, hi, xtol=1e-12)
        assert specfun.first_positive_zero(nu) == expected, nu


def test_brent_refusals_match_brentq(monkeypatch):
    from scipy.optimize import brentq

    def f(x):
        return math.tan(x) - x - 1.0

    # a sign change is required
    with pytest.raises(ValueError, match="different signs"):
        specfun._brent(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    # too few steps: both fail to converge; with enough, both land on one bit
    assert specfun._brent(f, 0.1, 1.5) == brentq(f, 0.1, 1.5, xtol=1e-12)
    for steps in (1, 2, 5):
        monkeypatch.setattr(specfun, "_BRENT_MAXITER", steps)
        with pytest.raises(RuntimeError, match="failed to converge"):
            specfun._brent(f, 0.1, 1.5)
        with pytest.raises(RuntimeError):
            brentq(f, 0.1, 1.5, maxiter=steps)
    # an end point that is a root is returned as it is
    assert specfun._brent(lambda x: x - 1.0, 1.0, 3.0) == 1.0


def test_bessel_log_grid_matches_mpmath():
    # mpmath.besselj at 40 digits is the oracle; near nu = 0 log|J_0(u)| ~
    # -u^2/4 is close to 0, so the bound is relative to a small value there
    for nu in SECTOR_ORDERS + [0.0, 1.5, 150.0]:
        u = np.linspace(0.0, min(1.0, math.sqrt(2.0 * (nu + 1.0))), 257)[1:]
        with mpmath.workdps(40):
            expected = np.array([float(mpmath.log(abs(mpmath.besselj(nu, x)))) for x in u])
        got = specfun.bessel_j_log_grid(nu, u)
        assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected)), nu


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nu", [0.0, 0.5, 3.0, 150.0])
def test_bessel_log_grid_at_zero_is_the_closed_form(nu):
    # log|J_nu(0)| is 0 for nu = 0 and -inf above it, with no warning; the
    # other points keep the values they have without the zero
    u = np.array([0.0, 0.25, 0.0, 1.0])
    got = specfun.bessel_j_log_grid(nu, u)
    assert np.array_equal(got[[0, 2]], [specfun.bessel_j_log(nu, 0.0)[0]] * 2)
    assert np.array_equal(got[[1, 3]], specfun.bessel_j_log_grid(nu, u[[1, 3]]))


def test_first_zero_monotone_in_order():
    zeros = [specfun.first_positive_zero(nu) for nu in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0)]
    assert all(z2 > z1 for z1, z2 in zip(zeros, zeros[1:]))


def test_first_zero_large_order_asymptotics():
    # alpha ~ nu + 1.855757 nu^(1/3) as the order grows; at nu = 10 the
    # remainder is within the unit acceptance window
    alpha = specfun.first_positive_zero(10.0)
    assert abs(alpha - (10.0 + 1.855757 * 10.0 ** (1.0 / 3.0))) <= 1.0


def test_order_validation():
    with pytest.raises(ValueError):
        specfun.bessel_j(-1.0, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(1.0, -1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(math.inf, 1.0)
