"""Special functions: log-gamma, Bessel J of real order, and first zeros.

Orders up to ~100 must stay usable, so the series for J_nu accumulates its
terms from their logarithms with explicit sign tracking, and a companion
log-magnitude variant is provided for quantities that underflow double
precision.  Where the series cancels, mpmath.besselj recomputes the value.
First positive zeros come from a certified bracket refined by Brent's
method (Brent 1973, *Algorithms for Minimization without Derivatives*,
ch. 4), ported from the zeroin loop of scipy.optimize.brentq so that the
zeros are the same to the bit without importing scipy.optimize.  An
independent evaluation through the Poisson-type integral
representation

    J_nu(r) = (r/2)^nu / (Gamma(nu+1/2) sqrt(pi)) * int_{-1}^{1} (1-t^2)^{nu-1/2} cos(rt) dt

serves as a cross-check oracle for moderate and large orders.
"""

from __future__ import annotations

import math

# Eager on purpose: a sector audit calls the cancellation rescue dozens of
# times, so a lazy import would only move mpmath's load into the first audit.
import mpmath
import numpy as np

__all__ = [
    "log_gamma",
    "bessel_j",
    "bessel_j_log",
    "bessel_j_log_grid",
    "bessel_j_integral",
    "first_positive_zero",
]

# Series terms are dropped once their log-magnitude falls this far below the
# running maximum term; 40 nats ~ 4e-18 relative, beyond double precision.
_SERIES_CUTOFF_NATS = 40.0

# Brent's method keeps the stopping rule of scipy.optimize.brentq at xtol =
# 1e-12 with brentq's default rtol and step limit, so the zeros match brentq's.
_BRENT_XTOL = 1e-12
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100

# When the alternating series loses more than ~10 digits to cancellation the
# value is recomputed by mpmath.besselj at 40 significant digits.
_CANCELLATION_LIMIT = 1e6

# Terms of the series that bessel_j_log_grid sums: term k over term k-1 is at
# most 1/(2k) in size there, so term 40 is below 2^-40 / 40! of term 0.
_GRID_TERMS = 40


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not (x > 0) or not math.isfinite(x):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _check_order(nu: float) -> None:
    if not math.isfinite(nu) or nu < 0:
        raise ValueError(f"Bessel order must be finite and >= 0, got {nu}")


def _series_terms(nu: float, r: float):
    """Log-magnitudes and signs of the power-series terms of J_nu(r).

    Term k is (-1)^k (r/2)^(nu+2k) / (k! Gamma(k+nu+1)).  Terms are generated
    until the log of the next term is _SERIES_CUTOFF_NATS below the running
    maximum and the index is past the hump at k ~ r/2.
    """
    lr2 = math.log(r / 2.0)
    logs = []
    maxlog = -math.inf
    k = 0
    while True:
        lt = (nu + 2 * k) * lr2 - math.lgamma(k + 1) - math.lgamma(k + nu + 1)
        logs.append(lt)
        maxlog = max(maxlog, lt)
        if k > r / 2.0 and lt < maxlog - _SERIES_CUTOFF_NATS:
            break
        k += 1
    return np.asarray(logs), maxlog


def _series_mpmath(nu: float, r: float) -> tuple[float, int]:
    """(log|J|, sign) from mpmath.besselj at 40 digits; cancellation rescue.

    mpmath raises its own working precision when its series cancels, so the
    result holds at large order where the double-precision terms do not.
    """
    with mpmath.workdps(40):
        value = mpmath.besselj(nu, r)
        if value == 0:
            return -math.inf, 1
        return float(mpmath.log(abs(value))), (1 if value > 0 else -1)


def bessel_j_log(nu: float, r: float) -> tuple[float, int]:
    """Bessel J_nu(r) in log-magnitude + sign form: J = sign * exp(logmag).

    Safe against overflow/underflow of the value itself; use this variant
    whenever (r/2)^nu / Gamma(nu+1) leaves the double range.
    """
    _check_order(nu)
    if r < 0:
        raise ValueError(f"bessel_j requires r >= 0, got {r}")
    if r == 0.0:
        return (0.0, 1) if nu == 0.0 else (-math.inf, 1)
    logs, maxlog = _series_terms(nu, r)
    signs = np.where(np.arange(len(logs)) % 2 == 0, 1.0, -1.0)
    scaled = np.exp(logs - maxlog)
    total = math.fsum(signs * scaled)
    gross = math.fsum(scaled)
    if total == 0.0 or gross / abs(total) > _CANCELLATION_LIMIT:
        return _series_mpmath(nu, r)
    return maxlog + math.log(abs(total)), (1 if total > 0 else -1)


def bessel_j(nu: float, r: float) -> float:
    """Bessel function of the first kind of real order nu >= 0 at r >= 0."""
    logmag, sign = bessel_j_log(nu, r)
    if logmag == -math.inf:
        return 0.0
    return sign * math.exp(logmag)


def _grid_terms(nu: float, x_max: float) -> int:
    """Index of the last series term that bessel_j_log_grid sums: the first
    k at which the bound prod_{i <= k} x_max / (i (i + nu)) on |term k / term
    0| falls below 2^-64, and at most _GRID_TERMS - 1.  The ratios fall with
    i, so at every node each omitted term is below 2^-64 of t's first term,
    and the later ones shrink by at least half per step."""
    bound = 1.0
    for k in range(1, _GRID_TERMS - 1):
        bound *= x_max / (k * (k + nu))
        if bound < 2.0**-64:
            return k
    return _GRID_TERMS - 1


def bessel_j_log_grid(nu: float, r: np.ndarray) -> np.ndarray:
    """Vectorized log|J_nu| over an array of small arguments.

    Restricted to the dominant-first-term regime x = r^2/4 <= (nu+1)/2,
    the fast path for log-space quadratures at large order.  Term k of the
    series (DLMF 10.2.2) over term k-1 is -x / (k (k+nu)), at most 1/(2k)
    in size there, so the sum of the first _GRID_TERMS terms over term 0 is
    1 + t with t = -x/(1+nu) (1 - x/(2(2+nu)) (1 - ...)) evaluated by
    Horner's rule from the last ratio, and

        log|J_nu(r)| = nu log(r/2) - log Gamma(nu+1) + log1p(t).

    log1p keeps the relative accuracy where J_nu is close to 1 (nu = 0,
    log|J_0(r)| ~ -r^2/4).  At r = 0 it returns bessel_j_log(nu, 0.0): 0
    for nu = 0, else -inf.
    """
    _check_order(nu)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("need r >= 0")
    x = r**2 / 4.0
    if np.any(x > (nu + 1.0) / 2.0):
        raise ValueError("grid variant needs r^2/4 <= (nu+1)/2; use bessel_j_log")
    out = np.full(r.shape, bessel_j_log(nu, 0.0)[0])
    pos = r != 0
    x = x[pos]
    t = np.zeros_like(x)
    for k in range(_grid_terms(nu, float(x.max(initial=0.0))), 0, -1):
        t = -x / (k * (k + nu)) * (1.0 + t)
    out[pos] = nu * np.log(r[pos] / 2.0) - math.lgamma(nu + 1.0) + np.log1p(t)
    return out


_GAUSS_LEGENDRE_16 = np.polynomial.legendre.leggauss(16)


def _integral_on(nu: float, r: float, lo: float, hi: float) -> float:
    """16-point Gauss-Legendre quadrature of (1-t^2)^(nu-1/2) cos(rt) over [lo, hi]."""
    x, w = _GAUSS_LEGENDRE_16
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    t = mid + half * x
    return half * float(np.sum(w * (1.0 - t * t) ** (nu - 0.5) * np.cos(r * t)))


def _integral_panels(nu: float, r: float, base_panels: int) -> float:
    """Composite quadrature of the even integrand over [0, 1].

    The interior is split into enough panels to resolve the cos(rt)
    oscillation.  When nu - 1/2 < 1 the integrand has an algebraic endpoint
    at t = 1, so the last panel is refined dyadically toward the endpoint.
    """
    total = 0.0
    edges = np.linspace(0.0, 1.0, base_panels + 1)
    # dyadic splitting of the final panel toward t=1 tames the endpoint
    last_lo = edges[-2]
    for lo, hi in zip(edges[:-2], edges[1:-1]):
        total += _integral_on(nu, r, lo, hi)
    lo = last_lo
    width = 1.0 - last_lo
    levels = 52 if nu - 0.5 < 1.0 else 8
    for _ in range(levels):
        width /= 2.0
        total += _integral_on(nu, r, lo, 1.0 - width)
        lo = 1.0 - width
    return 2.0 * total  # integrand is even in t


def bessel_j_integral(nu: float, r: float) -> float:
    """J_nu(r) through the integral representation; independent of the series.

    Valid for nu >= 0; converges by doubling the panel count until the change
    is below 5e-14 of the integrand's gross mass.
    """
    _check_order(nu)
    if r < 0:
        raise ValueError(f"bessel_j_integral requires r >= 0, got {r}")
    if r == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    log_pref = nu * math.log(r / 2.0) - math.lgamma(nu + 0.5) - 0.5 * math.log(math.pi)
    # gross mass of |integrand| = sqrt(pi) Gamma(nu+1/2) / Gamma(nu+1)
    log_gross = 0.5 * math.log(math.pi) + math.lgamma(nu + 0.5) - math.lgamma(nu + 1.0)
    panels = max(8, int(math.ceil(r)))
    prev = _integral_panels(nu, r, panels)
    for _ in range(12):
        panels *= 2
        cur = _integral_panels(nu, r, panels)
        if abs(cur - prev) <= 5e-14 * math.exp(log_gross):
            prev = cur
            break
        prev = cur
    return math.copysign(math.exp(log_pref + math.log(abs(prev))), prev) if prev != 0.0 else 0.0


def _first_zero_bracket(nu: float) -> tuple[float, float]:
    """The bracket (lo, hi) of first_positive_zero."""
    lo = nu + 1.8557571 * nu ** (1.0 / 3.0)
    hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    if nu > 0:
        hi = min(hi, lo + 1.033150 * nu ** (-1.0 / 3.0))
    return lo, hi


def _brent(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method: each step interpolates (secant), extrapolates (inverse quadratic)
    or bisects, and the bracket [cur, blk] always holds a sign change.  The
    zeroin loop of scipy.optimize.brentq, step for step, so the roots agree
    to the bit.  Stops once half the bracket is below (xtol + rtol |x|) / 2,
    and raises RuntimeError after _BRENT_MAXITER steps.
    """
    xtol, rtol = _BRENT_XTOL, _BRENT_RTOL
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method failed to converge after {_BRENT_MAXITER} iterations, "
                       f"value is {xcur}")


def first_positive_zero(nu: float) -> float:
    """Smallest alpha > 0 with J_nu(alpha) = 0, to absolute 1e-12.

    The zero lies in a proven bracket: lo = nu + 1.8557571 nu^(1/3) and, for
    nu > 0, hi = lo + 1.033150 nu^(-1/3) (Qu & Wong, Trans. AMS 351, 1999;
    DLMF 10.21(vii)), capped by sqrt(nu+1) (sqrt(nu+2) + 1) (Chambers,
    Math. Comp. 38, 1982) near nu = 0, where the Qu-Wong term blows up.
    J_nu(lo) > 0 > J_nu(hi) is checked at run time (J_0(0) = 1), and
    Brent's method (`_brent`, the zeroin loop of scipy.optimize.brentq at
    xtol = 1e-12, rtol = 4 eps and at most 100 steps) refines the bracket,
    with the zeros of brentq to the bit.  There is no tolerance knob.
    """
    _check_order(nu)
    lo, hi = _first_zero_bracket(nu)
    if not bessel_j(nu, lo) > 0.0 > bessel_j(nu, hi):
        raise RuntimeError(f"failed to bracket the first zero of J_{nu} on [{lo}, {hi}]")
    return _brent(lambda x: bessel_j(nu, x), lo, hi)
