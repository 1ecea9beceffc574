"""Closed-form comparison profiles and eigenvalue bound checkers.

A "caricature" is an explicit expression known to be two-sided comparable to
a principal Dirichlet eigenfunction; this module evaluates the catalog of
such profiles (thin/non-thin annuli, boxes, separated cosines, orthant
products, coordinate triangles on S^2), each a function of its parameters
and then its points, the matching two-sided eigenvalue bounds for annuli,
and runs the numeric audits that confront them with computed eigendata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics, radial

__all__ = [
    "BoundsReport",
    "thin_annulus_caricature",
    "wide_annulus_caricature",
    "box_caricature",
    "separated_cosine_caricature",
    "orthant_product_caricature",
    "coordinate_triangle_caricature",
    "comparability_audit",
    "annulus_eigenvalue_coefficients",
    "annulus_eigenvalue_bounds",
    "supnorm_bounds_check",
    "hadamard_scan",
    "eigengap_scan",
]


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of a two-sided bound check."""

    name: str
    value: float
    lower: float
    upper: float
    passed: bool
    slack: float
    extra: dict = field(default_factory=dict)

    @staticmethod
    def check(name: str, value: float, lower: float, upper: float,
              tol: float = 0.0, extra: dict | None = None) -> "BoundsReport":
        passed = (lower - tol) <= value <= (upper + tol)
        slack = min(value - lower, upper - value)
        return BoundsReport(name, value, lower, upper, passed, slack, extra or {})


def _shell_points(r, a, b, closed=False) -> np.ndarray:
    """Radii as a float array, refused unless a < r < b (a <= r <= b if closed)."""
    r = np.asarray(r, dtype=float)
    if not np.all(((r >= a) & (r <= b)) if closed else ((r > a) & (r < b))):
        raise ValueError(f"point outside the annulus ({a}, {b})")
    return r


def _in_float_range(kind: str, a: float, b: float, profile):
    """profile(a, b) with a and b as numpy floats, so that an overflow, a
    division by zero or an invalid result anywhere in it, scale included,
    raises; one FloatingPointError then names the profile and the shell,
    in place of numpy's warnings and a nan or 0 result."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return profile(np.float64(a), np.float64(b))
    except FloatingPointError as exc:
        raise FloatingPointError(f"the {kind} profile on the shell ({a!r}, {b!r}) cannot "
                                 f"be computed in floats: {exc}") from None


def thin_annulus_caricature(n: int, a: float, b: float, r) -> np.ndarray:
    """Tent profile for annuli with a/b in (1/2, 1) at radii a < r < b:
    (1/a^(n/2+1)) min(|x|-a, b-|x|) / (b/a - 1)^(3/2)."""
    radial.require_dimension(n)
    radial.require_shell(a, b)
    r = _shell_points(r, a, b)
    return _in_float_range("thin-annulus", a, b, lambda a, b: np.minimum(r - a, b - r) / (
        (b / a - 1.0) ** 1.5 * a ** (n / 2.0 + 1.0)))


def wide_annulus_caricature(n: int, a: float, b: float, r) -> np.ndarray:
    """Profile for annuli with a/b <= 1/2 at radii a < r < b; its inner factor
    is harmonic in |x|: log(r/a) for n = 2, 1 - (a/r)^(n-2) above."""
    radial.require_dimension(n)
    radial.require_shell(a, b)
    r = _shell_points(r, a, b)
    if n == 2:
        return _in_float_range("wide-annulus", a, b, lambda a, b: np.log(r / a) * (1.0 - r / b)
                               / (b * math.log(1.0 + b / (4.0 * a))))
    return _in_float_range("wide-annulus", a, b, lambda a, b: (1.0 - (a / r) ** (n - 2))
                           * (1.0 - r / b) / b ** (n / 2.0))


def box_caricature(half_widths, x) -> np.ndarray:
    """Exact principal eigenfunction of a centered box, prod cos(pi x_i / 2 a_i) / sqrt(a_i),
    at points x of shape (..., n) strictly inside it."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    half = np.asarray(half_widths, dtype=float)
    if np.any(np.abs(x) >= half):
        raise ValueError("point outside the box")
    return np.prod(np.cos(math.pi * x / (2.0 * half)) / np.sqrt(half), axis=-1)


def separated_cosine_caricature(n: int, a: float, b: float, r) -> np.ndarray:
    """Radial factor r^(-(n-1)/2) sqrt(2/(b-a)) cos(pi(r-(a+b)/2)/(b-a)) of the
    separated profile, at radii a <= r <= b.

    It is the exact transformed principal mode when the centrifugal
    coefficient vanishes (n = 3), so its product with the base eigenfunction
    g(theta) is then the shell eigenfunction itself up to grid error.
    """
    radial.require_dimension(n)
    radial.require_shell(a, b)
    r = _shell_points(r, a, b, closed=True)
    return (
        r ** (-(n - 1) / 2.0)
        * math.sqrt(2.0 / (b - a))
        * np.cos(math.pi * (r - (a + b) / 2.0) / (b - a))
    )


def orthant_product_caricature(k: int, x) -> np.ndarray:
    """Product of great-circle distances from unit vectors x (..., n) to the
    k bounding equators {x_i = 0}, i < k."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.prod(np.arcsin(np.clip(np.abs(x[:, :k]), 0.0, 1.0)), axis=1)


def coordinate_triangle_caricature(theta1: float, theta, phi) -> np.ndarray:
    """Profile for the S^2 triangle 0 < theta < theta1, 0 < phi < pi/2.

    The two equator-corner angles are right angles, so their factors drop
    out and the profile reduces to d1 d2 d3 (d1+d2)^(pi/theta1 - 2) over a
    diameter power, with d1, d2 the meridian distances and d3 the equator
    distance.  Evaluate-only: no eigen-oracle is attached.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    d1 = np.arcsin(np.clip(np.sin(phi) * np.sin(theta), -1.0, 1.0))
    d2 = np.arcsin(np.clip(np.sin(phi) * np.sin(theta1 - theta), -1.0, 1.0))
    d3 = math.pi / 2.0 - phi
    diam = max(math.pi / 2.0, min(theta1, math.pi))
    expo = math.pi / theta1 - 2.0
    return d1 * d2 * d3 * (d1 + d2) ** expo / diam ** (2.0 + math.pi / theta1)


def comparability_audit(phi_values, caricature_values):
    """Empirical two-sided comparability of phi against a profile.

    Returns (sup_ratio, inf_ratio) of phi/Phi over the supplied samples;
    both inputs must already be restricted to an interior margin where the
    profile is strictly positive.
    """
    phi = np.asarray(phi_values, dtype=float).ravel()
    car = np.asarray(caricature_values, dtype=float).ravel()
    keep = car > 0
    if not np.any(keep):
        raise ValueError("empty grid after margin exclusion")
    ratio = phi[keep] / car[keep]
    return float(ratio.max()), float(ratio.min())


def annulus_eigenvalue_coefficients(n: int, x: float) -> tuple[float, float]:
    """The two-sided coefficients (C1, C2) for annuli with radius ratio x = b/a.

    lambda(A_{a,b}) lies in [C1, C2] / (b-a)^2.  The quadratic correction
    swaps between (1 - 1/x)^2 and (x - 1)^2 depending on the sign of
    (n-1)(n-3), i.e. on n = 2 versus n >= 3.
    """
    if n < 2 or x <= 1.0:
        raise ValueError(f"need n >= 2 and x = b/a > 1, got n={n}, x={x}")
    q = (n - 1) * (n - 3) / 4.0
    pi2 = math.pi**2
    shrink = (1.0 - 1.0 / x) ** 2
    grow = numerics.finite_square(x - 1.0, "the radius ratio less one, b/a - 1")
    if n >= 3:
        c1 = max(n * pi2 / 4.0 * shrink, pi2 + q * shrink)
        c2 = min((n * math.pi) ** 2, pi2 + q * grow)
    else:
        c1 = max(n * pi2 / 4.0 * shrink, pi2 + q * grow)
        c2 = min((n * math.pi) ** 2, pi2 + q * shrink)
    return c1, c2


def annulus_eigenvalue_bounds(n: int, a: float, b: float) -> BoundsReport:
    """Bounds report skeleton [C1, C2]/(b-a)^2 for the annulus eigenvalue;
    value is filled with the solver's answer for the pass flag."""
    radial.require_shell(a, b)
    c1, c2 = annulus_eigenvalue_coefficients(n, b / a)
    width2 = numerics.finite_square(b - a, "the shell width b - a")
    lo, hi = c1 / width2, c2 / width2
    lam = radial.solve_radial(n, a, b, 0.0, N=1024, k=1)[0].lam
    return BoundsReport.check(
        f"annulus eigenvalue n={n} a={a:g} b={b:g}", lam, lo, hi,
        tol=1e-6 * lam, extra={"C1": c1, "C2": c2},
    )


def supnorm_bounds_check(lam: float, volume: float, phi_sup: float, n: int) -> BoundsReport:
    """Check 1/|U| <= sup(phi)^2 and record sup(phi)^2 / lambda^(n/2).

    The upper comparison has no explicit constant, so the normalized value
    is reported only; boundedness is asserted across families by the caller.
    """
    value = phi_sup**2
    lower = 1.0 / volume
    ratio = value / lam ** (n / 2.0)
    return BoundsReport.check(
        "eigenfunction sup bound", value, lower, math.inf,
        tol=1e-9 * value, extra={"sup2_over_lam_pow": ratio},
    )


def hadamard_scan(n: int, t_grid, N: int) -> list[dict]:
    """Normalized sensitivity of the annulus eigenvalue to the outer radius.

    For each t returns t^3 |dF/dt| with F(t) the principal eigenvalue of the
    annulus (1, 1+t); the derivative is a central difference with step
    t/100.  In n = 3 the exact value is 2 pi^2 for every t.
    """
    rows = []
    for t in t_grid:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"t must lie in (0, 1], got {t}")
        h = t / 100.0
        b_plus, b_minus = 1.0 + t + h, 1.0 + t - h
        # the float radii must realize the step 2h to within the 1% the
        # n = 3 check allows; near t ~ 1e-13 they stop doing so
        if not abs((b_plus - b_minus) - 2.0 * h) <= 0.01 * 2.0 * h:
            raise FloatingPointError(
                f"t = {t!r}: the outer radii 1 + t +- t/100 round to a step of "
                f"{b_plus - b_minus!r}, not {2.0 * h!r}")
        lam_plus = radial.solve_radial(n, 1.0, b_plus, 0.0, N=N)[0].lam
        lam_minus = radial.solve_radial(n, 1.0, b_minus, 0.0, N=N)[0].lam
        deriv = (lam_plus - lam_minus) / (2.0 * h)
        rows.append({"t": t, "t3_dlam": t**3 * abs(deriv)})
    return rows


def eigengap_scan(n: int, eps_values, inner_scale: float = 1.0,
                  outer_scale: float = 1.0, N: int = 1024) -> list[dict]:
    """Eigenvalue gap between the shell (1, 1+eps) and its eps^3-widened hull.

    The hull is (1 - inner_scale eps^3, 1 + eps + outer_scale eps^3); the gap
    is positive by domain monotonicity and stays bounded as eps shrinks
    because the eigenvalue moves at rate ~ eps^-3 against a widening ~ eps^3.
    """
    rows = []
    for eps in eps_values:
        a_eps = inner_scale * eps**3
        b_eps = outer_scale * eps**3
        lam_a = radial.solve_radial(n, 1.0, 1.0 + eps, 0.0, N=N)[0].lam
        lam_b = radial.solve_radial(n, 1.0 - a_eps, 1.0 + eps + b_eps, 0.0, N=N)[0].lam
        rows.append({"eps": eps, "lam_inner": lam_a, "lam_hull": lam_b,
                     "gap": lam_a - lam_b})
    return rows
