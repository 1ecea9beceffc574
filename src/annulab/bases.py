"""Catalog of spherical base domains with principal Dirichlet eigendata.

Supported bases on S^{n-1}: the full sphere, intersections of the sphere
with k coordinate half-spaces (principal eigenfunction proportional to
x_1...x_k, eigenvalue k(k+n-2)), circular arcs on S^1, wedges on S^2
bounded by two meridians, and coordinate rectangles on S^2 solved
numerically.

Coordinate conventions per variant:
  full sphere (n=2) and arcs   -- points are angles theta
  wedge / rectangle on S^2     -- points are (theta, phi) with phi in (0, pi)
                                  the polar angle, measure sin(phi) dphi dtheta
  orthant intersections        -- points are unit vectors in R^n
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import numerics, spectral2d

__all__ = [
    "BaseDomain",
    "BaseEigenData",
    "BaseLevel",
    "BaseSpectrum",
    "ModeTable",
    "UnsupportedBaseError",
    "full_sphere",
    "orthant_intersection",
    "circle_arc",
    "sphere_wedge",
    "sphere_rectangle",
    "surface_measure",
    "base_eigendata",
    "base_levels",
    "base_spectrum",
    "sine_modes",
    "solve_sphere_rectangle",
    "orthant_norm_quadrature",
]


class UnsupportedBaseError(ValueError):
    """Requested data is not available for this base variant."""


def surface_measure(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class BaseDomain:
    """A spherical base region U0 on S^{n-1}; build via the constructors."""

    kind: str
    n: int
    k: int = 0
    theta1: float = 0.0
    alpha: float = 0.0
    phi_range: tuple[float, float] = (0.0, 0.0)

    def label(self) -> str:
        if self.kind == "full_sphere":
            return f"full_sphere(n={self.n})"
        if self.kind == "orthant":
            return f"orthant(n={self.n},k={self.k})"
        if self.kind == "arc":
            return f"arc(theta1={self.theta1:g})"
        if self.kind == "wedge":
            return f"wedge(alpha={self.alpha:g})"
        return f"rectangle(theta1={self.theta1:g},phi={self.phi_range[0]:g}..{self.phi_range[1]:g})"


def full_sphere(n: int) -> BaseDomain:
    if n < 2:
        raise ValueError("need ambient dimension n >= 2")
    return BaseDomain(kind="full_sphere", n=n)


def orthant_intersection(n: int, k: int) -> BaseDomain:
    if n < 2 or not 1 <= k <= n:
        raise ValueError(f"need n >= 2 and 1 <= k <= n, got n={n}, k={k}")
    return BaseDomain(kind="orthant", n=n, k=k)


def circle_arc(theta1: float) -> BaseDomain:
    if not 0.0 < theta1 <= 2.0 * math.pi:
        raise ValueError(f"arc length must lie in (0, 2pi], got {theta1}")
    return BaseDomain(kind="arc", n=2, theta1=theta1)


def sphere_wedge(alpha: float) -> BaseDomain:
    if not 0.0 < alpha <= 2.0 * math.pi:
        raise ValueError(f"wedge angle must lie in (0, 2pi], got {alpha}")
    return BaseDomain(kind="wedge", n=3, alpha=alpha)


def sphere_rectangle(theta1: float, phi_range: tuple[float, float]) -> BaseDomain:
    lo, hi = phi_range
    if not (0.0 < theta1 < 2.0 * math.pi and 0.0 <= lo < hi <= math.pi):
        raise ValueError("rectangle must satisfy theta1 in (0,2pi), phi_range in [0,pi]")
    return BaseDomain(kind="rectangle", n=3, theta1=theta1, phi_range=(lo, hi))


@dataclass(frozen=True)
class BaseEigenData:
    """Principal Dirichlet eigendata of a base domain.

    phi0 is vectorized over the variant's coordinate convention and is
    normalized to unit L^2 norm against the surface measure.  norm_constant
    records the normalization divisor applied to the raw closed form.
    """

    base: BaseDomain
    lambda0: float
    phi0: Callable[..., np.ndarray]
    measure: float
    norm_constant: float = 1.0


@dataclass(frozen=True)
class BaseLevel:
    """One eigenvalue level of a base: value and multiplicity."""

    lambda0: float
    multiplicity: int


@dataclass(frozen=True, eq=False)
class ModeTable:
    """One-coordinate eigenfunctions as arrays: row i is amp[i] * cos(freq[i]
    * (x - origin) / period) where is_cos[i], else amp[i] * sin(...)."""

    freq: np.ndarray
    amp: np.ndarray
    is_cos: np.ndarray
    period: float
    origin: float

    def __call__(self, x) -> np.ndarray:
        """(F, m) table of every row at the m coordinates x."""
        arg = self.freq[:, None] * (np.asarray(x, dtype=float)[None, :] - self.origin) / self.period
        rows = np.sin(arg)
        rows[self.is_cos] = np.cos(arg[self.is_cos])
        return self.amp[:, None] * rows


def sine_modes(length: float, count: int, origin: float) -> ModeTable:
    """The first `count` Dirichlet modes of the interval (origin, origin + length),
    orthonormal: sin(j pi (x - origin) / length) / sqrt(length / 2), j = 1..count."""
    return ModeTable(freq=np.arange(1, count + 1) * math.pi,
                     amp=np.full(count, 1.0 / math.sqrt(length / 2.0)),
                     is_cos=np.zeros(count, dtype=bool), period=length, origin=origin)


@dataclass(frozen=True, eq=False)
class BaseSpectrum:
    """The lowest eigenvalue levels of a circle or arc with their eigenfunctions.

    table holds the eigenfunctions of each level as its next multiplicity
    rows, in level order.  next_lambda0 is the first eigenvalue left out, a
    lower bound for every omitted level.
    """

    levels: tuple
    next_lambda0: float
    table: ModeTable


def _orthant_axis_integral(sin_pow: int, cos_pow: int, lo: float, hi: float) -> float:
    x, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    return 0.5 * (hi - lo) * float(
        np.sum(w * np.sin(t) ** sin_pow * np.cos(t) ** cos_pow)
    )


def orthant_norm_quadrature(n: int, k: int) -> float:
    """||x_1...x_k||^2 over S^{n-1} cap {x_i > 0} by product Gauss quadrature.

    In hyperspherical coordinates (polar angles psi_1..psi_{n-2} over (0,pi),
    azimuthal psi_{n-1} over (0,2pi), measure prod sin^{n-1-j} psi_j) both
    the measure and the integrand factorize over the axes, so the product
    grid reduces to a product of 1-D Gauss integrals.  Supported for n <= 5.
    """
    if n > 5:
        raise UnsupportedBaseError("orthant normalization quadrature supports n <= 5")
    total = 1.0
    for j in range(1, n):  # axes psi_1 .. psi_{n-1}
        sin_pow = n - 1 - j
        # every x_i with i > j contributes sin^2(psi_j); x_n counts when k = n
        extra = max(0, min(k, n - 1) - j) + (1 if k == n else 0)
        sin_pow += 2 * extra
        cos_pow = 2 if j <= min(k, n - 1) else 0
        if j <= n - 2:  # polar angle over (0, pi); x_j > 0 pins it to (0, pi/2)
            lo, hi = (0.0, math.pi / 2.0) if j <= k else (0.0, math.pi)
        elif k == n:  # azimuthal angle; both trailing coordinates positive
            lo, hi = 0.0, math.pi / 2.0
        elif k == n - 1:  # only x_{n-1} > 0: cos(psi) > 0
            lo, hi = -math.pi / 2.0, math.pi / 2.0
        else:
            lo, hi = 0.0, 2.0 * math.pi
        total *= _orthant_axis_integral(sin_pow, cos_pow, lo, hi)
    return total


def _full_sphere_data(base: BaseDomain) -> BaseEigenData:
    measure = surface_measure(base.n)
    c = 1.0 / math.sqrt(measure)

    def phi0(*args):
        shape = np.shape(np.asarray(args[0], dtype=float))
        if base.n > 2 and len(args) == 1 and len(shape) == 2:
            shape = (shape[0],)
        return np.full(shape, c)

    return BaseEigenData(base, 0.0, phi0, measure)


def _orthant_data(base: BaseDomain) -> BaseEigenData:
    n, k = base.n, base.k
    lam0 = float(k * (k + n - 2))
    norm = math.sqrt(orthant_norm_quadrature(n, k))

    def phi0(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.prod(points[:, :k], axis=1) / norm

    measure = surface_measure(n) / 2.0**k
    return BaseEigenData(base, lam0, phi0, measure, norm_constant=norm)


def _arc_data(base: BaseDomain) -> BaseEigenData:
    t1 = base.theta1
    try:
        lam0 = (math.pi / t1) ** 2
    except OverflowError:
        lam0 = math.inf  # pi / t1 is finite, its square is not
    if lam0 == math.inf:
        raise OverflowError(f"arc theta1 = {t1!r}: its eigenvalue (pi/theta1)^2 overflows "
                            "a float")
    amp = math.sqrt(2.0 / t1)

    def phi0(theta):
        theta = np.asarray(theta, dtype=float)
        return amp * np.sin(math.pi * theta / t1)

    return BaseEigenData(base, lam0, phi0, t1)


def _wedge_data(base: BaseDomain) -> BaseEigenData:
    alpha = base.alpha
    p = math.pi / alpha
    lam0 = p * (p + 1.0)
    # norm^2 = int_0^alpha sin^2(p theta) dtheta * int_0^pi sin(psi)^(2p+1) dpsi
    theta_part = alpha / 2.0
    x, w = np.polynomial.legendre.leggauss(128)
    psi = 0.5 * math.pi * (x + 1.0)
    psi_part = 0.5 * math.pi * float(np.sum(w * np.sin(psi) ** (2.0 * p + 1.0)))
    norm = math.sqrt(theta_part * psi_part)

    def phi0(theta, psi):
        theta = np.asarray(theta, dtype=float)
        psi = np.asarray(psi, dtype=float)
        return np.sin(p * theta) * np.sin(psi) ** p / norm

    return BaseEigenData(base, lam0, phi0, 2.0 * alpha, norm_constant=norm)


def solve_sphere_rectangle(theta1: float, phi_range: tuple[float, float], N: int):
    """Principal Dirichlet eigenpair of a coordinate rectangle on S^2.

    Discretizes (1/sin phi) d_phi(sin phi d_phi) + (1/sin^2 phi) d^2_theta on
    a vertex-centered grid with Dirichlet boundary, symmetrized against the
    cell weights sin(phi).  Returns (lambda0, theta_grid, phi_grid, g) with g
    the interior eigenfunction normalized in L^2(sin phi dphi dtheta).
    """
    lo, hi = phi_range
    if not (0.0 < theta1 < 2.0 * math.pi and 0.0 < lo < hi < math.pi):
        raise ValueError("rectangle must lie strictly inside (0,2pi) x (0,pi)")
    if N < 16:
        raise ValueError(f"grid too coarse: need N >= 16, got {N}")
    ht = theta1 / N
    hp = (hi - lo) / N
    theta = ht * np.arange(1, N)
    phi = lo + hp * np.arange(1, N)
    sin_phi = np.sin(phi)
    sin_half = np.sin(lo + hp * (np.arange(N) + 0.5))  # at phi half-points
    # the coefficients vary in phi, so phi is axis 0 (the profile axis) and
    # theta axis 1; every grid node lies inside
    lam, g = spectral2d._assemble_and_solve(
        np.ones((len(phi), len(theta)), dtype=bool), sin_half * ht / hp,
        hp / (sin_phi * ht), sin_phi * ht * hp, False)
    # L2(sin phi) normalization: sum g^2 * mass = |psi|^2 = 1 already by construction
    return lam, theta, phi, g.T


def _rectangle_data(base: BaseDomain, N: int) -> BaseEigenData:
    lam_c, *_ = solve_sphere_rectangle(base.theta1, base.phi_range, N)
    lam_f, theta, phi, g = solve_sphere_rectangle(base.theta1, base.phi_range, 2 * N)
    lam = numerics.richardson(lam_c, lam_f)
    lo, hi = base.phi_range
    measure = base.theta1 * (math.cos(lo) - math.cos(hi))
    # phi0 between the grid nodes: bilinear interpolation of the fine-grid eigenfunction
    return BaseEigenData(base, lam, functools.partial(numerics.bilinear, (theta, phi), g),
                         measure)


def base_eigendata(base: BaseDomain, N: int = 64) -> BaseEigenData:
    """Principal eigendata for any catalog base; N only matters for rectangles."""
    if base.kind == "full_sphere":
        return _full_sphere_data(base)
    if base.kind == "orthant":
        return _orthant_data(base)
    if base.kind == "arc":
        return _arc_data(base)
    if base.kind == "wedge":
        return _wedge_data(base)
    if base.kind == "rectangle":
        return _rectangle_data(base, N=N)
    raise UnsupportedBaseError(f"unknown base kind {base.kind!r}")


def base_levels(base: BaseDomain) -> Iterator[BaseLevel]:
    """Every eigenvalue level of the base, ascending, as an endless iterator.

    The circle (n=2 full sphere) has the values m^2, of multiplicity 2 for
    m >= 1; an arc has the simple values (j pi / theta1)^2.  Other variants
    raise UnsupportedBaseError.
    """
    if base.kind == "full_sphere" and base.n == 2:
        return itertools.chain([BaseLevel(0.0, 1)],
                               (BaseLevel(float(m * m), 2) for m in itertools.count(1)))
    if base.kind == "arc":
        t1 = base.theta1
        return (BaseLevel((j * math.pi / t1) ** 2, 1) for j in itertools.count(1))
    raise UnsupportedBaseError(f"spectrum unavailable for base {base.label()}")


def base_spectrum(base: BaseDomain, count: int) -> BaseSpectrum:
    """The lowest `count` eigenvalue levels of the base (base_levels), ascending.

    Eigenfunctions: cos(m theta) and sin(m theta) on the circle, sin(j pi
    theta / theta1) on an arc.
    """
    if count < 1:
        raise ValueError("need count >= 1")
    levels = tuple(itertools.islice(base_levels(base), count))
    if base.kind == "full_sphere":
        freq = np.repeat(np.arange(count), 2)[1:].astype(float)  # 0, 1, 1, 2, 2, ...
        table = ModeTable(
            freq=freq,
            amp=np.where(freq == 0, 1.0 / math.sqrt(2.0 * math.pi), 1.0 / math.sqrt(math.pi)),
            is_cos=np.r_[True, np.tile([True, False], count - 1)], period=1.0, origin=0.0)
        return BaseSpectrum(levels, float(count * count), table)
    t1 = base.theta1
    return BaseSpectrum(levels, ((count + 1) * math.pi / t1) ** 2, sine_modes(t1, count, 0.0))
