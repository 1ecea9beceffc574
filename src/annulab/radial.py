"""Radial Dirichlet eigenproblem on (a, b) and product spectra for shells.

Separation of variables on a shell (a,b) x U0 in polar coordinates leaves a
radial problem whose weight r^{n-1} is removed by the unitary substitution
f(r) = r^{-(n-1)/2} ftilde(r): the transformed function solves

    -ftilde'' + (alpha + lambda0) / r^2 ftilde = lambda ftilde,
    ftilde(a) = ftilde(b) = 0,     alpha = (n-3)(n-1)/4,

with the same eigenvalue as the full shell.  The primary discretization
targets the transformed, unit-weight form (symmetric tridiagonal, no mass
matrix); a direct finite-volume discretization of the weighted form is kept
as an independent cross-check oracle.

A product spectrum stacks the transformed operators of all its base levels,
one diagonal row per level over the one shared off-diagonal, and solves
them in one coarse eigenvalue call and one fine eigenpair call of
numerics; solve_radial is the one-level case of the same path, so every
level's eigenvalues and eigenfunctions are those of solve_radial to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bases, numerics

__all__ = [
    "AnnularDomainSpec",
    "RadialEigenResult",
    "RadialTable",
    "require_dimension",
    "require_shell",
    "radial_potential_coefficient",
    "solve_radial",
    "solve_radial_weighted",
    "family_floor",
    "assemble_spectrum",
    "spectrum_below",
]


def require_dimension(n: int) -> None:
    """Refuse a dimension below 2: shells and their profiles live in R^n, n >= 2."""
    if n < 2:
        raise ValueError(f"need dimension n >= 2, got {n}")


def require_shell(a: float, b: float) -> None:
    """Refuse radii other than 0 < a < b < inf: every shell is bounded."""
    if not 0.0 < a < b < math.inf:
        raise ValueError(f"need 0 < a < b finite, got a={a}, b={b}")


@dataclass(frozen=True)
class AnnularDomainSpec:
    """A shell (a, b) x U0 in polar coordinates on R^n."""

    n: int
    a: float
    b: float
    base: bases.BaseDomain

    def __post_init__(self):
        require_dimension(self.n)
        require_shell(self.a, self.b)
        if self.base.n != self.n:
            raise ValueError("base lives on the wrong sphere for dimension n")

    @property
    def is_thin(self) -> bool:
        """Thin regime b/a <= 2; several comparison profiles assume it."""
        return self.b / self.a <= 2.0

    def scaled(self, c: float) -> "AnnularDomainSpec":
        return AnnularDomainSpec(self.n, c * self.a, c * self.b, self.base)


@dataclass(frozen=True)
class RadialEigenResult:
    """One radial eigenpair on (a, b).

    grid includes the endpoints.  f carries the r^{n-1} dr normalization of
    the full shell; ftilde the plain dr normalization of the transformed
    problem.  f = r^{-(n-1)/2} ftilde up to the two normalization constants.
    """

    lam: float
    grid: np.ndarray
    f: np.ndarray
    ftilde: np.ndarray
    alpha: float
    n: int
    lambda0: float


def radial_potential_coefficient(n: int) -> float:
    """alpha = (n-3)(n-1)/4, the centrifugal coefficient of the transform."""
    return (n - 3) * (n - 1) / 4.0


def _transformed_operator(n, a, b, lam0, N):
    """Interior nodes, diagonal and off-diagonal of the transformed operator
    on N cells of (a, b); an array of base levels lam0 gives one diagonal
    row per level, with the one shared off-diagonal."""
    alpha = radial_potential_coefficient(n)
    h = (b - a) / N
    r = a + h * np.arange(1, N)
    numerics.finite_square(b, "the outer radius b")  # so every r^2 is finite
    diag = (alpha + np.asarray(lam0, dtype=float)[..., None]) / r**2
    diag += 2.0 / h**2
    return r, diag, np.full(N - 2, -1.0 / h**2)


def _radial_stack(n, a, b, lambda0s, counts, N):
    """counts[i] smallest radial eigenpairs over each base level lambda0s[i],
    from one coarse eigenvalue solve and one fine eigenpair solve of the
    stacked transformed operators.

    Returns (lam, grid, f, ftilde), one entry of lam and one row of f and
    ftilde per pair, level by level: eigenvalues Richardson-extrapolated over
    the (N, 2N) grids, eigenfunctions on the 2N grid with ftilde of unit dr
    norm and f of unit r^{n-1} dr norm (trapezoid rule), the ground state of
    each level made of positive sum.
    """
    vals_c = numerics.tridiag_smallest_eigenvalues(
        *_transformed_operator(n, a, b, lambda0s, N)[1:], counts)
    r, diag, offdiag = _transformed_operator(n, a, b, lambda0s, 2 * N)
    vals_f, vecs = numerics.tridiag_smallest_eigenpairs(diag, offdiag, counts)
    del diag
    grid = np.concatenate(([a], r, [b]))
    wts = numerics.trapezoid_weights(grid)
    ft = np.zeros((len(vals_f), len(grid)))
    ft[:, 1:-1] = vecs.T
    del vecs
    first = np.zeros(len(ft), dtype=bool)
    first[np.cumsum(counts) - counts] = True
    ft[first & (ft.sum(axis=1) < 0)] *= -1.0
    # one 1-D integral per row: a matrix-vector product may sum in another
    # order, and a row's norm would then depend on the rows stacked with it
    ft /= np.sqrt([numerics.integrate_samples(row**2, wts) for row in ft])[:, None]
    f = grid ** (-(n - 1) / 2.0) * ft
    measure = grid ** (n - 1)
    f /= np.sqrt([numerics.integrate_samples(row**2 * measure, wts) for row in f])[:, None]
    return numerics.richardson(vals_c, vals_f), grid, f, ft


def solve_radial(
    n: int,
    a: float,
    b: float,
    lambda0: float,
    N: int = 1024,
    k: int = 1,
) -> list[RadialEigenResult]:
    """k smallest radial eigenpairs of the shell problem on (a, b).

    Eigenvalues are Richardson-extrapolated over the (N, 2N) grids;
    eigenfunctions are reported on the 2N grid, so the N grid is solved for
    eigenvalues only.
    """
    require_dimension(n)
    require_shell(a, b)
    if lambda0 < 0:
        raise ValueError(f"need lambda0 >= 0, got {lambda0}")
    if N < 64:
        raise ValueError(f"grid too coarse: need N >= 64, got {N}")
    if not 1 <= k <= N - 1:
        raise ValueError(f"need 1 <= k <= N - 1 = {N - 1} eigenpairs of the N = {N} grid, "
                         f"got k = {k}")
    alpha = radial_potential_coefficient(n)
    vals, grid, f, ft = _radial_stack(n, a, b, [lambda0], [k], N)
    return [RadialEigenResult(lam=float(vals[j]), grid=grid, f=f[j], ftilde=ft[j],
                              alpha=alpha, n=n, lambda0=lambda0)
            for j in range(k)]


def solve_radial_weighted(
    n: int, a: float, b: float, lambda0: float, N: int = 1024, k: int = 1,
) -> np.ndarray:
    """Cross-check oracle: eigenvalues of the weighted form, no transform.

    Finite-volume discretization of the shell's radial operator against the
    measure r^{n-1} dr, symmetrized with the cell weights.  Agrees with
    solve_radial to the discretization error; used to validate the
    transform, never as the primary path.
    """
    require_dimension(n)

    def eig(N):
        h = (b - a) / N
        r = a + h * np.arange(1, N)
        r_half = a + h * (np.arange(N) + 0.5)
        cond = r_half ** (n - 1) / h
        mass = r ** (n - 1) * h
        diag = (cond[:-1] + cond[1:]) / mass + lambda0 / r**2
        off = -cond[1:-1] / np.sqrt(mass[:-1] * mass[1:])
        return numerics.tridiag_smallest_eigenvalues(diag, off, k)

    return numerics.richardson(eig(N), eig(2 * N))


@dataclass(frozen=True, eq=False)
class RadialTable:
    """Radial eigenfunctions sampled on one grid, a row each, interpolated linearly.

    Radial coordinates outside [a, b] = [grid[0], grid[-1]] are refused
    rather than clamped onto the boundary values.
    """

    grid: np.ndarray
    rows: np.ndarray

    def __call__(self, r) -> np.ndarray:
        """(F, m) table of every row at the m radii r."""
        a, b = self.grid[0], self.grid[-1]
        if np.any((r < a) | (r > b)):
            raise ValueError(f"radial coordinates must lie in [a, b] = [{a:g}, {b:g}]")
        return np.stack([np.interp(r, self.grid, f) for f in self.rows])


# Most modes spectrum_below may keep: a cutoff that needs more is refused
# before any radial solve, since the solves and the mode table grow with it.
MAX_MODES = 4096


def family_floor(spec: AnnularDomainSpec, j: int, lambda0: float) -> float:
    """Lower bound on radial eigenvalue j (from 1) over the base level lambda0:
    (j pi / (b - a))^2 + min over [a, b] of (alpha + lambda0) / r^2.

    The transformed operator is -d^2/dr^2 plus a potential no smaller than
    that minimum.  The floor grows with j and lambda0, and its least value,
    j = 1 on the lowest base level, bounds the shell's ground eigenvalue.
    """
    c = radial_potential_coefficient(spec.n) + lambda0
    b2 = numerics.finite_square(spec.b, "the outer radius b")
    return (j * math.pi / (spec.b - spec.a)) ** 2 + min(c / spec.a**2, c / b2)


def _product_spectrum(spec: AnnularDomainSpec, base, radial_counts, N: int):
    """Product spectrum with radial_counts[i] radial families on base level i.

    Its omitted_floor is the least family_floor over the omitted families:
    j = radial_counts[i] + 1 on each kept level and j = 1 on the first
    omitted one.  The potential (alpha + lambda0) / r^2 makes the j = 1
    eigenvalue strictly increasing in lambda0.  On a shell so thin that the
    rounding of the radial solve, about machine epsilon times |T|, exceeds
    that spacing, the levels come out of order, and
    heatkernel.InsufficientSpectrumError is raised.
    """
    from .heatkernel import InsufficientSpectrumError, Spectrum

    counts = np.asarray(radial_counts)
    vals, grid, f, _ = _radial_stack(spec.n, spec.a, spec.b,
                                     [level.lambda0 for level in base.levels], counts, N)
    if np.any(np.diff(vals[np.cumsum(counts) - counts]) <= 0.0):
        raise InsufficientSpectrumError(
            f"shell ({spec.a!r}, {spec.b!r}) is too thin for the radial solve: its j = 1 "
            "eigenvalues do not increase with the base level lambda0")
    # each radial row, level by level, pairs with every base eigenfunction of its level
    mult = np.array([level.multiplicity for level in base.levels])
    row_level = np.repeat(np.arange(len(counts)), counts)
    copies = mult[row_level]
    row_start = np.cumsum(copies) - copies
    level_start = np.cumsum(mult) - mult
    radial_index = np.repeat(np.arange(len(vals)), copies)
    angular_index = np.arange(copies.sum()) + np.repeat(level_start[row_level] - row_start, copies)
    eigenvalues = vals[radial_index]
    order = np.argsort(eigenvalues)
    return Spectrum(
        eigenvalues=eigenvalues[order],
        factors=((RadialTable(grid, f), radial_index[order]),
                 (base.table, angular_index[order])),
        omitted_floor=min([family_floor(spec, k + 1, level.lambda0)
                           for level, k in zip(base.levels, radial_counts)]
                          + [family_floor(spec, 1, base.next_lambda0)]),
        dim=spec.n,
    )


def assemble_spectrum(
    spec: AnnularDomainSpec,
    M_base: int,
    K_radial: int,
    N: int = 512,
):
    """Product spectrum of a shell whose base has an enumerable spectrum.

    For each of the M_base lowest base levels (value lambda0, multiplicity
    mult) and each radial index j <= K_radial, emits the product eigenpairs
    with eigenfunctions f_{m,j}(r) g_m(theta); output ascending.  Returns a
    heatkernel.Spectrum whose mode table is one radial table (a row per
    f_{m,j}) times the base's angular table.  Its omitted_floor is the least
    family_floor over the omitted families: j = K_radial + 1 on each kept
    level and j = 1 on the first omitted one.  spectrum_below chooses the
    families from an energy cutoff instead.
    """
    return _product_spectrum(spec, bases.base_spectrum(spec.base, M_base),
                             [K_radial] * M_base, N)


def spectrum_below(spec: AnnularDomainSpec, cutoff: float, N: int = 512):
    """Product spectrum of every radial family whose floor lies below cutoff.

    Keeps each family (j, level) with family_floor(spec, j, lambda0) <
    cutoff, so the number of radial families varies per base level and the
    spectrum's omitted_floor is at least cutoff.  The heat-kernel tail at
    time t is then at most e^(-cutoff (t - s)) (4 pi s)^(-n/2); with a
    cutoff of lam_1 + ln(1/delta) / t_min, every omitted mode has weight
    e^(-(lam - lam_1) t) < delta at every t >= t_min.  The families are
    counted from their closed-form floors before any radial solve.  Raises
    heatkernel.InsufficientSpectrumError when cutoff is not finite, when no
    family lies below it, or when it needs more than MAX_MODES modes.
    """
    from .heatkernel import InsufficientSpectrumError

    if not math.isfinite(cutoff):
        raise InsufficientSpectrumError(f"energy cutoff {cutoff} is not finite")
    radial_counts = []
    modes = 0
    # every kept level adds a mode, so at most MAX_MODES + 1 levels are read
    for level in bases.base_levels(spec.base):
        k = 0
        while family_floor(spec, k + 1, level.lambda0) < cutoff:
            k += 1
            modes += level.multiplicity
            if modes > MAX_MODES:
                raise InsufficientSpectrumError(
                    f"energy cutoff {cutoff:.3e} needs more than {MAX_MODES} modes")
        if k == 0:
            break
        radial_counts.append(k)
    if not radial_counts:
        raise InsufficientSpectrumError(
            f"energy cutoff {cutoff:.3e} lies below every radial family")
    return _product_spectrum(spec, bases.base_spectrum(spec.base, len(radial_counts)),
                             radial_counts, N)
