"""Grid Dirichlet eigensolvers for planar domains.

Two solvers: a polar-grid solver for domains bounded by radial functions
r_min(theta) < r < r_max(theta) (optionally wrapping the full circle), and a
Cartesian solver for indicator-defined domains sandwiched between boxes.
Both, and the S^2 rectangles of `bases`, run through one masked-grid eigensolver
with vertex-centered second-order stencils in self-adjoint form; the
boundary is handled by node masking (staircase), so audits should trim a
margin of cells before taking eigenfunction ratios, and eigenvalues can be
sharpened by Richardson extrapolation over two resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from . import numerics

__all__ = [
    "PolarDomain2D",
    "CartesianDomain2D",
    "GridSpectrum",
    "EmptyDomainError",
    "DisconnectedDomainError",
    "solve_polar",
    "solve_polar_mask",
    "solve_cartesian",
    "save_mask",
    "load_mask",
    "annulus_domain",
]


class EmptyDomainError(ValueError):
    """No grid nodes fall inside the domain."""


class DisconnectedDomainError(ValueError):
    """The masked grid domain is not connected."""


@dataclass(frozen=True)
class PolarDomain2D:
    """Planar domain r_min(theta) < r < r_max(theta) over an angular window."""

    r_min: Callable[[np.ndarray], np.ndarray]
    r_max: Callable[[np.ndarray], np.ndarray]
    theta_lo: float = 0.0
    theta_hi: float = 2.0 * math.pi
    wrap: bool = True


def annulus_domain(a: float, b: float, theta_lo: float = 0.0,
                   theta_hi: float = 2.0 * math.pi, wrap: bool | None = None) -> PolarDomain2D:
    """Exact annulus or annular sector as a PolarDomain2D."""
    if wrap is None:
        wrap = abs((theta_hi - theta_lo) - 2.0 * math.pi) < 1e-12
    return PolarDomain2D(
        r_min=lambda th: np.full_like(np.asarray(th, dtype=float), a),
        r_max=lambda th: np.full_like(np.asarray(th, dtype=float), b),
        theta_lo=theta_lo, theta_hi=theta_hi, wrap=wrap,
    )


@dataclass(frozen=True)
class CartesianDomain2D:
    """Planar domain given by a membership predicate and a bounding box."""

    indicator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bbox: tuple[float, float, float, float]  # x_lo, x_hi, y_lo, y_hi


@dataclass
class GridSpectrum:
    """Eigenpairs on a masked structured grid.

    values is one (k, n0, n1) array; values[j] is zero outside the mask and
    normalized so that sum(values[j]^2 * cell_measure) = 1.  axes holds the
    node coordinates of the two grid directions.  Within a degenerate eigenspace (for k >= 2 on
    rotationally symmetric domains, where the angular modes cos and sin
    share an eigenvalue) only the eigenvalues are well defined: the values
    are a repeatable but arbitrary orthonormal basis of the eigenspace.
    """

    eigenvalues: np.ndarray
    values: np.ndarray
    axes: tuple[np.ndarray, np.ndarray]
    mask: np.ndarray
    cell_measure: np.ndarray
    kind: str
    wrap: bool = False
    meta: dict = field(default_factory=dict)

    def interior_mask(self, margin_cells: int) -> np.ndarray:
        """Mask eroded by a number of cells; excludes staircase-polluted nodes.

        Nodes beyond the array edge count as boundary (they sit one cell
        from the Dirichlet wall), except in the periodic direction."""
        m = self.mask.copy()
        for _ in range(margin_cells):
            shrunk = m.copy()
            shrunk[1:, :] &= m[:-1, :]
            shrunk[:-1, :] &= m[1:, :]
            shrunk[0, :] = False
            shrunk[-1, :] = False
            if self.wrap:
                shrunk &= np.roll(m, 1, axis=1)
                shrunk &= np.roll(m, -1, axis=1)
            else:
                shrunk[:, 1:] &= m[:, :-1]
                shrunk[:, :-1] &= m[:, 1:]
                shrunk[:, 0] = False
                shrunk[:, -1] = False
            m = shrunk
        return m


# relative margin of the shift below the hull eigenvalue; it covers rounding
# when the mask fills its hull and lambda_1 equals lambda_hull
_HULL_SHIFT_MARGIN = 1e-6


def _hull_ground_state(cond_0, cond_1, mass, wrap):
    """Ground state of the 5-point operator on the full (n0, n1) grid.

    The coefficients vary along one axis only (r on polar grids, phi on S^2,
    neither on Cartesian grids), so the hull operator separates: a
    tridiagonal problem along that axis plus tau_min times the conductance
    across it, where tau_min is the smallest eigenvalue of the second
    difference along the constant axis.  Returns (lambda_hull, psi): psi is
    the (n0, n1) unit eigenvector of the symmetrized operator, the
    tridiagonal eigenvector times the ground mode of the constant axis (the
    constant 1/sqrt(n) with tau_min = 0 when that axis wraps, else the
    normalised discrete sine sin(pi j/(n+1))).  A masked operator is a
    principal submatrix of the hull operator in the same symmetrized form,
    so by Cauchy interlacing lambda_hull is a lower bound of its spectrum.
    """
    n0, n1 = mass.shape

    def constant_along(axis):
        return all(np.all(a == a.take([0], axis=axis)) for a in (cond_0, cond_1, mass))

    if constant_along(1):
        varying, along, across, mu, n_const, const_wraps = (
            0, cond_0[:, 0], cond_1[:, 0], mass[:, 0], n1, wrap)
    elif constant_along(0) and not wrap:
        varying, along, across, mu, n_const, const_wraps = (
            1, cond_1[0, :], cond_0[0, :], mass[0, :], n0, False)
    else:
        raise ValueError("grid coefficients must vary along one non-periodic axis only")
    if const_wraps:
        tau_min, mode = 0.0, np.full(n_const, 1.0 / math.sqrt(n_const))
    else:
        tau_min = 2.0 - 2.0 * math.cos(math.pi / (n_const + 1))
        mode = np.sin(math.pi * np.arange(1, n_const + 1) / (n_const + 1))
        mode /= np.linalg.norm(mode)
    diag = (along[:-1] + along[1:] + tau_min * across) / mu
    offdiag = -along[1:-1] / np.sqrt(mu[:-1] * mu[1:])
    vals, vecs = numerics.tridiag_smallest_eigenpairs(diag, offdiag, 1)
    psi = np.outer(vecs[:, 0], mode) if varying == 0 else np.outer(mode, vecs[:, 0])
    return float(vals[0]), psi


def _orbits(mask, cond_0, cond_1, mass, wrap):
    """Orbits of the mask nodes under the grid's symmetries, or None.

    The symmetries are the grid's mirrors and its x<->y transpose.  An axis
    that does not wrap mirrors the grid when mask, conductances and mass all
    equal their reversal along it; a square grid that does not wrap is
    transposed into itself when mask == mask.T, mass == mass.T and
    cond_0 == cond_1.T.  The group these generate (up to the 8 symmetries
    of the square) maps (i, j) into its representative in closed form:
    min(i, n - 1 - i) along each mirrored axis, then the sorted pair under
    the transpose.  That is the smallest index of the orbit, so the orbits
    are numbered in the row-major order of their representatives.  Returns
    (reps, oid, size) in mask-node numbering (row-major over the mask): the
    representatives, each node's orbit number and the orbit sizes.  The
    ground state is simple and positive, so it is constant on orbits.
    """
    n0, n1 = mask.shape
    mirrored = [axis for axis in ((0,) if wrap else (0, 1))
                if all(np.array_equal(a, np.flip(a, axis)) for a in (mask, cond_0, cond_1, mass))]
    transposed = (not wrap and np.array_equal(mask, mask.T) and np.array_equal(mass, mass.T)
                  and np.array_equal(cond_0, cond_1.T))
    if not mirrored and not transposed:
        return None
    i, j = np.nonzero(mask)
    node = i * n1 + j
    if 0 in mirrored:
        i = np.minimum(i, n0 - 1 - i)
    if 1 in mirrored:
        j = np.minimum(j, n1 - 1 - j)
    if transposed:
        i, j = np.minimum(i, j), np.maximum(i, j)
    rep = i * n1 + j
    reps = np.flatnonzero(rep == node)
    number = np.empty(mask.size, dtype=np.int64)
    number[node[reps]] = np.arange(len(reps))
    oid = number[rep]
    return reps, oid, np.bincount(oid, minlength=len(reps))


def _folded_operator(p, q, c, diag, mass, reps, oid, size):
    """The symmetrized operator L of the face list (p, q, c) with diagonal
    `diag` and weights `mass` (numerics.symmetrized_operator), restricted to
    the functions constant on orbits, in the orthonormal orbit basis
    (1/sqrt|b| on the nodes of b).

    L commutes with the symmetries, so the entry (a, b) is
    sqrt(|a|/|b|) * sum over q in b of L[p_a, q], read from the row of the
    representative p_a alone: its diagonal and the faces that touch it,
    from either end.  The full operator is never built."""
    d = 1.0 / np.sqrt(mass)
    is_rep = np.zeros(len(mass), dtype=bool)
    is_rep[reps] = True
    # each face read from every end that is a representative: (near, far)
    at_p, at_q = is_rep[p], is_rep[q]
    near, far, cf = (np.concatenate([x[at_p], y[at_q]]) for x, y in ((p, q), (q, p), (c, c)))
    a, b = oid[near], oid[far]
    own = np.arange(len(reps))
    vals = np.concatenate([d[reps] * diag[reps] * d[reps],
                           np.sqrt(size[a] / size[b]) * (d[near] * -cf * d[far])])
    L = sparse.csr_matrix((vals, (np.concatenate([own, a]), np.concatenate([own, b]))),
                          shape=(len(reps), len(reps)))
    return (L + L.T) / 2.0


def _grid_operator(mask, cond_0, cond_1, mass, wrap, orbits):
    """The symmetrized masked operator from the one face list: on the whole
    mask, or folded onto `orbits` (from _orbits) when they are given.  The
    face arrays are freed on return, before any factorization."""
    m = int(mask.sum())
    idx = -np.ones(mask.shape, dtype=np.int64)
    idx[mask] = np.arange(m)
    # each node to its neighbor at i+1 (nb[0]) and at j+1 (nb[1], mod n1
    # when wrapping); a face to an outside node is a wall, and every face
    # loads the diagonal, walls included
    nb = np.stack([np.roll(idx, -1, axis=0), np.roll(idx, -1, axis=1)])
    nb[0, -1] = -1
    if not wrap:
        nb[1, :, -1] = -1
    inner = (idx >= 0) & (nb >= 0)
    p, q = np.broadcast_to(idx, nb.shape)[inner], nb[inner]
    c = np.stack([cond_0[1:], cond_1[:, 1:]])[inner]
    diag = (((cond_0[1:] + cond_0[:-1]) + cond_1[:, 1:]) + cond_1[:, :-1])[mask]
    # connectivity of the whole mask: a folded graph can be connected while
    # the mask is two mirror-image pieces
    ncomp, _ = connected_components(sparse.coo_matrix((np.ones(len(p)), (p, q)), shape=(m, m)),
                                    directed=False)
    if ncomp > 1:
        raise DisconnectedDomainError(f"masked grid splits into {ncomp} components")
    if orbits is None:
        return numerics.symmetrized_operator(p, q, c, diag, mass[mask])
    return _folded_operator(p, q, c, diag, mass[mask], *orbits)


def _sparse_eigenpairs(mask, cond_0, cond_1, mass, wrap, k, shift):
    """k smallest eigenpairs of the symmetrized masked operator by shift-invert
    Lanczos; for k = 1 on a symmetric grid, on its symmetric subspace."""
    orbits = _orbits(mask, cond_0, cond_1, mass, wrap) if k == 1 else None
    L = _grid_operator(mask, cond_0, cond_1, mass, wrap, orbits)
    op = numerics.SparseSymmetricOperator.from_matrix(L)
    lam, psi = numerics.sparse_smallest_eigenpairs(op, k, shift=shift)
    if orbits is not None:
        _, oid, size = orbits
        psi = psi[oid] / np.sqrt(size[oid])[:, None]
    return lam, psi


def _assemble_and_solve(mask, cond_0, cond_1, mass, wrap, k):
    """k smallest eigenpairs of the masked 5-point operator in self-adjoint form.

    The one eigensolver for every structured grid: polar, Cartesian and
    coordinate rectangles on S^2 (bases.solve_sphere_rectangle).
    cond_0[i, j]: conductance between nodes (i, j) and (i+1, j), length n0+1
    along axis 0 so index i is the face below node i (virtual boundary rows
    included); similarly cond_1 for axis 1 with wrap support.  Dirichlet
    walls sit at masked-out neighbor nodes.  For k = 1 each grid is solved
    in its smallest exact form, chosen by structure alone: a mask that fills
    its hull by separation (_hull_ground_state); a mask that is mirror
    symmetric along a non-wrapping axis, or square, non-wrapping and
    symmetric under the x<->y transpose, coefficients included, by
    shift-invert Lanczos on the subspace invariant under those symmetries,
    with the folded operator assembled from one row per orbit (_orbits,
    _folded_operator; the four-notch box folds by all 8 symmetries of the
    square); any other grid, and every k >= 2, by shift-invert Lanczos on
    the whole mask.  Lanczos (numerics.sparse_smallest_eigenpairs) runs from
    just below the hull eigenvalue and stops once its Ritz pairs converge.
    Returns the eigenvalues and the eigenfunctions as one (k, n0, n1) array,
    each normalized in the `mass` weights.
    """
    n0, n1 = mask.shape
    ids = np.flatnonzero(mask.ravel())
    if len(ids) == 0:
        raise EmptyDomainError("no grid nodes inside the domain")
    d_half = 1.0 / np.sqrt(mass.ravel()[ids])
    lam_hull, psi_hull = _hull_ground_state(cond_0, cond_1, mass, wrap)
    if k == 1 and len(ids) == mask.size:
        lam, psi = np.array([lam_hull]), psi_hull.reshape(-1, 1)
    else:
        lam, psi = _sparse_eigenpairs(mask, cond_0, cond_1, mass, wrap, k,
                                      shift=(1.0 - _HULL_SHIFT_MARGIN) * lam_hull)
    phis = np.zeros((k, n0 * n1))
    phis[:, ids] = (d_half[:, None] * psi).T
    if phis[0].sum() < 0:
        phis[0] = -phis[0]
    return lam, phis.reshape(k, n0, n1)


def solve_polar(domain: PolarDomain2D, Nr: int, Ntheta: int, k: int = 1) -> GridSpectrum:
    """k smallest Dirichlet eigenpairs on a polar-grid domain.

    Vertex-centered discretization of (1/r) d_r(r d_r) + (1/r^2) d^2_theta in
    self-adjoint form; eigenfunctions normalized in L^2(r dr dtheta).  For
    k >= 2 on a rotationally symmetric domain the angular modes come in
    degenerate pairs; only their eigenvalues are well defined, and the
    returned eigenfunctions are a repeatable but arbitrary orthonormal basis
    of each eigenspace.
    """
    if Nr < 1 or Ntheta < 1:
        raise ValueError(f"need positive grid sizes, got Nr={Nr}, Ntheta={Ntheta}")
    window = domain.theta_hi - domain.theta_lo
    ht = window / Ntheta
    if domain.wrap:
        th = domain.theta_lo + ht * np.arange(Ntheta)
    else:
        th = domain.theta_lo + ht * np.arange(1, Ntheta)
    rmins = np.asarray(domain.r_min(th), dtype=float)
    rmaxs = np.asarray(domain.r_max(th), dtype=float)
    if np.any(rmins <= 0) or np.any(rmins >= rmaxs):
        raise ValueError("need 0 < r_min(theta) < r_max(theta) everywhere")
    rlo, rhi = rmins.min(), rmaxs.max()
    hr = (rhi - rlo) / Nr
    if np.min(rmaxs - rmins) < 8 * hr:
        raise ValueError("grid too coarse: fewer than 8 radial cells across min thickness")
    r = rlo + hr * np.arange(1, Nr)
    mask = (r[:, None] > rmins[None, :]) & (r[:, None] < rmaxs[None, :])
    return solve_polar_mask(mask, (rlo, rhi), (domain.theta_lo, domain.theta_hi),
                            domain.wrap, k)


def solve_polar_mask(mask: np.ndarray, r_range: tuple[float, float],
                     theta_range: tuple[float, float], wrap: bool, k: int = 1) -> GridSpectrum:
    """Same solver from an explicit node mask (see save_mask/load_mask)."""
    mask = np.asarray(mask, dtype=bool)
    n0, n1 = mask.shape
    rlo, rhi = r_range
    tlo, thi = theta_range
    hr = (rhi - rlo) / (n0 + 1)
    ht = (thi - tlo) / (n1 if wrap else n1 + 1)
    r = rlo + hr * np.arange(1, n0 + 1)
    th = tlo + ht * (np.arange(n1) if wrap else np.arange(1, n1 + 1))
    r_faces = rlo + hr * (np.arange(n0 + 1) + 0.5)
    cond_r = np.broadcast_to((r_faces * ht / hr)[:, None], (n0 + 1, n1)).copy()
    cond_t = np.broadcast_to((hr / (r * ht))[:, None], (n0, n1 + 1)).copy()
    mass = np.broadcast_to((r * hr * ht)[:, None], (n0, n1)).copy()
    lam, phis = _assemble_and_solve(mask, cond_r, cond_t, mass, wrap, k)
    return GridSpectrum(
        eigenvalues=lam, values=phis, axes=(r, th), mask=mask,
        cell_measure=mass * mask, kind="polar", wrap=wrap,
        meta={"hr": hr, "ht": ht, "r_range": r_range, "theta_range": theta_range},
    )


def solve_cartesian(domain: CartesianDomain2D, h: float, k: int = 1) -> GridSpectrum:
    """k smallest Dirichlet eigenpairs of an indicator-defined planar domain.

    Standard 5-point Laplacian on interior nodes of a uniform grid over the
    bounding box; eigenfunctions normalized in L^2(dx)."""
    x_lo, x_hi, y_lo, y_hi = domain.bbox
    # per-axis widths: cells stay within a rounding of the nominal h even
    # when the box sides are not integer multiples of it
    nx = int(round((x_hi - x_lo) / h))
    ny = int(round((y_hi - y_lo) / h))
    if nx < 8 or ny < 8:
        raise ValueError("grid too coarse: fewer than 8 cells across the box")
    nodes = (nx - 1) * (ny - 1)
    if nodes > np.iinfo(np.intp).max // 8:
        # refused before NumPy is asked for an array it cannot index
        raise MemoryError(f"h = {h!r} asks for a grid of {Decimal(nodes):.3e} nodes, "
                          "more than one array can address")
    hx = (x_hi - x_lo) / nx
    hy = (y_hi - y_lo) / ny
    # nodes placed from the box center, so mirror-symmetric boxes give exactly
    # mirror-symmetric masks
    x = (x_lo + x_hi) / 2.0 + hx * (np.arange(1, nx) - nx / 2.0)
    y = (y_lo + y_hi) / 2.0 + hy * (np.arange(1, ny) - ny / 2.0)
    X, Y = np.meshgrid(x, y, indexing="ij")
    mask = np.asarray(domain.indicator(X, Y), dtype=bool)
    n0, n1 = mask.shape
    cond_0 = np.full((n0 + 1, n1), hy / hx)
    cond_1 = np.full((n0, n1 + 1), hx / hy)
    mass = np.full((n0, n1), hx * hy)
    lam, phis = _assemble_and_solve(mask, cond_0, cond_1, mass, False, k)
    return GridSpectrum(
        eigenvalues=lam, values=phis, axes=(x, y), mask=mask,
        cell_measure=mass * mask, kind="cartesian", wrap=False,
        meta={"h": h, "hx": hx, "hy": hy, "bbox": domain.bbox},
    )


def save_mask(path, mask: np.ndarray, r_range: tuple[float, float],
              theta_range: tuple[float, float]) -> None:
    """Write a node mask in the text format: header `Nr Ntheta r_lo r_hi th_lo th_hi`,
    then the row-major 0/1 grid."""
    mask = np.asarray(mask, dtype=int)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mask.shape[0]} {mask.shape[1]} "
                 f"{float(r_range[0])!r} {float(r_range[1])!r} "
                 f"{float(theta_range[0])!r} {float(theta_range[1])!r}\n")
        for row in mask:
            fh.write(" ".join(str(v) for v in row) + "\n")


def load_mask(path):
    """Read a node mask written by save_mask; returns (mask, r_range, theta_range)."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        n0, n1 = int(header[0]), int(header[1])
        r_range = (float(header[2]), float(header[3]))
        theta_range = (float(header[4]), float(header[5]))
        rows = []
        for _ in range(n0):
            rows.append([int(v) for v in fh.readline().split()])
    mask = np.asarray(rows, dtype=bool)
    if mask.shape != (n0, n1):
        raise ValueError(f"mask shape {mask.shape} disagrees with header {(n0, n1)}")
    return mask, r_range, theta_range
