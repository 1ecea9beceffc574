"""Grid solvers for the principal Dirichlet eigenpair of planar domains.

Two solvers: a polar-grid solver for domains bounded by radial functions
r_min(theta) < r < r_max(theta) (optionally wrapping the full circle), and a
Cartesian solver for indicator-defined domains sandwiched between boxes.
Both, and the S^2 rectangles of `bases`, run through one masked-grid solver
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
    "GridEigenpair",
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
class GridEigenpair:
    """The principal Dirichlet eigenpair on a masked structured grid.

    phi is one (n0, n1) array, zero outside the mask, positive on it and
    normalized so that sum(phi^2 * cell_measure) = 1.  axes holds the node
    coordinates of the two grid directions.
    """

    eigenvalue: float
    phi: np.ndarray
    axes: tuple[np.ndarray, np.ndarray]
    mask: np.ndarray
    cell_measure: np.ndarray
    wrap: bool = False
    meta: dict = field(default_factory=dict)

    def interior_mask(self, margin_cells: int) -> np.ndarray:
        """Mask eroded by a number of cells; excludes staircase-polluted nodes.

        Nodes beyond the array edge count as boundary (they sit one cell
        from the Dirichlet wall), except in the periodic direction."""
        m = self.mask.copy()
        for _ in range(margin_cells):
            p = np.pad(np.pad(m, ((1, 1), (0, 0))), ((0, 0), (1, 1)),
                       mode="wrap" if self.wrap else "constant")
            m = m & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
        return m


# relative margin of the shift below the a priori lower bound; it covers
# rounding when the bound equals lambda_1 (a mask that fills its hull)
_HULL_SHIFT_MARGIN = 1e-6


def _hull_ground_state(cond_0, cond_1, mass, n1, wrap):
    """Ground state of the 5-point operator on the full (n0, n1) grid.

    The coefficients are row profiles, so the hull operator separates: a
    tridiagonal problem along axis 0 plus tau_min times the conductance
    across it, where tau_min is the smallest eigenvalue of the second
    difference along axis 1.  Returns (lambda_hull, u, mode): the unit
    eigenvector u of the tridiagonal and the ground mode of axis 1 (the
    constant 1/sqrt(n1) with tau_min = 0 when axis 1 wraps, else the
    normalised discrete sine sin(pi j/(n1+1))), whose outer product is the
    ground state of the symmetrized operator.  A masked operator is a
    principal submatrix of the hull operator in the same symmetrized form,
    so by Cauchy interlacing lambda_hull is a lower bound of its spectrum.
    """
    if wrap:
        tau_min, mode = 0.0, np.full(n1, 1.0 / math.sqrt(n1))
    else:
        tau_min = 2.0 - 2.0 * math.cos(math.pi / (n1 + 1))
        mode = np.sin(math.pi * np.arange(1, n1 + 1) / (n1 + 1))
        mode /= np.linalg.norm(mode)
    diag = (cond_0[:-1] + cond_0[1:] + tau_min * cond_1) / mass
    offdiag = -cond_0[1:-1] / np.sqrt(mass[:-1] * mass[1:])
    vals, vecs = numerics.tridiag_smallest_eigenpairs(diag, offdiag, 1)
    return float(vals[0]), vecs[:, 0], mode


def _column_bound(mask, cond_0, cond_1, mass, wrap):
    """Lower bound on lambda_1 of the masked operator from its columns.

    Split the form at the mask's zero extension u into its axis-0 and axis-1
    faces.  The axis-0 faces of column j give at least mu_j |u_j|^2 (mass
    norm), with mu_j the ground eigenvalue of the column's own tridiagonal:
    its mask rows, walls at every masked-out neighbor, and no coupling
    across a gap between rows.  The axis-1 faces of row i carry cond_1[i] >=
    kappa mass[i], kappa the least cond_1 / mass over the rows the mask
    touches, so by Minkowski they give at least kappa (|u_{j+1}| - |u_j|)^2.
    lambda_1 is then at least the ground eigenvalue of the chain diag(mu) +
    kappa (second difference) over the column norms |u_j|.  An empty column
    has |u_j| = 0, a wall: it splits the chain into runs, each walled at
    both ends (as are the outer columns when axis 1 does not wrap).  A
    wrapping ring with no empty column is cut at one face, which only
    lowers the form, and its ends are left free.  It is cut ahead of column
    0 and ahead of the largest mu, near which the ground state is small,
    and the larger of the two bounds is kept.  Equal columns are solved once.
    """
    n1 = mask.shape[1]
    columns = np.ascontiguousarray(mask.T)
    # each column to the first column equal to it (np.unique(axis=0) sorts
    # the columns as records, a hundred times slower on a 537 x 537 mask)
    seen = {}
    same = np.array([seen.setdefault(col.tobytes(), j) for j, col in enumerate(columns)])
    w = 1.0 / np.sqrt(mass)
    diag = (cond_0[:-1] + cond_0[1:]) / mass
    # coupling of rows i and i + 1 across the face below row i + 1
    off = w[:-1] * -cond_0[1:-1] * w[1:]
    mu = np.zeros(n1)
    for j in seen.values():
        rows = np.flatnonzero(columns[j])
        if len(rows):
            col_off = np.where(np.diff(rows) == 1, off[rows[:-1]], 0.0)
            mu[j] = numerics.tridiag_smallest_eigenvalues(diag[rows], col_off, 1)[0]
    mu = mu[same]
    empty = ~mask.any(axis=0)
    kappa = float(np.min((cond_1 / mass)[mask.any(axis=1)]))
    if wrap and not empty.any():
        # each cut gives a bound; the ground state is small near the largest mu
        return max(_chain_ground(np.roll(mu, -cut), kappa, walled=False)
                   for cut in (0, int(np.argmax(mu))))
    if wrap:
        # roll an empty column to the end, where it walls both ends of the chain
        roll = n1 - 1 - int(np.flatnonzero(empty)[0])
        mu, empty = np.roll(mu, roll), np.roll(empty, roll)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], ~empty, [0]))))
    return min(_chain_ground(mu[start:stop], kappa, walled=True)
               for start, stop in zip(edges[::2], edges[1::2]))


def _chain_ground(mu, kappa, walled):
    """Ground eigenvalue of diag(mu) + kappa (second difference) on a chain
    of columns, with walls beyond both ends or with free ends."""
    chain = mu + 2.0 * kappa
    if not walled:
        chain[0] -= kappa
        chain[-1] -= kappa
    return float(numerics.tridiag_smallest_eigenvalues(
        chain, np.full(len(chain) - 1, -kappa), 1)[0])


def _index_dtype(mask):
    """int32 for the grid's node-index maps, which halves them, unless the
    grid has more nodes than int32 numbers."""
    return np.int32 if mask.size <= np.iinfo(np.int32).max else np.int64


def _orbits(mask, cond_0, cond_1, mass, wrap):
    """Orbits of the mask nodes under the grid's symmetries, or None.

    The symmetries are the grid's mirrors and its x<->y transpose.  The
    row profiles reverse under the mirror of axis 0, so it maps the grid
    into itself when the mask and the three profiles equal their reversals;
    they do not change along axis 1, so a non-wrapping axis 1 mirrors the
    grid when the mask equals its flip.  A square grid that does not wrap
    is transposed into itself when mask == mask.T, the profiles are one
    constant with cond_0 == cond_1 and the mass is constant.  The group
    these generate (up to the 8 symmetries of the square) maps (i, j) into
    its representative in closed form: min(i, n - 1 - i) along each
    mirrored axis, then the sorted pair under the transpose.  That is the
    smallest index of the orbit, so the orbits are numbered in the
    row-major order of their representatives.  Returns (reps, oid, size) in
    mask-node numbering (row-major over the mask): the representatives,
    each node's orbit number and the orbit sizes.  The ground state is
    simple and positive, so it is constant on orbits.
    """
    n0, n1 = mask.shape
    mirror_0 = all(np.array_equal(a, a[::-1]) for a in (mask, cond_0, cond_1, mass))
    mirror_1 = not wrap and np.array_equal(mask, mask[:, ::-1])
    conds = np.concatenate([cond_0, cond_1])
    transposed = (not wrap and np.array_equal(mask, mask.T)
                  and np.all(conds == conds[0]) and np.all(mass == mass[0]))
    if not (mirror_0 or mirror_1 or transposed):
        return None
    node = np.flatnonzero(mask)
    i, j = np.divmod(node, n1)
    if mirror_0:
        np.minimum(i, n0 - 1 - i, out=i)
    if mirror_1:
        np.minimum(j, n1 - 1 - j, out=j)
    if transposed:
        i, j = np.minimum(i, j), np.maximum(i, j)
    rep = i * n1 + j
    del i, j
    reps = np.flatnonzero(rep == node)
    number = np.empty(mask.size, dtype=_index_dtype(mask))
    number[node[reps]] = np.arange(len(reps), dtype=number.dtype)
    oid = number[rep]
    return reps, oid, np.bincount(oid, minlength=len(reps))


def _component_count(mask, wrap):
    """Connected components of the mask's node graph, counted on its row runs.

    The nodes of a maximal run of a row are joined by the faces along it,
    so each run lies in one component.  Runs in adjacent rows are joined
    when they share a column, and when axis 1 wraps, the run that ends at
    the last column is joined with the run that starts at column 0 of the
    same row.  That graph, of a few runs per row, has the components of the
    node graph; mirror-image pieces are counted apart even when a fold
    would join them.
    """
    n0, n1 = mask.shape
    padded = np.zeros((n0, n1 + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # each run [start, stop) as the pair of changes that bounds it
    row, col = np.nonzero(padded[:, 1:] != padded[:, :-1])
    row, start, stop = row[::2], col[::2], col[1::2]
    key = row * (n1 + 1)
    above = key - (n1 + 1)
    # the runs of the row above that overlap [start, stop): the runs
    # [first, last) that end after start and begin before stop
    first = np.searchsorted(key + stop, above + start, side="right")
    last = np.searchsorted(key + start, above + stop, side="left")
    count = np.maximum(last - first, 0)
    offset = np.cumsum(count) - count
    src = np.repeat(np.arange(len(row)), count)
    dst = np.arange(len(src)) + np.repeat(first - offset, count)
    if wrap:
        seam = np.flatnonzero(mask[:, 0] & mask[:, -1])
        src = np.concatenate([src, np.searchsorted(row, seam, side="left")])
        dst = np.concatenate([dst, np.searchsorted(row, seam, side="right") - 1])
    graph = sparse.coo_matrix((np.ones(len(src)), (src, dst)), shape=(len(row), len(row)))
    return connected_components(graph, directed=False)[0]


def _grid_operator(mask, cond_0, cond_1, mass, wrap, orbits):
    """(L, red): the symmetrized masked operator and the unknowns the eigen
    driver eliminates, from one face list.  A folded grid reads the faces of
    each orbit representative (_orbits) to its four neighbors; an unfolded
    one reads each mask node's i + 1 and j + 1 faces and, when axis 1 wraps,
    the face from column 0 across the seam: every face its lower node
    keeps.  A face to a masked-out neighbor is a wall; conductances are read
    at the representative's row.  L is numerics.symmetrized_operator of the
    orbit-summed form: orbit a gets |a| times the representative's diagonal
    and mass, a face into orbit b carries |a| times its conductance, and a
    face into a's own orbit comes off the diagonal.  That is L on the
    orbit-constant functions in their orthonormal basis, exactly symmetric,
    since of the faces between orbits a < b only those read at a are kept.
    red: the representatives of even parity i + j (the 5-point graph is
    bipartite) less both ends of every kept face that joins two of them
    (across the seam of a wrapping axis 1 with odd n1, or moved by a fold).
    """
    n0, n1 = mask.shape
    node = np.flatnonzero(mask)
    orbit = np.full(mask.size, -1, dtype=_index_dtype(mask))
    if orbits is None:
        at, size = node, np.ones(len(node))
        orbit[node] = np.arange(len(node), dtype=orbit.dtype)
    else:
        reps, oid, size = orbits
        at = node[reps]
        orbit[node] = oid
    i, j = np.divmod(at, n1)
    # (whether the neighbor lies on the grid, its flat offset, the face
    # conductance by the row of `at`); unfolded, every i - 1 and j - 1 face
    # but the seam's leads to a lower node, which keeps it
    folded = orbits is not None
    steps = [(i < n0 - 1, n1, cond_0[1:]),
             (wrap | (j < n1 - 1), np.where(j < n1 - 1, 1, 1 - n1), cond_1),
             (folded & (i > 0), -n1, cond_0[:-1]),
             ((folded | (j == 0)) & (wrap | (j > 0)), np.where(j > 0, -1, n1 - 1), cond_1)]
    faces = []
    for on_grid, offset, cond in steps:
        pos = np.flatnonzero(on_grid)
        b = orbit[at[pos] + (offset[pos] if np.ndim(offset) else offset)]
        # representative `pos` is orbit `pos`: a face into a lower orbit is
        # kept there, and a wall (b = -1) only loads the diagonal
        kept = b >= pos
        pos = pos[kept]
        faces.append((pos, b[kept], size[pos] * cond[i[pos]]))
    a, b, c = (np.concatenate(x) for x in zip(*faces))
    del orbit, steps, faces
    own = a == b
    diag = size * (((cond_0[1:] + cond_0[:-1]) + cond_1) + cond_1)[i]
    diag -= np.bincount(a[own], c[own], minlength=len(at))
    a, b, c = a[~own], b[~own], c[~own]
    L = numerics.symmetrized_operator(a, b, c, diag, size * mass[i])
    even = (i + j) % 2 == 0
    joined = even[a] & even[b]
    even[a[joined]] = even[b[joined]] = False
    return L, np.flatnonzero(even)


def _sparse_ground_state(mask, cond_0, cond_1, mass, wrap, shift):
    """Ground pair of the symmetrized masked operator by shift-invert Lanczos,
    on the grid's symmetric subspace when it has one.  The whole mask must be
    connected, also when the solve is folded."""
    count = _component_count(mask, wrap)
    if count > 1:
        raise DisconnectedDomainError(f"masked grid splits into {count} components")
    orbits = _orbits(mask, cond_0, cond_1, mass, wrap)
    L, red = _grid_operator(mask, cond_0, cond_1, mass, wrap, orbits)
    op = numerics.SparseSymmetricOperator.from_matrix(L)
    lam, psi = numerics.sparse_smallest_eigenpairs(op, 1, shift, red)
    if orbits is None:
        return float(lam[0]), psi[:, 0]
    _, oid, size = orbits
    return float(lam[0]), psi[oid, 0] / np.sqrt(size[oid])


def _assemble_and_solve(mask, cond_0, cond_1, mass, wrap):
    """Principal eigenpair of the masked 5-point operator in self-adjoint form.

    The one eigensolver for every structured grid: polar, Cartesian and
    coordinate rectangles on S^2 (bases.solve_sphere_rectangle), whose
    coefficients depend on the axis-0 coordinate alone.  They come as row
    profiles: cond_0 (length n0+1) the conductance of the face below row i,
    virtual boundary rows included; cond_1 (length n0) that of every axis-1
    face in row i, wrapping faces and faces to the virtual boundary columns
    included; mass (length n0) the node weight in row i.  Dirichlet walls
    sit at masked-out neighbor nodes.  A mask that fills its hull is solved
    by separation (_hull_ground_state); a grid with a mirror or transpose
    symmetry on its subspace of orbit-constant functions (_orbits); any
    other on the whole mask.  The last two go through _grid_operator and
    the sparse driver, shifted just below the larger of the hull eigenvalue
    and the column bound (_column_bound).  Returns (lambda_1, phi): phi is
    one (n0, n1) array, positive on the mask and normalized in the `mass`
    weights.
    """
    n0, n1 = mask.shape
    ids = np.flatnonzero(mask.ravel())
    if len(ids) == 0:
        raise EmptyDomainError("no grid nodes inside the domain")
    d_half = 1.0 / np.sqrt(mass[ids // n1])
    lam_hull, u, mode = _hull_ground_state(cond_0, cond_1, mass, n1, wrap)
    if len(ids) == mask.size:
        lam, psi = lam_hull, np.outer(u, mode).ravel()
    else:
        bound = max(lam_hull, _column_bound(mask, cond_0, cond_1, mass, wrap))
        lam, psi = _sparse_ground_state(mask, cond_0, cond_1, mass, wrap,
                                        shift=(1.0 - _HULL_SHIFT_MARGIN) * bound)
    phi = np.zeros(n0 * n1)
    phi[ids] = d_half * psi
    if phi.sum() < 0:
        phi = -phi
    return lam, phi.reshape(n0, n1)


def solve_polar(domain: PolarDomain2D, Nr: int, Ntheta: int) -> GridEigenpair:
    """Principal Dirichlet eigenpair on a polar-grid domain.

    Vertex-centered discretization of (1/r) d_r(r d_r) + (1/r^2) d^2_theta in
    self-adjoint form; the eigenfunction is normalized in L^2(r dr dtheta).
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
    return solve_polar_mask(mask, (rlo, rhi), (domain.theta_lo, domain.theta_hi), domain.wrap)


def solve_polar_mask(mask: np.ndarray, r_range: tuple[float, float],
                     theta_range: tuple[float, float], wrap: bool) -> GridEigenpair:
    """Same solver from an explicit node mask (see save_mask/load_mask); the
    ranges must satisfy 0 <= r_lo < r_hi < inf and 0 < theta_hi - theta_lo <= 2 pi."""
    mask = np.asarray(mask, dtype=bool)
    n0, n1 = mask.shape
    rlo, rhi = map(float, r_range)
    tlo, thi = map(float, theta_range)
    if not (0.0 <= rlo < rhi < math.inf and 0.0 < thi - tlo <= 2.0 * math.pi):
        raise ValueError(f"need 0 <= r_lo < r_hi < inf and 0 < theta_hi - theta_lo <= 2 pi, "
                         f"got r_range ({rlo!r}, {rhi!r}) and theta_range ({tlo!r}, {thi!r})")
    hr = (rhi - rlo) / (n0 + 1)
    ht = (thi - tlo) / (n1 if wrap else n1 + 1)
    r = rlo + hr * np.arange(1, n0 + 1)
    th = tlo + ht * (np.arange(n1) if wrap else np.arange(1, n1 + 1))
    r_faces = rlo + hr * (np.arange(n0 + 1) + 0.5)
    mass = r * hr * ht
    lam, phi = _assemble_and_solve(mask, r_faces * ht / hr, hr / (r * ht), mass, wrap)
    return GridEigenpair(
        eigenvalue=lam, phi=phi, axes=(r, th), mask=mask,
        cell_measure=mass[:, None] * mask, wrap=wrap,
        meta={"hr": hr, "r_range": r_range, "theta_range": theta_range},
    )


def solve_cartesian(domain: CartesianDomain2D, h: float) -> GridEigenpair:
    """Principal Dirichlet eigenpair of an indicator-defined planar domain.

    Standard 5-point Laplacian on interior nodes of a uniform grid over the
    bounding box; the eigenfunction is normalized in L^2(dx)."""
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
    n0 = len(x)
    mass = np.full(n0, hx * hy)
    lam, phi = _assemble_and_solve(mask, np.full(n0 + 1, hy / hx), np.full(n0, hx / hy),
                                   mass, False)
    return GridEigenpair(eigenvalue=lam, phi=phi, axes=(x, y), mask=mask,
                         cell_measure=mass[:, None] * mask)


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
    """Read a node mask written by save_mask; returns (mask, r_range, theta_range).

    The header must be followed by exactly its Nr rows of Ntheta cells, each
    0 or 1 (blank lines may trail); a ValueError names the line that is not,
    and its token.
    """
    with open(path, encoding="ascii") as fh:
        header, *rows = [line.split() for line in fh] or [[]]
    try:
        if len(header) != 6:
            raise ValueError(f"need 'Nr Ntheta r_lo r_hi th_lo th_hi', got {' '.join(header)!r}")
        n0, n1 = int(header[0]), int(header[1])
        r_lo, r_hi, th_lo, th_hi = (float(v) for v in header[2:])
        if n0 < 1 or n1 < 1:
            raise ValueError(f"grid sizes {n0} x {n1} are not positive")
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    while len(rows) > n0 and not rows[-1]:
        rows.pop()
    if len(rows) != n0:
        raise ValueError(f"line {min(len(rows), n0) + 2}: the header declares {n0} rows, "
                         f"the file has {len(rows)}")
    for number, row in enumerate(rows, start=2):
        bad = [cell for cell in row if cell not in ("0", "1")]
        if bad:
            raise ValueError(f"line {number}: cell {bad[0]!r} is not 0 or 1")
        if len(row) != n1:
            raise ValueError(f"line {number}: {len(row)} cells, the header declares {n1}")
    return np.array(rows) == "1", (r_lo, r_hi), (th_lo, th_hi)
