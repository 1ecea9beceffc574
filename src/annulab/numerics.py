"""Shared numerical kernels.

Thin wrappers around LAPACK/SuperLU with the conventions the rest of the
package relies on: eigenvalues ascending, eigenvectors unit-norm with a
deterministic sign, explicit residual checks, and simple quadrature helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import qr
from scipy.linalg.lapack import dstebz, dstein

__all__ = [
    "SparseSymmetricOperator",
    "NonConvergenceError",
    "symmetrized_operator",
    "tridiag_smallest_eigenpairs",
    "tridiag_smallest_eigenvalues",
    "sparse_smallest_eigenpairs",
    "bilinear",
    "bilinear_on_grid",
    "integrate_samples",
    "trapezoid_weights",
    "richardson",
]


# Relative residual every returned sparse eigenpair must meet.
_RESIDUAL_TOL = 1e-8
# Lanczos stops once every wanted Ritz pair of the shift-inverted operator
# has a residual estimate below this fraction of its Ritz value.
_RITZ_TOL = 1e-14


class NonConvergenceError(RuntimeError):
    """Iterative eigensolver failed to meet its residual target."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the first component of largest magnitude positive, per column."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _tridiag_stack(diag, offdiag, k):
    """(d, e, k) as a float stack d of shape (L, N), e of shape (L, N - 1)
    (a shared off-diagonal broadcast to every row) and k of shape (L,),
    checked for a k-smallest solve of every row."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    rows = np.atleast_2d(d)
    L, n = rows.shape
    per_row = (L, n - 1) if d.ndim == 2 else (n - 1,)
    if d.ndim not in (1, 2) or n < 1 or e.shape not in ((n - 1,), per_row):
        raise ValueError("need diag of shape (N,) or (L, N) with N >= 1 and offdiag "
                         "of shape (N-1,) or (L, N-1)")
    ks = np.asarray(k)
    if ks.shape not in ((), (L,)) or ks.dtype.kind not in "iu":
        raise ValueError(f"need k an integer or one integer per row, got k={k!r}")
    if np.any((ks < 1) | (ks > n)):
        raise ValueError(f"need 1 <= k <= {n}, got k={k!r}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    return rows, np.broadcast_to(e, (L, n - 1)), np.broadcast_to(ks, (L,))


def _stebz(d, e, k: int, order: str):
    """The LAPACK calls of scipy's eigh_tridiagonal(d, e, select="i",
    select_range=(0, k - 1), lapack_driver="stebz"): bisection for the k
    smallest eigenvalues in block order ("B", for stein) or ascending ("E")."""
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, order)
    if info != 0 or m != k:
        raise np.linalg.LinAlgError(f"stebz found {m} of {k} eigenvalues (LAPACK info={info})")
    return w[:m], iblock, isplit


def tridiag_smallest_eigenpairs(diag, offdiag, k):
    """k smallest eigenpairs of the symmetric tridiagonal matrix with the
    given diagonal (length N >= 1) and off-diagonal (length N - 1).

    A stack of L matrices is one call: diag of shape (L, N), offdiag shared
    (N - 1,) or one per row (L, N - 1), and k an integer or one per row.
    The pairs of row 0 come first, then those of row 1, and so on: the
    eigenvalues as one array of length sum(k), the eigenvectors as the
    columns of one (N, sum(k)) array.

    Eigenvalues come from bisection on the Sturm sequence (LAPACK stebz) and
    eigenvectors from inverse iteration (stein), called directly with the
    arguments scipy's eigh_tridiagonal passes them, so every value is the
    same to the bit; eigenvalues of a row are ascending, eigenvectors have
    unit Euclidean norm and a deterministic sign.
    """
    d, e, ks = _tridiag_stack(diag, offdiag, k)
    n = d.shape[1]
    if n == 1:
        return d[:, 0].copy(), np.ones((1, len(d)))
    vals = np.empty(int(ks.sum()))
    vecs = np.empty((n, len(vals)), order="F")
    pos = 0
    for d_i, e_i, k_i in zip(d, e, ks):
        w, iblock, isplit = _stebz(d_i, e_i, k_i, "B")
        z, info = dstein(d_i, e_i, w, iblock, isplit)
        if info != 0:
            raise np.linalg.LinAlgError(f"stein: {info} eigenvectors failed to converge")
        order = np.argsort(w)
        z = z[:, order]
        z /= np.linalg.norm(z, axis=0)
        vals[pos:pos + k_i] = w[order]
        vecs[:, pos:pos + k_i] = _fix_signs(z)
        pos += k_i
    return vals, vecs


def tridiag_smallest_eigenvalues(diag, offdiag, k) -> np.ndarray:
    """The eigenvalues of tridiag_smallest_eigenpairs(diag, offdiag, k),
    stacks included, without the inverse iteration for eigenvectors: the
    same stebz bisection, so the same values to the bit."""
    d, e, ks = _tridiag_stack(diag, offdiag, k)
    if d.shape[1] == 1:
        return d[:, 0].copy()
    return np.concatenate([_stebz(d_i, e_i, k_i, "E")[0]
                           for d_i, e_i, k_i in zip(d, e, ks)])


@dataclass
class SparseSymmetricOperator:
    """Symmetric sparse matrix, assembled.

    Symmetry is checked exactly at construction: the canonical CSR arrays
    (sorted indices, duplicates summed) must equal those of the transpose,
    the values bit for bit.
    """

    matrix: sparse.csr_matrix = field(repr=False)

    def __post_init__(self):
        A = self.matrix
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
            self.matrix = A
        T = A.tocsc()
        if not (np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices)
                and np.array_equal(A.data.view(np.uint8), T.data.view(np.uint8))):
            raise ValueError("operator is not exactly symmetric: its CSR arrays differ "
                             "from those of its transpose")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, mat: sparse.spmatrix) -> "SparseSymmetricOperator":
        return cls(matrix=mat.tocsr())


def symmetrized_operator(p, q, cond, diag, mass) -> sparse.csr_matrix:
    """M^{-1/2} K M^{-1/2} for a conductance form K on an edge list.

    K has -cond[e] at (p[e], q[e]) and at (q[e], p[e]), summed over repeated
    edges, and `diag` on its diagonal; M = diag(mass).  Both entries of an
    edge come from one expression, so the matrix is exactly symmetric.
    """
    d = 1.0 / np.sqrt(mass)
    off = d[p] * -cond * d[q]
    nodes = np.arange(len(mass))
    return sparse.csr_matrix(
        (np.concatenate([off, off, d * diag * d]),
         (np.concatenate([p, q, nodes]), np.concatenate([q, p, nodes]))),
        shape=(len(mass), len(mass)))


def sparse_smallest_eigenpairs(op: SparseSymmetricOperator, k: int, shift: float, red):
    """k smallest eigenpairs of a sparse symmetric operator.

    Contract: `shift` lies strictly below the spectrum, so A - shift*I is
    symmetric positive definite, and `red` indexes an independent set R of
    unknowns: no nonzero of A joins two of them, so the block A_RR is
    diagonal (a ValueError says when it is not).  R is eliminated exactly
    before anything is factored (the first level of a red-black ordering).
    With B the other unknowns and D = A_RR - shift*I, whose entries are
    positive, the Schur complement

        S = A_BB - shift*I - A_BR D^{-1} A_RB

    is formed as A_BB - shift*I - C^T C with C = D^{-1/2} A_RB and factored
    once, with a symmetric minimum-degree ordering and diagonal pivots
    (stable for SPD matrices).  (A - shift*I)^{-1} b is then three steps:
    y = b_B - A_BR D^{-1} b_R, x_B = S^{-1} y, and x_R = D^{-1} (b_R - A_RB
    x_B).  An empty `red` factors A - shift*I itself.

    The solves serve every step of a shift-invert block Lanczos (Golub &
    Underwood 1977) on (A - shift*I)^{-1}: block size k, so eigenvalues of
    multiplicity up to k are found, and full reorthogonalization.  Its k
    Ritz values theta of largest |theta| are tested after every step and
    it stops once each has the residual estimate |B_j y_last| <=
    _RITZ_TOL * |theta|, or when the basis spans the whole space.  The
    closer `shift` sits below lambda_1, the fewer steps are needed.  A
    diagonal entry of A_RR or a returned eigenvalue at or below `shift`
    raises NonConvergenceError; a shift inside the spectrum is caught
    whenever an eigenvalue below it is among the k nearest.  Each
    eigenvalue is the Rayleigh quotient v.Av / v.v of its returned vector,
    summed by numpy, not shift + 1/theta, whose rounding of about eps |A| /
    lambda would move it with the shift.

    Lanczos starts from a fixed pseudo-random block so that repeated calls
    return the same pairs (a constant start would be orthogonal to
    antisymmetric modes).  Each returned pair satisfies |Av - lambda v| <=
    _RESIDUAL_TOL * max(|lambda|, lambda_max_computed).
    """
    n = op.dimension
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= dimension-1 = {n - 1}, got k={k}")
    apply = _shifted_inverse(op.matrix, shift, red)
    theta, vecs = _block_lanczos(apply, np.random.default_rng(0).standard_normal((k, n)).T)
    vecs = _fix_signs(vecs / np.linalg.norm(vecs, axis=0))
    av = op.matrix @ vecs
    vals = np.array([np.sum(v * w) / np.sum(v * v) for v, w in zip(vecs.T, av.T)])
    order = np.argsort(vals)
    vals, vecs, av = vals[order], vecs[:, order], av[:, order]
    scale = np.max(np.abs(vals))
    for i, lam in enumerate(vals):
        res = np.linalg.norm(av[:, i] - lam * vecs[:, i])
        if lam <= shift:
            raise NonConvergenceError(
                f"eigenvalue {i} (lambda={lam:.6g}) is not above the shift {shift:.6g}; "
                "the shift must lie below the spectrum", res
            )
        if res > _RESIDUAL_TOL * max(abs(lam), scale):
            raise NonConvergenceError(
                f"eigenpair {i} (lambda={lam:.6g}) missed the residual target", res
            )
    return vals, vecs


def _shifted_inverse(A, shift, red):
    """b -> (A - shift*I)^{-1} b on n x b blocks, for the canonical CSR
    matrix A of a SparseSymmetricOperator, with the unknowns `red`
    eliminated before SuperLU factors the Schur complement on the rest (see
    sparse_smallest_eigenpairs)."""
    n = A.shape[0]
    in_red = np.zeros(n, dtype=bool)
    in_red[red] = True
    red, black = np.flatnonzero(in_red), np.flatnonzero(~in_red)
    rows = A[red]
    a_rr = rows[:, red]
    r, c = a_rr.nonzero()
    if np.any(r != c):
        raise ValueError(f"the eliminated unknowns are not independent: A joins unknowns "
                         f"{red[r[r != c][0]]} and {red[c[r != c][0]]}")
    pivots = a_rr.diagonal() - shift
    if np.any(pivots <= 0.0):
        raise NonConvergenceError(
            f"a diagonal entry of the operator is not above the shift {shift:.6g}; "
            "the shift must lie below the spectrum", np.nan)
    scale = 1.0 / np.sqrt(pivots)
    coupling = rows[:, black]
    coupling.data *= np.repeat(scale, np.diff(coupling.indptr))
    del rows, a_rr
    schur = A[black][:, black] - coupling.T.tocsr() @ coupling
    schur.setdiag(schur.diagonal() - shift)
    lu = spla.splu(schur.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    del schur
    scale = scale[:, None]

    def apply(b):
        x = np.empty_like(b)
        t = scale * b[red]
        x_black = lu.solve(b[black] - coupling.T @ t)
        x[black] = x_black
        x[red] = scale * (t - coupling @ x_black)
        return x

    return apply


def _block_lanczos(apply, start):
    """The k = start.shape[1] Ritz pairs of largest |theta| of the symmetric
    map `apply` (n x b blocks to n x b blocks), by block Lanczos from `start`.

    The basis is kept in a preallocated array that doubles when full.  Each
    new block is orthogonalized against the whole basis twice (classical
    Gram-Schmidt; the first pass holds the three-term recurrence, its
    coefficients on the newest block give the diagonal block A_j).  Stops
    when each wanted pair has |B_j y_last| <= _RITZ_TOL * |theta| (B_j the
    newest subdiagonal block, y_last the entries of the Ritz vector in the
    block tridiagonal projection that belong to the newest block), or when
    the basis spans all n dimensions; the block that would pass n columns
    is cut to fit, so the last Ritz pairs are exact.  Returns (theta,
    ritz_vectors)."""
    n, k = start.shape
    cap = min(n, 16 * k)
    basis = np.empty((n, cap), order="F")
    proj = np.zeros((cap, cap))
    block, _ = qr(start, mode="economic", check_finite=False)
    m = 0
    while True:
        b = block.shape[1]
        basis[:, m:m + b] = block
        w = apply(block)
        span = basis[:, :m + b]
        coef = span.T @ w
        w -= span @ coef
        w -= span @ (span.T @ w)
        proj[m:m + b, m:m + b] = (coef[m:] + coef[m:].T) / 2.0
        m += b
        block, coupling = qr(w, mode="economic", check_finite=False)
        if b > 1:
            # dividing by an ill-conditioned R (one column of w converged
            # away) amplifies w's rounding along the basis; a pass restores
            # the orthogonality
            block -= span @ (span.T @ block)
            block, again = qr(block, mode="economic", check_finite=False)
            coupling = again @ coupling
        theta, y = np.linalg.eigh(proj[:m, :m])
        wanted = np.argsort(-np.abs(theta), kind="stable")[:k]
        estimate = np.linalg.norm(coupling @ y[m - b:m, wanted], axis=0)
        if np.all(estimate <= _RITZ_TOL * np.abs(theta[wanted])) or m == n:
            return theta[wanted], span @ y[:, wanted]
        if m + b > n:
            # at most n - m directions are left: keep those of block @ coupling
            u, sv, vt = np.linalg.svd(coupling)
            block, coupling = block @ u[:, :n - m], sv[:n - m, None] * vt[:n - m]
        if m + block.shape[1] > cap:
            cap = min(n, 2 * cap)
            grown = np.empty((n, cap), order="F")
            grown[:, :m] = span
            basis = grown
            proj = np.pad(proj, ((0, cap - len(proj)),) * 2)
        proj[m:m + len(coupling), m - b:m] = coupling
        proj[m - b:m, m:m + len(coupling)] = coupling.T


def _cells(axis, p):
    """Cell index, position in the cell and whether inside the axis, for
    each point p along one ascending axis."""
    i = np.clip(np.searchsorted(axis, p, side="right") - 1, 0, len(axis) - 2)
    return i, (p - axis[i]) / (axis[i + 1] - axis[i]), (p >= axis[0]) & (p <= axis[-1])


def _corner_sum(v, i, j, s, t, inside):
    return np.where(inside, v[i, j] * (1 - s) * (1 - t) + v[i, j + 1] * (1 - s) * t
                    + v[i + 1, j] * s * (1 - t) + v[i + 1, j + 1] * s * t, 0.0)


def bilinear(axes, values: np.ndarray, x, y) -> np.ndarray:
    """Bilinear interpolation of `values` (shape len(axes[0]) x len(axes[1]))
    on the ascending grid `axes` at the points (x, y), broadcast together;
    0 at points strictly outside the axes.

    The cell along each axis is searchsorted(side="right") - 1 clipped to
    the last cell, so a point on the last node lies in the last cell, and
    the four corner terms are summed in a fixed order: the rule and the
    rounding of scipy's RegularGridInterpolator (linear, fill value 0).
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    (i, s, in_x), (j, t, in_y) = _cells(axes[0], x), _cells(axes[1], y)
    return _corner_sum(values, i, j, s, t, in_x & in_y)


def bilinear_on_grid(axes, values: np.ndarray, x, y, select) -> np.ndarray:
    """bilinear(axes, values, X[select], Y[select]) with X, Y the (x, y)
    grid of meshgrid(x, y, indexing="ij"), the same values to the bit, with
    the cells located once per axis value instead of once per point."""
    (i, s, in_x), (j, t, in_y) = (_cells(axis, np.asarray(p, dtype=float))
                                  for axis, p in zip(axes, (x, y)))
    a, b = np.nonzero(select)
    return _corner_sum(values, i[a], j[b], s[a], t[b], in_x[a] & in_y[b])


def integrate_samples(values: np.ndarray, weights: np.ndarray) -> float:
    """Weighted dot product; the composite rule lives in the weights."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError(f"length mismatch: {values.shape} vs {weights.shape}")
    return float(values @ weights)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for an arbitrary sorted grid."""
    grid = np.asarray(grid, dtype=float)
    w = np.zeros_like(grid)
    d = np.diff(grid)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def richardson(coarse: float, fine: float) -> float:
    """Richardson extrapolation for a quantity with O(h^2) error,
    computed at mesh widths h (coarse) and h/2 (fine)."""
    return (4.0 * fine - coarse) / 3.0
