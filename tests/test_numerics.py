import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse as sparse
from scipy.linalg import eigh, eigh_tridiagonal

from annulab import numerics


def dirichlet_tridiag(N, length=1.0):
    h = length / N
    return (np.full(N - 1, 2.0 / h**2), np.full(N - 2, -1.0 / h**2)), h


def to_sparse(op):
    diag, offdiag = op
    return sparse.diags([offdiag, diag, offdiag], [-1, 0, 1], format="csr")


def discrete_interval_eigenvalue(k, N, length=1.0):
    # closed-form spectrum of the discrete Dirichlet Laplacian
    h = length / N
    return (2.0 - 2.0 * math.cos(k * math.pi / N)) / h**2


def test_tridiag_three_point_interval():
    op, _ = dirichlet_tridiag(4)
    vals, vecs = numerics.tridiag_smallest_eigenpairs(*op, 1)
    assert vals[0] == pytest.approx((2.0 - math.sqrt(2.0)) * 16.0, rel=1e-12)
    assert np.linalg.norm(vecs[:, 0]) == pytest.approx(1.0, rel=1e-12)


def test_tridiag_diagonal_case():
    vals, vecs = numerics.tridiag_smallest_eigenpairs(np.array([5.0, 5.0]), np.array([0.0]), 2)
    assert vals == pytest.approx([5.0, 5.0])
    gram = vecs.T @ vecs
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_tridiag_matches_closed_form_discrete_spectrum():
    op, _ = dirichlet_tridiag(200)
    vals, _ = numerics.tridiag_smallest_eigenpairs(*op, 5)
    for k in range(1, 6):
        assert vals[k - 1] == pytest.approx(discrete_interval_eigenvalue(k, 200), rel=1e-12)


def test_tridiag_richardson_hits_continuum():
    v1, _ = numerics.tridiag_smallest_eigenpairs(*dirichlet_tridiag(200)[0], 1)
    v2, _ = numerics.tridiag_smallest_eigenpairs(*dirichlet_tridiag(400)[0], 1)
    lam = numerics.richardson(v1[0], v2[0])
    assert lam == pytest.approx(math.pi**2, rel=1e-8)


def test_tridiag_refinement_is_second_order():
    exact = math.pi**2
    e1 = abs(numerics.tridiag_smallest_eigenpairs(*dirichlet_tridiag(100)[0], 1)[0][0] - exact)
    e2 = abs(numerics.tridiag_smallest_eigenpairs(*dirichlet_tridiag(200)[0], 1)[0][0] - exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)


def test_tridiag_eigenvector_conventions():
    op, _ = dirichlet_tridiag(64)
    vals, vecs = numerics.tridiag_smallest_eigenpairs(*op, 4)
    assert np.all(np.diff(vals) >= 0)
    gram = vecs.T @ vecs
    assert np.allclose(gram, np.eye(4), atol=1e-8)
    for j in range(4):
        i = np.argmax(np.abs(vecs[:, j]))
        assert vecs[i, j] > 0


def _stebz_reference(diag, offdiag, k):
    """eigh_tridiagonal's stebz pairs with the conventions of the package:
    ascending, unit norm, largest component positive."""
    vals, vecs = eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, k - 1),
                                  lapack_driver="stebz")
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    vecs /= np.linalg.norm(vecs, axis=0)
    idx = np.argmax(np.abs(vecs), axis=0)
    return vals, vecs * np.sign(vecs[idx, np.arange(k)])


@pytest.mark.parametrize("seed", range(6))
def test_tridiag_stack_equals_eigh_tridiagonal_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        L, N = int(rng.integers(1, 51)), int(rng.integers(1, 601))
        diag = rng.standard_normal((L, N)) * 10.0 ** rng.uniform(-3, 3)
        shared = bool(rng.integers(2))
        offdiag = rng.standard_normal(N - 1) if shared else rng.standard_normal((L, N - 1))
        ks = rng.integers(1, min(N, 6) + 1, size=L)
        vals, vecs = numerics.tridiag_smallest_eigenpairs(diag, offdiag, ks)
        only = numerics.tridiag_smallest_eigenvalues(diag, offdiag, ks)
        assert vals.shape == only.shape == (ks.sum(),) and vecs.shape == (N, ks.sum())
        assert np.array_equal(vals, only)
        first = np.cumsum(ks) - ks
        for i in range(L):
            ref_vals, ref_vecs = _stebz_reference(diag[i], offdiag if shared else offdiag[i],
                                                  int(ks[i]))
            cols = slice(first[i], first[i] + ks[i])
            assert np.array_equal(vals[cols], ref_vals)
            assert np.array_equal(vecs[:, cols], ref_vecs)
        # an integer k holds for every row
        ground = [_stebz_reference(diag[i], offdiag if shared else offdiag[i], 1)[0][0]
                  for i in range(L)]
        assert np.array_equal(numerics.tridiag_smallest_eigenvalues(diag, offdiag, 1), ground)


def test_tridiag_one_node_stack():
    vals, vecs = numerics.tridiag_smallest_eigenpairs(np.array([[3.0], [-1.0]]), np.zeros(0), 1)
    assert np.array_equal(vals, [3.0, -1.0]) and np.array_equal(vecs, [[1.0, 1.0]])
    assert np.array_equal(numerics.tridiag_smallest_eigenvalues([2.5], [], 1), [2.5])


@pytest.mark.parametrize("diag, offdiag, k", [
    (np.ones(4), np.ones(3), 0),
    (np.ones(4), np.ones(3), 5),
    (np.ones((2, 4)), np.ones(3), [1, 2, 3]),
    (np.ones((2, 4)), np.ones((3, 3)), 1),
    (np.ones(4), np.ones((1, 3)), 1),
    (np.ones(4), np.ones(4), 1),
    (np.ones((2, 2, 4)), np.ones(3), 1),
    (np.ones(4), np.ones(3), 1.5),
    (np.array([1.0, np.nan, 1.0]), np.ones(2), 1),
    (np.ones((3, 3)), np.array([[1.0, 1.0], [1.0, np.inf], [1.0, 1.0]]), 1),
])
def test_tridiag_stack_refuses_bad_input(diag, offdiag, k):
    for solve in (numerics.tridiag_smallest_eigenpairs, numerics.tridiag_smallest_eigenvalues):
        with pytest.raises(ValueError):
            solve(diag, offdiag, k)


def even_independent(A):
    """The even-numbered unknowns of A less those A joins to another
    even-numbered one: an independent set (the grid parity of laplacian_2d
    at even n, every other node of a path or an even cycle)."""
    A = sparse.coo_matrix(A)
    red = np.arange(A.shape[0]) % 2 == 0
    joined = red[A.row] & red[A.col] & (A.row != A.col) & (A.data != 0)
    red[A.row[joined]] = False
    return np.flatnonzero(red)


def laplacian_2d(n):
    I = sparse.identity(n - 1)
    op1, _ = dirichlet_tridiag(n)
    T = to_sparse(op1)
    return sparse.kron(T, I) + sparse.kron(I, T)


def test_sparse_matches_tridiag():
    op1, _ = dirichlet_tridiag(128)
    vals_t, _ = numerics.tridiag_smallest_eigenpairs(*op1, 3)
    op = numerics.SparseSymmetricOperator.from_matrix(to_sparse(op1))
    vals_s, _ = numerics.sparse_smallest_eigenpairs(op, 3, 0.0, even_independent(op.matrix))
    assert vals_s == pytest.approx(vals_t, rel=1e-10)


def test_sparse_2d_unit_square():
    A = laplacian_2d(64)
    op = numerics.SparseSymmetricOperator.from_matrix(A)
    vals, _ = numerics.sparse_smallest_eigenpairs(op, 1, 0.0, even_independent(A))
    # O(h^2) discretization error at h = 1/64
    assert vals[0] == pytest.approx(2.0 * math.pi**2, rel=1e-3)


def test_sparse_kronecker_sum_additivity():
    opa, _ = dirichlet_tridiag(48, length=1.0)
    opb, _ = dirichlet_tridiag(48, length=2.0)
    A, B = to_sparse(opa), to_sparse(opb)
    Ia = sparse.identity(A.shape[0])
    Ib = sparse.identity(B.shape[0])
    ksum = sparse.kron(A, Ib) + sparse.kron(Ia, B)
    lam_sum = numerics.sparse_smallest_eigenpairs(
        numerics.SparseSymmetricOperator.from_matrix(ksum), 1, 0.0, even_independent(ksum))[0][0]
    lam_a = numerics.tridiag_smallest_eigenpairs(*opa, 1)[0][0]
    lam_b = numerics.tridiag_smallest_eigenpairs(*opb, 1)[0][0]
    assert lam_sum == pytest.approx(lam_a + lam_b, rel=1e-8)


def test_sparse_rejects_nonsymmetric():
    mat = sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        numerics.SparseSymmetricOperator.from_matrix(mat)


def test_sparse_rejects_a_matrix_one_ulp_off_its_transpose():
    # a relative error of 1e-16 is below any tolerance a random probe could
    # use; the exact check compares the CSR arrays with the transpose's
    A = laplacian_2d(8).tolil()
    A[0, 1] = np.nextafter(A[0, 1], 0.0)
    with pytest.raises(ValueError, match="not exactly symmetric"):
        numerics.SparseSymmetricOperator.from_matrix(A.tocsr())


def test_symmetrized_operator_is_exactly_symmetric_and_matches_dense():
    rng = np.random.default_rng(3)
    n = 40
    p = rng.integers(0, n, 200)
    q = (p + rng.integers(1, n, 200)) % n  # no self-loops; some pairs repeat
    cond = rng.uniform(0.1, 2.0, 200)
    diag, mass = rng.uniform(1.0, 9.0, n), rng.uniform(0.5, 3.0, n)
    L = numerics.symmetrized_operator(p, q, cond, diag, mass)
    assert (L != L.T).nnz == 0
    K = np.diag(diag)
    for a, b, c in zip(p, q, cond):
        K[a, b] -= c
        K[b, a] -= c
    d = np.diag(1.0 / np.sqrt(mass))
    assert np.allclose(L.toarray(), d @ K @ d, rtol=1e-13, atol=1e-13)


def test_integrate_samples_rules():
    x = np.linspace(0.0, 1.0, 1001)
    w = numerics.trapezoid_weights(x)
    assert numerics.integrate_samples(x, w) == pytest.approx(0.5, abs=1e-6)

    x = np.linspace(0.0, math.pi, 1001)
    w = numerics.trapezoid_weights(x)
    assert numerics.integrate_samples(np.sin(x), w) == pytest.approx(2.0, abs=1e-5)


def test_integrate_samples_length_mismatch():
    with pytest.raises(ValueError):
        numerics.integrate_samples(np.ones(3), np.ones(4))


def test_sparse_residual_target_enforced(monkeypatch):
    op1, _ = dirichlet_tridiag(64)
    op = numerics.SparseSymmetricOperator.from_matrix(to_sparse(op1))
    monkeypatch.setattr(numerics, "_RESIDUAL_TOL", 1e-30)
    with pytest.raises(numerics.NonConvergenceError):
        numerics.sparse_smallest_eigenpairs(op, 2, 0.0, even_independent(op.matrix))


def test_sparse_shift_inside_spectrum_raises():
    op1, _ = dirichlet_tridiag(64)
    op = numerics.SparseSymmetricOperator.from_matrix(to_sparse(op1))
    lam1 = discrete_interval_eigenvalue(1, 64)
    lam2 = discrete_interval_eigenvalue(2, 64)
    with pytest.raises(numerics.NonConvergenceError, match="below the spectrum"):
        numerics.sparse_smallest_eigenpairs(op, 2, lam1 + 0.25 * (lam2 - lam1),
                                            even_independent(op.matrix))


def test_sparse_refuses_an_eliminated_set_that_is_not_independent():
    # unknowns 0 and 1 are neighbors on the grid: their block is not diagonal
    op = numerics.SparseSymmetricOperator.from_matrix(laplacian_2d(8))
    with pytest.raises(ValueError, match="not independent"):
        numerics.sparse_smallest_eigenpairs(op, 1, 0.0, [0, 1, 4])


def test_sparse_refuses_a_shift_above_an_eliminated_diagonal_entry():
    # a diagonal entry bounds lambda_1 from above, so the shift is inside the spectrum
    A = laplacian_2d(8)
    op = numerics.SparseSymmetricOperator.from_matrix(A)
    with pytest.raises(numerics.NonConvergenceError, match="below the spectrum"):
        numerics.sparse_smallest_eigenpairs(op, 1, A.diagonal().max(), even_independent(A))


def test_sparse_eigenvalues_do_not_move_with_the_shift():
    # eigenvalues are Rayleigh quotients of the returned vectors; shift +
    # 1/theta would spread over about 3e-12 relative on this operator
    opa, opb = to_sparse(dirichlet_tridiag(64)[0]), to_sparse(dirichlet_tridiag(48, 1.7)[0])
    ksum = (sparse.kron(opa, sparse.identity(opb.shape[0]))
            + sparse.kron(sparse.identity(opa.shape[0]), opb))
    op = numerics.SparseSymmetricOperator.from_matrix(ksum)
    red = even_independent(ksum)
    lam1 = numerics.sparse_smallest_eigenpairs(op, 1, 0.0, red)[0][0]
    vals = np.array([numerics.sparse_smallest_eigenpairs(op, 3, s * lam1, red)[0]
                     for s in (0.0, 0.9, 1.0 - 1e-6)])
    assert np.all(np.ptp(vals, axis=0) <= 1e-13 * vals[0])


def cycle_laplacian(n):
    """Graph Laplacian of the n-cycle: 2 - 2 cos(2 pi j / n), each j != 0,
    n/2 twice."""
    ring = sparse.diags([np.ones(n - 1), [1.0]], [1, 1 - n], shape=(n, n))
    return (2.0 * sparse.identity(n) - ring - ring.T).tocsr()


def _assert_matches_dense(A, k, shift):
    """Eigenvalues, and the spans of eigenvectors of equal eigenvalue, as dense eigh."""
    op = numerics.SparseSymmetricOperator.from_matrix(A)
    vals, vecs = numerics.sparse_smallest_eigenpairs(op, k, shift, even_independent(A))
    dense_vals, dense_vecs = eigh(A.toarray(), subset_by_index=(0, k - 1))
    scale = np.max(np.abs(dense_vals))
    assert np.allclose(vals, dense_vals, rtol=0.0, atol=1e-10 * scale)
    assert np.allclose(vecs.T @ vecs, np.eye(k), atol=1e-10)
    # compare projectors on clusters of equal eigenvalues, which are only
    # defined up to a rotation inside the eigenspace
    clusters = np.split(np.arange(k), np.flatnonzero(np.diff(dense_vals) > 1e-8 * scale) + 1)
    for c in clusters:
        if c[-1] == k - 1 and k < A.shape[0]:
            full = eigh(A.toarray(), eigvals_only=True, subset_by_index=(0, k))
            if full[k] - full[k - 1] <= 1e-8 * scale:
                continue  # the cluster runs past k: only part of it is returned
        P = vecs[:, c] @ vecs[:, c].T
        Q = dense_vecs[:, c] @ dense_vecs[:, c].T
        assert np.max(np.abs(P - Q)) <= 1e-8
    return vals


def test_sparse_cycle_finds_the_double_eigenvalue():
    # mu_2 = mu_3 exactly: block size k = 3 holds the whole eigenspace
    vals = _assert_matches_dense(cycle_laplacian(64), 3, shift=-0.1)
    mu = 2.0 - 2.0 * math.cos(2.0 * math.pi / 64)
    assert vals == pytest.approx([0.0, mu, mu], abs=1e-12)


def test_sparse_unit_square_finds_the_double_eigenvalue():
    # lambda_12 = lambda_21 on the square
    _assert_matches_dense(laplacian_2d(16), 3, shift=0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 80), st.integers(1, 4),
       st.sampled_from([1e-3, 0.5, 5.0]))
@example(seed=0, n=9, k=4, gap=1e-3)  # needs the second pass over a nearly deflated block
def test_sparse_matches_dense_on_random_sparse_operators(seed, n, k, gap):
    # small n: the last Lanczos block is cut to the dimension; a shift close
    # below lambda_1: the shift-inverted operator is ill-conditioned
    rng = np.random.default_rng(seed)
    B = sparse.random(n, n, density=0.1, random_state=rng)
    A = (B + B.T + sparse.diags(rng.uniform(0.0, 1.0, n))).tocsr()
    lam_min = eigh(A.toarray(), eigvals_only=True, subset_by_index=(0, 0))[0]
    _assert_matches_dense(A, k, shift=lam_min - gap)



def test_bilinear_matches_regular_grid_interpolator_on_nodes_edges_and_outside():
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(3)
    x = np.cumsum(rng.uniform(0.1, 1.0, 12))
    y = np.linspace(-1.0, 2.0, 9)
    v = rng.standard_normal((12, 9))
    rgi = RegularGridInterpolator((x, y), v, bounds_error=False, fill_value=0.0)
    X, Y = np.meshgrid(x, y, indexing="ij")
    inside_x = rng.uniform(x[0], x[-1], 500)
    inside_y = rng.uniform(y[0], y[-1], 500)
    px = np.concatenate([X.ravel(), inside_x, [x[-1], x[-1], x[0] - 1e-12, x[-1] + 1e-12, 0.0]])
    py = np.concatenate([Y.ravel(), inside_y, [y[-1], y[3], y[2], y[2], y[-1] + 5.0]])
    got = numerics.bilinear((x, y), v, px, py)
    assert np.array_equal(got, rgi(np.stack([px, py], axis=1)))
    # nodes give the node values, points strictly outside give 0
    assert np.array_equal(got[:v.size], v.ravel())
    assert np.all(got[-3:] == 0.0)
    # arguments broadcast together
    assert numerics.bilinear((x, y), v, X, y[4]).shape == X.shape
