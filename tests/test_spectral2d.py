import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from annulab import bases, numerics, perturb, radial, spectral2d


def test_polar_exact_annulus_against_radial_oracle():
    dom = spectral2d.annulus_domain(1.0, 1.5)
    sol = spectral2d.solve_polar(dom, 64, 256, k=1)
    lam_oracle = radial.solve_radial(2, 1.0, 1.5, 0.0, N=4096)[0].lam
    assert sol.eigenvalues[0] == pytest.approx(lam_oracle, rel=1e-3)


def test_polar_sector_against_separated_oracle():
    t1 = 3.0 * math.pi / 4.0
    dom = spectral2d.annulus_domain(1.0, 1.5, 0.0, t1, wrap=False)
    sol = spectral2d.solve_polar(dom, 64, 192, k=1)
    lam0 = bases.base_eigendata(bases.circle_arc(t1)).lambda0
    lam_oracle = radial.solve_radial(2, 1.0, 1.5, lam0, N=4096)[0].lam
    assert sol.eigenvalues[0] == pytest.approx(lam_oracle, rel=1e-3)


def test_polar_dilation():
    dom1 = spectral2d.annulus_domain(1.0, 1.4)
    dom2 = spectral2d.annulus_domain(2.0, 2.8)
    lam1 = spectral2d.solve_polar(dom1, 32, 128).eigenvalues[0]
    lam2 = spectral2d.solve_polar(dom2, 32, 128).eigenvalues[0]
    assert lam2 == pytest.approx(lam1 / 4.0, rel=1e-12)


def test_polar_grid_convergence_order():
    lam_exact = radial.solve_radial(2, 1.0, 1.5, 0.0, N=4096)[0].lam
    e1 = abs(spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.5), 16, 64).eigenvalues[0] - lam_exact)
    e2 = abs(spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.5), 32, 128).eigenvalues[0] - lam_exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.3)


def test_polar_positivity_and_normalization():
    sol = spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.3), 24, 96)
    phi = sol.values[0]
    assert np.all(phi[sol.mask] > 0)
    assert float(np.sum(phi**2 * sol.cell_measure)) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("solve", [
    lambda: spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.3), 16, 64, k=3),
    lambda: spectral2d.solve_cartesian(box_domain(1.0, 0.5), 1.0 / 16.0),
], ids=["polar-k3", "cartesian-k1"])
def test_grid_spectrum_values_are_one_array(solve):
    sol = solve()
    assert type(sol.values) is np.ndarray
    assert sol.values.shape == (len(sol.eigenvalues), *sol.mask.shape)
    assert np.all(sol.values[:, ~sol.mask] == 0.0)


def box_domain(ax, ay):
    return spectral2d.CartesianDomain2D(
        indicator=lambda X, Y: (np.abs(X) < ax) & (np.abs(Y) < ay),
        bbox=(-ax, ax, -ay, ay),
    )


def test_cartesian_unit_box():
    sol_c = spectral2d.solve_cartesian(box_domain(1.0, 1.0), 1.0 / 64.0)
    sol_f = spectral2d.solve_cartesian(box_domain(1.0, 1.0), 1.0 / 128.0)
    lam = numerics.richardson(sol_c.eigenvalues[0], sol_f.eigenvalues[0])
    assert lam == pytest.approx(math.pi**2 / 2.0, rel=2e-3)
    # center value of the L2-normalized eigenfunction is 1
    x, y = sol_f.axes
    ix = np.argmin(np.abs(x))
    iy = np.argmin(np.abs(y))
    assert sol_f.values[0][ix, iy] == pytest.approx(1.0, rel=1e-2)


def test_cartesian_slab():
    sol_c = spectral2d.solve_cartesian(box_domain(1.0, 0.1), 1.0 / 64.0)
    sol_f = spectral2d.solve_cartesian(box_domain(1.0, 0.1), 1.0 / 128.0)
    lam = numerics.richardson(sol_c.eigenvalues[0], sol_f.eigenvalues[0])
    assert lam == pytest.approx(math.pi**2 / 4.0 + 25.0 * math.pi**2, rel=2e-3)


def test_domain_monotonicity():
    lam_small = spectral2d.solve_cartesian(box_domain(0.8, 0.8), 1.0 / 64.0).eigenvalues[0]
    lam_big = spectral2d.solve_cartesian(box_domain(1.0, 1.0), 1.0 / 64.0).eigenvalues[0]
    assert lam_big <= lam_small * (1.0 + 1e-3)


def test_cartesian_disconnected_raises():
    dom = spectral2d.CartesianDomain2D(
        indicator=lambda X, Y: np.abs(X) > 0.5,
        bbox=(-1.0, 1.0, -1.0, 1.0),
    )
    with pytest.raises(spectral2d.DisconnectedDomainError):
        spectral2d.solve_cartesian(dom, 1.0 / 32.0)


def test_cartesian_empty_raises():
    dom = spectral2d.CartesianDomain2D(
        indicator=lambda X, Y: np.zeros_like(X, dtype=bool),
        bbox=(-1.0, 1.0, -1.0, 1.0),
    )
    with pytest.raises(spectral2d.EmptyDomainError):
        spectral2d.solve_cartesian(dom, 1.0 / 32.0)


def test_polar_coarse_grid_raises():
    with pytest.raises(ValueError):
        spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.05), 4, 64)


def test_mask_roundtrip_and_solver(tmp_path):
    dom = spectral2d.annulus_domain(1.0, 1.4)
    sol = spectral2d.solve_polar(dom, 24, 96)
    path = tmp_path / "mask.txt"
    spectral2d.save_mask(path, sol.mask, sol.meta["r_range"], sol.meta["theta_range"])
    mask, r_range, theta_range = spectral2d.load_mask(path)
    assert np.array_equal(mask, sol.mask)
    sol2 = spectral2d.solve_polar_mask(mask, r_range, theta_range, wrap=True)
    assert sol2.eigenvalues[0] == pytest.approx(sol.eigenvalues[0], rel=1e-12)


def test_interior_mask_erosion():
    dom = spectral2d.annulus_domain(1.0, 1.4)
    sol = spectral2d.solve_polar(dom, 24, 96)
    inner = sol.interior_mask(2)
    assert inner.sum() < sol.mask.sum()
    assert np.all(sol.mask[inner])


@pytest.fixture
def hull_eigenvalues(monkeypatch):
    """Every hull eigenvalue the grid driver computes, in call order."""
    seen = []
    hull = spectral2d._hull_ground_state

    def record(*args):
        lam, psi = hull(*args)
        seen.append(lam)
        return lam, psi

    monkeypatch.setattr(spectral2d, "_hull_ground_state", record)
    return seen


@pytest.fixture
def grid_solves(monkeypatch):
    """(arguments, result) of every grid eigensolve, in call order."""
    seen = []
    solve = spectral2d._assemble_and_solve

    def record(*args):
        seen.append((args, solve(*args)))
        return seen[-1][1]

    monkeypatch.setattr(spectral2d, "_assemble_and_solve", record)
    return seen


@pytest.fixture
def sparse_solves(monkeypatch):
    """(operator, result) of every sparse eigensolve, in call order."""
    seen = []
    solver = numerics.sparse_smallest_eigenpairs

    def record(op, *args, **kwargs):
        seen.append((op, solver(op, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(numerics, "sparse_smallest_eigenpairs", record)
    return seen


def _oracle_operator(mask, cond_0, cond_1, mass, wrap):
    """(K, M) of the masked 5-point operator, assembled node by node."""
    n0, n1 = mask.shape
    idx = -np.ones(mask.shape, dtype=int)
    idx[mask] = np.arange(mask.sum())
    K = sparse.lil_matrix((mask.sum(), mask.sum()))
    for i, j in zip(*np.nonzero(mask)):
        p = idx[i, j]
        faces = [((i + 1, j), cond_0[i + 1, j]), ((i - 1, j), cond_0[i, j]),
                 ((i, j + 1), cond_1[i, j + 1]), ((i, j - 1), cond_1[i, j])]
        for (qi, qj), c in faces:
            K[p, p] += c
            if wrap:
                qj %= n1
            if 0 <= qi < n0 and 0 <= qj < n1 and mask[qi, qj]:
                K[p, idx[qi, qj]] -= c
    return K.tocsc(), sparse.diags(mass[mask]).tocsc()


def _oracle_ground_state(mask, cond_0, cond_1, mass, wrap):
    """Ground pair of the oracle operator, solved as K phi = lambda M phi."""
    K, M = _oracle_operator(mask, cond_0, cond_1, mass, wrap)
    lam, vec = spla.eigsh(K, k=1, M=M, sigma=0.0, which="LM", tol=0)
    v = vec[:, 0] / math.sqrt(vec[:, 0] @ (M @ vec[:, 0]))
    phi = np.zeros(mask.shape)
    phi[mask] = v if v.sum() > 0 else -v
    return float(lam[0]), phi


def _assert_matches_oracle(args, result):
    mask, cond_0, cond_1, mass, wrap, _ = args
    lam_o, phi_o = _oracle_ground_state(mask, cond_0, cond_1, mass, wrap)
    lam, phis = result
    assert lam[0] == pytest.approx(lam_o, rel=1e-12)
    assert np.max(np.abs(phis[0] - phi_o)) <= 1e-10 * np.max(np.abs(phi_o))


def notched_box_domain(notch, notch_y=None):
    """The square (-1, 1)^2 less the corner x > 1 - notch, y > 1 - notch_y."""
    notch_y = notch if notch_y is None else notch_y
    return spectral2d.CartesianDomain2D(
        indicator=lambda X, Y: ~((X > 1.0 - notch) & (Y > 1.0 - notch_y)),
        bbox=(-1.0, 1.0, -1.0, 1.0),
    )


def _notched_box():
    return spectral2d.solve_cartesian(notched_box_domain(0.5), 1.0 / 32.0).eigenvalues[0]


PERTURBED_ANNULUS = spectral2d.PolarDomain2D(
    r_min=lambda th: 1.0 + 0.05 * np.sin(8.0 * th),
    r_max=lambda th: 1.4 + 0.05 * np.cos(5.0 * th),
)


def _perturbed_annulus():
    return spectral2d.solve_polar(PERTURBED_ANNULUS, 48, 256).eigenvalues[0]


def _perturbed_sector():
    dom = spectral2d.PolarDomain2D(
        r_min=lambda th: np.full_like(th, 1.0),
        r_max=lambda th: 1.5 + 0.1 * np.sin(3.0 * th),
        theta_lo=0.0, theta_hi=0.75 * math.pi, wrap=False,
    )
    return spectral2d.solve_polar(dom, 48, 128).eigenvalues[0]


def _sphere_rectangle():
    return bases.solve_sphere_rectangle(math.pi / 2.0, (math.pi / 4.0, 3.0 * math.pi / 4.0), 32)[0]


@pytest.mark.parametrize("solve", [_notched_box, _perturbed_annulus, _perturbed_sector,
                                   _sphere_rectangle],
                         ids=["notched-box", "perturbed-annulus", "sector", "sphere-rectangle"])
def test_hull_eigenvalue_bounds_lambda1(hull_eigenvalues, solve):
    lam1 = solve()
    assert len(hull_eigenvalues) == 1
    # interlacing holds up to rounding, which shows when the mask fills its
    # hull (every S^2 rectangle); the shift margin sits far beyond it
    assert 0.0 < hull_eigenvalues[0] <= lam1 * (1.0 + 1e-12)
    assert (1.0 - spectral2d._HULL_SHIFT_MARGIN) * hull_eigenvalues[0] < lam1


@pytest.mark.parametrize("solve", [
    lambda: spectral2d.solve_cartesian(box_domain(1.0, 0.5), 1.0 / 32.0).eigenvalues[0],
    lambda: spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.5), 32, 128).eigenvalues[0],
    lambda: spectral2d.solve_polar(
        spectral2d.annulus_domain(1.0, 1.5, 0.0, math.pi, wrap=False), 32, 64).eigenvalues[0],
    _sphere_rectangle,
], ids=["box", "annulus", "sector", "sphere-rectangle"])
def test_hull_eigenvalue_is_lambda1_on_a_full_grid(grid_solves, sparse_solves, solve):
    solve()
    [(args, result)] = grid_solves
    assert args[0].all() and not sparse_solves
    _assert_matches_oracle(args, result)


def four_notch_box_domain(notch, half_widths=(1.0, 1.0)):
    """The perturb-box domain: the box of half widths 0.05 beyond half_widths,
    less four corner notches."""
    wx, wy = (w + 0.05 for w in half_widths)
    scenario = perturb.PerturbationScenario(
        kind="box", a_widths=half_widths, b_widths=(wx, wy), notch=notch)
    return spectral2d.CartesianDomain2D(perturb._box_indicator(scenario), (-wx, wx, -wy, wy))


def _symmetric_notched_box():
    return spectral2d.solve_cartesian(four_notch_box_domain(0.05), 1.0 / 64.0)


def _symmetric_arc():
    dom = spectral2d.PolarDomain2D(
        r_min=lambda th: np.full_like(th, 1.0),
        r_max=lambda th: 1.5 + 0.1 * np.cos(2.0 * th),
        theta_lo=-0.5 * math.pi, theta_hi=0.5 * math.pi, wrap=False,
    )
    return spectral2d.solve_polar(dom, 48, 128)


def _transposed_notched_box():
    # the one corner notch maps onto itself under x <-> y and under no mirror
    return spectral2d.solve_cartesian(notched_box_domain(0.5), 1.0 / 32.0)


SYMMETRIC_GRIDS = pytest.mark.parametrize(
    "solve, orbits", [(_symmetric_notched_box, 8), (_transposed_notched_box, 2),
                      (_symmetric_arc, 2)],
    ids=["notched-box", "one-corner-notch", "arc"])


@SYMMETRIC_GRIDS
def test_mirror_symmetric_mask_folds(grid_solves, sparse_solves, solve, orbits):
    solve()
    [(args, result)] = grid_solves
    [(op, _)] = sparse_solves
    # the driver sees one unknown per orbit of the grid's symmetries: an
    # eighth (or a half) of the nodes, up to the orbits on the mirror lines
    assert op.dimension < args[0].sum() / orbits + args[0].shape[0] + args[0].shape[1]
    _assert_matches_oracle(args, result)


def _orbit_basis(oid, size):
    """Sparse S: column o is 1/sqrt(|o|) on the nodes of orbit o."""
    return sparse.csr_matrix((1.0 / np.sqrt(size[oid]), (np.arange(len(oid)), oid)),
                             shape=(len(oid), len(size)))


@SYMMETRIC_GRIDS
def test_mirror_basis_is_orthonormal_over_orbits(monkeypatch, solve, orbits):
    grids = []

    def keep_args(*args):
        grids.append(args)
        return np.ones(1), [np.zeros(args[0].shape)]

    monkeypatch.setattr(spectral2d, "_assemble_and_solve", keep_args)
    solve()
    [args] = grids
    mask = args[0]
    reps, oid, size = spectral2d._orbits(*args[:5])
    S = _orbit_basis(oid, size)
    assert S.shape == (mask.sum(), len(reps))
    assert abs(S.T @ S - sparse.identity(S.shape[1])).max() <= 1e-15
    assert set(size) <= {1, 2, 4, 8} and size.max() == orbits
    # each orbit's representative (a mask-node number) is its smallest node index
    nodes = np.flatnonzero(mask)
    smallest = np.full(len(reps), mask.size)
    np.minimum.at(smallest, oid, nodes)
    assert np.array_equal(smallest, nodes[reps])


def _iterated_orbits(mask, moves):
    """Orbit labels by the definition: each node's smallest index over the
    images under the generators, applied until nothing changes."""
    rep = np.arange(mask.size).reshape(mask.shape)
    while True:
        last = rep
        for move in moves:
            rep = np.minimum(rep, move(rep))
        if np.array_equal(rep, last):
            break
    return np.unique(rep[mask], return_inverse=True, return_counts=True)


def _mirrored(a, axes):
    for axis in axes:
        a = (a + np.flip(a, axis)) / 2.0
    return a


@st.composite
def symmetric_grids(draw):
    """(mask, cond_0, cond_1, mass, wrap, moves): a random grid with exact
    symmetries of one of five kinds, and the generators of its group."""
    kind = draw(st.sampled_from(["square-8", "rectangle-2-mirrors", "square-transpose",
                                 "arc-theta-mirror", "wrapped-mirror"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n0 = draw(st.integers(3, 12))
    n1 = n0 if kind.startswith("square") else draw(st.integers(3, 12).filter(lambda n: n != n0))
    mask = rng.random((n0, n1)) < draw(st.floats(0.4, 0.95))
    wrap = kind == "wrapped-mirror"
    if kind.startswith("square"):
        mass = rng.uniform(0.5, 2.0, (n0, n0))
        cond_0 = rng.uniform(0.5, 2.0, (n0 + 1, n0))
        if kind == "square-8":
            mass, cond_0 = _mirrored(mass, (0, 1)), _mirrored(cond_0, (0, 1))
            mask = mask | mask[::-1] | mask[:, ::-1] | mask[::-1, ::-1]
        mass, mask, cond_1 = (mass + mass.T) / 2.0, mask | mask.T, cond_0.T.copy()
        moves = [np.transpose] + ([np.flipud, np.fliplr] if kind == "square-8" else [])
    elif kind == "rectangle-2-mirrors":
        mass = _mirrored(rng.uniform(0.5, 2.0, (n0, n1)), (0, 1))
        cond_0 = _mirrored(rng.uniform(0.5, 2.0, (n0 + 1, n1)), (0, 1))
        cond_1 = _mirrored(rng.uniform(0.5, 2.0, (n0, n1 + 1)), (0, 1))
        mask = mask | mask[::-1] | mask[:, ::-1] | mask[::-1, ::-1]
        moves = [np.flipud, np.fliplr]
    else:
        # polar coefficients, varying in r only: mirrored in theta (axis 1);
        # a wrapped grid mirrored in its own non-periodic axis 0 instead
        r = np.sort(rng.uniform(1.0, 2.0, n0 + 1))
        cond_0 = np.broadcast_to(r[:, None], (n0 + 1, n1)).copy()
        cond_1 = np.broadcast_to(1.0 / r[:-1, None], (n0, n1 + 1)).copy()
        mass = np.broadcast_to(r[:-1, None], (n0, n1)).copy()
        if wrap:
            cond_0, cond_1, mass = (_mirrored(a, (0,)) for a in (cond_0, cond_1, mass))
            mask = mask | mask[::-1]
            moves = [np.flipud]
        else:
            mask = mask | mask[:, ::-1]
            moves = [np.fliplr]
    assume(mask.any())
    return mask, cond_0, cond_1, mass, wrap, moves


@settings(max_examples=60, deadline=None)
@given(symmetric_grids())
def test_folded_operator_equals_the_orbit_basis_projection(grid):
    mask, cond_0, cond_1, mass, wrap, moves = grid
    reps, oid, size = spectral2d._orbits(mask, cond_0, cond_1, mass, wrap)
    # the closed-form orbit map against the iterated one
    first, label, count = _iterated_orbits(mask, moves)
    assert np.array_equal(np.flatnonzero(mask)[reps], first)
    assert np.array_equal(oid, label) and np.array_equal(size, count)
    # the direct assembly against S^T L S with L from the node-by-node oracle
    K, M = _oracle_operator(mask, cond_0, cond_1, mass, wrap)
    d = sparse.diags(1.0 / np.sqrt(M.diagonal()))
    S = _orbit_basis(label, count)
    projected = (S.T @ (d @ K @ d) @ S).toarray()
    # folded from the oracle's own face list: its entries above the diagonal
    faces = sparse.triu(K, 1).tocoo()
    folded = spectral2d._folded_operator(faces.row, faces.col, -faces.data, K.diagonal(),
                                         mass[mask], reps, oid, size)
    assert (folded != folded.T).nnz == 0
    assert np.allclose(folded.toarray(), projected, rtol=0.0,
                       atol=1e-13 * np.max(np.abs(projected)))


@pytest.fixture
def lu_solves(monkeypatch):
    """Right-hand sides solved by each factorization, in call order."""
    counts = []
    factor = spla.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            counts[-1] += 1 if b.ndim == 1 else b.shape[1]
            return self.lu.solve(b)

    def counted_splu(*args, **kwargs):
        counts.append(0)
        return Counted(factor(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", counted_splu)
    return counts


@pytest.mark.parametrize("solve, count", [(_symmetric_notched_box, 4), (_perturbed_annulus, 26)],
                         ids=["folded-box", "perturbed-annulus"])
def test_lanczos_stops_once_the_ground_pair_converges(lu_solves, solve, count):
    # one solve per Lanczos step at k = 1, and the steps stop at the first
    # that meets the convergence test
    solve()
    assert lu_solves == [count]


def test_notched_rectangle_folds_by_the_two_mirrors(grid_solves, sparse_solves):
    spectral2d.solve_cartesian(four_notch_box_domain(0.05, (1.0, 0.8)), 1.0 / 64.0)
    [(args, result)] = grid_solves
    [(op, _)] = sparse_solves
    mask = args[0]
    n0, n1 = mask.shape
    assert n0 != n1
    # one unknown per orbit of the two mirrors: the nodes of the closed quarter
    assert op.dimension == mask[:(n0 + 1) // 2, :(n1 + 1) // 2].sum()
    _assert_matches_oracle(args, result)


def test_asymmetric_mask_solves_unfolded(grid_solves, sparse_solves):
    # no mirror and not the transpose maps this corner notch onto itself
    spectral2d.solve_cartesian(notched_box_domain(0.5, 0.75), 1.0 / 32.0)
    [(args, result)] = grid_solves
    [(op, (_, psi))] = sparse_solves
    mask, mass = args[0], args[3]
    assert op.dimension == mask.sum()
    phi = np.zeros(mask.shape)
    phi[mask] = psi[:, 0] / np.sqrt(mass[mask])
    assert np.array_equal(result[1][0], phi if phi.sum() > 0 else -phi)
    _assert_matches_oracle(args, result)


@pytest.mark.parametrize("depth", np.linspace(0.02, 0.05, 31))
def test_notched_box_masks_are_mirror_symmetric(monkeypatch, depth):
    # nodes built from the box center make every notch depth fold; nodes
    # built as lo + h*i break the symmetry at the notch edge for 2 of these
    masks = []

    def keep_mask(mask, *args):
        masks.append(mask)
        return np.ones(1), [np.zeros(mask.shape)]

    monkeypatch.setattr(spectral2d, "_assemble_and_solve", keep_mask)
    spectral2d.solve_cartesian(four_notch_box_domain(float(depth)), 1.0 / 300.0)
    [mask] = masks
    assert np.array_equal(mask, mask[::-1]) and np.array_equal(mask, mask[:, ::-1])
    assert np.array_equal(mask, mask.T)


def test_notched_grid_matches_dense_eigh(sparse_solves):
    sol = spectral2d.solve_cartesian(notched_box_domain(0.5), 1.0 / 16.0, k=3)
    dense = eigh(sparse_solves[0][0].matrix.toarray(), eigvals_only=True, subset_by_index=(0, 2))
    assert sol.eigenvalues == pytest.approx(dense, rel=1e-10)


def test_masked_wrapped_grid_matches_oracle(grid_solves):
    spectral2d.solve_polar(PERTURBED_ANNULUS, 24, 128)
    [(args, result)] = grid_solves
    mask, wrap = args[0], args[4]
    # masked in every column, so the faces across theta = 0 join inner nodes
    assert wrap and not mask.all() and (mask[:, 0] & mask[:, -1]).any()
    _assert_matches_oracle(args, result)


def test_masked_wrapped_grid_k3_matches_dense_eigh(grid_solves):
    sol = spectral2d.solve_polar(PERTURBED_ANNULUS, 16, 64, k=3)
    [(args, _)] = grid_solves
    K, M = _oracle_operator(*args[:5])
    dense = eigh(K.toarray(), M.toarray(), eigvals_only=True, subset_by_index=(0, 2))
    assert sol.eigenvalues == pytest.approx(dense, rel=1e-10)


def test_mask_connected_only_across_theta_zero_is_solved(grid_solves):
    # a radial cut through theta = pi leaves one arc that closes over theta = 0
    mask = np.ones((15, 64), dtype=bool)
    mask[:, 30:34] = False
    sol = spectral2d.solve_polar_mask(mask, (1.0, 1.5), (0.0, 2.0 * math.pi), wrap=True)
    assert np.all(sol.values[0][mask] > 0)
    _assert_matches_oracle(*grid_solves[0])
    with pytest.raises(spectral2d.DisconnectedDomainError):
        spectral2d.solve_polar_mask(mask, (1.0, 1.5), (0.0, math.pi), wrap=False)
