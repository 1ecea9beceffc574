import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components

from annulab import bases, numerics, perturb, radial, spectral2d


def test_polar_exact_annulus_against_radial_oracle():
    dom = spectral2d.annulus_domain(1.0, 1.5)
    sol = spectral2d.solve_polar(dom, 64, 256)
    lam_oracle = radial.solve_radial(2, 1.0, 1.5, 0.0, N=4096)[0].lam
    assert sol.eigenvalue == pytest.approx(lam_oracle, rel=1e-3)


def test_polar_sector_against_separated_oracle():
    t1 = 3.0 * math.pi / 4.0
    dom = spectral2d.annulus_domain(1.0, 1.5, 0.0, t1, wrap=False)
    sol = spectral2d.solve_polar(dom, 64, 192)
    lam0 = bases.base_eigendata(bases.circle_arc(t1)).lambda0
    lam_oracle = radial.solve_radial(2, 1.0, 1.5, lam0, N=4096)[0].lam
    assert sol.eigenvalue == pytest.approx(lam_oracle, rel=1e-3)


def test_polar_dilation():
    dom1 = spectral2d.annulus_domain(1.0, 1.4)
    dom2 = spectral2d.annulus_domain(2.0, 2.8)
    lam1 = spectral2d.solve_polar(dom1, 32, 128).eigenvalue
    lam2 = spectral2d.solve_polar(dom2, 32, 128).eigenvalue
    assert lam2 == pytest.approx(lam1 / 4.0, rel=1e-12)


def test_polar_grid_convergence_order():
    lam_exact = radial.solve_radial(2, 1.0, 1.5, 0.0, N=4096)[0].lam
    e1 = abs(spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.5), 16, 64).eigenvalue - lam_exact)
    e2 = abs(spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.5), 32, 128).eigenvalue - lam_exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.3)


def test_polar_positivity_and_normalization():
    sol = spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.3), 24, 96)
    phi = sol.phi
    assert np.all(phi[sol.mask] > 0)
    assert float(np.sum(phi**2 * sol.cell_measure)) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("solve", [
    lambda: spectral2d.solve_polar(PERTURBED_ANNULUS, 16, 64),
    lambda: spectral2d.solve_cartesian(box_domain(1.0, 0.5), 1.0 / 16.0),
], ids=["polar", "cartesian"])
def test_grid_eigenpair_phi_is_one_array_zero_off_the_mask(solve):
    sol = solve()
    assert type(sol.eigenvalue) is float
    assert type(sol.phi) is np.ndarray and sol.phi.shape == sol.mask.shape
    assert np.all(sol.phi[~sol.mask] == 0.0) and np.all(sol.phi[sol.mask] > 0.0)


def box_domain(ax, ay):
    return spectral2d.CartesianDomain2D(
        indicator=lambda X, Y: (np.abs(X) < ax) & (np.abs(Y) < ay),
        bbox=(-ax, ax, -ay, ay),
    )


def test_cartesian_unit_box():
    sol_c = spectral2d.solve_cartesian(box_domain(1.0, 1.0), 1.0 / 64.0)
    sol_f = spectral2d.solve_cartesian(box_domain(1.0, 1.0), 1.0 / 128.0)
    lam = numerics.richardson(sol_c.eigenvalue, sol_f.eigenvalue)
    assert lam == pytest.approx(math.pi**2 / 2.0, rel=2e-3)
    # center value of the L2-normalized eigenfunction is 1
    x, y = sol_f.axes
    ix = np.argmin(np.abs(x))
    iy = np.argmin(np.abs(y))
    assert sol_f.phi[ix, iy] == pytest.approx(1.0, rel=1e-2)


def test_cartesian_slab():
    sol_c = spectral2d.solve_cartesian(box_domain(1.0, 0.1), 1.0 / 64.0)
    sol_f = spectral2d.solve_cartesian(box_domain(1.0, 0.1), 1.0 / 128.0)
    lam = numerics.richardson(sol_c.eigenvalue, sol_f.eigenvalue)
    assert lam == pytest.approx(math.pi**2 / 4.0 + 25.0 * math.pi**2, rel=2e-3)


def test_domain_monotonicity():
    lam_small = spectral2d.solve_cartesian(box_domain(0.8, 0.8), 1.0 / 64.0).eigenvalue
    lam_big = spectral2d.solve_cartesian(box_domain(1.0, 1.0), 1.0 / 64.0).eigenvalue
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
    assert sol2.eigenvalue == pytest.approx(sol.eigenvalue, rel=1e-12)


def test_interior_mask_erosion():
    dom = spectral2d.annulus_domain(1.0, 1.4)
    sol = spectral2d.solve_polar(dom, 24, 96)
    inner = sol.interior_mask(2)
    assert inner.sum() < sol.mask.sum()
    assert np.all(sol.mask[inner])


@pytest.mark.parametrize("wrap", [False, True])
def test_interior_mask_keeps_the_nodes_whose_cells_all_lie_inside(wrap):
    # by the definition: a node survives m erosions when every node within m
    # grid steps (around the seam when wrapping) lies in the mask
    rng = np.random.default_rng(7)
    mask = rng.random((9, 12)) < 0.8
    sol = spectral2d.GridEigenpair(0.0, mask * 1.0, (np.arange(9), np.arange(12)), mask,
                                   mask * 1.0, wrap=wrap)
    for margin in range(4):
        want = np.zeros_like(mask)
        for i, j in zip(*np.nonzero(mask)):
            cells = [(i + di, j + dj) for di in range(-margin, margin + 1)
                     for dj in range(-margin, margin + 1) if abs(di) + abs(dj) <= margin]
            want[i, j] = all(0 <= a < 9 and (wrap or 0 <= b < 12) and mask[a, b % 12]
                             for a, b in cells)
        assert np.array_equal(sol.interior_mask(margin), want)


def _write_lines(tmp_path, *lines):
    path = tmp_path / "mask.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return path


@pytest.mark.parametrize("lines, message", [
    (("2 3 1.0 1.5 0.0 3.0", "0 1 0", "0 2 0"), "line 3: cell '2' is not 0 or 1"),
    (("3 3 1.0 1.5 0.0 3.0", "0 1 0", "0 1 0"), "line 4: the header declares 3 rows, the file has 2"),
    (("2 3 1.0 1.5 0.0 3.0", "0 1 0", "0 1"), "line 3: 2 cells, the header declares 3"),
    (("2 3 1.0 1.5 0.0 3.0", "0 1 0", "0 1 0", "1 1 1"),
     "line 4: the header declares 2 rows, the file has 3"),
    (("2 3 1.0 1.5 0.0", "0 1 0", "0 1 0"), "line 1: need 'Nr Ntheta r_lo r_hi th_lo th_hi'"),
    (("2 x 1.0 1.5 0.0 3.0", "0 1 0", "0 1 0"), "line 1: invalid literal for int.*'x'"),
    (("0 3 1.0 1.5 0.0 3.0",), "line 1: grid sizes 0 x 3 are not positive"),
], ids=["cell-2", "short-file", "ragged-row", "extra-row", "short-header", "bad-size",
        "empty-grid"])
def test_load_mask_names_the_line_and_token(tmp_path, lines, message):
    with pytest.raises(ValueError, match=message):
        spectral2d.load_mask(_write_lines(tmp_path, *lines))


def test_load_mask_accepts_trailing_blank_lines(tmp_path):
    mask, r_range, theta_range = spectral2d.load_mask(
        _write_lines(tmp_path, "2 3 1.0 1.5 0.0 3.0", "0 1 0", "1 1 0", "", "  "))
    assert np.array_equal(mask, [[False, True, False], [True, True, False]])
    assert r_range == (1.0, 1.5) and theta_range == (0.0, 3.0)


@pytest.mark.parametrize("r_range, theta_range", [
    ((1.5, 1.0), (0.0, math.pi)), ((1.0, 1.0), (0.0, math.pi)), ((-0.5, 1.0), (0.0, math.pi)),
    ((1.0, math.inf), (0.0, math.pi)), ((math.nan, 1.5), (0.0, math.pi)),
    ((1.0, 1.5), (1.0, 1.0)), ((1.0, 1.5), (1.0, 0.5)), ((1.0, 1.5), (0.0, 2.0 * math.pi + 1e-9)),
    ((1.0, 1.5), (0.0, math.nan)),
], ids=["r-reversed", "r-empty", "r-negative", "r-infinite", "r-nan", "theta-empty",
        "theta-reversed", "theta-beyond-2pi", "theta-nan"])
def test_polar_mask_refuses_ranges_outside_the_plane_with_one_error(r_range, theta_range):
    mask = np.ones((12, 16), dtype=bool)
    mask[0, 0] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need 0 <= r_lo < r_hi < inf"):
            spectral2d.solve_polar_mask(mask, r_range, theta_range, wrap=False)


@pytest.fixture
def hull_eigenvalues(monkeypatch):
    """Every hull eigenvalue the grid driver computes, in call order."""
    seen = []
    hull = spectral2d._hull_ground_state

    def record(*args):
        result = hull(*args)
        seen.append(result[0])
        return result

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
    """(K, M) of the masked 5-point operator with row profiles, assembled
    node by node."""
    n0, n1 = mask.shape
    idx = -np.ones(mask.shape, dtype=int)
    idx[mask] = np.arange(mask.sum())
    K = sparse.lil_matrix((mask.sum(), mask.sum()))
    for i, j in zip(*np.nonzero(mask)):
        p = idx[i, j]
        faces = [((i + 1, j), cond_0[i + 1]), ((i - 1, j), cond_0[i]),
                 ((i, j + 1), cond_1[i]), ((i, j - 1), cond_1[i])]
        for (qi, qj), c in faces:
            K[p, p] += c
            if wrap:
                qj %= n1
            if 0 <= qi < n0 and 0 <= qj < n1 and mask[qi, qj]:
                K[p, idx[qi, qj]] -= c
    return K.tocsc(), sparse.diags(_node_mass(mask, mass)).tocsc()


def _node_mass(mask, mass):
    """The mass profile read at each mask node, in row-major order."""
    return mass[np.nonzero(mask)[0]]


def _oracle_ground_state(mask, cond_0, cond_1, mass, wrap):
    """Ground pair of the oracle operator, solved as K phi = lambda M phi."""
    K, M = _oracle_operator(mask, cond_0, cond_1, mass, wrap)
    lam, vec = spla.eigsh(K, k=1, M=M, sigma=0.0, which="LM", tol=0)
    v = vec[:, 0] / math.sqrt(vec[:, 0] @ (M @ vec[:, 0]))
    phi = np.zeros(mask.shape)
    phi[mask] = v if v.sum() > 0 else -v
    return float(lam[0]), phi


def _assert_matches_oracle(args, result):
    lam_o, phi_o = _oracle_ground_state(*args)
    lam, phi = result
    assert lam == pytest.approx(lam_o, rel=1e-12)
    assert np.max(np.abs(phi - phi_o)) <= 1e-10 * np.max(np.abs(phi_o))


def notched_box_domain(notch, notch_y=None):
    """The square (-1, 1)^2 less the corner x > 1 - notch, y > 1 - notch_y."""
    notch_y = notch if notch_y is None else notch_y
    return spectral2d.CartesianDomain2D(
        indicator=lambda X, Y: ~((X > 1.0 - notch) & (Y > 1.0 - notch_y)),
        bbox=(-1.0, 1.0, -1.0, 1.0),
    )


def _notched_box():
    return spectral2d.solve_cartesian(notched_box_domain(0.5), 1.0 / 32.0).eigenvalue


PERTURBED_ANNULUS = spectral2d.PolarDomain2D(
    r_min=lambda th: 1.0 + 0.05 * np.sin(8.0 * th),
    r_max=lambda th: 1.4 + 0.05 * np.cos(5.0 * th),
)


def _perturbed_annulus():
    return spectral2d.solve_polar(PERTURBED_ANNULUS, 48, 256).eigenvalue


def _perturbed_sector():
    dom = spectral2d.PolarDomain2D(
        r_min=lambda th: np.full_like(th, 1.0),
        r_max=lambda th: 1.5 + 0.1 * np.sin(3.0 * th),
        theta_lo=0.0, theta_hi=0.75 * math.pi, wrap=False,
    )
    return spectral2d.solve_polar(dom, 48, 128).eigenvalue


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
    lambda: spectral2d.solve_cartesian(box_domain(1.0, 0.5), 1.0 / 32.0).eigenvalue,
    lambda: spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.5), 32, 128).eigenvalue,
    lambda: spectral2d.solve_polar(
        spectral2d.annulus_domain(1.0, 1.5, 0.0, math.pi, wrap=False), 32, 64).eigenvalue,
    _sphere_rectangle,
], ids=["box", "annulus", "sector", "sphere-rectangle"])
def test_hull_eigenvalue_is_lambda1_on_a_full_grid(grid_solves, sparse_solves, solve):
    solve()
    [(args, result)] = grid_solves
    assert args[0].all() and not sparse_solves
    _assert_matches_oracle(args, result)


def _random_grid(rng):
    """A random mask of 3-13 x 3-13 nodes, some of its columns emptied, with
    constant or varying row profiles, wrapping or not."""
    n0, n1 = (int(n) for n in rng.integers(3, 14, size=2))
    mask = rng.random((n0, n1)) < rng.uniform(0.3, 1.0)
    mask[:, rng.random(n1) < 0.15] = False
    if not mask.any():
        mask[rng.integers(n0), rng.integers(n1)] = True
    if rng.random() < 0.5:
        profiles = _random_profiles(rng, n0)
    else:
        profiles = np.full(n0 + 1, 1.3), np.full(n0, 0.7), np.full(n0, 0.4)
    return (mask, *profiles, bool(rng.random() < 0.5))


def _random_profiles(rng, n0):
    """cond_0, cond_1 and mass row profiles of an n0-row grid."""
    return rng.uniform(0.2, 5.0, n0 + 1), rng.uniform(0.2, 5.0, n0), rng.uniform(0.2, 5.0, n0)


def test_column_bound_is_below_lambda1_on_random_masks():
    rng = np.random.default_rng(20)
    disconnected = with_empty_columns = 0
    for _ in range(400):
        grid = _random_grid(rng)
        K, M = _oracle_operator(*grid)
        lam1 = eigh(K.toarray(), M.toarray(), eigvals_only=True, subset_by_index=(0, 0))[0]
        # the bound holds exactly; the tolerance covers the rounding of both solves
        assert spectral2d._column_bound(*grid) <= lam1 * (1.0 + 1e-12)
        disconnected += connected_components(K, directed=False)[0] > 1
        with_empty_columns += not grid[0].any(axis=0).all()
    assert disconnected > 0 and with_empty_columns > 0


@pytest.mark.parametrize("n0, n1", [(5, 7), (12, 1), (9, 2)])
def test_column_bound_is_the_hull_eigenvalue_on_a_full_wrapping_grid(n0, n1):
    cond_0, cond_1, mass = _random_profiles(np.random.default_rng(n0 * n1), n0)
    bound = spectral2d._column_bound(np.ones((n0, n1), dtype=bool), cond_0, cond_1, mass, True)
    lam_hull = spectral2d._hull_ground_state(cond_0, cond_1, mass, n1, True)[0]
    assert bound == pytest.approx(lam_hull, rel=1e-12)


def test_column_bound_is_the_hull_eigenvalue_on_a_full_annulus(grid_solves):
    spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.5), 32, 128)
    [(args, _)] = grid_solves
    mask, cond_0, cond_1, mass, wrap = args
    lam_hull = spectral2d._hull_ground_state(cond_0, cond_1, mass, mask.shape[1], wrap)[0]
    bound = spectral2d._column_bound(mask, cond_0, cond_1, mass, wrap)
    assert bound == pytest.approx(lam_hull, rel=1e-12)


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
        return 1.0, np.zeros(args[0].shape)

    monkeypatch.setattr(spectral2d, "_assemble_and_solve", keep_args)
    solve()
    [args] = grids
    mask = args[0]
    reps, oid, size = spectral2d._orbits(*args)
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


def _palindrome(a):
    return (a + a[::-1]) / 2.0


@st.composite
def symmetric_grids(draw):
    """(mask, cond_0, cond_1, mass, wrap, moves): a random grid with row
    profiles and exact symmetries of one of five kinds, and the generators
    of its group."""
    kind = draw(st.sampled_from(["square-8", "rectangle-2-mirrors", "square-transpose",
                                 "arc-theta-mirror", "wrapped-mirror"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n0 = draw(st.integers(3, 12))
    n1 = n0 if kind.startswith("square") else draw(st.integers(3, 12).filter(lambda n: n != n0))
    mask = rng.random((n0, n1)) < draw(st.floats(0.4, 0.95))
    wrap = kind == "wrapped-mirror"
    if kind.startswith("square"):
        # the transpose needs one constant conductance on both axes and a
        # constant mass
        c = rng.uniform(0.5, 2.0)
        cond_0, cond_1, mass = np.full(n0 + 1, c), np.full(n0, c), np.full(n0, rng.uniform(0.5, 2.0))
        if kind == "square-8":
            mask = mask | mask[::-1] | mask[:, ::-1] | mask[::-1, ::-1]
        mask = mask | mask.T
        # constant profiles leave every mirror of the mask a symmetry
        moves = [np.transpose] + [flip for flip in (np.flipud, np.fliplr)
                                  if np.array_equal(mask, flip(mask))]
    elif kind == "rectangle-2-mirrors":
        cond_0, cond_1, mass = (_palindrome(rng.uniform(0.5, 2.0, n)) for n in (n0 + 1, n0, n0))
        mask = mask | mask[::-1] | mask[:, ::-1] | mask[::-1, ::-1]
        moves = [np.flipud, np.fliplr]
    else:
        # polar profiles: mirrored in theta (axis 1); a wrapped grid
        # mirrored in its own non-periodic axis 0 instead
        r = np.sort(rng.uniform(1.0, 2.0, n0 + 1))
        cond_0, cond_1, mass = r, 1.0 / r[:-1], r[:-1]
        if wrap:
            cond_0, cond_1, mass = (_palindrome(a) for a in (cond_0, cond_1, mass))
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
    folded, _ = spectral2d._grid_operator(mask, cond_0, cond_1, mass, wrap, (reps, oid, size))
    assert (folded != folded.T).nnz == 0
    assert np.allclose(folded.toarray(), projected, rtol=0.0,
                       atol=1e-13 * np.max(np.abs(projected)))


def _face_list_operator(mask, cond_0, cond_1, mass, wrap, orbits):
    """The grid operator assembled from the face list of the whole mask:
    every node's faces to i+1 and to j+1 (mod n1 when wrapping), then
    numerics.symmetrized_operator of that list, or of the form summed over
    orbit pairs.  Folded, an orbit's diagonal and mass are the sums over its
    nodes, the faces between two orbits sum their conductances, and a face
    inside one orbit comes off its diagonal twice, once per entry.  Each sum
    is correctly rounded (math.fsum), so it is exact when its terms are."""
    m = int(mask.sum())
    rows = np.nonzero(mask)[0]
    idx = -np.ones(mask.shape, dtype=np.int64)
    idx[mask] = np.arange(m)
    nb = np.stack([np.roll(idx, -1, axis=0), np.roll(idx, -1, axis=1)])
    nb[0, -1] = -1
    if not wrap:
        nb[1, :, -1] = -1
    inner = (idx >= 0) & (nb >= 0)
    p, q = np.broadcast_to(idx, nb.shape)[inner], nb[inner]
    c = np.broadcast_to(np.stack([cond_0[1:], cond_1])[:, :, None], nb.shape)[inner]
    diag = (((cond_0[1:] + cond_0[:-1]) + cond_1) + cond_1)[rows]
    if orbits is None:
        return numerics.symmetrized_operator(p, q, c, diag, mass[rows])
    _, oid, size = orbits
    diag_terms, mass_terms = [[] for _ in size], [[] for _ in size]
    pair_terms = defaultdict(list)
    for node, orbit in enumerate(oid):
        diag_terms[orbit].append(diag[node])
        mass_terms[orbit].append(mass[rows[node]])
    for a, b, cf in zip(oid[p], oid[q], c):
        if a == b:
            diag_terms[a] += [-cf, -cf]
        else:
            pair_terms[min(a, b), max(a, b)].append(cf)
    pairs = np.array(list(pair_terms), dtype=np.int64).reshape(-1, 2)

    def fsum(groups):
        return np.array([math.fsum(terms) for terms in groups])

    return numerics.symmetrized_operator(pairs[:, 0], pairs[:, 1], fsum(pair_terms.values()),
                                         fsum(diag_terms), fsum(mass_terms))


def _assert_within_one_ulp(L, oracle):
    """Same sparsity pattern, and every entry within one ulp of the oracle's."""
    L, oracle = L.tocsr(), oracle.tocsr()
    L.sort_indices()
    oracle.sort_indices()
    assert np.array_equal(L.indptr, oracle.indptr)
    assert np.array_equal(L.indices, oracle.indices)
    assert np.all(np.abs(L.data - oracle.data) <= np.spacing(np.abs(oracle.data)))


@settings(max_examples=60, deadline=None)
@given(symmetric_grids())
def test_grid_operator_matches_the_face_list_oracle(grid):
    # unfolded and folded, connected or not: assembly does not check connectivity
    mask, cond_0, cond_1, mass, wrap, _ = grid
    orbits = spectral2d._orbits(mask, cond_0, cond_1, mass, wrap)
    for fold in (None, orbits):
        _assert_within_one_ulp(spectral2d._grid_operator(mask, cond_0, cond_1, mass, wrap, fold)[0],
                               _face_list_operator(mask, cond_0, cond_1, mass, wrap, fold))


def test_grid_operator_matches_the_face_list_oracle_on_random_grids():
    rng = np.random.default_rng(23)
    for _ in range(200):
        grid = _random_grid(rng)
        _assert_within_one_ulp(spectral2d._grid_operator(*grid, None)[0],
                               _face_list_operator(*grid, None))


@pytest.mark.parametrize("cells", [[(2, 3)], [(2, 2)], [(2, 3), (2, 4)]],
                         ids=["one-odd-node", "one-even-node", "two-nodes"])
@pytest.mark.parametrize("wrap", [False, True])
def test_polar_masks_of_one_or_two_nodes_match_the_closed_form(cells, wrap):
    # a lone node keeps its diagonal, 2/hr^2 + 2/(r ht)^2; two nodes of one
    # row share an angular face, which takes 1/(r ht)^2 off it
    mask = np.zeros((5, 7), dtype=bool)
    mask[tuple(np.transpose(cells))] = True
    window = 2.0 * math.pi if wrap else math.pi
    sol = spectral2d.solve_polar_mask(mask, (1.0, 2.0), (0.0, window), wrap)
    hr, ht = 1.0 / 6.0, window / (7 if wrap else 8)
    r = 1.0 + 3.0 * hr
    expected = 2.0 / hr**2 + (3 - len(cells)) / (r * ht) ** 2
    assert sol.eigenvalue == pytest.approx(expected, rel=1e-12)
    assert np.all(sol.phi[mask] > 0.0) and np.all(sol.phi[~mask] == 0.0)


@pytest.mark.parametrize("y_hi, nodes", [(0.01, 1), (0.13, 2)])
def test_cartesian_masks_of_one_or_two_nodes_match_the_closed_form(y_hi, nodes):
    # h = 1/8: a lone node gives 4/h^2, two nodes along y share a face, 3/h^2
    domain = spectral2d.CartesianDomain2D(
        indicator=lambda X, Y: (np.abs(X) < 0.01) & (Y > -0.01) & (Y < y_hi),
        bbox=(-1.0, 1.0, -1.0, 1.0))
    sol = spectral2d.solve_cartesian(domain, 1.0 / 8.0)
    assert sol.mask.sum() == nodes
    assert sol.eigenvalue == pytest.approx((5 - nodes) * 64.0, rel=1e-12)


def _node_graph_components(mask, wrap):
    """Connected components of the mask nodes under the grid faces, by the
    node graph itself."""
    n0, n1 = mask.shape
    idx = -np.ones(mask.shape, dtype=int)
    idx[mask] = np.arange(mask.sum())
    edges = []
    for i, j in zip(*np.nonzero(mask)):
        for qi, qj in ((i + 1, j), (i, j + 1)):
            if wrap:
                qj %= n1
            if qi < n0 and qj < n1 and mask[qi, qj]:
                edges.append((idx[i, j], idx[qi, qj]))
    p, q = np.array(edges, dtype=int).reshape(-1, 2).T
    graph = sparse.coo_matrix((np.ones(len(p)), (p, q)), shape=(mask.sum(), mask.sum()))
    return connected_components(graph, directed=False)[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.floats(0.2, 0.9), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_run_components_equal_the_node_graph_components(n0, n1, density, wrap, seed):
    mask = np.random.default_rng(seed).random((n0, n1)) < density
    assume(mask.any())
    assert spectral2d._component_count(mask, wrap) == _node_graph_components(mask, wrap)


def test_index_maps_widen_past_int32_node_numbers():
    # broadcast views: grids of 2^31 - 1 and 2^31 nodes without the memory
    assert spectral2d._index_dtype(np.broadcast_to(False, (1, 2**31 - 1))) == np.int32
    assert spectral2d._index_dtype(np.broadcast_to(False, (2, 2**30))) == np.int64


def test_mirror_image_pieces_raise_although_their_fold_is_connected(sparse_solves):
    # two mirror-image blocks: the mirror of axis 1 folds them onto one piece
    mask = np.ones((9, 16), dtype=bool)
    mask[:, 7:9] = False
    r = np.linspace(1.1, 1.9, 9)
    cond_0, cond_1, mass = np.linspace(1.0, 2.0, 10), 1.0 / r, r
    orbits = spectral2d._orbits(mask, cond_0, cond_1, mass, False)
    assert orbits is not None and len(orbits[0]) == mask.sum() // 2
    folded, _ = spectral2d._grid_operator(mask, cond_0, cond_1, mass, False, orbits)
    assert connected_components(folded, directed=False)[0] == 1
    assert spectral2d._component_count(mask, False) == 2
    with pytest.raises(spectral2d.DisconnectedDomainError, match="2 components"):
        spectral2d.solve_polar_mask(mask, (1.0, 2.0), (0.0, math.pi), wrap=False)
    assert sparse_solves == []


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


@pytest.mark.parametrize("solve, count", [(_symmetric_notched_box, 4), (_perturbed_annulus, 17)],
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


def test_square_grid_of_oblong_cells_folds_by_the_two_mirrors(grid_solves, sparse_solves):
    # 63 x 63 nodes with hx != hy: the mask equals its transpose, but the
    # conductances hy/hx and hx/hy differ, so the transpose is no symmetry
    spectral2d.solve_cartesian(four_notch_box_domain(0.05, (0.95, 0.951)), 1.0 / 32.0)
    [(args, result)] = grid_solves
    [(op, _)] = sparse_solves
    mask, cond_0, cond_1 = args[:3]
    n0, n1 = mask.shape
    assert n0 == n1 and np.array_equal(mask, mask.T) and cond_0[0] != cond_1[0]
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
    phi[mask] = psi[:, 0] / np.sqrt(_node_mass(mask, mass))
    assert np.array_equal(result[1], phi if phi.sum() > 0 else -phi)
    _assert_matches_oracle(args, result)


@pytest.mark.parametrize("depth", np.linspace(0.02, 0.05, 31))
def test_notched_box_masks_are_mirror_symmetric(monkeypatch, depth):
    # nodes built from the box center make every notch depth fold; nodes
    # built as lo + h*i break the symmetry at the notch edge for 2 of these
    masks = []

    def keep_mask(mask, *args):
        masks.append(mask)
        return 1.0, np.zeros(mask.shape)

    monkeypatch.setattr(spectral2d, "_assemble_and_solve", keep_mask)
    spectral2d.solve_cartesian(four_notch_box_domain(float(depth)), 1.0 / 300.0)
    [mask] = masks
    assert np.array_equal(mask, mask[::-1]) and np.array_equal(mask, mask[:, ::-1])
    assert np.array_equal(mask, mask.T)


def _three_smallest_unfolded(args):
    """The three smallest eigenpairs of a grid's whole-mask operator by block
    Lanczos from the shift _assemble_and_solve uses, with the operator."""
    mask, cond_0, cond_1, mass, wrap = args
    L, red = spectral2d._grid_operator(mask, cond_0, cond_1, mass, wrap, None)
    op = numerics.SparseSymmetricOperator.from_matrix(L)
    bound = max(spectral2d._hull_ground_state(cond_0, cond_1, mass, mask.shape[1], wrap)[0],
                spectral2d._column_bound(*args))
    shift = (1.0 - spectral2d._HULL_SHIFT_MARGIN) * bound
    return numerics.sparse_smallest_eigenpairs(op, 3, shift, red), op


def test_notched_grid_matches_dense_eigh(grid_solves):
    # the whole-mask operator, not its fold: the x <-> y transpose maps this
    # grid onto itself, and modes antisymmetric under it are among the three
    spectral2d.solve_cartesian(notched_box_domain(0.5), 1.0 / 16.0)
    [(args, _)] = grid_solves
    (lam, _), op = _three_smallest_unfolded(args)
    dense = eigh(op.matrix.toarray(), eigvals_only=True, subset_by_index=(0, 2))
    assert lam == pytest.approx(dense, rel=1e-10)


def test_masked_wrapped_grid_matches_oracle(grid_solves):
    spectral2d.solve_polar(PERTURBED_ANNULUS, 24, 128)
    [(args, result)] = grid_solves
    mask, wrap = args[0], args[4]
    # masked in every column, so the faces across theta = 0 join inner nodes
    assert wrap and not mask.all() and (mask[:, 0] & mask[:, -1]).any()
    _assert_matches_oracle(args, result)


def test_masked_wrapped_grid_k3_matches_dense_eigh(grid_solves):
    spectral2d.solve_polar(PERTURBED_ANNULUS, 16, 64)
    [(args, _)] = grid_solves
    (lam, _), _ = _three_smallest_unfolded(args)
    K, M = _oracle_operator(*args)
    dense = eigh(K.toarray(), M.toarray(), eigvals_only=True, subset_by_index=(0, 2))
    assert lam == pytest.approx(dense, rel=1e-10)


def test_block_lanczos_finds_the_degenerate_pair_of_an_exact_annulus(grid_solves):
    # the angular modes cos(theta) and sin(theta) share the second eigenvalue
    spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.3), 16, 64)
    [(args, _)] = grid_solves
    (lam, vecs), op = _three_smallest_unfolded(args)
    dense = eigh(op.matrix.toarray(), eigvals_only=True, subset_by_index=(0, 2))
    assert lam == pytest.approx(dense, rel=1e-10)
    assert lam[2] - lam[1] <= 1e-10 * lam[2] < lam[1] - lam[0]
    assert np.allclose(vecs.T @ vecs, np.eye(3), rtol=0.0, atol=1e-10)


def test_mask_connected_only_across_theta_zero_is_solved(grid_solves):
    # a radial cut through theta = pi leaves one arc that closes over theta = 0
    mask = np.ones((15, 64), dtype=bool)
    mask[:, 30:34] = False
    sol = spectral2d.solve_polar_mask(mask, (1.0, 1.5), (0.0, 2.0 * math.pi), wrap=True)
    assert np.all(sol.phi[mask] > 0)
    _assert_matches_oracle(*grid_solves[0])
    with pytest.raises(spectral2d.DisconnectedDomainError):
        spectral2d.solve_polar_mask(mask, (1.0, 1.5), (0.0, math.pi), wrap=False)


def test_notched_box_assembly_heap_peak(monkeypatch):
    # the h = 1/256 perturb-box grid: 287,793 mask nodes fold onto 36,237
    # unknowns.  The orbits and the folded operator peak at 15.9 MiB of
    # Python heap (tracemalloc; 54.9 MiB when every mask node's faces and a
    # node-level connectivity graph were built); the bound leaves 50% margin
    grids = []

    def keep_args(*args):
        grids.append(args)
        return 1.0, np.zeros(args[0].shape)

    monkeypatch.setattr(spectral2d, "_assemble_and_solve", keep_args)
    spectral2d.solve_cartesian(four_notch_box_domain(0.05), 1.0 / 256.0)
    [(mask, cond_0, cond_1, mass, wrap)] = grids
    tracemalloc.start()
    try:
        orbits = spectral2d._orbits(mask, cond_0, cond_1, mass, wrap)
        L, _ = spectral2d._grid_operator(mask, cond_0, cond_1, mass, wrap, orbits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.sum() == 287793 and L.shape == (36237, 36237)
    assert peak <= 24 * 2**20


def _plain_shifted_solve(A, shift, b):
    """(A - shift I)^{-1} b by SuperLU on the whole operator, with the
    driver's settings: the solve the red-black elimination replaces."""
    shifted = sparse.csc_matrix(A - shift * sparse.identity(A.shape[0]))
    return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}).solve(b)


def _random_grid_of_width(seed, n1, wrap):
    """A random mask on 23 x n1 nodes with random row profiles."""
    rng = np.random.default_rng(seed)
    n0 = 23
    return (rng.random((n0, n1)) < 0.7, rng.uniform(0.5, 2.0, n0 + 1),
            rng.uniform(0.5, 2.0, n0), rng.uniform(0.5, 2.0, n0), wrap)


def _folded_box_grid(monkeypatch):
    grids = []

    def keep_args(*args):
        grids.append(args)
        return 1.0, np.zeros(args[0].shape)

    monkeypatch.setattr(spectral2d, "_assemble_and_solve", keep_args)
    spectral2d.solve_cartesian(four_notch_box_domain(0.05), 1.0 / 64.0)
    monkeypatch.undo()
    return grids[0]


@pytest.mark.parametrize("case", ["wrap-even-n1", "wrap-odd-n1", "walled", "folded-box"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_red_black_solve_equals_the_plain_solve(monkeypatch, case, seed):
    if case == "folded-box":
        args = _folded_box_grid(monkeypatch)
    else:
        args = _random_grid_of_width(seed, 25 if case == "wrap-odd-n1" else 24, case != "walled")
    mask, cond_0, cond_1, mass, wrap = args
    orbits = spectral2d._orbits(*args)
    assert (orbits is not None) == (case == "folded-box")
    A, red = spectral2d._grid_operator(*args, orbits)
    n = A.shape[0]
    assert 0.4 * n < len(red) < 0.6 * n
    shift = 0.5 * spectral2d._hull_ground_state(cond_0, cond_1, mass, mask.shape[1], wrap)[0]
    b = np.random.default_rng(seed).standard_normal((n, 2))
    x = numerics._shifted_inverse(A, shift, red)(b)
    plain = _plain_shifted_solve(A, shift, b)
    assert np.linalg.norm(x - plain) <= 1e-12 * np.linalg.norm(plain)


def test_red_black_solve_equals_the_plain_solve_on_small_random_grids():
    # 3-13 nodes a side, odd and even, wrapping or walled, folded when a
    # mirror or the transpose maps the grid onto itself
    rng = np.random.default_rng(27)
    for _ in range(200):
        grid = _random_grid(rng)
        mask, cond_0, cond_1, mass, wrap = grid
        orbits = spectral2d._orbits(*grid)
        A, red = spectral2d._grid_operator(*grid, orbits)
        if A.shape[0] < 2:
            continue
        shift = 0.5 * spectral2d._hull_ground_state(cond_0, cond_1, mass, mask.shape[1], wrap)[0]
        b = rng.standard_normal((A.shape[0], 1))
        x = numerics._shifted_inverse(A, shift, red)(b)
        plain = _plain_shifted_solve(A, shift, b)
        assert np.linalg.norm(x - plain) <= 1e-12 * np.linalg.norm(plain)


def test_odd_wrapping_seam_drops_its_even_pairs():
    # (i, 0) and (i, 24) are both even for even i and face each other across
    # theta = 0; with them kept the set is not independent
    mask, cond_0, cond_1, mass, wrap = _random_grid_of_width(0, 25, True)
    mask[:, 0] = mask[:, -1] = True
    A, red = spectral2d._grid_operator(mask, cond_0, cond_1, mass, wrap, None)
    i, j = np.divmod(np.flatnonzero(mask), 25)
    all_even = np.flatnonzero((i + j) % 2 == 0)
    assert len(all_even) - len(red) == 2 * len(range(0, 23, 2))
    with pytest.raises(ValueError, match="not independent"):
        numerics._shifted_inverse(A, 0.0, all_even)


@pytest.mark.parametrize("solve", [
    lambda: spectral2d.solve_polar(PERTURBED_ANNULUS, 24, 128),
    lambda: spectral2d.solve_polar(PERTURBED_ANNULUS, 24, 127),
    _symmetric_notched_box,
], ids=["wrap-even-n1", "wrap-odd-n1", "folded-box"])
def test_red_black_eigenpair_equals_the_plain_one(monkeypatch, solve):
    calls = []
    solver = numerics.sparse_smallest_eigenpairs

    def record(*args):
        calls.append((args, solver(*args)))
        return calls[-1][1]

    monkeypatch.setattr(numerics, "sparse_smallest_eigenpairs", record)
    solve()
    [((op, k, shift, red), (lam, vec))] = calls
    assert len(red) > 0.4 * op.dimension
    lam_plain, vec_plain = solver(op, k, shift, [])
    assert lam == pytest.approx(lam_plain, rel=1e-12, abs=0.0)
    assert np.max(np.abs(vec - vec_plain)) <= 1e-12 * np.max(np.abs(vec_plain))


def test_superlu_factors_the_odd_unknowns_alone(monkeypatch, grid_solves, sparse_solves):
    shapes = []
    factor = spla.splu

    def record_splu(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return factor(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", record_splu)
    _perturbed_annulus()
    [(args, _)] = grid_solves
    [(op, _)] = sparse_solves
    black = op.dimension - len(spectral2d._grid_operator(*args, None)[1])
    assert shapes == [(black, black)] and 0.45 * op.dimension < black < 0.55 * op.dimension


def test_red_black_solve_bytes_do_not_depend_on_blas_threads():
    # the same right-hand side solved in fresh interpreters at one and two
    # BLAS threads: the elimination, the Schur complement's factor and its
    # solves all give the same bits
    code = """
import hashlib, numpy as np
from annulab import numerics, spectral2d
grids = []
spectral2d._sparse_ground_state = lambda *args, shift: grids.append((args, shift)) or (1.0, 0.0)
domain = spectral2d.PolarDomain2D(r_min=lambda th: 1.0 + 0.05 * np.sin(8.0 * th),
                                  r_max=lambda th: 1.4 + 0.05 * np.cos(5.0 * th))
spectral2d.solve_polar(domain, 48, 384)
[((mask, cond_0, cond_1, mass, wrap), shift)] = grids
A, red = spectral2d._grid_operator(mask, cond_0, cond_1, mass, wrap, None)
b = np.random.default_rng(5).standard_normal((A.shape[0], 2))
print(hashlib.sha256(numerics._shifted_inverse(A, shift, red)(b).tobytes()).hexdigest())
"""
    src = str(Path(spectral2d.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=300)
        assert cp.returncode == 0, cp.stderr
        digests.append(cp.stdout.split()[-1])
    assert digests[0] == digests[1]
