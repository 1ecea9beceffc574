import math

import numpy as np
import pytest
from scipy.integrate import quad

from annulab import bases, estimates, numerics


def orthant_norm_closed_form(n, k):
    # Dirichlet-moment identity: ||x_1...x_k||^2 over the orthant patch
    # equals sigma_{n-1} 4^{-k} / prod_{j<k} (n/2 + j)
    rising = 1.0
    for j in range(k):
        rising *= n / 2.0 + j
    return bases.surface_measure(n) / 4.0**k / rising


def test_surface_measures():
    assert bases.surface_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert bases.surface_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert bases.surface_measure(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


def test_full_sphere_eigendata():
    data = bases.base_eigendata(bases.full_sphere(3))
    assert data.lambda0 == 0.0
    assert data.measure == pytest.approx(4.0 * math.pi, rel=1e-14)
    # constant eigenfunction integrates to one
    assert data.phi0(np.zeros((5, 3)))[0] ** 2 * data.measure == pytest.approx(1.0, rel=1e-12)


def test_arc_eigendata():
    data = bases.base_eigendata(bases.circle_arc(3.0 * math.pi / 4.0))
    assert data.lambda0 == pytest.approx(16.0 / 9.0, rel=1e-14)
    norm, _ = quad(lambda t: data.phi0(t) ** 2, 0.0, 3.0 * math.pi / 4.0)
    assert norm == pytest.approx(1.0, rel=1e-10)
    inside = data.phi0(np.linspace(0.1, 3.0 * math.pi / 4.0 - 0.1, 30))
    assert np.all(inside > 0)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_orthant_normalization_against_moment_identity(n, k):
    assert bases.orthant_norm_quadrature(n, k) == pytest.approx(
        orthant_norm_closed_form(n, k), rel=1e-12
    )


def test_orthant_eigendata():
    data = bases.base_eigendata(bases.orthant_intersection(3, 2))
    assert data.lambda0 == pytest.approx(6.0)  # k(k+n-2) at k=2, n=3
    assert data.measure == pytest.approx(math.pi, rel=1e-12)
    # half circle in the plane: eigenvalue 1; quarter circle: 4
    assert bases.base_eigendata(bases.orthant_intersection(2, 1)).lambda0 == 1.0
    assert bases.base_eigendata(bases.orthant_intersection(2, 2)).lambda0 == 4.0


def test_orthant_phi0_normalized_by_independent_identity():
    # the sampler divides by the quadrature norm; the moment identity gives
    # an independent value for the same constant
    data = bases.base_eigendata(bases.orthant_intersection(4, 2))
    assert data.norm_constant**2 == pytest.approx(orthant_norm_closed_form(4, 2), rel=1e-12)


def test_orthant_caricature_comparability():
    # phi0 against the product of equator distances stays within a fixed
    # two-sided window on interior samples, n <= 4
    rng = np.random.default_rng(7)
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
        data = bases.base_eigendata(bases.orthant_intersection(n, k))
        pts = rng.standard_normal((4000, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        keep = np.all(pts[:, :k] > 0.05, axis=1)
        pts = pts[keep]
        ratio = data.phi0(pts) / estimates.orthant_product_caricature(k, pts)
        assert ratio.max() / ratio.min() <= 10.0, (n, k, ratio.max() / ratio.min())


def test_wedge_eigendata():
    alpha = math.pi / 2.0
    data = bases.base_eigendata(bases.sphere_wedge(alpha))
    assert data.lambda0 == pytest.approx(6.0)  # (pi/alpha)(pi/alpha + 1) = 2*3
    # independent normalization check: int sin^2(2 theta) * sin(psi)^4 * sin(psi)
    theta_part = alpha / 2.0
    psi_part, _ = quad(lambda p: math.sin(p) ** 5, 0.0, math.pi)
    assert data.norm_constant**2 == pytest.approx(theta_part * psi_part, rel=1e-10)


def test_full_circle_spectrum():
    spectrum = bases.base_spectrum(bases.full_sphere(2), 3)
    levels = spectrum.levels
    assert [(lv.lambda0, lv.multiplicity) for lv in levels] == [(0.0, 1), (1.0, 2), (4.0, 2)]
    th = np.linspace(0.0, 2.0 * math.pi, 1001)
    w = numerics.trapezoid_weights(th)
    for g in spectrum.table(th):
        assert numerics.integrate_samples(g ** 2, w) == pytest.approx(1.0, abs=1e-6)


def test_arc_spectrum_values():
    levels = bases.base_spectrum(bases.circle_arc(math.pi), 3).levels
    assert levels[1].lambda0 == pytest.approx(4.0)
    levels = bases.base_spectrum(bases.circle_arc(3.0 * math.pi / 4.0), 1).levels
    assert levels[0].lambda0 == pytest.approx(16.0 / 9.0)


def test_spectrum_unavailable():
    with pytest.raises(bases.UnsupportedBaseError):
        bases.base_spectrum(bases.sphere_wedge(1.0), 2)


def test_sphere_rectangle_matches_orthant():
    # theta in (0, pi), phi in (0, pi/2) is the intersection of two half
    # spaces: eigenvalue 6
    lam_c, *_ = bases.solve_sphere_rectangle(math.pi, (1e-9, math.pi / 2.0), 32)
    lam_f, *_ = bases.solve_sphere_rectangle(math.pi, (1e-9, math.pi / 2.0), 64)
    lam = numerics.richardson(lam_c, lam_f)
    assert lam == pytest.approx(6.0, rel=2e-3)
    # second-order convergence
    err_c, err_f = abs(lam_c - 6.0), abs(lam_f - 6.0)
    assert err_c / err_f == pytest.approx(4.0, rel=0.25)


def test_sphere_rectangle_matches_wedge():
    lam_c, *_ = bases.solve_sphere_rectangle(math.pi / 2.0, (1e-9, math.pi - 1e-9), 32)
    lam_f, *_ = bases.solve_sphere_rectangle(math.pi / 2.0, (1e-9, math.pi - 1e-9), 64)
    assert numerics.richardson(lam_c, lam_f) == pytest.approx(6.0, rel=2e-3)


def test_sphere_rectangle_normalization_and_coarse_error():
    lam, theta, phi, g = bases.solve_sphere_rectangle(1.0, (0.4, 1.2), 48)
    ht = theta[1] - theta[0]
    hp = phi[1] - phi[0]
    mass = np.sin(phi)[None, :] * ht * hp
    assert float(np.sum(g**2 * mass)) == pytest.approx(1.0, rel=1e-8)
    assert np.all(g > 0)
    with pytest.raises(ValueError):
        bases.solve_sphere_rectangle(1.0, (0.4, 1.2), 8)


def sphere_rectangle_loop_reference(theta1, phi_range, N):
    """Node-by-node stencil of the S^2 rectangle operator, solved densely."""
    from scipy.linalg import eigh

    lo, hi = phi_range
    ht, hp = theta1 / N, (hi - lo) / N
    m = N - 1
    K = np.zeros((m * m, m * m))
    mass = np.zeros(m * m)
    for it in range(m):
        for ip in range(m):
            p = it * m + ip
            s = math.sin(lo + hp * (ip + 1))
            mass[p] = s * ht * hp
            for jt in (it - 1, it + 1):
                K[p, p] += hp / (s * ht)
                if 0 <= jt < m:
                    K[p, jt * m + ip] -= hp / (s * ht)
            for jp, face in ((ip - 1, ip), (ip + 1, ip + 1)):
                c = math.sin(lo + hp * (face + 0.5)) * ht / hp
                K[p, p] += c
                if 0 <= jp < m:
                    K[p, it * m + jp] -= c
    vals, vecs = eigh(K, np.diag(mass), subset_by_index=(0, 0))
    g = vecs[:, 0] if vecs[:, 0].sum() > 0 else -vecs[:, 0]
    return vals[0], g.reshape(m, m)


def test_sphere_rectangle_matches_loop_reference():
    lam, _, _, g = bases.solve_sphere_rectangle(1.0, (0.4, 1.2), 20)
    lam_ref, g_ref = sphere_rectangle_loop_reference(1.0, (0.4, 1.2), 20)
    assert lam == pytest.approx(lam_ref, rel=1e-11)
    assert np.max(np.abs(g - g_ref)) <= 1e-8 * np.max(np.abs(g_ref))


def test_rectangle_eigendata_sampler():
    base = bases.sphere_rectangle(math.pi, (1e-9, math.pi / 2.0))
    data = bases.base_eigendata(base, N=48)
    assert data.lambda0 == pytest.approx(6.0, rel=2e-3)
    assert data.phi0(np.array([math.pi / 2.0]), np.array([0.7]))[0] > 0


def test_rectangle_sampler_matches_regular_grid_interpolator():
    from scipy.interpolate import RegularGridInterpolator

    # base_eigendata samples the solve at 2N
    _, theta, phi, g = bases.solve_sphere_rectangle(1.5, (0.6, 2.0), 32)
    sampler = bases.base_eigendata(bases.sphere_rectangle(1.5, (0.6, 2.0)), N=16).phi0
    rgi = RegularGridInterpolator((theta, phi), g, bounds_error=False, fill_value=0.0)
    rng = np.random.default_rng(5)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    tt = np.concatenate([T.ravel(), rng.uniform(0.0, 1.6, 3000), [theta[-1], 1.49]])
    pp = np.concatenate([P.ravel(), rng.uniform(0.5, 2.1, 3000), [phi[-1], 2.05]])
    got = sampler(tt, pp)
    assert np.array_equal(got, rgi(np.stack([tt, pp], axis=1)))
    assert np.array_equal(got[:g.size], g.ravel())
    assert got[-1] == 0.0
    # scalars broadcast against arrays, as the base eigendata calls it
    assert np.array_equal(sampler(theta[3], phi), g[3])


@pytest.mark.parametrize("base", [bases.full_sphere(2), bases.circle_arc(2.0)])
def test_base_levels_extend_base_spectrum(base):
    levels = bases.base_levels(base)
    assert bases.base_spectrum(base, 40).levels == tuple(next(levels) for _ in range(40))


def test_base_levels_unsupported_base_raises():
    with pytest.raises(bases.UnsupportedBaseError):
        bases.base_levels(bases.sphere_wedge(1.0))
