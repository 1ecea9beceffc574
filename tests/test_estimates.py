import math

import numpy as np
import pytest

from annulab import bases, estimates, radial, spectral2d


def test_thin_caricature_value():
    # min(0.05, 0.05) / 0.1^1.5 at the midpoint, n/2+1 power of a=1 is 1
    value = estimates.thin_annulus_caricature(2, 1.0, 1.1, 1.05)
    assert value == pytest.approx(0.05 / 0.1**1.5, rel=1e-12)


def test_wide_caricature_values():
    assert estimates.wide_annulus_caricature(3, 0.1, 1.0, 0.5) == pytest.approx(0.4, rel=1e-12)
    expected = math.log(5.0) * 0.5 / math.log(3.5)
    assert estimates.wide_annulus_caricature(2, 0.1, 1.0, 0.5) == pytest.approx(expected, rel=1e-12)


def test_box_caricature_center_value():
    assert estimates.box_caricature((1.0, 1.0), np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0)


def test_caricature_outside_raises():
    with pytest.raises(ValueError):
        estimates.thin_annulus_caricature(2, 1.0, 1.1, 1.2)
    with pytest.raises(ValueError):
        estimates.box_caricature((1.0, 1.0), np.array([[1.5, 0.0]]))


@pytest.mark.parametrize("profile, inside, value, boundary, refused", [
    pytest.param(lambda r: estimates.thin_annulus_caricature(2, 2.0, 3.0, r),
                 2.25, math.sqrt(2.0) / 8.0, (2.0, 3.0), True, id="thin"),
    pytest.param(lambda r: estimates.wide_annulus_caricature(4, 0.5, 2.0, r),
                 1.0, 3.0 / 32.0, (0.5, 2.0), True, id="wide"),
    pytest.param(lambda x: estimates.box_caricature((1.0, 2.0), x), (0.5, 1.0),
                 math.sqrt(2.0) / 4.0, ((1.0, 0.0), (-0.5, -2.0)), True, id="box"),
    pytest.param(lambda r: estimates.separated_cosine_caricature(3, 1.0, 2.0, r),
                 1.5, 2.0 * math.sqrt(2.0) / 3.0, (1.0, 2.0), False, id="separated-cosine"),
    pytest.param(lambda x: estimates.orthant_product_caricature(2, x),
                 (math.sqrt(0.5), 0.5, 0.5), math.pi**2 / 24.0,
                 ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)), False, id="orthant"),
    pytest.param(lambda p: estimates.coordinate_triangle_caricature(math.pi / 2.0, *p),
                 (math.pi / 4.0, math.pi / 4.0), 1.0 / (9.0 * math.pi),
                 ((0.0, 0.8), (0.7, math.pi / 2.0)), False, id="triangle"),
])
def test_profile_point_domains(profile, inside, value, boundary, refused):
    # a hand-computed value inside; the tent, the harmonic profile and the
    # box refuse their boundary points, the others take them and vanish there
    assert np.asarray(profile(inside)).item() == pytest.approx(value, rel=1e-13)
    for point in boundary:
        if refused:
            with pytest.raises(ValueError, match="outside the"):
                profile(point)
        else:
            assert abs(np.asarray(profile(point)).item()) < 1e-15


@pytest.mark.parametrize("a, b", [(-1.0, 1.5), (0.0, 1.5), (1.5, 1.0), (1.0, math.inf),
                                  (1.0, math.nan)])
@pytest.mark.parametrize("entry", [
    lambda n, a, b: estimates.thin_annulus_caricature(n, a, b, 1.0),
    lambda n, a, b: estimates.wide_annulus_caricature(n, a, b, 1.0),
    lambda n, a, b: estimates.separated_cosine_caricature(n, a, b, 1.0),
    estimates.annulus_eigenvalue_bounds, lambda n, a, b: radial.solve_radial(n, a, b, 0.0),
], ids=["thin", "wide", "separated-cosine", "bounds", "solve-radial"])
def test_shell_entry_points_refuse_radii_outside_0_a_b_inf(entry, a, b):
    with pytest.raises(ValueError, match="need 0 < a < b finite"):
        entry(2, a, b)


def test_separated_cosine_exact_at_n3():
    # the centrifugal coefficient vanishes at n = 3, so the separated cosine
    # profile is the eigenfunction itself: ratio spread 1 + O(grid error)
    res = radial.solve_radial(3, 1.0, 1.4, 0.0, N=2048)[0]
    keep = (res.grid > 1.0 + 0.02) & (res.grid < 1.4 - 0.02)
    g0 = 1.0 / math.sqrt(4.0 * math.pi)
    car = estimates.separated_cosine_caricature(3, 1.0, 1.4, res.grid[keep]) * g0
    phi = res.f[keep] * g0
    sup, inf = estimates.comparability_audit(phi, car)
    assert sup / inf == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("n", [2, 3])
def test_thin_caricature_comparable(n):
    a, b = 1.0, 1.5
    res = radial.solve_radial(n, a, b, 0.0, N=1024)[0]
    keep = (res.grid > a + 0.05 * (b - a)) & (res.grid < b - 0.05 * (b - a))
    g0 = 1.0 / math.sqrt(bases.surface_measure(n))
    phi = res.f[keep] * g0
    car = estimates.thin_annulus_caricature(n, a, b, res.grid[keep])
    sup, inf = estimates.comparability_audit(phi, car)
    assert sup / inf <= 10.0
    assert inf > 0


@pytest.mark.parametrize("n", [2, 3])
def test_wide_caricature_comparable(n):
    a, b = 0.2, 1.0
    res = radial.solve_radial(n, a, b, 0.0, N=1024)[0]
    keep = (res.grid > a + 0.05 * (b - a)) & (res.grid < b - 0.05 * (b - a))
    g0 = 1.0 / math.sqrt(bases.surface_measure(n))
    phi = res.f[keep] * g0
    car = estimates.wide_annulus_caricature(n, a, b, res.grid[keep])
    sup, inf = estimates.comparability_audit(phi, car)
    assert sup / inf <= 10.0


def test_box_caricature_matches_grid_eigenfunction():
    dom = spectral2d.CartesianDomain2D(
        indicator=lambda X, Y: (np.abs(X) < 1.0) & (np.abs(Y) < 1.0),
        bbox=(-1.0, 1.0, -1.0, 1.0),
    )
    sol = spectral2d.solve_cartesian(dom, 1.0 / 128.0)
    inner = sol.interior_mask(2)
    x, y = sol.axes
    X, Y = np.meshgrid(x, y, indexing="ij")
    pts = np.stack([X[inner], Y[inner]], axis=1)
    car = estimates.box_caricature((1.0, 1.0), pts)
    sup, inf = estimates.comparability_audit(sol.phi[inner], car)
    assert sup / inf <= 1.0 + 5e-2


def test_caricature_boundary_vanishing_linear():
    eps = np.array([1e-3, 1e-4, 1e-5])
    near_a = estimates.thin_annulus_caricature(2, 1.0, 1.2, 1.0 + eps)
    assert np.allclose(near_a / eps, near_a[0] / eps[0], rtol=1e-9)


def test_coefficient_interval_n3_collapses():
    c1, c2 = estimates.annulus_eigenvalue_coefficients(3, 2.0)
    assert c1 == pytest.approx(math.pi**2)
    assert c2 == pytest.approx(math.pi**2)


def test_coefficient_interval_values():
    c1, c2 = estimates.annulus_eigenvalue_coefficients(2, 2.0)
    assert c1 == pytest.approx(math.pi**2 - 0.25, rel=1e-14)
    assert c2 == pytest.approx(math.pi**2 - 1.0 / 16.0, rel=1e-14)
    c1, c2 = estimates.annulus_eigenvalue_coefficients(5, 1.1)
    assert c2 == pytest.approx(math.pi**2 + 2.0 * 0.1**2, rel=1e-14)


def test_coefficient_ordering_everywhere():
    for n in (2, 3, 4, 5, 7):
        for x in (1.01, 1.1, 1.5, 2.0, 5.0, 10.0, 100.0):
            c1, c2 = estimates.annulus_eigenvalue_coefficients(n, x)
            assert c1 <= c2 + 1e-12, (n, x)


def test_annulus_bounds_report():
    report = estimates.annulus_eigenvalue_bounds(2, 1.0, 2.0)
    assert report.passed
    assert report.lower <= report.value <= report.upper


def test_supnorm_check_interval_and_box():
    rep = estimates.supnorm_bounds_check(math.pi**2, 1.0, math.sqrt(2.0), n=1)
    assert rep.passed
    assert rep.extra["sup2_over_lam_pow"] == pytest.approx(2.0 / math.pi, rel=1e-12)
    rep = estimates.supnorm_bounds_check(math.pi**2 / 2.0, 4.0, 1.0, n=2)
    assert rep.passed  # sup^2 = 1 >= 1/4


def test_supnorm_check_annulus_numeric():
    res = radial.solve_radial(2, 1.0, 2.0, 0.0, N=512)[0]
    phi_sup = float(np.max(res.f)) / math.sqrt(2.0 * math.pi)
    volume = math.pi * (4.0 - 1.0)
    rep = estimates.supnorm_bounds_check(res.lam, volume, phi_sup, n=2)
    assert rep.passed


def test_hadamard_scan_exact_n3():
    rows = estimates.hadamard_scan(3, [0.05, 0.1, 0.5, 1.0], N=1024)
    for row in rows:
        assert row["t3_dlam"] == pytest.approx(2.0 * math.pi**2, rel=1e-2)


@pytest.mark.parametrize("t", [2e-16, 1e-14, 1e-13])
def test_hadamard_scan_refuses_a_step_the_radii_do_not_resolve(t):
    # the realized step 1 + t + t/100 - (1 + t - t/100) is 0 or 11% off
    with pytest.raises(FloatingPointError, match=f"t = {t!r}: "):
        estimates.hadamard_scan(3, [0.5, t], N=1024)


def test_hadamard_scan_exact_n3_down_to_the_resolved_steps():
    # the smallest t whose float radii still realize the step to 0.1%
    [row] = estimates.hadamard_scan(3, [1e-12], N=1024)
    assert row["t3_dlam"] == pytest.approx(2.0 * math.pi**2, rel=1e-2)


def test_hadamard_scan_window_n2():
    rows = estimates.hadamard_scan(2, [0.05, 0.1, 0.5, 1.0], N=1024)
    for row in rows:
        assert 10.0 <= row["t3_dlam"] <= 40.0


def test_eigengap_positive_and_order_constant():
    # the hull widened by eps^3 on both sides: the gap approaches
    # 4 pi^2 ~ 39.5 from below as eps -> 0 (each side contributes ~ 2 pi^2)
    for n in (2, 3):
        rows = estimates.eigengap_scan(n, [0.1, 0.2, 0.3], N=1024)
        for row in rows:
            assert 0.0 < row["gap"] <= 4.0 * math.pi**2
        assert rows[0]["gap"] > rows[-1]["gap"]  # widening bites less at larger eps


def test_eigengap_single_sided_is_half():
    rows = estimates.eigengap_scan(3, [0.1], inner_scale=0.0, outer_scale=1.0, N=2048)
    # lam(1, 1+eps) - lam(1, 1+eps+eps^3) ~ 2 pi^2 for small eps
    assert rows[0]["gap"] == pytest.approx(2.0 * math.pi**2, rel=0.05)


def test_coordinate_triangle_caricature_pairs_with_rectangle_solver():
    # theta in (0, pi/2), phi in (0, pi/2) is a coordinate triangle with two
    # right angles; the profile must track the numerical eigenfunction
    # within a fixed two-sided window on a margin-trimmed grid
    t1 = math.pi / 2.0
    _, th, ph, g = bases.solve_sphere_rectangle(t1, (1e-9, math.pi / 2.0), 96)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    keep = (TH > 0.08) & (TH < t1 - 0.08) & (PH > 0.08) & (PH < math.pi / 2.0 - 0.08)
    car = estimates.coordinate_triangle_caricature(t1, TH[keep], PH[keep])
    sup, inf = estimates.comparability_audit(g[keep], car)
    assert sup / inf <= 10.0
    assert inf > 0


def test_coordinate_triangle_caricature_vanishes_on_sides():
    interior = estimates.coordinate_triangle_caricature(math.pi / 2.0, 0.7, 0.8)
    assert interior > 0
    near_side = estimates.coordinate_triangle_caricature(math.pi / 2.0, 1e-6, 0.8)
    assert near_side < 1e-4 * interior



def test_orthant_product_caricature_comparable():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((4000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    keep = np.all(pts[:, :2] > 0.05, axis=1)
    data = bases.base_eigendata(bases.orthant_intersection(3, 2))
    car = estimates.orthant_product_caricature(2, pts[keep])
    sup, inf = estimates.comparability_audit(data.phi0(pts[keep]), car)
    assert sup / inf <= 10.0
