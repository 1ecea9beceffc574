import math

import numpy as np
import pytest

from annulab import estimates, numerics, perturb, spectral2d


def test_box_conditions_identical_boxes():
    res = perturb.check_box_conditions((1.0, 1.0), (1.0, 1.0), C1=0.0, C2=1.0)
    assert res["condition1"].passed
    assert res["condition1"].value == 0.0
    assert res["condition2"].passed


def test_box_conditions_worked_numbers():
    res = perturb.check_box_conditions((1.0, 1.0), (1.05, 1.05), C1=0.1025, C2=1.05)
    # 1 - 1/1.1025 = 0.0930, times max b^2 = 1.1025: C1 must be >= 0.1025
    assert res["condition1"].extra["required_C1"] == pytest.approx(0.1025, abs=2e-4)
    assert res["condition1"].passed
    # implied C2 = sqrt(C1_required + 1) = sqrt(1.1025) = 1.05, and a >= b/1.05
    assert res["implication"].extra["implied_C2"] == pytest.approx(1.05, abs=1e-6)
    assert res["implication"].passed


def test_box_conditions_violation_detected():
    res = perturb.check_box_conditions((0.1, 1.0), (1.0, 1.0), C1=0.5, C2=1.05)
    assert not res["condition1"].passed
    assert not res["condition2"].passed


def identity_box_scenario():
    return perturb.PerturbationScenario(
        kind="box", a_widths=(1.0, 1.0), b_widths=(1.0, 1.0), C1=0.1, C2=1.01
    )


def test_box_identity_scenario_ratios_one():
    audit = perturb.box_perturbation_audit(identity_box_scenario(), h=1.0 / 128.0)
    assert audit["upper_ratio"] == pytest.approx(1.0, abs=2e-2)
    assert audit["lower_ratio"] == pytest.approx(1.0, abs=2e-2)
    assert audit["eigenvalue_ordering_ok"]


def test_box_notched_scenario_two_sided():
    scenario = perturb.PerturbationScenario(
        kind="box", a_widths=(1.0, 1.0), b_widths=(1.05, 1.05),
        notch=0.05, C1=0.2, C2=1.1,
    )
    audit = perturb.box_perturbation_audit(scenario, h=1.0 / 128.0)
    assert audit["upper_ratio"] <= 3.0
    assert audit["lower_ratio"] >= 1.0 / 3.0
    assert audit["eigenvalue_ordering_ok"]


def test_box_lower_bound_needs_width_hypothesis():
    # a slab-like inner box violates the width-ratio condition; the inner
    # ratio degrades like sqrt(width), so the hypothesis is genuinely needed
    ratios = []
    for delta in (0.1, 0.04):
        scenario = perturb.PerturbationScenario(
            kind="box", a_widths=(delta, 1.0), b_widths=(1.0, 1.0), C1=200.0, C2=30.0,
        )
        audit = perturb.box_perturbation_audit(scenario, h=1.0 / 128.0)
        ratios.append(audit["lower_ratio"])
    assert ratios[0] < 0.5
    assert ratios[1] < 0.75 * ratios[0]


def identity_annulus_scenario(eps=0.3):
    return perturb.PerturbationScenario(kind="annulus", eps=eps, a_eps=0.0, b_eps=0.0)


def test_annulus_identity_scenario():
    audit = perturb.annulus_perturbation_audit(identity_annulus_scenario(), grids=(40, 256))
    assert audit["upper_ratio"] == pytest.approx(1.0, abs=2e-2)
    assert audit["lower_ratio"] == pytest.approx(1.0, abs=2e-2)
    assert audit["eigenvalue_ordering_ok"]
    assert audit["core_spread"] <= 10.0


def bumpy_scenario(eps=0.3):
    # high-harmonic ripples of amplitude eps^3 / 2 (the CLI's default shell);
    # at eps = 0.3 the ground state still localizes in theta, varying 6.5x
    # along r = 1.15 and peaking where the shell is widest
    cube = eps**3
    return perturb.PerturbationScenario(
        kind="annulus", eps=eps, a_eps=cube, b_eps=cube,
        rmin_const=1.0 - cube / 2.0, rmin_harmonics=((8, cube / 2.0, 0.0),),
        rmax_const=1.0 + eps + cube / 2.0, rmax_harmonics=((9, cube / 2.0, 0.7),),
    )


def test_annulus_bumpy_scenario_two_sided():
    audit = perturb.annulus_perturbation_audit(bumpy_scenario(), grids=(48, 384))
    assert audit["upper_ratio"] <= 10.0
    assert audit["lower_ratio"] >= 0.1
    assert audit["core_spread"] <= 10.0
    assert audit["eigenvalue_ordering_ok"]
    assert 0.0 < audit["eigenvalue_gap"] <= 45.0


def test_annulus_arc_scenario_core_comparability():
    eps = 0.3
    cube = eps**3
    scenario = perturb.PerturbationScenario(
        kind="annulus", eps=eps, a_eps=cube, b_eps=cube, eta=0.05,
        theta1=3.0 * math.pi / 4.0,
        rmin_const=1.0 - cube, rmax_const=1.0 + eps + cube,
    )
    audit = perturb.annulus_perturbation_audit(scenario, grids=(48, 256))
    assert audit["eigenvalue_ordering_ok"]
    assert audit["upper_ratio"] <= 10.0
    assert audit["lower_ratio"] >= 0.1
    assert audit["core_spread"] <= 10.0


def test_eigengap_bounded_across_eps_ladder():
    gaps = []
    for eps in (0.1, 0.2, 0.3):
        audit = perturb.annulus_perturbation_audit(bumpy_scenario(eps), grids=(40, 256))
        assert audit["eigenvalue_ordering_ok"]
        gaps.append(audit["eigenvalue_gap"])
    assert all(0.0 < g <= 45.0 for g in gaps)


def test_regime_flag_enforced():
    with pytest.raises(ValueError):
        perturb.PerturbationScenario(kind="annulus", eps=0.1, a_eps=0.1, b_eps=0.0)


def test_scenario_parse_roundtrip(tmp_path):
    text = """
# sandwich config
kind = annulus
eps = 0.3
a_eps = 0.027
b_eps = 0.027
eta = 0.05
theta1 = 2.35619449019234
rmin = 0.9865 | 3:0.0135:0.0
rmax = 1.3135 | 5:0.0135:1.2
"""
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    sc = perturb.load_scenario(path)
    assert sc.kind == "annulus"
    assert sc.eps == 0.3
    assert sc.rmin_harmonics == ((3, 0.0135, 0.0),)
    rmin = sc.r_min()
    assert rmin(np.array([0.0]))[0] == pytest.approx(0.9865 + 0.0135)


def test_scenario_parse_box():
    sc = perturb.parse_scenario("kind = box\nb1 = 1 1\nb2 = 1.05 1.05\nnotch = 0.1")
    assert sc.kind == "box"
    assert sc.a_widths == (1.0, 1.0)
    assert sc.notch == 0.1


def test_scenario_parse_rejects_unknown_keys():
    with pytest.raises(ValueError):
        perturb.parse_scenario("kind = box\nb1 = 1 1\nb2 = 1 1\nbogus = 3")
    with pytest.raises(ValueError):
        perturb.parse_scenario("eps = 0.3")


def test_widening_exponent_sweep_reports():
    rows = perturb.widening_exponent_sweep(0.25, p_values=(2.0, 2.5, 3.0),
                                           grids=(32, 192))
    assert [r["p"] for r in rows] == [2.0, 2.5, 3.0]
    for row in rows:
        assert row["upper_ratio"] > 0 and row["lower_ratio"] > 0
    # coarser widening means a wider hull, hence a larger eigenvalue gap;
    # the sweep only reports the trend
    assert rows[0]["eigenvalue_gap"] > rows[-1]["eigenvalue_gap"]


def test_box_audit_dilation_invariant():
    base = perturb.PerturbationScenario(
        kind="box", a_widths=(1.0, 1.0), b_widths=(1.05, 1.05),
        notch=0.05, C1=0.2, C2=1.1)
    scaled = perturb.PerturbationScenario(
        kind="box", a_widths=(2.0, 2.0), b_widths=(2.1, 2.1),
        notch=0.1, C1=0.2, C2=1.1)
    a1 = perturb.box_perturbation_audit(base, h=1.0 / 64.0)
    a2 = perturb.box_perturbation_audit(scaled, h=1.0 / 32.0)
    assert a2["upper_ratio"] == pytest.approx(a1["upper_ratio"], rel=1e-9)
    assert a2["lower_ratio"] == pytest.approx(a1["lower_ratio"], rel=1e-9)
    assert a2["lam_u"] == pytest.approx(a1["lam_u"] / 4.0, rel=1e-9)


def _rgi_reference(sol, wrap):
    """The interpolant as it was built with scipy's RegularGridInterpolator."""
    from scipy.interpolate import RegularGridInterpolator

    r, th = sol.axes
    vals = sol.phi
    if wrap:
        th = np.concatenate([th, [th[0] + 2.0 * math.pi]])
        vals = np.concatenate([vals, vals[:, :1]], axis=1)
    rgi = RegularGridInterpolator((r, th), vals, bounds_error=False, fill_value=0.0)

    def fn(rr, tt):
        if wrap:
            tt = np.mod(tt, 2.0 * math.pi)
        return rgi(np.stack([rr.ravel(), tt.ravel()], axis=1)).reshape(rr.shape)

    return fn


def _sector_scenario():
    return perturb.PerturbationScenario(
        kind="annulus", eps=0.3, a_eps=0.027, b_eps=0.027, eta=0.05, theta1=2.0,
        rmin_const=0.99, rmax_const=1.31)


@pytest.mark.parametrize("wrap", [True, False])
def test_interp_on_matches_regular_grid_interpolator(wrap):
    scenario = bumpy_scenario() if wrap else _sector_scenario()
    dom = spectral2d.PolarDomain2D(
        r_min=scenario.r_min(), r_max=scenario.r_max(), wrap=wrap,
        **({} if wrap else {"theta_lo": -0.05, "theta_hi": 2.05}))
    sol = spectral2d.solve_polar(dom, 16, 96)
    r, th = sol.axes
    # query axes: the grid's own nodes, then points around and beyond them
    rng = np.random.default_rng(7)
    rr = np.concatenate([r, rng.uniform(r[0] - 0.05, r[-1] + 0.05, 120), [r[-1], r[0] - 1e-9]])
    tt = np.concatenate([th, rng.uniform(-7.0, 14.0, 150), [th[-1], th[0] + 2.0 * math.pi]])
    RR, TT = np.meshgrid(rr, tt, indexing="ij")
    select = rng.random(RR.shape) < 0.7
    interp = perturb._interp_on(sol, wrap)
    got = interp((rr, tt), select)
    assert np.array_equal(got, _rgi_reference(sol, wrap)(RR[select], TT[select]))
    every = interp((rr, tt), np.ones(RR.shape, dtype=bool)).reshape(RR.shape)
    assert np.array_equal(every[:len(r), :len(th)], sol.phi)
    assert np.all(every[-1] == 0.0)
    if wrap:
        # theta outside [0, 2 pi) wraps onto the grid (up to the rounding of the shift)
        for turns in (-1.0, 2.0):
            shifted = interp((r, th + turns * 2.0 * math.pi), sol.mask | ~sol.mask)
            assert (np.max(np.abs(shifted - sol.phi.ravel()))
                    <= 1e-12 * np.max(sol.phi))
    else:
        assert np.all(every[:, (tt < th[0]) | (tt > th[-1])] == 0.0)


@pytest.mark.parametrize("scenario", [bumpy_scenario(), _sector_scenario()],
                         ids=["ring", "sector"])
def test_interp_on_equals_pointwise_bilinear_on_the_audit_grids(monkeypatch, scenario):
    # (interpolated grid, queried grid) as the audit pairs them: B at U's
    # nodes, U at A's nodes
    solves = []
    solve = spectral2d.solve_polar

    def keep(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(spectral2d, "solve_polar", keep)
    perturb.annulus_perturbation_audit(scenario, grids=(24, 192))
    sol_a, sol_b, sol_u = solves
    wrap = scenario.theta1 is None
    for sol, nodes in ((sol_b, sol_u), (sol_u, sol_a)):
        r, th = sol.axes
        vals = sol.phi
        R, TH = np.meshgrid(*nodes.axes, indexing="ij")
        if wrap:
            th = np.concatenate([th, [th[0] + 2.0 * math.pi]])
            vals = np.concatenate([vals, vals[:, :1]], axis=1)
            TH = np.mod(TH, 2.0 * math.pi)
        select = nodes.interior_mask(2)
        got = perturb._interp_on(sol, wrap)(nodes.axes, select)
        assert np.array_equal(got, numerics.bilinear((r, th), vals, R[select], TH[select]))


def test_box_phi_is_the_box_caricature_on_the_nodes():
    x = np.linspace(-1.05, 1.05, 85)
    y = np.linspace(-1.05, 1.05, 85)
    X, Y = np.meshgrid(x, y, indexing="ij")
    for widths, nodes in (((1.05, 1.05), (np.abs(X) < 1.0) & (np.abs(Y) < 1.04)),
                          ((1.0, 0.9), (np.abs(X) < 0.95) & (np.abs(Y) < 0.85))):
        expected = estimates.box_caricature(widths, np.stack([X[nodes], Y[nodes]], axis=1))
        assert np.array_equal(perturb._box_phi(widths, (x, y), nodes), expected)
    # a node on or beyond the box wall is refused, as box_caricature refuses it
    with pytest.raises(ValueError, match="outside the box"):
        perturb._box_phi((1.0, 1.0), (x, y), np.abs(X) <= 1.05)
