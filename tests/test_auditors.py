import functools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annulab import auditors, bases, geometry, radial, specfun


def thin_spec(eps):
    return radial.AnnularDomainSpec(2, 1.0, 1.0 + eps, bases.full_sphere(2))


def interval_sin2_model(n_cells=4096):
    return geometry.interval_model(
        0.0, 1.0, lambda x: 2.0 * np.sin(math.pi * x) ** 2, n_cells=n_cells,
    )


def test_interval_doubling_bounded_and_matches_brute_force():
    model = interval_sin2_model()
    centers = [0.0, 0.25, 0.5]
    radii = [0.5, 0.25, 0.125, 0.0625]
    report = auditors.doubling_profile_model(model, centers, radii)
    assert report.summary["doubling_max"] <= 16.0
    assert report.summary["skipped"] == 0
    # every row against the adaptive-quadrature oracle
    density = lambda x: 2.0 * math.sin(math.pi * x) ** 2
    for row in report.rows:
        oracle = auditors.interval_doubling_brute_force(
            0.0, 1.0, density, row["center"], row["r"]
        )
        assert row["ratio"] == pytest.approx(oracle, rel=0.02)


def test_doubling_ratios_at_least_one():
    model = interval_sin2_model(1024)
    report = auditors.doubling_profile_model(model, [0.3, 0.7], [0.1, 0.2])
    for row in report.rows:
        assert row["ratio"] >= 1.0


def test_annulus_uniform_interior_ratio_near_four():
    spec = thin_spec(0.1)
    weight = geometry.uniform_weight(spec)
    report = auditors.doubling_profile_model(
        geometry.annulus_model(spec, weight, 400, 16384), [(1.05, math.pi)], [0.01]
    )
    assert report.rows[0]["ratio"] == pytest.approx(4.0, rel=0.05)


def test_thin_annulus_doubling_bounded():
    spec = thin_spec(0.1)
    for weight in (geometry.dirichlet_weight(spec, N=512), geometry.uniform_weight(spec)):
        centers = [(1.0 + 0.05, th) for th in (0.0, 1.5, 3.0)]
        centers += [(1.0 + 0.01, th) for th in (0.0, 3.0)]
        radii = [0.05, 0.1, 0.4, 1.6, 3.2]
        report = auditors.doubling_profile(spec, weight, centers, radii)
        assert report.summary["doubling_max"] < 64.0, weight.tag


def test_poincare_interval_uniform_whole_domain():
    model = geometry.interval_model(0.0, 1.0, lambda x: np.ones_like(x), n_cells=2048)
    mu2 = auditors.zero_flux_gap(model, np.arange(2048))
    assert mu2 == pytest.approx(math.pi**2, rel=1e-3)
    # P over the whole interval (r = diameter = 1): 1/pi^2
    assert 1.0 / mu2 == pytest.approx(0.10132, rel=2e-3)


def test_poincare_interval_weighted_two_resolution_oracle():
    coarse = geometry.interval_model(
        0.0, 1.0, lambda x: 2.0 * np.sin(math.pi * x) ** 2, n_cells=512
    )
    fine = geometry.interval_model(
        0.0, 1.0, lambda x: 2.0 * np.sin(math.pi * x) ** 2, n_cells=4096
    )
    mu_c = auditors.zero_flux_gap(coarse, np.arange(512))
    mu_f = auditors.zero_flux_gap(fine, np.arange(4096))
    assert mu_c == pytest.approx(mu_f, rel=0.02)


@functools.lru_cache(maxsize=None)
def small_model(base: str, weight: str, nr: int, nt: int):
    """A coarse model of the shell (1, 1.3) over a circle or the arc (0, 2)."""
    spec = radial.AnnularDomainSpec(
        2, 1.0, 1.3, bases.full_sphere(2) if base == "circle" else bases.circle_arc(2.0))
    w = geometry.dirichlet_weight(spec, N=256) if weight == "phi2" else geometry.uniform_weight(spec)
    return geometry.annulus_model(spec, w, nr=nr, ntheta=nt)


@st.composite
def small_balls(draw):
    """(model, center, radius): centers anywhere, radii from under a cell to
    past the whole shell, so balls reach single rows and columns, arcs across
    the seam and the whole circle."""
    model = small_model(draw(st.sampled_from(["circle", "arc"])),
                        draw(st.sampled_from(["phi2", "uniform"])),
                        draw(st.integers(4, 12)), draw(st.integers(8, 128)))
    window = model.th[-1] + model.ht / 2.0
    center = (draw(st.floats(1.0, 1.3)), draw(st.floats(0.0, window)))
    return model, center, math.exp(draw(st.floats(math.log(0.005), math.log(4.0))))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(small_balls())
@example((small_model("circle", "phi2", 8, 32), (1.15, 0.05), 1.0)).via("arc across the seam")
@example((small_model("circle", "uniform", 8, 32), (1.15, 2.0), 3.5)).via("whole circle")
@example((small_model("circle", "phi2", 4, 128), (1.0375, 2.0), 0.07)).via("single row")
@example((small_model("arc", "phi2", 12, 8), (1.15, 0.875), 0.1)).via("single column")
@example((small_model("arc", "uniform", 6, 40), (1.2, 0.0), 0.3)).via("arc end")
def test_separated_gap_matches_the_two_dimensional_oracle(case):
    model, center, radius = case
    rows, arc = model.ball(center, radius)
    ids = model.ball_ids(center, radius)
    nt = len(model.th)
    cols = (arc[0] + np.arange(arc[1])) % nt
    assert np.array_equal(np.sort((np.arange(rows.start, rows.stop)[:, None] * nt + cols).ravel()), ids)
    oracle = auditors.zero_flux_gap(model, ids)
    gap = auditors.separated_gap(model, rows, arc)
    if math.isnan(oracle):
        assert math.isnan(gap)
    else:
        assert gap == pytest.approx(oracle, rel=1e-9, abs=0.0)


def test_poincare_profile_matches_the_two_dimensional_oracle():
    for base in (bases.full_sphere(2), bases.circle_arc(2.0)):
        spec = radial.AnnularDomainSpec(2, 1.0, 1.1, base)
        for weight in (geometry.dirichlet_weight(spec, N=512), geometry.uniform_weight(spec)):
            centers = [(1.05, 0.0), (1.01, 1.0)]
            radii = [0.05, 0.2, 0.8, 3.2]
            report = auditors.poincare_profile(spec, weight, centers, radii, "continuous", 0.1)
            model = geometry.annulus_model(spec, weight, *geometry.resolving_grid(spec, 0.05))
            for row in report.rows:
                ids = model.ball_ids((row["center_r"], row["center_th"]), row["r"])
                assert row["mu2"] == pytest.approx(auditors.zero_flux_gap(model, ids), rel=1e-10)


def test_poincare_continuous_thin_annulus_window():
    spec = thin_spec(0.1)
    weight = geometry.dirichlet_weight(spec, N=512)
    centers = [(1.05, 0.0), (1.02, 2.0)]
    radii = [0.05, 0.1, 0.5, 1.0, 3.2]
    report = auditors.poincare_profile(spec, weight, centers, radii,
                                       mode="continuous", epsilon=0.1)
    assert report.summary["skipped"] == 0
    assert 0.01 <= report.summary["poincare_min"]
    assert report.summary["poincare_max"] <= 1.0


def test_poincare_discrete_matches_continuous_within_factor_four():
    spec = thin_spec(0.25)
    weight = geometry.dirichlet_weight(spec, N=512)
    centers = [(1.125, 0.0)]
    radii = [1.0, 2.0, 3.2]
    cont = auditors.poincare_profile(spec, weight, centers, radii,
                                     mode="continuous", epsilon=0.25)
    disc = auditors.poincare_profile(spec, weight, centers, radii,
                                     mode="discrete", epsilon=0.25)
    for rc, rd in zip(cont.rows, disc.rows):
        assert "poincare" in rc and "poincare" in rd
        q = rd["poincare"] / rc["poincare"]
        assert 0.25 <= q <= 4.0, (rc, rd)


def test_sector_counterexample_predictions():
    t0 = time.time()
    report = auditors.sector_counterexample([1.0 / 3.0, 0.25, 0.2, 1.0 / 6.0, 0.125], nodes=4096)
    elapsed = time.time() - t0
    rows = {round(r["beta"], 6): r for r in report.rows}
    # beta = 0.2: predicted doubling ratio 4 * 2^10 = 4096
    assert rows[0.2]["predicted_ratio"] == pytest.approx(4096.0)
    assert rows[0.2]["doubling_ratio"] >= 0.5 * 4096.0
    # log volume at beta = 1/8 within 25% of the closed-form asymptote
    r8 = rows[round(0.125, 6)]
    assert abs(r8["log_v_full"] - r8["log_v_predicted"]) <= 0.25 * abs(r8["log_v_predicted"])
    # doubling ratio strictly increases as beta decreases
    assert report.summary["ratio_increasing_as_beta_shrinks"]
    assert all(r["flag"] == "" for r in report.rows)
    assert elapsed < 10.0


def test_sector_contrast_with_thin_annulus():
    # at beta = 1/5 the sector's center-ball doubling ratio dwarfs anything
    # a thin annulus shows: non-uniformity of doubling in family form
    sector = auditors.sector_counterexample([0.2], nodes=4096).rows[0]["doubling_ratio"]
    spec = thin_spec(0.1)
    weight = geometry.dirichlet_weight(spec, N=512)
    centers = [(1.05, 0.0), (1.01, 1.0)]
    radii = [0.05, 0.1, 0.4, 1.6]
    annulus_max = auditors.doubling_profile(spec, weight, centers, radii).summary["doubling_max"]
    assert sector >= 100.0 * annulus_max


@pytest.mark.parametrize("nodes", [4096, 3001])
def test_sector_half_ball_shares_the_check_grid_to_the_bit(nodes):
    # the half-ball integral is summed over the first half of the
    # refinement check's midpoints; it equals a quadrature of its own on [0, 1/2]
    for row in auditors.sector_counterexample([0.25, 0.0625], nodes=nodes).rows:
        nu = 1.0 / row["beta"]
        log_j1 = specfun.bessel_j_log(nu + 1.0, row["alpha"])[0]
        log_i_half = auditors._log_midpoint_integral(nu, 0.5, nodes)
        assert row["log_v_half"] == (math.log(2.0) + log_i_half - 2.0 * math.log(row["alpha"])
                                     - 2.0 * log_j1)


def test_sector_rejects_bad_beta():
    with pytest.raises(ValueError):
        auditors.sector_counterexample([0.7], nodes=4096)


def test_poincare_uniform_weight_same_window():
    # the constant-weight (Neumann) mode lands in the same window as the
    # weighted audits
    spec = thin_spec(0.25)
    weight = geometry.uniform_weight(spec)
    centers = [(1.125, 0.3), (1.02, 0.3 + math.pi)]
    radii = [0.125, 0.5, 1.0, 3.2]
    rep = auditors.poincare_profile(spec, weight, centers, radii,
                                    mode="continuous", epsilon=0.25)
    assert rep.summary["skipped"] == 0
    assert 0.01 <= rep.summary["poincare_min"]
    assert rep.summary["poincare_max"] <= 1.0
