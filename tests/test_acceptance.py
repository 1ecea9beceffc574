"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Criterion 7 is asserted exactly as stated;
see the criterion's docstring for the measured values it produces.
"""

import math
import time

import numpy as np

from annulab import (
    auditors,
    bases,
    estimates,
    geometry,
    heatkernel,
    numerics,
    perturb,
    radial,
)


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def thin_spec(eps):
    return radial.AnnularDomainSpec(2, 1.0, 1.0 + eps, bases.full_sphere(2))


def test_criterion_01_radial_exactness():
    t0 = time.time()
    lam = radial.solve_radial(3, 1.0, 2.0, 0.0, N=4096)[0].lam
    elapsed = time.time() - t0
    rel = abs(lam - math.pi**2) / math.pi**2
    ok = rel <= 1e-8 and elapsed < 1.0
    assert _report(1, ok, f"lambda={lam:.10f} rel_err={rel:.2e} time={elapsed:.2f}s")


def test_criterion_02_annulus_eigenvalue_sandwich():
    failures = []
    total = 0
    for n in (2, 3, 4, 5):
        for x in (1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0):
            total += 1
            a, b = 1.0, float(x)
            lam = radial.solve_radial(n, a, b, 0.0, N=1024)[0].lam
            c1, c2 = estimates.annulus_eigenvalue_coefficients(n, x)
            lo, hi = c1 / (b - a) ** 2, c2 / (b - a) ** 2
            slack = 1e-6 * lam
            if not (lo - slack <= lam <= hi + slack):
                failures.append((n, x, lam, lo, hi))
    ok = not failures
    assert _report(2, ok, f"{total - len(failures)}/{total} sandwich cases pass"
                          + (f"; failures: {failures}" if failures else ""))


def test_criterion_03_base_decomposition_sandwich():
    cases = []
    for base in (bases.circle_arc(math.pi), bases.circle_arc(3.0 * math.pi / 4.0),
                 bases.orthant_intersection(3, 1), bases.orthant_intersection(3, 2)):
        for a, b in ((1.0, 1.2), (1.0, 2.0)):
            lam0 = bases.base_eigendata(base).lambda0
            lam = radial.solve_radial(base.n, a, b, lam0, N=1024)[0].lam
            lam_ann = radial.solve_radial(base.n, a, b, 0.0, N=1024)[0].lam
            slack = 1e-6 * lam
            ok = lam_ann + lam0 / b**2 - slack <= lam <= lam_ann + lam0 / a**2 + slack
            cases.append(ok)
    ok = all(cases)
    assert _report(3, ok, f"{sum(cases)}/{len(cases)} decomposition cases pass")


def test_criterion_04_thin_limit_asymptotic():
    eps = 0.01
    vals = {}
    for n in (2, 3, 4):
        lam = radial.solve_radial(n, 1.0, 1.0 + eps, 0.0, N=1024)[0].lam
        vals[n] = lam * eps**2 / math.pi**2
    ok = all(0.99 <= v <= 1.01 for v in vals.values())
    assert _report(4, ok, f"lambda eps^2/pi^2 = {vals}")


def test_criterion_05_caricature_comparability():
    details = []
    ok = True
    # thin and non-thin two-sided windows, n in {2, 3}
    for n in (2, 3):
        for a, b, fn in ((1.0, 1.5, estimates.thin_annulus_caricature),
                         (0.2, 1.0, estimates.wide_annulus_caricature)):
            res = radial.solve_radial(n, a, b, 0.0, N=2048)[0]
            keep = (res.grid > a + 0.05 * (b - a)) & (res.grid < b - 0.05 * (b - a))
            g0 = 1.0 / math.sqrt(bases.surface_measure(n))
            car = fn(n, a, b, res.grid[keep])
            sup, inf = estimates.comparability_audit(res.f[keep] * g0, car)
            spread = sup / inf
            details.append(f"n={n} ({a},{b}): {spread:.2f}")
            ok &= spread <= 10.0
    # exact separated cosine at n = 3
    res = radial.solve_radial(3, 1.0, 1.4, 0.0, N=4096)[0]
    keep = (res.grid > 1.02) & (res.grid < 1.38)
    car = estimates.separated_cosine_caricature(3, 1.0, 1.4, res.grid[keep])
    g0 = 1.0 / math.sqrt(4.0 * math.pi)
    sup, inf = estimates.comparability_audit(res.f[keep] * g0, car * g0)
    cos_spread = sup / inf
    ok &= abs(cos_spread - 1.0) <= 1e-3
    details.append(f"cosine form n=3: {cos_spread:.6f}")
    assert _report(5, ok, "; ".join(details))


def test_criterion_06_eigenvalue_sensitivity_scan():
    t_grid = [0.05, 0.1, 0.5, 1.0]
    rows3 = estimates.hadamard_scan(3, t_grid, N=2048)
    target = 2.0 * math.pi**2
    ok3 = all(abs(r["t3_dlam"] - target) <= 0.01 * target for r in rows3)
    rows2 = estimates.hadamard_scan(2, t_grid, N=2048)
    ok2 = all(10.0 <= r["t3_dlam"] <= 40.0 for r in rows2)
    ok = ok3 and ok2
    assert _report(6, ok, f"n=3: {[round(r['t3_dlam'], 3) for r in rows3]} "
                          f"(target {target:.3f}); "
                          f"n=2: {[round(r['t3_dlam'], 3) for r in rows2]}")


def test_criterion_07_eigengap_bound():
    """Gap between the shell (1, 1+eps) and its two-sided eps^3 hull.

    Asserted as specified: 0 < gap <= 20 with a_eps = b_eps = eps^3.  The
    measured two-sided gap approaches 2 pi^2 per widened side (~4 pi^2 ~ 39.5
    total) as eps -> 0, so the stated bound of 20 can only accommodate a
    one-sided widening; the two-sided case fails honestly.
    """
    gaps = {}
    ok = True
    for n in (2, 3):
        rows = estimates.eigengap_scan(n, [0.1, 0.2, 0.3], N=1024)
        for row in rows:
            gaps[(n, row["eps"])] = round(row["gap"], 3)
            ok &= 0.0 < row["gap"] <= 20.0
    _report(7, ok, f"gaps (bound 20): {gaps}")
    assert ok


def _audit_centers(eps):
    mids = [1.0 + eps / 2.0, 1.0 + eps / 10.0]
    angles = [0.3, 0.3 + math.pi / 2, 0.3 + math.pi, 0.3 + 3 * math.pi / 2]
    return [(r, th) for r in mids for th in angles]


def _dyadic_radii(eps, lo_factor=0.125):
    radii = [eps * lo_factor]
    while radii[-1] < math.pi:
        radii.append(radii[-1] * 2.0)
    return radii


def test_criterion_08_volume_doubling_stability():
    ladder = (1.0, 0.5, 0.25, 0.1)
    ok = True
    details = []
    for tag in ("phi2", "uniform"):
        ds = []
        for eps in ladder:
            spec = thin_spec(eps)
            w = (geometry.dirichlet_weight(spec, N=512) if tag == "phi2"
                 else geometry.uniform_weight(spec))
            rep = auditors.doubling_profile(spec, w, _audit_centers(eps),
                                            _dyadic_radii(eps))
            ds.append(rep.summary["doubling_max"])
        ok &= all(d < 64.0 for d in ds)
        steps = [abs(ds[i + 1] - ds[i]) / ds[i] for i in range(len(ds) - 1)]
        ok &= all(s < 0.25 for s in steps)
        details.append(f"{tag}: D={[round(d, 3) for d in ds]} steps={[round(s, 3) for s in steps]}")
    # oracle: interval doubling row against adaptive brute force to 2%
    model = geometry.interval_model(
        0.0, 1.0, lambda x: 2.0 * np.sin(math.pi * x) ** 2, n_cells=4096)
    rep = auditors.doubling_profile_model(model, [0.0, 0.25, 0.5],
                                          [0.5, 0.25, 0.125, 0.0625])
    density = lambda x: 2.0 * math.sin(math.pi * x) ** 2
    for row in rep.rows:
        oracle = auditors.interval_doubling_brute_force(0.0, 1.0, density,
                                                        row["center"], row["r"])
        ok &= abs(row["ratio"] - oracle) <= 0.02 * oracle
    details.append("interval rows match brute force to 2%")
    assert _report(8, ok, "; ".join(details))


def test_criterion_09_poincare_stability():
    ladder = (1.0, 0.5, 0.25, 0.1)
    window = (0.01, 1.0)
    ok = True
    details = []
    for eps in ladder:
        spec = thin_spec(eps)
        w = geometry.dirichlet_weight(spec, N=512)
        centers = [(1.0 + eps / 2.0, 0.3), (1.0 + eps / 10.0, 0.3 + math.pi)]
        radii = [r for r in _dyadic_radii(eps, lo_factor=0.5)]
        rep = auditors.poincare_profile(spec, w, centers, radii,
                                        mode="continuous", epsilon=eps)
        lo, hi = rep.summary["poincare_min"], rep.summary["poincare_max"]
        ok &= window[0] <= lo and hi <= window[1]
        details.append(f"eps={eps}: P in [{lo:.3f}, {hi:.3f}]")
    # discrete vs continuous on matched interior balls, factor 4
    qs = []
    for eps in (0.5, 0.25, 0.1):
        spec = thin_spec(eps)
        w = geometry.dirichlet_weight(spec, N=512)
        centers = [(1.0 + eps / 2.0, 0.3), (1.0 + eps / 10.0, 0.3 + math.pi)]
        radii = sorted({r for r in (2 * eps, 4 * eps, 8 * eps, 1.5)
                        if 2 * eps <= r <= 1.58})
        cont = auditors.poincare_profile(spec, w, centers, radii,
                                         mode="continuous", epsilon=eps)
        disc = auditors.poincare_profile(spec, w, centers, radii,
                                         mode="discrete", epsilon=eps)
        for rc, rd in zip(cont.rows, disc.rows):
            if "poincare" in rc and "poincare" in rd:
                qs.append(rd["poincare"] / rc["poincare"])
    ok &= all(0.25 <= q <= 4.0 for q in qs)
    details.append(f"discrete/continuous in [{min(qs):.3f}, {max(qs):.3f}] over {len(qs)} balls")
    assert _report(9, ok, "; ".join(details))


def test_criterion_10_sector_counterexample():
    t0 = time.time()
    betas = [1.0 / 3.0, 0.25, 0.2, 1.0 / 6.0, 0.125]
    report = auditors.sector_counterexample(betas, nodes=4096)
    elapsed = time.time() - t0
    rows = {round(r["beta"], 6): r for r in report.rows}
    r8 = rows[round(0.125, 6)]
    ok = abs(r8["log_v_full"] - r8["log_v_predicted"]) <= 0.25 * abs(r8["log_v_predicted"])
    for beta in (1.0 / 3.0, 0.25, 0.2):
        row = rows[round(beta, 6)]
        ok &= row["doubling_ratio"] >= 0.5 * row["predicted_ratio"]
    ok &= report.summary["ratio_increasing_as_beta_shrinks"]
    ok &= elapsed < 10.0
    assert _report(10, ok,
                   f"logV(1/8)={r8['log_v_full']:.3f} vs {r8['log_v_predicted']:.3f}; "
                   f"ratios={[round(rows[round(b, 6)]['doubling_ratio'], 1) for b in betas]}; "
                   f"time={elapsed:.1f}s")


def test_criterion_11_heat_kernel_oracle():
    spectrum = heatkernel.interval_spectrum(1.0, 200)
    worst = 0.0
    for x, y in [(0.0, 0.0), (0.4, -0.3), (0.8, 0.75)]:
        p, _ = heatkernel.kernel_eval(spectrum, 0.1, [x], [y])
        oracle = heatkernel.images_kernel_interval(1.0, 0.1, x, y)
        worst = max(worst, abs(p - oracle))
    ok = worst <= 1e-10
    # Chapman-Kolmogorov on the interval
    zs = np.linspace(-1.0, 1.0, 1201)
    w = numerics.trapezoid_weights(zs)
    pts = np.concatenate([[0.1, -0.4], zs])[:, None]
    Pt = heatkernel.kernel_matrix(spectrum, 0.2, pts)
    Ps = heatkernel.kernel_matrix(spectrum, 0.35, pts)
    composed = float(np.sum(Pt[0, 2:] * Ps[2:, 1] * w))
    direct, _ = heatkernel.kernel_eval(spectrum, 0.55, [0.1], [-0.4])
    ck_err = abs(composed - direct)
    ok &= ck_err <= 1e-6
    assert _report(11, ok, f"images max err={worst:.2e}; CK err={ck_err:.2e}")


def test_criterion_12_equilibration():
    # box: fitted decay rate against the spectral gap
    spectrum = heatkernel.interval_spectrum(1.0, 60)
    pts = np.linspace(-0.9, 0.9, 7)[:, None]
    audit_box = heatkernel.equilibration_audit(spectrum, np.linspace(0.5, 4.0, 12), pts)
    rel_box = abs(audit_box["fitted_rate"] - audit_box["spectral_gap"]) / audit_box["spectral_gap"]
    # thin annulus
    spec = thin_spec(0.1)
    sp_ann = radial.assemble_spectrum(spec, M_base=12, K_radial=2, N=256)
    th = 0.3 + 2.0 * math.pi * np.arange(5) / 5.0
    pts_ann = np.array([(1.05, t) for t in th] + [(1.02, t) for t in th[:3]])
    audit_ann = heatkernel.equilibration_audit(sp_ann, np.linspace(2.0, 14.0, 13), pts_ann)
    rel_ann = abs(audit_ann["fitted_rate"] - audit_ann["spectral_gap"]) / audit_ann["spectral_gap"]
    # box deviation envelope C (a/sqrt(t))^3 for t >= a^2 with C <= 10
    box_env = heatkernel.box_kernel_bounds_check(
        heatkernel.Box((1.0,)), [1.0, 2.0, 4.0, 8.0, 16.0])
    ok = rel_box <= 0.05 and rel_ann <= 0.05 and box_env["deviation_constant"] <= 10.0
    assert _report(12, ok, f"box rate rel={rel_box:.3f}; annulus rate rel={rel_ann:.3f}; "
                           f"envelope C={box_env['deviation_constant']:.3f}")


def _hke_fit(eps):
    spec = thin_spec(eps)
    diam2 = math.pi**2
    t_grid = [eps**2, 4 * eps**2, 0.1 * diam2, diam2]
    m_max = 8
    while m_max**2 * min(t_grid) < math.log(1e10) and m_max < 256:
        m_max *= 2
    spectrum = radial.assemble_spectrum(spec, M_base=m_max, K_radial=3, N=256)
    weight = geometry.dirichlet_weight(spec)
    return heatkernel.gaussian_hke_audit(spec, t_grid, weight, spectrum)


def test_criterion_13_gaussian_envelope_fit():
    fits = {eps: _hke_fit(eps) for eps in (0.1, 0.05)}
    ok = True
    details = []
    for eps, fit in fits.items():
        ok &= not fit.get("degenerate", False)
        for key in ("c_lo", "c_hi", "c2", "c4"):
            ok &= math.isfinite(fit[key]) and fit[key] > 0
        details.append(f"eps={eps}: c_lo={fit['c_lo']:.3f} c_hi={fit['c_hi']:.3f} "
                       f"c2={fit['c2']:.3f}")
    for key in ("c_lo", "c_hi", "c2", "c4"):
        drift = abs(fits[0.05][key] - fits[0.1][key]) / fits[0.1][key]
        ok &= drift < 0.5
    assert _report(13, ok, "; ".join(details))


def test_criterion_14_perturbation_audits():
    ok = True
    details = []
    # identity scenarios: ratios 1 +/- 2e-2
    box_id = perturb.box_perturbation_audit(
        perturb.PerturbationScenario(kind="box", a_widths=(1.0, 1.0),
                                     b_widths=(1.0, 1.0), C1=0.1, C2=1.01),
        h=1.0 / 128.0)
    ann_id = perturb.annulus_perturbation_audit(
        perturb.PerturbationScenario(kind="annulus", eps=0.3, a_eps=0.0, b_eps=0.0),
        grids=(40, 256))
    for name, audit in (("box-id", box_id), ("annulus-id", ann_id)):
        ok &= abs(audit["upper_ratio"] - 1.0) <= 2e-2
        ok &= abs(audit["lower_ratio"] - 1.0) <= 2e-2
        ok &= audit["eigenvalue_ordering_ok"]
        details.append(f"{name}: [{audit['lower_ratio']:.3f}, {audit['upper_ratio']:.3f}]")
    # notched box sandwich
    box_audit = perturb.box_perturbation_audit(
        perturb.PerturbationScenario(kind="box", a_widths=(1.0, 1.0),
                                     b_widths=(1.05, 1.05), notch=0.05,
                                     C1=0.2, C2=1.1),
        h=1.0 / 128.0)
    ok &= box_audit["upper_ratio"] <= 10.0 and box_audit["lower_ratio"] >= 0.1
    ok &= box_audit["eigenvalue_ordering_ok"]
    details.append(f"box-notch: [{box_audit['lower_ratio']:.3f}, {box_audit['upper_ratio']:.3f}]")
    # bumpy shell sandwich
    eps = 0.3
    cube = eps**3
    ann_audit = perturb.annulus_perturbation_audit(
        perturb.PerturbationScenario(
            kind="annulus", eps=eps, a_eps=cube, b_eps=cube,
            rmin_const=1.0 - cube / 2.0, rmin_harmonics=((8, cube / 2.0, 0.0),),
            rmax_const=1.0 + eps + cube / 2.0, rmax_harmonics=((9, cube / 2.0, 0.7),),
        ),
        grids=(48, 384))
    ok &= ann_audit["upper_ratio"] <= 10.0 and ann_audit["lower_ratio"] >= 0.1
    ok &= ann_audit["core_spread"] <= 10.0
    ok &= ann_audit["eigenvalue_ordering_ok"]
    details.append(f"annulus-bumpy: [{ann_audit['lower_ratio']:.3f}, "
                   f"{ann_audit['upper_ratio']:.3f}] spread={ann_audit['core_spread']:.2f}")
    assert _report(14, ok, "; ".join(details))
