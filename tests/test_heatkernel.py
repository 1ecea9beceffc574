import inspect
import itertools
import math
import pickle

import numpy as np
import pytest

from annulab import bases, heatkernel, numerics, radial


def test_spectral_kernel_matches_images_oracle():
    spectrum = heatkernel.interval_spectrum(1.0, 200)
    for x, y in [(0.0, 0.0), (0.3, -0.5), (0.9, 0.85)]:
        p, tail = heatkernel.kernel_eval(spectrum, 0.1, [x], [y])
        oracle = heatkernel.images_kernel_interval(1.0, 0.1, x, y)
        assert abs(p - oracle) <= 1e-10
        assert tail <= 1e-8 * abs(p)


def test_kernel_symmetry():
    spectrum = heatkernel.interval_spectrum(1.0, 100)
    p1, _ = heatkernel.kernel_eval(spectrum, 0.3, [0.2], [-0.7])
    p2, _ = heatkernel.kernel_eval(spectrum, 0.3, [-0.7], [0.2])
    assert abs(p1 - p2) <= 1e-12


def test_kernel_positive_and_submarkov():
    spectrum = heatkernel.interval_spectrum(1.0, 160)
    xs = np.linspace(-0.999, 0.999, 801)
    w = numerics.trapezoid_weights(xs)
    for t in (0.05, 0.5, 2.0):
        P = heatkernel.kernel_matrix(spectrum, t, xs[:, None])
        assert np.all(P.diagonal() > 0)
        masses = P @ w
        assert np.max(masses) <= 1.0 + 1e-9


def test_chapman_kolmogorov():
    spectrum = heatkernel.interval_spectrum(1.0, 160)
    zs = np.linspace(-1.0, 1.0, 1201)
    w = numerics.trapezoid_weights(zs)
    t, s = 0.2, 0.35
    x, y = 0.1, -0.4
    pts = np.concatenate([[x, y], zs])[:, None]
    Pt = heatkernel.kernel_matrix(spectrum, t, pts)
    Ps = heatkernel.kernel_matrix(spectrum, s, pts)
    composed = float(np.sum(Pt[0, 2:] * Ps[2:, 1] * w))
    direct, _ = heatkernel.kernel_eval(spectrum, t + s, [x], [y])
    assert composed == pytest.approx(direct, abs=1e-6)


def test_large_time_spectral_dominance():
    spectrum = heatkernel.interval_spectrum(1.0, 50)
    gap = spectrum.spectral_gap()
    t = 20.0 / gap
    x, y = 0.25, -0.6
    R = heatkernel.normalized_kernel_value(spectrum, t, [x], [y])
    assert R == pytest.approx(1.0, rel=1e-6)


def test_insufficient_spectrum_raises():
    spectrum = heatkernel.interval_spectrum(1.0, 6)
    with pytest.raises(heatkernel.InsufficientSpectrumError):
        heatkernel.kernel_eval(spectrum, 1e-4, [0.1], [0.1])


def test_diagonal_deviation_monotone_in_tail():
    spectrum = heatkernel.interval_spectrum(1.0, 60)
    x = np.array([[0.3]])
    devs = []
    for t in np.linspace(0.5, 3.0, 11):
        R = heatkernel.normalized_kernel_matrix(spectrum, t, x)
        devs.append(abs(R[0, 0] - 1.0))
    assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))


def test_equilibration_rate_matches_gap_box():
    spectrum = heatkernel.interval_spectrum(1.0, 60)
    pts = np.linspace(-0.9, 0.9, 7)[:, None]
    audit = heatkernel.equilibration_audit(spectrum, np.linspace(0.5, 4.0, 12), pts)
    assert audit["fitted_rate"] == pytest.approx(audit["spectral_gap"], rel=0.05)


def test_equilibration_rate_matches_gap_thin_annulus():
    spec = radial.AnnularDomainSpec(2, 1.0, 1.1, bases.full_sphere(2))
    spectrum = radial.assemble_spectrum(spec, M_base=12, K_radial=2, N=256)
    th = 2.0 * math.pi * np.arange(5) / 5.0
    pts = np.array([(1.05, t) for t in th] + [(1.02, t) for t in th[:3]])
    t_grid = np.linspace(2.0, 14.0, 13)
    audit = heatkernel.equilibration_audit(spectrum, t_grid, pts)
    assert audit["fitted_rate"] == pytest.approx(audit["spectral_gap"], rel=0.05)
    # killing happens at 1/lam1 ~ (b-a)^2/pi^2, far below the mixing scale
    lam1 = spectrum.eigenvalues[0]
    diam2 = math.pi**2
    assert 1.0 / lam1 < 0.02 * diam2
    first = [r for r in audit["rows"] if r["t"] >= diam2][0]
    assert first["sup_dev"] < 1.0


def test_box_kernel_envelopes_1d():
    box = heatkernel.Box((1.0,))
    audit = heatkernel.box_kernel_bounds_check(box, [1.0, 2.0, 4.0, 8.0, 16.0, 64.0])
    assert audit["deviation_constant"] <= 2.0
    assert audit["fitted_upper_constant"] <= 2.0
    # both envelopes close onto 1 at late times
    last = audit["rows"][-1]
    assert last["max_ratio"] == pytest.approx(1.0, abs=1e-4)
    assert last["min_ratio"] == pytest.approx(1.0, abs=1e-4)


def test_box_kernel_product_identity():
    box2 = heatkernel.Box((1.0, 0.5))
    s2 = heatkernel.box_spectrum(box2, 40)
    s1a = heatkernel.interval_spectrum(1.0, 40)
    s1b = heatkernel.interval_spectrum(0.5, 40)
    t = 0.7
    x = np.array([[0.2, 0.1]])
    y = np.array([[-0.5, 0.3]])
    R2 = heatkernel.normalized_kernel_value(s2, t, x, y)
    Ra = heatkernel.normalized_kernel_value(s1a, t, [[0.2]], [[-0.5]])
    Rb = heatkernel.normalized_kernel_value(s1b, t, [[0.1]], [[0.3]])
    assert R2 == pytest.approx(Ra * Rb, abs=1e-12)


def test_box_spectrum_orthonormal():
    spectrum = heatkernel.box_spectrum(heatkernel.Box((1.0, 0.5)), 4)
    xs = np.linspace(-1.0, 1.0, 401)
    ys = np.linspace(-0.5, 0.5, 201)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    w = np.outer(numerics.trapezoid_weights(xs), numerics.trapezoid_weights(ys)).ravel()
    vals = spectrum.modes(pts)
    gram = (vals * w) @ vals.T
    assert np.allclose(gram, np.eye(len(gram)), atol=1e-6)


def _box_modes_reference(half_widths, per_axis, pts):
    """Eigenvalues and modes of a box, one product of sines per mode."""
    lams, vals = [], []
    for multi in itertools.product(range(1, per_axis + 1), repeat=len(half_widths)):
        lams.append(sum((j * math.pi / (2.0 * a)) ** 2 for j, a in zip(multi, half_widths)))
        col = np.ones(len(pts))
        for d, (j, a) in enumerate(zip(multi, half_widths)):
            col = col * np.sin(j * math.pi * (pts[:, d] + a) / (2.0 * a)) / math.sqrt(a)
        vals.append(col)
    order = np.argsort(lams)
    return np.asarray(lams)[order], np.asarray(vals)[order]


@pytest.mark.parametrize("half_widths, per_axis", [
    ((1.0,), 12), ((1.0, 0.5), 6), ((0.7, 1.0, 1.3), 4),
], ids=["1d", "2d", "3d"])
def test_box_modes_match_per_mode_formula(half_widths, per_axis):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(23, len(half_widths))) * np.asarray(half_widths)
    spectrum = heatkernel.box_spectrum(heatkernel.Box(half_widths), per_axis)
    lams, vals = _box_modes_reference(half_widths, per_axis, pts)
    assert np.array_equal(spectrum.eigenvalues, lams)
    assert np.allclose(spectrum.modes(pts), vals, rtol=0.0, atol=1e-13)


def _shell_modes_reference(spec, M_base, K_radial, N, pts):
    """Eigenvalues and modes of a planar shell, radial times angular per mode."""
    if spec.base.kind == "arc":
        t1 = spec.base.theta1
        levels = [((j * math.pi / t1) ** 2,
                   [lambda th, j=j: math.sqrt(2.0 / t1) * np.sin(j * math.pi * th / t1)])
                  for j in range(1, M_base + 1)]
    else:
        levels = [(0.0, [lambda th: np.full(th.shape, 1.0 / math.sqrt(2.0 * math.pi))])]
        levels += [(float(m * m), [lambda th, m=m: np.cos(m * th) / math.sqrt(math.pi),
                                   lambda th, m=m: np.sin(m * th) / math.sqrt(math.pi)])
                   for m in range(1, M_base)]
    lams, vals = [], []
    for lam0, angular in levels:
        for res in radial.solve_radial(spec.n, spec.a, spec.b, lam0, N=N, k=K_radial):
            for g in angular:
                lams.append(res.lam)
                vals.append(np.interp(pts[:, 0], res.grid, res.f) * g(pts[:, 1]))
    order = np.argsort(lams)
    return np.asarray(lams)[order], np.asarray(vals)[order]


@pytest.mark.parametrize("base", [bases.full_sphere(2), bases.circle_arc(math.pi / 2.0)],
                         ids=["circle", "arc"])
def test_shell_modes_match_per_mode_formula(base):
    spec = radial.AnnularDomainSpec(2, 1.0, 1.5, base)
    window = 2.0 * math.pi if base.kind == "full_sphere" else base.theta1
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(1.0, 1.5, 31), rng.uniform(0.0, window, 31)])
    pts[:2, 0] = (1.0, 1.5)
    spectrum = radial.assemble_spectrum(spec, M_base=5, K_radial=3, N=128)
    lams, vals = _shell_modes_reference(spec, 5, 3, 128, pts)
    assert np.array_equal(spectrum.eigenvalues, lams)
    assert np.allclose(spectrum.modes(pts), vals, rtol=0.0, atol=1e-13)


def test_shell_modes_refuse_radii_outside_the_shell():
    spec = radial.AnnularDomainSpec(2, 1.0, 2.0, bases.full_sphere(2))
    spectrum = radial.assemble_spectrum(spec, M_base=2, K_radial=1, N=64)
    ends = spectrum.modes([[1.0, 0.3], [2.0, 0.3]])
    assert np.all(ends == 0.0)
    for r in (0.9, 2.0 + 1e-12):
        with pytest.raises(ValueError, match=r"\[a, b\] = \[1, 2\]"):
            spectrum.modes([[r, 0.3]])
        with pytest.raises(ValueError, match=r"\[a, b\] = \[1, 2\]"):
            heatkernel.normalized_kernel_value(spectrum, 1.0, (1.5, 0.3), (r, 0.3))


def _diagonal_sum(spectrum, t, pts):
    """sum_k e^(-lam_k t) phi_k(x)^2 at each point, over the kept modes."""
    return np.exp(-spectrum.eigenvalues * t) @ spectrum.modes(pts) ** 2


@pytest.mark.parametrize("count, t", [(6, 1e-9), (6, 1e-3), (6, 0.05), (20, 1e-3), (60, 1e-4)])
def test_tail_bound_majorizes_interval_omitted_sum(count, t):
    spectrum = heatkernel.interval_spectrum(1.0, count)
    xs = np.linspace(-0.95, 0.95, 9)
    full = np.array([heatkernel.images_kernel_interval(1.0, t, x, x) for x in xs])
    omitted = full - _diagonal_sum(spectrum, t, xs[:, None])
    tail = spectrum.tail_bound(t)
    assert tail >= omitted.max() > 0.0
    lam1 = spectrum.eigenvalues[0]
    assert spectrum.tail_bound(t, lam1) == pytest.approx(math.exp(lam1 * t) * tail, rel=1e-12)


def _thin_shell_spectrum(M_base):
    spec = radial.AnnularDomainSpec(2, 1.0, 1.1, bases.full_sphere(2))
    return radial.assemble_spectrum(spec, M_base=M_base, K_radial=3, N=256)


def test_thin_shell_short_time_is_refused():
    # the omitted family m = 8 starts near 1040, far below the last kept eigenvalue
    spectrum = _thin_shell_spectrum(8)
    assert spectrum.omitted_floor == pytest.approx(math.pi**2 / 0.1**2 + (64 - 0.25) / 1.1**2)
    assert spectrum.omitted_floor < spectrum.eigenvalues[-1]
    pts = np.array([(1.05, 0.3), (1.03, 1.0)])
    with pytest.raises(heatkernel.InsufficientSpectrumError):
        heatkernel.kernel_matrix(spectrum, 0.003, pts)


@pytest.mark.parametrize("t", [0.003, 0.01, 0.03])
def test_tail_bound_majorizes_thin_shell_omitted_sum(t):
    small, large = _thin_shell_spectrum(8), _thin_shell_spectrum(128)
    pts = np.array([(1.05, 0.3), (1.03, 1.0), (1.01, 4.0), (1.09, 2.0)])
    omitted = _diagonal_sum(large, t, pts) - _diagonal_sum(small, t, pts)
    assert small.tail_bound(t) >= omitted.max() > 0.0
    # the larger spectrum certifies the entry the smaller one must refuse
    assert heatkernel.kernel_matrix(large, t, pts[:1])[0, 0] == pytest.approx(
        _diagonal_sum(large, t, pts[:1])[0])


@pytest.mark.parametrize("t", [0.001, 0.003, 0.01])
def test_tail_bound_majorizes_energy_cutoff_omitted_sum(t):
    # the cutoff keeps the j = 1 families of levels m <= 49 only; by t = 0.03 the
    # omitted sum, near e^(-90), sinks below the rounding of the kept one
    spec = radial.AnnularDomainSpec(2, 1.0, 1.1, bases.full_sphere(2))
    small = radial.spectrum_below(spec, 3000.0, N=256)
    large = _thin_shell_spectrum(128)
    assert small.count == 99 and small.omitted_floor >= 3000.0
    pts = np.array([(1.05, 0.3), (1.03, 1.0), (1.01, 4.0), (1.09, 2.0)])
    omitted = _diagonal_sum(large, t, pts) - _diagonal_sum(small, t, pts)
    assert small.tail_bound(t) >= omitted.max() > 0.0


@pytest.mark.parametrize("half_widths, per_axis", [((1.0, 0.5), 6), ((0.7, 1.0, 1.3), 4)],
                         ids=["2d", "3d"])
def test_box_omitted_floor_is_next_eigenvalue(half_widths, per_axis):
    spectrum = heatkernel.box_spectrum(heatkernel.Box(half_widths), per_axis)
    omitted = [sum((j * math.pi / (2.0 * a)) ** 2 for j, a in zip(multi, half_widths))
               for multi in itertools.product(range(1, 2 * per_axis + 1), repeat=len(half_widths))
               if max(multi) > per_axis]
    assert spectrum.omitted_floor == pytest.approx(min(omitted), rel=1e-14)


@pytest.mark.parametrize("base, a, b", [
    (bases.full_sphere(2), 1.0, 1.1), (bases.full_sphere(2), 1.0, 3.0),
    (bases.circle_arc(math.pi / 2.0), 1.0, 1.5), (bases.circle_arc(1.5 * math.pi), 0.5, 2.0),
], ids=["circle-thin", "circle-wide", "arc-thin", "arc-wide"])
def test_shell_omitted_floor_below_omitted_families(base, a, b):
    spec = radial.AnnularDomainSpec(2, a, b, base)
    M_base, K_radial = 5, 2
    spectrum = radial.assemble_spectrum(spec, M_base=M_base, K_radial=K_radial, N=128)
    levels = bases.base_spectrum(base, M_base + 1).levels
    firsts = [radial.solve_radial(2, a, b, lv.lambda0, N=128, k=K_radial + 1)[K_radial].lam
              for lv in levels[:M_base]]
    firsts.append(radial.solve_radial(2, a, b, levels[M_base].lambda0, N=128)[0].lam)
    assert spectrum.omitted_floor <= min(firsts)
    assert spectrum.omitted_floor > spectrum.eigenvalues[0]


def test_tail_bound_refuses_when_floor_is_below_ground():
    # a wide shell with one radial mode: the omitted family j = 2 of m = 0
    # has a floor (2 pi / (b - a))^2 - 1 / (4 a^2) far below zero
    spec = radial.AnnularDomainSpec(2, 0.01, 2.0, bases.full_sphere(2))
    spectrum = radial.assemble_spectrum(spec, M_base=8, K_radial=1, N=64)
    assert spectrum.omitted_floor < 0.0
    # the normalized bound then grows like e^(lam_1 t) and leaves the float range
    assert spectrum.tail_bound(1000.0, spectrum.eigenvalues[0]) == math.inf
    for t in (1.0, 1000.0):
        with pytest.raises(heatkernel.InsufficientSpectrumError):
            heatkernel.normalized_kernel_matrix(spectrum, t, [[1.0, 0.3]])


def test_kernel_sums_over_many_times_match_single_calls():
    spectrum = heatkernel.box_spectrum(heatkernel.Box((1.0, 0.5)), 20)
    pts = np.array([[0.2, 0.1], [-0.5, 0.3], [0.7, -0.2]])
    ts = [0.3, 0.8, 2.0]
    for t, R in zip(ts, heatkernel.normalized_kernel_matrix(spectrum, ts, pts)):
        assert np.array_equal(R, heatkernel.normalized_kernel_matrix(spectrum, t, pts))
    xs, ys = pts, pts[::-1]
    batch = heatkernel.normalized_kernel_value(spectrum, ts, xs, ys)
    single = [heatkernel.normalized_kernel_value(spectrum, t, x, y)
              for t, x, y in zip(ts, xs, ys)]
    assert np.allclose(batch, single, rtol=1e-13, atol=0.0)
    # each pair is certified on its own: one short time refuses the batch
    with pytest.raises(heatkernel.InsufficientSpectrumError):
        heatkernel.normalized_kernel_value(spectrum, [0.8, 1e-4, 2.0], xs, ys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [0.0, -1.0])
@pytest.mark.parametrize("evaluate", [
    lambda s, t, pts: heatkernel.kernel_eval(s, t, pts[0], pts[1]),
    lambda s, t, pts: heatkernel.kernel_matrix(s, t, pts),
    lambda s, t, pts: heatkernel.normalized_kernel_matrix(s, t, pts),
    lambda s, t, pts: heatkernel.normalized_kernel_value(s, t, pts[:1], pts[1:]),
], ids=["kernel_eval", "kernel_matrix", "normalized_kernel_matrix", "normalized_kernel_value"])
def test_kernels_refuse_a_time_that_is_not_positive_with_one_message(evaluate, t):
    spectrum = heatkernel.box_spectrum(heatkernel.Box((1.0, 0.5)), 8)
    pts = np.array([[0.2, 0.1], [-0.5, 0.3]])
    with pytest.raises(ValueError, match=r"^need t > 0, got "):
        evaluate(spectrum, t, pts)


def _arc_shell():
    spec = radial.AnnularDomainSpec(2, 1.0, 1.5, bases.circle_arc(math.pi / 2.0))
    return radial.assemble_spectrum(spec, M_base=4, K_radial=2, N=64)


def _circle_shell():
    return radial.spectrum_below(radial.AnnularDomainSpec(2, 1.0, 1.3, bases.full_sphere(2)),
                                 400.0, N=64)


@pytest.mark.parametrize("make, pts", [
    (lambda: heatkernel.box_spectrum(heatkernel.Box((1.0, 0.5)), 6),
     [[0.2, 0.1], [-0.7, 0.3], [0.9, -0.45]]),
    (lambda: heatkernel.interval_spectrum(0.75, 12), [[0.0], [-0.5], [0.7]]),
    (_circle_shell, [[1.1, 0.3], [1.2, 5.0], [1.3, 2.0]]),
    (_arc_shell, [[1.0, 0.3], [1.25, 1.0], [1.4, 1.5]]),
], ids=["box", "interval", "circle-shell", "arc-shell"])
def test_spectra_are_data_that_pickle(make, pts):
    spectrum = make()
    assert not any(inspect.isfunction(table) or inspect.ismethod(table)
                   for table, _ in spectrum.factors)
    back = pickle.loads(pickle.dumps(spectrum))
    assert np.array_equal(back.eigenvalues, spectrum.eigenvalues)
    assert back.omitted_floor == spectrum.omitted_floor
    assert np.array_equal(back.modes(pts), spectrum.modes(pts))
