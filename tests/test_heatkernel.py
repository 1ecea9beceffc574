import itertools
import math

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


def _capped_tail(spectrum, t, reference=0.0):
    """The growth-model majorant summed term by term up to the 100001-term cap."""
    gamma = spectrum.tail_growth()
    if gamma <= 0.0:
        return math.inf
    lam_k = spectrum.eigenvalues[-1]
    c = float(np.max(spectrum.sup_norms[spectrum.count // 2:]) ** 2)
    total = 0.0
    j = 1
    while True:
        lam = lam_k + j * gamma
        term = c * (lam / lam_k) ** (spectrum.dim / 2.0) * math.exp(-(lam - reference) * t)
        total += term
        if term < 1e-4 * total or j > 100000:
            break
        j += 1
    return total


@pytest.mark.parametrize("case", ["underflow", "underflow-after-terms", "converging"])
def test_tail_bound_matches_capped_loop(case):
    box2 = heatkernel.box_spectrum(heatkernel.Box((1.0, 1.0)), 80)
    # e^-744 is a few multiples of the smallest subnormal
    t_subnormal = 744.0 / (box2.eigenvalues[-1] + box2.tail_growth())
    spectrum, t, reference, positive = {
        "underflow": (box2, 1.0, box2.eigenvalues[0], False),
        "underflow-after-terms": (box2, t_subnormal, 0.0, True),
        "converging": (heatkernel.interval_spectrum(1.0, 60), 0.01, 0.0, True),
    }[case]
    tail = spectrum.tail_bound(t, reference)
    assert tail == _capped_tail(spectrum, t, reference)
    assert (tail > 0.0) == positive


def test_tail_bound_not_converged_is_infinite():
    # in 30 dimensions the model's sup-norm growth (lam/lam_K)^15 keeps each
    # term above 1e-4 of the partial sum for more than TAIL_MAX_TERMS terms
    lam = np.arange(1.0, 9.0)
    spectrum = heatkernel.Spectrum(eigenvalues=lam, factors=(), sup_norms=np.ones(8), dim=30)
    assert math.isfinite(_capped_tail(spectrum, 1e-12))
    assert spectrum.tail_bound(1e-12) == math.inf


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
