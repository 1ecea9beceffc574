import math

import numpy as np
import pytest

from annulab import bases, heatkernel, numerics, radial


def test_n3_reduces_to_interval():
    # (n-3)(n-1)/4 vanishes, so the transformed problem is the plain
    # interval Laplacian: lambda = pi^2 on (1, 2)
    res = radial.solve_radial(3, 1.0, 2.0, 0.0, N=4096)[0]
    assert res.alpha == 0.0
    assert res.lam == pytest.approx(math.pi**2, rel=1e-8)


def test_n2_lands_in_coefficient_interval():
    # two-sided interval at n=2, b/a=2: [pi^2 - 1/4, pi^2 - 1/16]
    res = radial.solve_radial(2, 1.0, 2.0, 0.0, N=2048)[0]
    assert math.pi**2 - 0.25 - 1e-9 <= res.lam <= math.pi**2 - 1.0 / 16.0 + 1e-9


def test_base_eigenvalue_shifts_lambda():
    res = radial.solve_radial(3, 1.0, 2.0, 2.0, N=1024)[0]
    assert math.pi**2 + 2.0 / 4.0 - 1e-9 <= res.lam <= math.pi**2 + 2.0 + 1e-9


@pytest.mark.parametrize("n,a,b,lam0", [(2, 1.0, 2.0, 0.0), (3, 0.5, 1.4, 1.0),
                                        (4, 1.0, 1.2, 3.0), (5, 2.0, 3.0, 0.0)])
def test_transform_consistency_against_weighted_form(n, a, b, lam0):
    lam_t = radial.solve_radial(n, a, b, lam0, N=1024)[0].lam
    lam_w = radial.solve_radial_weighted(n, a, b, lam0, N=1024)[0]
    assert lam_w == pytest.approx(lam_t, rel=1e-8)


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_dilation_covariance(c):
    lam = radial.solve_radial(3, 1.0, 1.7, 2.0, N=512)[0].lam
    lam_c = radial.solve_radial(3, c, 1.7 * c, 2.0, N=512)[0].lam
    assert lam_c == pytest.approx(lam / c**2, rel=1e-10)


def test_normalizations_and_positivity():
    res = radial.solve_radial(4, 1.0, 2.5, 1.0, N=512)[0]
    w = numerics.trapezoid_weights(res.grid)
    assert numerics.integrate_samples(res.f**2 * res.grid**3, w) == pytest.approx(1.0, rel=1e-12)
    assert numerics.integrate_samples(res.ftilde**2, w) == pytest.approx(1.0, rel=1e-12)
    assert res.f[0] == 0.0 and res.f[-1] == 0.0
    assert np.all(res.f[1:-1] > 0)
    # transform relation: f proportional to r^(-(n-1)/2) ftilde
    ratio = res.f[1:-1] / (res.grid[1:-1] ** (-1.5) * res.ftilde[1:-1])
    assert np.ptp(ratio) <= 1e-10 * np.abs(ratio).max()


def test_higher_modes_interlace_and_grow():
    results = radial.solve_radial(2, 1.0, 2.0, 0.0, N=512, k=3)
    lams = [r.lam for r in results]
    assert lams[0] < lams[1] < lams[2]
    # transformed problem is an interval Laplacian plus a bounded potential:
    # mode j sits within the potential range of (j pi)^2
    for j, lam in enumerate(lams, start=1):
        assert (j * math.pi) ** 2 - 0.25 <= lam <= (j * math.pi) ** 2


def test_solve_radial_takes_k_up_to_the_interior_nodes_of_its_grid():
    # the N = 64 grid has 63 interior nodes, so 63 eigenpairs at most
    assert len(radial.solve_radial(2, 1.0, 2.0, 0.0, N=64, k=63)) == 63
    for k in (0, 64, 2000):
        with pytest.raises(ValueError, match=f"need 1 <= k <= N - 1 = 63 .* got k = {k}$"):
            radial.solve_radial(2, 1.0, 2.0, 0.0, N=64, k=k)


@pytest.mark.parametrize("base", [
    bases.circle_arc(math.pi),
    bases.circle_arc(3.0 * math.pi / 4.0),
    bases.orthant_intersection(3, 1),
    bases.orthant_intersection(3, 2),
])
@pytest.mark.parametrize("ab", [(1.0, 1.2), (1.0, 2.0)])
def test_eigenvalue_decomposition_sandwich(base, ab):
    a, b = ab
    n = base.n
    lam0 = bases.base_eigendata(base).lambda0
    lam_shell = radial.solve_radial(n, a, b, lam0, N=1024)[0].lam
    lam_annulus = radial.solve_radial(n, a, b, 0.0, N=1024)[0].lam
    slack = 1e-6 * lam_shell
    assert lam_annulus + lam0 / b**2 - slack <= lam_shell <= lam_annulus + lam0 / a**2 + slack


def test_eigenvalues_only_solve_gives_the_eigenpair_values_to_the_bit():
    # the coarse grid of every Richardson pair is solved for eigenvalues only
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        a = float(rng.uniform(0.1, 2.0))
        b = a + float(rng.uniform(1e-3, 2.0))
        N, k = int(rng.integers(200, 1100)), int(rng.integers(1, 6))
        _, diag, offdiag = radial._transformed_operator(n, a, b, float(rng.uniform(0.0, 500.0)), N)
        vals = numerics.tridiag_smallest_eigenvalues(diag, offdiag, k)
        assert np.array_equal(vals, numerics.tridiag_smallest_eigenpairs(diag, offdiag, k)[0])


def test_grid_validation():
    with pytest.raises(ValueError):
        radial.solve_radial(2, 2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        radial.solve_radial(2, 1.0, 2.0, 0.0, N=32)
    with pytest.raises(ValueError):
        radial.solve_radial(2, 1.0, 2.0, -1.0)


def test_assemble_spectrum_full_annulus():
    spec = radial.AnnularDomainSpec(2, 1.0, 2.0, bases.full_sphere(2))
    spectrum = radial.assemble_spectrum(spec, M_base=4, K_radial=2, N=1024)
    lam1 = radial.solve_radial(2, 1.0, 2.0, 0.0, N=1024)[0].lam
    assert spectrum.eigenvalues[0] == pytest.approx(lam1, rel=1e-12)
    # the next distinct level is the first angular mode (lambda0 = 1),
    # doubly degenerate
    lam_m1 = radial.solve_radial(2, 1.0, 2.0, 1.0, N=1024)[0].lam
    assert spectrum.eigenvalues[1] == pytest.approx(lam_m1, rel=1e-12)
    assert spectrum.eigenvalues[2] == pytest.approx(lam_m1, rel=1e-12)


def test_assemble_spectrum_orthonormal_sampled():
    spec = radial.AnnularDomainSpec(2, 1.0, 2.0, bases.full_sphere(2))
    spectrum = radial.assemble_spectrum(spec, M_base=3, K_radial=2, N=1024)
    r = np.linspace(1.0, 2.0, 513)
    th = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    R, TH = np.meshgrid(r, th, indexing="ij")
    pts = np.stack([R.ravel(), TH.ravel()], axis=1)
    wr = numerics.trapezoid_weights(r) * r
    wt = np.full(len(th), 2.0 * math.pi / len(th))
    weights = (wr[:, None] * wt[None, :]).ravel()
    vals = spectrum.modes(pts)
    gram = (vals * weights) @ vals.T
    assert np.allclose(gram, np.eye(len(gram)), atol=1e-6)


def test_arc_product_exceeds_full_circle():
    # restricting the base raises the ground eigenvalue (domain monotonicity)
    spec_full = radial.AnnularDomainSpec(2, 1.0, 2.0, bases.full_sphere(2))
    spec_arc = radial.AnnularDomainSpec(2, 1.0, 2.0, bases.circle_arc(math.pi))
    s_full = radial.assemble_spectrum(spec_full, 2, 1, N=256)
    s_arc = radial.assemble_spectrum(spec_arc, 2, 1, N=256)
    assert s_arc.eigenvalues[0] > s_full.eigenvalues[0]


def test_assemble_spectrum_dilation():
    spec = radial.AnnularDomainSpec(2, 1.0, 1.5, bases.full_sphere(2))
    s1 = radial.assemble_spectrum(spec, 3, 2, N=256)
    s2 = radial.assemble_spectrum(spec.scaled(2.0), 3, 2, N=256)
    assert np.allclose(s2.eigenvalues, s1.eigenvalues / 4.0, rtol=1e-10)


def test_thin_flag():
    assert radial.AnnularDomainSpec(2, 1.0, 2.0, bases.full_sphere(2)).is_thin
    assert not radial.AnnularDomainSpec(2, 1.0, 2.5, bases.full_sphere(2)).is_thin


_CUTOFF_SHELLS = [
    pytest.param(radial.AnnularDomainSpec(2, 1.0, 1.5, bases.full_sphere(2)), 200.0, id="circle"),
    pytest.param(radial.AnnularDomainSpec(2, 0.5, 2.0, bases.circle_arc(1.5 * math.pi)), 60.0,
                 id="arc"),
]


@pytest.mark.parametrize("spec, cutoff", _CUTOFF_SHELLS)
def test_spectrum_below_keeps_exactly_the_families_under_the_cutoff(spec, cutoff):
    spectrum = radial.spectrum_below(spec, cutoff, N=128)
    assert spectrum.omitted_floor >= cutoff
    # reference: a uniform truncation holding every family, each mode tagged (level, j)
    levels = bases.base_spectrum(spec.base, 64).levels
    M = sum(radial.family_floor(spec, 1, lv.lambda0) < cutoff for lv in levels)
    K = sum(radial.family_floor(spec, j, levels[0].lambda0) < cutoff for j in range(1, 64))
    assert 1 < M < 64 and 1 < K < 64  # both the levels and the families vary
    full = radial.assemble_spectrum(spec, M_base=M, K_radial=K, N=128)
    level, j = np.divmod(full.factors[0][1], K)
    below = np.array([radial.family_floor(spec, jj + 1, levels[m].lambda0) < cutoff
                      for m, jj in zip(level, j)])
    assert 0 < below.sum() < full.count and spectrum.count == below.sum()
    np.testing.assert_allclose(spectrum.eigenvalues, full.eigenvalues[below],
                               rtol=1e-12, atol=0.0)


def _per_level(spec, base, counts, N):
    """(eigenvalues ascending, radial rows) of a product spectrum from one
    solve_radial call per base level."""
    vals, rows = [], []
    for level, k in zip(base.levels, counts):
        for res in radial.solve_radial(spec.n, spec.a, spec.b, level.lambda0, N=N, k=k):
            vals += [res.lam] * level.multiplicity
            rows.append(res.f)
    return np.sort(vals), np.array(rows)


def _families_below(spec, cutoff):
    """Radial family count of each base level kept by spectrum_below."""
    counts = []
    for level in bases.base_levels(spec.base):
        k = 0
        while radial.family_floor(spec, k + 1, level.lambda0) < cutoff:
            k += 1
        if k == 0:
            return counts
        counts.append(k)


@pytest.mark.parametrize("spec, cutoff", _CUTOFF_SHELLS + [
    pytest.param(radial.AnnularDomainSpec(2, 1.0, 1.025, bases.full_sphere(2)), 4e4, id="thin"),
])
def test_spectrum_below_equals_per_level_solves_to_the_bit(spec, cutoff):
    spectrum = radial.spectrum_below(spec, cutoff, N=128)
    counts = _families_below(spec, cutoff)
    vals, rows = _per_level(spec, bases.base_spectrum(spec.base, len(counts)), counts, 128)
    assert len(counts) > 4 and np.array_equal(spectrum.eigenvalues, vals)
    assert np.array_equal(spectrum.factors[0][0].rows, rows)


def test_assemble_spectrum_equals_per_level_solves_to_the_bit():
    spec = radial.AnnularDomainSpec(2, 1.0, 2.0, bases.circle_arc(math.pi))
    spectrum = radial.assemble_spectrum(spec, 5, 3, N=256)
    vals, rows = _per_level(spec, bases.base_spectrum(spec.base, 5), [3] * 5, 256)
    assert np.array_equal(spectrum.eigenvalues, vals)
    assert np.array_equal(spectrum.factors[0][0].rows, rows)


def test_n3_product_spectrum_equals_per_level_solves_to_the_bit():
    # S^2 has no enumerable base in the catalog: its levels l(l + 1), of
    # multiplicity 2l + 1, are given by hand
    spec = radial.AnnularDomainSpec(3, 1.0, 1.3, bases.full_sphere(3))
    base = bases.BaseSpectrum(
        tuple(bases.BaseLevel(float(l * (l + 1)), 2 * l + 1) for l in range(6)), 42.0, None)
    counts = [3, 3, 2, 2, 1, 1]
    spectrum = radial._product_spectrum(spec, base, counts, 128)
    vals, rows = _per_level(spec, base, counts, 128)
    assert np.array_equal(spectrum.eigenvalues, vals)
    assert np.array_equal(spectrum.factors[0][0].rows, rows)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, 1e12, 1e300, 0.0])
def test_spectrum_below_refuses_before_any_radial_solve(monkeypatch, cutoff):
    def no_solve(*args, **kwargs):
        raise AssertionError("radial solve before the mode count was checked")

    # spectrum assembly reaches the tridiagonal solvers without solve_radial
    monkeypatch.setattr(numerics, "tridiag_smallest_eigenpairs", no_solve)
    monkeypatch.setattr(numerics, "tridiag_smallest_eigenvalues", no_solve)
    spec = radial.AnnularDomainSpec(2, 1.0, 1.1, bases.full_sphere(2))
    with pytest.raises(heatkernel.InsufficientSpectrumError):
        radial.spectrum_below(spec, cutoff, N=64)


def test_spectrum_below_mode_limit_is_exact(monkeypatch):
    # levels m = 0, 1, 2 of the circle hold 1 + 2 + 2 modes, all with j = 1
    spec = radial.AnnularDomainSpec(2, 1.0, 1.1, bases.full_sphere(2))
    cutoff = 0.5 * (radial.family_floor(spec, 1, 4.0) + radial.family_floor(spec, 1, 9.0))
    monkeypatch.setattr(radial, "MAX_MODES", 5)
    assert radial.spectrum_below(spec, cutoff, N=64).count == 5
    monkeypatch.setattr(radial, "MAX_MODES", 4)
    with pytest.raises(heatkernel.InsufficientSpectrumError, match="more than 4 modes"):
        radial.spectrum_below(spec, cutoff, N=64)


@pytest.mark.parametrize("eps", [1e-6, 3e-6])
def test_too_thin_shell_is_refused(eps):
    # the tridiagonal rounding, about machine epsilon times |T|, exceeds the
    # spacing of the j = 1 eigenvalues over the base levels, which then read
    # out of order
    spec = radial.AnnularDomainSpec(2, 1.0, 1.0 + eps, bases.full_sphere(2))
    with pytest.raises(heatkernel.InsufficientSpectrumError, match="too thin"):
        radial.assemble_spectrum(spec, 6, 1, N=256)
