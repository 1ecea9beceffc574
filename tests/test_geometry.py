import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulab import bases, geometry, radial


def thin_spec(eps=0.1, a=1.0):
    return radial.AnnularDomainSpec(2, a, a + eps, bases.full_sphere(2))


def test_surrogate_distance_examples():
    spec = thin_spec(0.1)
    d = geometry.surrogate_distance((1.05, 0.0), (1.02, math.pi / 2.0), spec)
    assert d == pytest.approx(math.pi / 2.0, rel=1e-14)
    d = geometry.surrogate_distance((1.05, 0.3), (1.02, 0.3), spec)
    assert d == pytest.approx(0.03, rel=1e-12)


def test_surrogate_distance_outside_raises():
    spec = thin_spec(0.1)
    with pytest.raises(ValueError):
        geometry.surrogate_distance((0.9, 0.0), (1.05, 0.0), spec)


def test_surrogate_triangle_inequality():
    # max of two metrics is a metric; check on random triples
    spec = thin_spec(0.5)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        pts = [(spec.a + 0.5 * u, 2.0 * math.pi * v) for u, v in rng.random((3, 2))]
        dxy = geometry.surrogate_distance(pts[0], pts[1], spec)
        dyz = geometry.surrogate_distance(pts[1], pts[2], spec)
        dxz = geometry.surrogate_distance(pts[0], pts[2], spec)
        assert dxz <= dxy + dyz + 1e-14


def test_single_vertex_net_when_eps_beats_diameter():
    spec = radial.AnnularDomainSpec(2, 1.0, 2.0, bases.full_sphere(2))
    weight = geometry.dirichlet_weight(spec, N=512)
    # surrogate diameter of this shell is pi; any eps above it gives one vertex
    net = geometry.build_net(spec, 3.2, weight, quad_grid=(24, 128))
    assert net.size == 1
    assert net.weights[0] == pytest.approx(1.0, abs=5e-3)
    assert len(net.edges) == 0


def test_net_size_matches_packing_count():
    spec = thin_spec(0.1)
    weight = geometry.uniform_weight(spec)
    net = geometry.build_net(spec, 0.05, weight)
    target = 2.0 * math.pi / 0.05
    assert target / 4.0 <= net.size <= target * 4.0
    # the net graph is connected
    from scipy.sparse.csgraph import connected_components

    ncomp, _ = connected_components(net.adjacency(), directed=False)
    assert ncomp == 1


def test_net_invariants_and_degree_bound():
    spec = thin_spec(0.1)
    weight = geometry.dirichlet_weight(spec, N=512)
    for eps in (0.4, 0.2, 0.1, 0.05):
        model = geometry.annulus_model(spec, weight, resolve=eps)
        net = geometry.build_net(spec, eps, weight)
        checks = geometry.verify_net(net, model)
        assert checks["separated"], (eps, checks)
        assert checks["covered"], (eps, checks)
        assert net.max_degree() <= 20, (eps, net.max_degree())


def test_ball_measure_saturates_to_total_mass():
    spec = thin_spec(0.1)
    weight = geometry.dirichlet_weight(spec, N=512)
    model = geometry.annulus_model(spec, weight, nr=16, ntheta=256)
    v = model.ball_measure((1.05, 0.0), 4.0)
    assert v == pytest.approx(1.0, abs=5e-3)


def test_dirichlet_weight_refuses_radii_outside_the_shell():
    spec = thin_spec(0.1)
    sampler = geometry.dirichlet_weight(spec, N=512).sampler
    assert np.all(sampler(np.array([spec.a, spec.b]), np.array([0.3, 0.3])) == 0.0)
    with pytest.raises(ValueError, match=r"\[a, b\]"):
        sampler(spec.a - 0.1, 0.3)


def test_uniform_ball_scaling_in_euclidean_regime():
    spec = thin_spec(0.1)
    weight = geometry.uniform_weight(spec)
    model = geometry.annulus_model(spec, weight, nr=400, ntheta=16384)
    center = (1.05, math.pi)
    v1 = model.ball_measure(center, 0.01)
    v2 = model.ball_measure(center, 0.02)
    assert v2 / v1 == pytest.approx(4.0, rel=0.05)


def test_thin_ball_factorizes_into_product():
    spec = thin_spec(0.1)
    weight = geometry.dirichlet_weight(spec, N=512)
    model = geometry.annulus_model(spec, weight, nr=32, ntheta=1024)
    center = (1.03, 1.0)
    r = 0.3
    v = model.ball_measure(center, r)
    # product of the radial f^2 r dr mass and the angular g^2 mass
    res = radial.solve_radial(2, 1.0, 1.1, 0.0, N=2048)[0]
    keep = np.abs(res.grid - center[0]) < r
    from annulab import numerics

    wr = numerics.trapezoid_weights(res.grid)
    radial_mass = float(np.sum((res.f**2 * res.grid * wr)[keep]))
    angular_mass = 2.0 * r / (2.0 * math.pi)
    assert v == pytest.approx(radial_mass * angular_mass, rel=0.1)


@functools.lru_cache(maxsize=None)
def shell_model(base: str, weight: str, eps: float, nr: int, nt: int):
    spec = radial.AnnularDomainSpec(
        2, 1.0, 1.0 + eps, bases.full_sphere(2) if base == "circle" else bases.circle_arc(2.0))
    w = geometry.dirichlet_weight(spec, N=256) if weight == "phi2" else geometry.uniform_weight(spec)
    return geometry.annulus_model(spec, w, nr=nr, ntheta=nt)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(["circle", "arc"]), st.sampled_from(["phi2", "uniform"]),
       st.sampled_from([0.001, 0.1, 1.0]), st.integers(4, 40), st.integers(8, 4096),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-9.0, 2.0))
def test_ball_measure_equals_the_node_sum(base, weight, eps, nr, nt, u, v, log_radius):
    # the product of two 1-D interval sums against the sum over the 2-D nodes
    model = shell_model(base, weight, eps, nr, nt)
    center = (1.0 + eps * u, v * (model.th[-1] + model.ht / 2.0))
    radius = math.exp(log_radius)
    node_sum = float(model.node_measure[model.ball_ids(center, radius)].sum())
    assert model.ball_measure(center, radius) == pytest.approx(node_sum, rel=1e-12, abs=0.0)


def test_ball_measure_monotone_in_radius():
    spec = thin_spec(0.25)
    weight = geometry.dirichlet_weight(spec, N=512)
    model = geometry.annulus_model(spec, weight, nr=24, ntheta=512)
    center = (1.1, 0.5)
    vals = [model.ball_measure(center, r) for r in (0.05, 0.1, 0.2, 0.5, 1.0, 3.2)]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_phi2_ball_measure_dilation_invariant():
    spec = thin_spec(0.2)
    weight = geometry.dirichlet_weight(spec, N=512)
    model = geometry.annulus_model(spec, weight, nr=24, ntheta=512)
    c = 2.0
    spec2 = spec.scaled(c)
    weight2 = geometry.dirichlet_weight(spec2, N=512)
    model2 = geometry.annulus_model(spec2, weight2, nr=24, ntheta=512)
    v1 = model.ball_measure((1.1, 0.7), 0.15)
    v2 = model2.ball_measure((2.2, 0.7), c * 0.15)
    assert v2 == pytest.approx(v1, rel=0.02)


def test_export_net_roundtrip_lines(tmp_path):
    spec = thin_spec(0.2)
    weight = geometry.uniform_weight(spec)
    net = geometry.build_net(spec, 0.2, weight)
    path = tmp_path / "net.txt"
    geometry.export_net(net, path)
    lines = path.read_text().splitlines()
    m, e = (int(v) for v in lines[0].split()[:2])
    assert m == net.size and e == len(net.edges)
    assert len(lines) == 1 + m + e


def test_model_grid_too_coarse():
    spec = thin_spec(0.1)
    weight = geometry.uniform_weight(spec)
    with pytest.raises(ValueError):
        geometry.build_net(spec, 0.05, weight, quad_grid=(8, 32))


def test_projected_net_relaxed_constants():
    # on shells no thicker than eps, the projection onto the base keeps
    # separation >= eps/4 and still covers within eps
    for eps in (0.4, 0.2, 0.1):
        spec = thin_spec(eps)
        weight = geometry.dirichlet_weight(spec, N=512)
        model = geometry.annulus_model(spec, weight, resolve=eps)
        net = geometry.build_net(spec, eps, weight)
        checks = geometry.verify_net(net, model)
        assert checks["projected_separated"], (eps, checks)
        assert checks["projected_covered"], (eps, checks)


def test_column_search_tests_a_few_columns_per_ball(monkeypatch):
    # the ball search reads only the columns near each end of an arc, so its
    # cost does not grow with the angular resolution (a thin shell at small
    # eps has hundreds of thousands of columns)
    spec = thin_spec(1e-4)
    model = geometry.annulus_model(spec, geometry.uniform_weight(spec), nr=8, ntheta=2**18)
    n, ht = len(model.th), model.ht
    distance = geometry.base_arc_distance
    tested = []

    def counted(t1, t2, wrap):
        tested.append(np.size(t1))
        return distance(t1, t2, wrap)

    monkeypatch.setattr(geometry, "base_arc_distance", counted)
    cases = [(math.pi, 0.1), (1.0, 1e-3), (3.0, 0.5 * ht),            # interior arcs
             (0.01, 0.1), (2.0 * math.pi - 0.02, 0.05), (0.0, 3.5 * ht),  # across the seam
             (1.0, math.pi - 2.5 * ht), (0.3, math.pi - 1e-4),           # nearly the whole cycle
             (2.0, math.pi), (2.0, 4.0)]                                 # the whole cycle
    per_call = []
    for th0, radius in cases:
        tested.clear()
        start, count = model.columns(th0, radius)
        per_call.append(sum(tested))
        inside = np.flatnonzero(spec.a * distance(model.th, th0, True) < radius)
        assert np.array_equal(np.sort((start + np.arange(count)) % n), inside)
    # a ball wider than the circle takes no test at all
    assert max(per_call) <= 64 and min(per_call[:-2]) > 0
