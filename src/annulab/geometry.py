"""Metric-measure plumbing for planar shells: surrogate distance, weighted
ball measures, maximal eps-separated nets, and the weighted net graph.

The intrinsic distance of a shell (a,b) x U0 is sandwiched within a factor 4
by the product surrogate

    sigma(x, y) = max( d_{U0}(theta_x, theta_y), | |x| - |y| | ),

so every audit here uses sigma in place of the true geodesic distance; the
doubling/Poincare conclusions tolerate a fixed metric distortion and every
report records the metric tag.  Balls of sigma are coordinate rectangles,
which keeps the quadrature exact on the node set.

Models are restricted to planar shells (n = 2, full-circle or arc base) and
to intervals; those are the domains the audits run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sparse

from . import bases, radial

__all__ = [
    "WeightFunction",
    "WeightedNet",
    "AnnulusModel",
    "IntervalModel",
    "uniform_weight",
    "dirichlet_weight",
    "base_arc_distance",
    "surrogate_distance",
    "resolving_grid",
    "annulus_model",
    "interval_model",
    "build_net",
    "verify_net",
    "export_net",
]


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight density f(r) g(theta) on the shell.

    radial samples f and angular samples g; sampler is their product.
    """

    tag: str  # "dirichlet_phi_squared" or "uniform"
    radial: Callable[[np.ndarray], np.ndarray]
    angular: Callable[[np.ndarray], np.ndarray]

    def sampler(self, r, theta) -> np.ndarray:
        return self.radial(r) * self.angular(theta)


def _check_planar(spec: radial.AnnularDomainSpec) -> float:
    if spec.n != 2 or spec.base.kind not in ("full_sphere", "arc"):
        raise ValueError("metric-measure models support planar shells with circle/arc bases")
    return spec.base.theta1 if spec.base.kind == "arc" else 2.0 * math.pi


def uniform_weight(spec: radial.AnnularDomainSpec) -> WeightFunction:
    """Constant density 1/|U|: the squared first Neumann eigenfunction."""
    window = _check_planar(spec)
    volume = window * (spec.b**2 - spec.a**2) / 2.0
    c = 1.0 / volume

    def radial_factor(r):
        return np.full(np.shape(r), c)

    def angular_factor(theta):
        return np.ones(np.shape(theta))

    return WeightFunction("uniform", radial_factor, angular_factor)


def dirichlet_weight(spec: radial.AnnularDomainSpec, N: int = 1024) -> WeightFunction:
    """Squared principal Dirichlet eigenfunction, in separated form f(r)^2 g(theta)^2.

    The sampler refuses radii outside [a, b].
    """
    _check_planar(spec)
    data = bases.base_eigendata(spec.base)
    res = radial.solve_radial(spec.n, spec.a, spec.b, data.lambda0, N=N)[0]
    f = radial.RadialTable(res.grid, res.f[None])
    g = data.phi0

    def radial_factor(r):
        return f(np.asarray(r, dtype=float))[0] ** 2

    def angular_factor(theta):
        return g(theta) ** 2

    return WeightFunction("dirichlet_phi_squared", radial_factor, angular_factor)


def base_arc_distance(t1: np.ndarray, t2: np.ndarray, wrap: bool) -> np.ndarray:
    """Intrinsic distance on the base circle or arc."""
    d = np.abs(np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float))
    if wrap:
        d = np.minimum(d, 2.0 * math.pi - d)
    return d


def surrogate_distance(x, y, spec: radial.AnnularDomainSpec) -> float:
    """max(scaled base distance, radial gap) between points (r, theta).

    The base term carries the inner radius as a length scale, so the
    surrogate dilates homothetically with the shell and stays 4-comparable
    to the intrinsic distance in the thin regime.
    """
    window = _check_planar(spec)
    for r, _ in (x, y):
        if not spec.a <= r <= spec.b:
            raise ValueError(f"radius {r} outside [{spec.a}, {spec.b}]")
    wrap = spec.base.kind == "full_sphere"
    if not wrap:
        for _, t in (x, y):
            if not 0.0 <= t <= window:
                raise ValueError(f"angle {t} outside the arc [0, {window}]")
    return float(
        np.maximum(spec.a * base_arc_distance(x[1], y[1], wrap), abs(x[0] - y[0]))
    )


def _axis_run(n: int, first: int, last: int, inside, cyclic: bool) -> tuple[int, int]:
    """(start, count) of the one run of axis indices j with inside(j).

    On a cycle the run is read from start on, modulo n, and count = n is the
    whole cycle.  first and last locate the run's ends to within rounding,
    and only the few indices near each end are tested.
    """
    if not cyclic:
        first, last = max(first, 0), min(last, n - 1)

    def test(j0: int, j1: int):
        j = np.arange(j0, j1) if cyclic else np.arange(max(j0, 0), min(j1, n))
        return j, inside(j % n)

    if cyclic and n <= 32:
        # few enough to test all, read from an index outside the run
        j, ok = test(0, n)
        if ok.all():
            return 0, n
        k = int(np.argmin(ok))
        j = np.flatnonzero(np.roll(ok, -k)) + k
    elif cyclic and last - first >= n - 8:
        # nearly the whole cycle: find the indices the run misses
        if last - 3 >= first + n + 4:
            return 0, n
        j, ok = test(last - 3, first + n + 4)
        miss = j[~ok]
        if miss.size == 0:
            return 0, n
        return int(miss[-1] + 1) % n, n - int(miss[-1] - miss[0] + 1)
    elif last - first < 8:
        j, ok = test(first - 3, last + 4)
        j = j[ok]
    else:
        (j0, ok0), (j1, ok1) = test(first - 3, first + 4), test(last - 3, last + 4)
        j = np.concatenate((j0[ok0], j1[ok1]))
    return (int(j[0]) % n, int(j[-1] - j[0] + 1)) if j.size else (0, 0)


@dataclass
class AnnulusModel:
    """Midpoint quadrature model of a weighted planar shell, kept as its two axes.

    Nodes are the cell centers of an (nr, nt) polar product grid.  The
    weight separates, so the node measure f(r_i) g(theta_j) r_i hr ht is the
    radial mass f(r_i) r_i hr times the angular mass g(theta_j) ht.  A
    sigma-ball is a coordinate rectangle: a run of rows times an arc of
    columns (`ball`), and its measure is the product of two 1-D sums.  The
    2-D node arrays are built on first use only, for nets and as the oracle
    of the separated quantities.
    """

    spec: radial.AnnularDomainSpec
    weight: WeightFunction
    r: np.ndarray
    th: np.ndarray
    wrap: bool
    hr: float
    ht: float
    radial_density: np.ndarray = field(repr=False)
    angular_density: np.ndarray = field(repr=False)
    radial_mass: np.ndarray = field(repr=False)
    angular_mass: np.ndarray = field(repr=False)

    def rows(self, r0: float, radius: float) -> slice:
        """The rows i with |r_i - r0| < radius, the test distances_to makes."""
        start, count = _axis_run(
            len(self.r),
            math.floor((r0 - radius - self.spec.a) / self.hr - 0.5),
            math.ceil((r0 + radius - self.spec.a) / self.hr - 0.5),
            lambda i: np.abs(self.r[i] - r0) < radius, False)
        return slice(start, start + count)

    def columns(self, th0: float, radius: float) -> tuple[int, int]:
        """(start, count) of the columns j with a d(theta_j, th0) < radius,
        the test distances_to makes.

        On a circle base they form an arc of the cycle, read from start and
        past the seam back to column 0 (count = nt is the whole cycle); on
        an arc base, an interval.
        """
        half = radius / self.spec.a
        return _axis_run(
            len(self.th),
            math.floor((th0 - half) / self.ht - 0.5),
            math.ceil((th0 + half) / self.ht - 0.5),
            lambda j: self.spec.a * base_arc_distance(self.th[j], th0, self.wrap) < radius,
            self.wrap)

    def ball(self, center, radius: float) -> tuple[slice, tuple[int, int]]:
        """The sigma-ball as (rows, (start, count) of its column arc)."""
        return self.rows(center[0], radius), self.columns(center[1], radius)

    def _on_arc(self, values: np.ndarray, arc: tuple[int, int]) -> np.ndarray:
        """The entries of a per-column array along an arc, in arc order."""
        start, count = arc
        stop = start + count
        if stop <= len(values):
            return values[start:stop]
        return np.concatenate((values[start:], values[:stop - len(values)]))

    def ball_measure(self, center, radius: float) -> float:
        rows, arc = self.ball(center, radius)
        return float(self.radial_mass[rows].sum() * self._on_arc(self.angular_mass, arc).sum())

    def radial_form(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """(conductances, masses) of the radial zero-flux form on a run of rows.

        Conductance 0.5 (f_i + f_(i+1)) r_face / hr joins rows i and i + 1;
        row i has mass f_i r_i hr.
        """
        f, r = self.radial_density[rows], self.r[rows]
        cond = 0.5 * (f[:-1] + f[1:]) * (0.5 * (r[:-1] + r[1:])) / self.hr
        return cond, self.radial_mass[rows]

    def angular_form(self, arc: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, bool]:
        """(conductances, masses, cyclic) of the angular zero-flux form on an arc.

        Conductance 0.5 (g_j + g_(j+1)) / ht joins consecutive columns; column
        j has mass g_j ht.  On the whole cycle of a circle base (cyclic) the
        last conductance joins the last column back to the first.
        """
        g = self._on_arc(self.angular_density, arc)
        cyclic = self.wrap and arc[1] == len(self.th)
        if cyclic:
            g = np.append(g, g[0])
        return 0.5 * (g[:-1] + g[1:]) / self.ht, self._on_arc(self.angular_mass, arc), cyclic

    @cached_property
    def node_r(self) -> np.ndarray:
        return np.repeat(self.r, len(self.th))

    @cached_property
    def node_th(self) -> np.ndarray:
        return np.tile(self.th, len(self.r))

    @cached_property
    def node_measure(self) -> np.ndarray:
        """Weight density times the cell measure r hr ht at every node."""
        return self.weight.sampler(self.node_r, self.node_th) * (self.node_r * self.hr * self.ht)

    def distances_to(self, center) -> np.ndarray:
        dr = np.abs(self.node_r - center[0])
        dt = self.spec.a * base_arc_distance(self.node_th, center[1], self.wrap)
        return np.maximum(dr, dt)

    def ball_ids(self, center, radius: float) -> np.ndarray:
        """Node indices of the sigma-ball, scanned over every node."""
        return np.flatnonzero(self.distances_to(center) < radius)

    def grid_edges(self):
        """Adjacent-node edges with weighted conductances and the node masses.

        Radial edge (i,j)-(i+1,j): conductance w_face r_face ht / hr; angular
        edge (i,j)-(i,j+1): w_face hr / (r_i ht); the discrete Dirichlet form
        of the weighted Neumann operator on any node subset keeps exactly the
        edges internal to the subset (zero-flux boundary).
        """
        nr, nt = len(self.r), len(self.th)
        ids = np.arange(nr * nt).reshape(nr, nt)
        w2 = np.outer(self.radial_density, self.angular_density)  # density at nodes
        pairs = []
        conds = []
        # radial edges
        p, q = ids[:-1, :].ravel(), ids[1:, :].ravel()
        r_face = 0.5 * (self.r[:-1] + self.r[1:])
        wf = 0.5 * (w2[:-1, :] + w2[1:, :])
        pairs.append(np.stack([p, q], axis=1))
        conds.append((wf * r_face[:, None] * self.ht / self.hr).ravel())
        # angular edges
        if nt > 1:
            p, q = ids[:, :-1].ravel(), ids[:, 1:].ravel()
            wf = 0.5 * (w2[:, :-1] + w2[:, 1:])
            pairs.append(np.stack([p, q], axis=1))
            conds.append((wf * self.hr / (self.r[:, None] * self.ht)).ravel())
            if self.wrap and nt > 2:
                p, q = ids[:, -1], ids[:, 0]
                wf = 0.5 * (w2[:, -1] + w2[:, 0])
                pairs.append(np.stack([p, q], axis=1))
                conds.append(wf * self.hr / (self.r * self.ht))
        return np.concatenate(pairs), np.concatenate(conds)


def _commensurate_columns(x: float) -> tuple[int, int]:
    """(columns, stride) with columns = floor(x) accepted every `stride`
    grid steps by an eps-greedy scan, chosen so the accepted set divides the
    circle evenly: stride * columns grid cells, ceil(x * stride / (stride *
    columns)) per acceptance = stride exactly."""
    n_cols = max(2, int(math.floor(x)))
    for stride in range(8, 64):
        if n_cols > (1.0 - 1.0 / stride) * x:
            return n_cols, stride
    return n_cols, 64


def resolving_grid(spec: radial.AnnularDomainSpec, scale: float) -> tuple[int, int]:
    """(nr, ntheta) of the coarsest model that resolves `scale`: steps h_r and
    a h_theta of at most scale / 6 (6 nodes per scale), except along an
    axis that is no longer than scale, with at least 8 rows and 16 columns.

    On full circles the angular count is made commensurate with the greedy
    eps-net stride so that nets close into even cycles; otherwise the seam
    gap between the first and last accepted columns can exceed the 2 eps
    edge threshold by a quantization sliver.
    """
    window = _check_planar(spec)

    def cells(factor: float, length: float) -> int:
        # the fewest cells with factor * (length / cells) <= scale / 6 in floats
        n = math.ceil(6.0 * factor * length / scale)
        return n + (factor * (length / n) > scale / 6.0)

    nr = max(cells(1.0, spec.b - spec.a), 8)
    if spec.base.kind == "full_sphere":
        n_cols, stride = _commensurate_columns(spec.a * window / scale)
        return nr, max(n_cols * stride, 16)
    return nr, max(cells(spec.a, window), 16)


def annulus_model(spec: radial.AnnularDomainSpec, weight: WeightFunction,
                  nr: int, ntheta: int) -> AnnulusModel:
    """The midpoint quadrature model on nr x ntheta cells (at least 4 x 8);
    resolving_grid(spec, scale) gives the sizes that resolve a length scale."""
    window = _check_planar(spec)
    wrap = spec.base.kind == "full_sphere"
    if nr < 4 or ntheta < 8:
        raise ValueError(f"grid too coarse: nr={nr}, ntheta={ntheta}")
    hr = (spec.b - spec.a) / nr
    ht = window / ntheta
    r = spec.a + hr * (np.arange(nr) + 0.5)
    th = ht * (np.arange(ntheta) + 0.5)
    f = weight.radial(r)
    g = weight.angular(th)
    return AnnulusModel(
        spec=spec, weight=weight, r=r, th=th, wrap=wrap, hr=hr, ht=ht,
        radial_density=f, angular_density=g, radial_mass=f * r * hr, angular_mass=g * ht,
    )


@dataclass
class IntervalModel:
    """Midpoint quadrature model of a weighted interval (for 1-D audits)."""

    a: float
    b: float
    x: np.ndarray
    h: float
    node_measure: np.ndarray
    density: np.ndarray

    def ball_ids(self, center: float, radius: float) -> np.ndarray:
        return np.flatnonzero(np.abs(self.x - center) < radius)

    def ball_measure(self, center: float, radius: float) -> float:
        return float(self.node_measure[self.ball_ids(center, radius)].sum())

    def grid_edges(self):
        p = np.arange(len(self.x) - 1)
        pairs = np.stack([p, p + 1], axis=1)
        wf = 0.5 * (self.density[:-1] + self.density[1:])
        return pairs, wf / self.h


def interval_model(a: float, b: float, density: Callable[[np.ndarray], np.ndarray],
                   n_cells: int = 2048) -> IntervalModel:
    h = (b - a) / n_cells
    x = a + h * (np.arange(n_cells) + 0.5)
    d = np.asarray(density(x), dtype=float)
    return IntervalModel(a=a, b=b, x=x, h=h, node_measure=d * h, density=d)


@dataclass
class WeightedNet:
    """A maximal eps-separated net with edges at distance <= 2 eps.

    points holds (r, theta) rows; weights are the weighted measures of the
    eps-balls around each vertex; metric_tag records the surrogate metric
    that built the net.
    """

    points: np.ndarray
    epsilon: float
    edges: np.ndarray
    weights: np.ndarray
    metric_tag: str = "product_surrogate"

    @property
    def size(self) -> int:
        return len(self.points)

    def adjacency(self) -> sparse.csr_matrix:
        m = self.size
        if len(self.edges) == 0:
            return sparse.csr_matrix((m, m))
        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(len(self.edges))
        A = sparse.coo_matrix((data, (i, j)), shape=(m, m))
        return (A + A.T).tocsr()

    def max_degree(self) -> int:
        if len(self.edges) == 0:
            return 0
        return int(np.bincount(self.edges.ravel(), minlength=self.size).max())


def build_net(model: AnnulusModel, epsilon: float) -> WeightedNet:
    """Greedy maximal eps-separated net over the nodes of a quadrature model.

    The model must resolve eps, as annulus_model(spec, weight,
    *resolving_grid(spec, eps)) does; a coarser one is refused.  Nodes are
    scanned in lexicographic (radial-major) order, which makes the net
    deterministic; a node is accepted when it is >= eps away from every
    accepted point.  Edges connect net points at sigma-distance <= 2 eps,
    and each vertex weight is the weighted measure of its eps-ball.
    """
    spec = model.spec
    # each direction must be resolved by >= 6 nodes per eps unless an
    # eps-ball already spans it entirely
    window = 2.0 * math.pi if model.wrap else (model.th[-1] - model.th[0] + model.ht)
    if model.hr > epsilon / 6.0 and (spec.b - spec.a) > epsilon:
        raise ValueError("quadrature grid too coarse relative to eps (radial)")
    if spec.a * model.ht > epsilon / 6.0 and spec.a * window > epsilon:
        raise ValueError("quadrature grid too coarse relative to eps (angular)")
    wrap = model.wrap
    accepted_r: list[float] = []
    accepted_t: list[float] = []
    acc_r = np.empty(0)
    acc_t = np.empty(0)
    for r, t in zip(model.node_r, model.node_th):
        if acc_r.size:
            d = np.maximum(np.abs(acc_r - r),
                           spec.a * base_arc_distance(acc_t, t, wrap))
            if d.min() < epsilon:
                continue
        accepted_r.append(r)
        accepted_t.append(t)
        acc_r = np.asarray(accepted_r)
        acc_t = np.asarray(accepted_t)
    pts = np.stack([acc_r, acc_t], axis=1)
    m = len(pts)
    edges = []
    for i in range(m):
        d = np.maximum(
            np.abs(acc_r[i + 1:] - acc_r[i]),
            spec.a * base_arc_distance(acc_t[i + 1:], acc_t[i], wrap),
        )
        for j in np.flatnonzero(d <= 2.0 * epsilon):
            edges.append((i, i + 1 + j))
    weights = np.array([model.ball_measure(p, epsilon) for p in pts])
    return WeightedNet(
        points=pts, epsilon=epsilon,
        edges=np.asarray(edges, dtype=int).reshape(-1, 2), weights=weights,
    )


def verify_net(net: WeightedNet, model: AnnulusModel) -> dict:
    """Separation and covering witnesses on the quadrature node set.

    Also checks the projection of the net onto the base circle: on shells
    no thicker than eps, distinct net points keep base distance >= eps/4
    and the projected points still cover the base within eps (the projected
    set need not be maximal, only separated-and-covering at those relaxed
    constants).
    """
    m = net.size
    scale = model.spec.a
    min_sep = math.inf
    proj_min = math.inf
    for i in range(m):
        arc = scale * base_arc_distance(net.points[i + 1:, 1], net.points[i, 1], model.wrap)
        d = np.maximum(np.abs(net.points[i + 1:, 0] - net.points[i, 0]), arc)
        if d.size:
            min_sep = min(min_sep, float(d.min()))
            proj_min = min(proj_min, float(arc.min()))
    cover = np.full(len(model.node_r), math.inf)
    proj_cover = np.full(len(model.node_th), math.inf)
    for p in net.points:
        arc = scale * base_arc_distance(model.node_th, p[1], model.wrap)
        cover = np.minimum(cover, np.maximum(np.abs(model.node_r - p[0]), arc))
        proj_cover = np.minimum(proj_cover, arc)
    thin = (model.spec.b - model.spec.a) <= net.epsilon + 1e-12
    return {
        "min_separation": min_sep if m > 1 else math.inf,
        "max_covering": float(cover.max()),
        "separated": (m <= 1) or (min_sep >= net.epsilon - 1e-12),
        "covered": bool(cover.max() < net.epsilon + 1e-12),
        "projected_min_separation": proj_min if (m > 1 and thin) else math.nan,
        "projected_max_covering": float(proj_cover.max()) if thin else math.nan,
        "projected_separated": (m <= 1) or (not thin)
        or (proj_min >= net.epsilon / 4.0 - 1e-12),
        "projected_covered": (not thin) or bool(proj_cover.max() < net.epsilon + 1e-12),
    }


def export_net(net: WeightedNet, path) -> None:
    """Edge-list text format: header, vertex lines `i r theta weight`, edge lines `i j`."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{net.size} {len(net.edges)} {float(net.epsilon)!r} {net.metric_tag}\n")
        for i, (p, w) in enumerate(zip(net.points, net.weights)):
            fh.write(f"{i} {float(p[0])!r} {float(p[1])!r} {float(w)!r}\n")
        for i, j in net.edges:
            fh.write(f"{i} {j}\n")
