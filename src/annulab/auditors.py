"""Empirical volume-doubling and Poincare audits, and the sector counterexample.

The doubling audit tabulates V(x, 2r) / V(x, r) for weighted ball measures;
the Poincare audit defines the ball constant spectrally, P(x, r) = 1 /
(r^2 mu_2) with mu_2 the smallest nonzero eigenvalue of the weighted
zero-flux operator on the ball (continuous grid mode) or of the weighted
net graph Laplacian (discrete mode).  The sector audit evaluates, fully in
log space, the weighted volumes of center balls in a thin circular sector
through Bessel functions of large order, where uniform doubling genuinely
fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, numerics, radial, specfun

__all__ = [
    "AuditReport",
    "doubling_profile",
    "doubling_profile_model",
    "interval_doubling_brute_force",
    "poincare_profile",
    "separated_gap",
    "zero_flux_gap",
    "net_graph_gap",
    "sector_counterexample",
]


@dataclass
class AuditReport:
    """Tabular audit outcome: rows and a summary."""

    name: str
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def doubling_profile_model(model, centers, radii) -> AuditReport:
    """Doubling ratios V(x, 2r)/V(x, r) on a prebuilt quadrature model."""
    rows = []
    skipped = 0
    for c in centers:
        for r in radii:
            v1 = model.ball_measure(c, r)
            v2 = model.ball_measure(c, 2.0 * r)
            if v1 <= 0.0:
                skipped += 1
                rows.append(_center_row(c, r, flag="empty_small_ball"))
                continue
            rows.append(_center_row(c, r, v_r=v1, v_2r=v2, ratio=v2 / v1))
    ratios = [row["ratio"] for row in rows if "ratio" in row]
    return AuditReport(
        name="volume_doubling",
        rows=rows,
        summary={
            "doubling_max": max(ratios) if ratios else math.nan,
            "doubling_min": min(ratios) if ratios else math.nan,
            "rows": len(rows),
            "skipped": skipped,
        },
    )


def _center_row(c, r, **extra):
    if np.ndim(c) == 0:
        row = {"center": float(c), "r": float(r)}
    else:
        row = {"center_r": float(c[0]), "center_th": float(c[1]), "r": float(r)}
    row.update(extra)
    return row


def doubling_profile(spec: radial.AnnularDomainSpec, weight: geometry.WeightFunction,
                     centers, radii, quad_grid: tuple[int, int] | None = None) -> AuditReport:
    """Doubling audit on a planar shell; builds the quadrature model internally."""
    min_r = min(radii)
    if quad_grid is None:
        model = geometry.annulus_model(spec, weight, resolve=min(min_r, spec.b - spec.a))
    else:
        model = geometry.annulus_model(spec, weight, nr=quad_grid[0], ntheta=quad_grid[1])
    return doubling_profile_model(model, centers, radii)


def interval_doubling_brute_force(a: float, b: float, density, center: float,
                                  r: float) -> float:
    """Doubling ratio on an interval by adaptive quadrature of exact
    ball intersections; independent oracle for the model path."""
    from scipy.integrate import quad

    def mass(rad):
        lo, hi = max(a, center - rad), min(b, center + rad)
        if hi <= lo:
            return 0.0
        val, _ = quad(density, lo, hi, limit=200)
        return val

    v1 = mass(r)
    if v1 <= 0:
        return math.nan
    return mass(2.0 * r) / v1


def _kernel_check(mu1: float, mu2: float, form: str) -> None:
    """mu_1 of a zero-flux form must vanish: the constants span its kernel."""
    if not abs(mu1) <= max(1e-8 * abs(mu2), 1e-12):
        raise RuntimeError(f"{form} kernel check failed: mu_1 = {mu1:.3e}")


def _edge_form_gap(p, q, cond, mass, form: str) -> float:
    """mu_2 of K f = mu M f for the zero-flux form with conductances cond on
    the edges (p, q), by the sparse driver at every size: K has its row sums
    on the diagonal, so the constants span its kernel, which mu_1 must confirm."""
    m = len(mass)
    if m < 2:
        return math.nan
    diag = np.bincount(np.concatenate([p, q]), np.concatenate([cond, cond]), minlength=m)
    L = numerics.symmetrized_operator(p, q, cond, diag, mass)
    op = numerics.SparseSymmetricOperator.from_matrix(L)
    shift = -1e-6 * float(np.max(L.diagonal()))
    # the even-numbered nodes less those joined to another: independent
    red = np.arange(m) % 2 == 0
    joined = red[p] & red[q]
    red[p[joined]] = red[q[joined]] = False
    (mu1, mu2), _ = numerics.sparse_smallest_eigenpairs(op, 2, shift, np.flatnonzero(red))
    _kernel_check(mu1, mu2, form)
    return float(mu2)


def _path_eigenvalues(cond, mass, k: int, potential=0.0) -> np.ndarray:
    """k smallest mu of (K + potential M) f = mu M f, for the path form K
    with conductance cond[i] between nodes i and i + 1 and M = diag(mass)."""
    d = 1.0 / np.sqrt(mass)
    row_sums = np.concatenate(([0.0], cond)) + np.concatenate((cond, [0.0]))
    diag = d * row_sums * d + potential
    return numerics.tridiag_smallest_eigenvalues(diag, d[:-1] * -cond * d[1:], k)


def _path_gap(cond, mass, form: str) -> float:
    mu1, mu2 = _path_eigenvalues(cond, mass, 2)
    _kernel_check(mu1, mu2, form)
    return float(mu2)


def _angular_gap(model: geometry.AnnulusModel, arc: tuple[int, int]) -> float:
    """Smallest nonzero eigenvalue of the angular zero-flux form on an arc."""
    cond, mass, cyclic = model.angular_form(arc)
    if cyclic:
        p = np.arange(len(mass))
        return _edge_form_gap(p, (p + 1) % len(mass), cond, mass, "angular zero-flux")
    return _path_gap(cond, mass, "angular zero-flux")


def separated_gap(model: geometry.AnnulusModel, rows: slice, arc: tuple[int, int],
                  angular_gap=None) -> float:
    """Smallest nonzero eigenvalue of the weighted zero-flux operator on the
    ball rows x arc of an AnnulusModel (see AnnulusModel.ball), from 1-D problems.

    The form separates: K = K_r (x) M_t + (M_r R^-2) (x) K_t against M =
    M_r (x) M_t, so its spectrum is the union over the angular eigenvalues
    beta_k of the radial problems (K_r + beta_k M_r R^-2, M_r).  beta_0 = 0
    gives the radial spectrum, kernel included, and every radial eigenvalue
    grows with beta, so mu_2 is the lesser of the second radial eigenvalue
    and the first at beta_1.  It equals zero_flux_gap on the same nodes up
    to rounding.  angular_gap(arc) -> beta_1 may be passed to share it
    between balls.
    """
    cond, mass = model.radial_form(rows)
    if len(mass) * arc[1] < 2:
        return math.nan
    gaps = []
    if len(mass) > 1:
        gaps.append(_path_gap(cond, mass, "radial zero-flux"))
    if arc[1] > 1:
        beta1 = angular_gap(arc) if angular_gap else _angular_gap(model, arc)
        gaps.append(float(_path_eigenvalues(cond, mass, 1, beta1 / model.r[rows] ** 2)[0]))
    return min(gaps)


def _kept_edges(edges, ids, size):
    """Edges with both ends in ids, renumbered by their position in ids."""
    pos = -np.ones(size, dtype=int)
    pos[ids] = np.arange(len(ids))
    keep = (pos[edges[:, 0]] >= 0) & (pos[edges[:, 1]] >= 0)
    return keep, pos[edges[keep, 0]], pos[edges[keep, 1]]


def zero_flux_gap(model, ids: np.ndarray) -> float:
    """Smallest nonzero eigenvalue of the weighted zero-flux operator on a
    node subset of a quadrature model.

    The operator keeps exactly the grid edges internal to the subset
    (reflecting boundary); the constant function lies in its kernel by
    construction.  On an AnnulusModel this 2-D form is the oracle of
    separated_gap.
    """
    pairs, conds = model.grid_edges()
    keep, p, q = _kept_edges(pairs, ids, len(model.node_measure))
    return _edge_form_gap(p, q, conds[keep], model.node_measure[ids], "zero-flux")


def net_graph_gap(net: geometry.WeightedNet, vertex_ids: np.ndarray) -> float:
    """Smallest nonzero eigenvalue of the weighted net-graph form on a vertex set.

    Quadratic form sum_y m(y) sum_{z~y} (f(y)-f(z))^2 against the vertex
    masses m; edge (y,z) therefore carries conductance m(y) + m(z).
    """
    if len(net.edges) == 0:
        return math.nan
    keep, p, q = _kept_edges(net.edges, vertex_ids, net.size)
    cond = net.weights[net.edges[keep, 0]] + net.weights[net.edges[keep, 1]]
    return _edge_form_gap(p, q, cond, net.weights[vertex_ids], "net graph")


def poincare_profile(spec: radial.AnnularDomainSpec, weight: geometry.WeightFunction,
                     centers, radii, mode: str = "continuous_grid",
                     epsilon: float | None = None) -> AuditReport:
    """Ball Poincare constants P(x, r) on a planar shell.

    continuous_grid: P = 1/(r^2 mu_2) with mu_2 the weighted zero-flux gap of
    the sigma-ball on the quadrature grid, from its separated 1-D problems
    (separated_gap).  discrete_net: P = 1/(m^2 mu_2)
    with the weighted net-graph form on the graph ball of radius m =
    max(1, round(r / 2 eps)); m is then remeasured as the true graph radius,
    so saturated balls are handled consistently.
    """
    rows = []
    if mode not in ("continuous_grid", "discrete_net"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "continuous_grid":
        model = geometry.annulus_model(spec, weight,
                                       resolve=min(min(radii), spec.b - spec.a))
        # balls that share a column arc share its angular problem
        angular_gap = functools.lru_cache(maxsize=None)(functools.partial(_angular_gap, model))
        for c in centers:
            for r in radii:
                ball_rows, arc = model.ball(c, r)
                if (ball_rows.stop - ball_rows.start) * arc[1] < 4:
                    rows.append(_center_row(c, r, flag="ball_under_resolved"))
                    continue
                mu2 = separated_gap(model, ball_rows, arc, angular_gap)
                rows.append(_center_row(c, r, mu2=mu2, poincare=1.0 / (r * r * mu2)))
    else:
        if epsilon is None:
            raise ValueError("discrete_net mode needs epsilon")
        from scipy.sparse.csgraph import shortest_path

        net = geometry.build_net(spec, epsilon, weight)
        adjacency = net.adjacency()
        wrap = spec.base.kind == "full_sphere"
        for c in centers:
            # matched balls: net vertices inside the continuous sigma-ball,
            # with the subgraph's own radius as the graph scale
            sig = np.maximum(
                np.abs(net.points[:, 0] - c[0]),
                spec.a * geometry.base_arc_distance(net.points[:, 1], c[1], wrap),
            )
            src = int(np.argmin(sig))
            for r in radii:
                ids = np.flatnonzero(sig <= r)
                if len(ids) < 2 or src not in ids:
                    rows.append(_center_row(c, r, flag="ball_under_resolved"))
                    continue
                sub = adjacency[np.ix_(ids, ids)]
                gd = shortest_path(sub, unweighted=True,
                                   indices=int(np.flatnonzero(ids == src)[0]))
                reachable = np.isfinite(gd)
                if reachable.sum() < 2:
                    rows.append(_center_row(c, r, flag="ball_disconnected"))
                    continue
                ids = ids[reachable]
                m_eff = max(1, int(np.max(gd[reachable])))
                mu2 = net_graph_gap(net, ids)
                rows.append(_center_row(
                    c, r, graph_radius=m_eff, mu2=mu2,
                    poincare=1.0 / (m_eff * m_eff * mu2),
                ))
    vals = [row["poincare"] for row in rows if "poincare" in row]
    return AuditReport(
        name=f"poincare_{mode}",
        rows=rows,
        summary={
            "poincare_max": max(vals) if vals else math.nan,
            "poincare_min": min(vals) if vals else math.nan,
            "rows": len(rows),
            "skipped": sum(1 for row in rows if "flag" in row),
        },
    )


def _log_integrand(nu: float, upper: float, nodes: int):
    """log(J_nu(u)^2 u) at the midpoints of `nodes` cells of [0, upper], and
    the cell width."""
    du = upper / nodes
    u = (np.arange(nodes) + 0.5) * du
    return 2.0 * specfun.bessel_j_log_grid(nu, u) + np.log(u), du


def _log_midpoint_sum(logs: np.ndarray, du: float) -> float:
    """log of du * sum(exp(logs)), by log-sum-exp."""
    m = logs.max()
    return m + math.log(np.sum(np.exp(logs - m))) + math.log(du)


def _log_midpoint_integral(nu: float, upper: float, nodes: int) -> float:
    """log of int_0^upper J_nu(u)^2 u du by midpoint rule in log space."""
    return _log_midpoint_sum(*_log_integrand(nu, upper, nodes))


def sector_counterexample(beta_values, nodes: int = 4096) -> AuditReport:
    """Weighted center-ball volumes of the unit circular sector of opening
    pi*beta, computed in log space, against their closed-form asymptotics.

    The squared ground state is J_{1/beta}(alpha r)^2 sin^2(theta/beta) over
    r in (0,1), normalized by (pi beta / 4) J_{1/beta+1}(alpha)^2; the ball
    of radius 1/alpha at the vertex then has log-volume log 2 + log I -
    2 log alpha - 2 log J_{1/beta+1}(alpha) with I the radial integral.  The
    audit reports the measured values, the asymptotic prediction of the
    closed form, the alternative pre-normalization closing constant
    (beta^5/8)(e beta/2)^(2/beta) that appears alongside it (both are
    logged; the discrepancy is flagged, not resolved), and the doubling
    ratio between the full and half center-balls whose predicted value is
    4 * 2^(2/beta).  Both radial integrals are midpoint sums in log space,
    with log|J_nu| from specfun.bessel_j_log_grid: the full one over `nodes`
    cells, and the half-ball one over the first half of the refinement
    check's 2 * nodes cells of [0, 1], which are the `nodes` cells of
    [0, 1/2] to the bit, so each order evaluates 3 * nodes points.
    """
    rows = []
    for beta in beta_values:
        # the Bessel order 1/beta stays within the range specfun is tested on
        if not (0.0 < beta <= 0.5 and 1.0 / beta <= 200.0):
            raise ValueError(f"beta must lie in [1/200, 1/2], got {beta}")
        nu = 1.0 / beta
        alpha = specfun.first_positive_zero(nu)
        log_j1 = specfun.bessel_j_log(nu + 1.0, alpha)[0]
        log_i_full = _log_midpoint_integral(nu, 1.0, nodes)
        # refinement check at twice the node count; its first `nodes`
        # midpoints (i + 1/2) / (2 nodes) are the half-ball grid on [0, 1/2]
        logs, du = _log_integrand(nu, 1.0, 2 * nodes)
        log_i_check = _log_midpoint_sum(logs, du)
        log_i_half = _log_midpoint_sum(logs[:nodes], du)
        if not math.isfinite(log_i_check) or abs(log_i_check - log_i_full) > 1e-6 * abs(log_i_full):
            flag = "quadrature_not_converged"
        else:
            flag = ""
        log_v_full = math.log(2.0) + log_i_full - 2.0 * math.log(alpha) - 2.0 * log_j1
        log_v_half = math.log(2.0) + log_i_half - 2.0 * math.log(alpha) - 2.0 * log_j1
        ratio = math.exp(log_v_full - log_v_half)
        pred_ratio = 4.0 * 2.0 ** (2.0 / beta)
        log_pred_statement = (
            4.0 * math.log(beta) - math.log(2.0 * math.pi) - 2.0 * log_j1
            + (2.0 / beta) * math.log(math.e * beta / 2.0)
        )
        log_pred_prenorm = (
            5.0 * math.log(beta) - math.log(8.0)
            + (2.0 / beta) * math.log(math.e * beta / 2.0)
        )
        rows.append({
            "beta": float(beta),
            "alpha": alpha,
            "log_v_full": log_v_full,
            "log_v_half": log_v_half,
            "doubling_ratio": ratio,
            "predicted_ratio": pred_ratio,
            "log_v_predicted": log_pred_statement,
            "log_v_prenorm_constant": log_pred_prenorm,
            "flag": flag,
        })
    betas = [r["beta"] for r in rows]
    ratios = [r["doubling_ratio"] for r in rows]
    order = np.argsort(betas)[::-1]
    increasing = all(
        ratios[order[i]] < ratios[order[i + 1]] for i in range(len(order) - 1)
    )
    return AuditReport(
        name="sector_counterexample",
        rows=rows,
        summary={
            "ratio_increasing_as_beta_shrinks": increasing,
            "max_ratio": max(ratios),
            "normalization_constant_discrepancy": "statement vs pre-normalization "
            "closing constants are both logged per row",
        },
    )
