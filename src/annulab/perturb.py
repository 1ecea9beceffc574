"""Domain-perturbation laboratory for boxes and planar shells.

A scenario sandwiches an arbitrary domain U between an inner domain A and an
outer domain B (A subset of U subset of B) and audits the eigenfunction
ratios phi_U/phi_B (bounded above) and phi_U/phi_A (bounded below on the
trimmed inner domain), plus the eigenvalue ordering lam(B) <= lam(U) <=
lam(A).  For shells the admissible widening is cubic in the shell thickness:
a_eps, b_eps <= const * eps^3, which keeps the eigenvalue gap of the
sandwich bounded.

Scenario configs load from a key = value text file; radial boundary
functions are truncated cosine series `const | k:amp:phase | ...`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bases, estimates, numerics, spectral2d

__all__ = [
    "PerturbationScenario",
    "check_box_conditions",
    "box_perturbation_audit",
    "annulus_perturbation_audit",
    "widening_exponent_sweep",
    "parse_key_values",
    "parse_scenario",
    "load_scenario",
    "harmonic_series",
]


def harmonic_series(const: float, harmonics=()):
    """theta -> const + sum amp * cos(k theta + phase)."""
    harmonics = tuple(harmonics)

    def fn(theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full_like(theta, const)
        for k, amp, phase in harmonics:
            out = out + amp * np.cos(k * theta + phase)
        return out

    return fn


@dataclass
class PerturbationScenario:
    """Sandwich A subset U subset B, either boxes or planar shells.

    Box form: two half widths each for B1 (a_widths) and B2 (b_widths),
    plus an optional corner notch size carving U out of B2.  Shell form: inner shell
    (1, 1+eps) x window, hull widened by (a_eps, b_eps) radially and eta on
    each angular side, U bounded by the harmonic series rmin/rmax.
    """

    kind: str  # "box" or "annulus"
    # box fields
    a_widths: tuple = ()
    b_widths: tuple = ()
    notch: float = 0.0
    # annulus fields
    eps: float = 0.0
    a_eps: float = 0.0
    b_eps: float = 0.0
    eta: float = 0.0
    theta1: float | None = None  # None: full circle
    rmin_const: float = 0.0
    rmin_harmonics: tuple = ()
    rmax_const: float = 0.0
    rmax_harmonics: tuple = ()
    # regime parameters (recorded, checked where meaningful)
    C1: float = 1.0
    C2: float = 1.0

    def __post_init__(self):
        if self.kind == "annulus":
            if self.eps <= 0:
                raise ValueError("annulus scenario needs eps > 0")
            for key in ("a_eps", "b_eps", "eta"):
                if not getattr(self, key) >= 0.0:
                    raise ValueError(f"scenario key {key!r}: need >= 0, got {getattr(self, key)}")
            if self.a_eps > self.C1 * self.eps**3 + 1e-15 or \
               self.b_eps > self.C2 * self.eps**3 + 1e-15:
                raise ValueError(
                    "widening exceeds the cubic regime: need a_eps <= C1 eps^3 "
                    "and b_eps <= C2 eps^3"
                )
            if self.theta1 is not None and self.theta1 + 2.0 * self.eta > 2.0 * math.pi:
                raise ValueError("scenario keys 'theta1' and 'eta': need theta1 + 2 eta <= 2 pi")
            if self.rmin_const == 0.0:
                self.rmin_const = 1.0 - self.a_eps
            if self.rmax_const == 0.0:
                self.rmax_const = 1.0 + self.eps + self.b_eps
        elif self.kind == "box":
            if len(self.a_widths) != 2 or len(self.b_widths) != 2:
                raise ValueError("box scenario needs two half widths in each of b1 and b2, "
                                 f"got {len(self.a_widths)} and {len(self.b_widths)}")
            if any(a > b + 1e-15 for a, b in zip(self.a_widths, self.b_widths)):
                raise ValueError("need B1 inside B2 componentwise")
        else:
            raise ValueError(f"unknown scenario kind {self.kind!r}")

    def r_min(self):
        return harmonic_series(self.rmin_const, self.rmin_harmonics)

    def r_max(self):
        return harmonic_series(self.rmax_const, self.rmax_harmonics)


def check_box_conditions(a_widths, b_widths, C1: float, C2: float) -> dict:
    """Evaluate the two box-sandwich admissibility conditions exactly.

    Condition 1: 1/a_i^2 - 1/b_i^2 <= C1 / max_i b_i^2 for every axis.
    Condition 2: a_i >= b_i / C2.  Also checks that condition 1 at level C1
    implies condition 2 at C2 = sqrt(C1 + 1).
    """
    a = np.asarray(a_widths, dtype=float)
    b = np.asarray(b_widths, dtype=float)
    bmax2 = float(np.max(b) ** 2)
    lhs1 = float(np.max(1.0 / a**2 - 1.0 / b**2) * bmax2)
    cond1 = estimates.BoundsReport.check(
        "box condition 1 (eigenvalue drift)", lhs1, 0.0, C1, tol=1e-12,
        extra={"required_C1": lhs1},
    )
    ratio = float(np.min(a / b))
    cond2 = estimates.BoundsReport.check(
        "box condition 2 (width ratio)", ratio, 1.0 / C2, math.inf, tol=1e-12,
        extra={"required_C2": 1.0 / ratio},
    )
    implied_c2 = math.sqrt(lhs1 + 1.0)
    implication = estimates.BoundsReport.check(
        "condition 1 implies condition 2 at sqrt(C1+1)", ratio,
        1.0 / implied_c2, math.inf, tol=1e-12, extra={"implied_C2": implied_c2},
    )
    return {"condition1": cond1, "condition2": cond2, "implication": implication}


def _box_indicator(scenario: PerturbationScenario):
    bw = np.asarray(scenario.b_widths, dtype=float)
    s = scenario.notch

    def indicator(X, Y):
        inside = (np.abs(X) < bw[0]) & (np.abs(Y) < bw[1])
        if s > 0:
            in_notch = (np.abs(X) > bw[0] - s) & (np.abs(Y) > bw[1] - s)
            inside &= ~in_notch
        return inside

    return indicator


def _box_phi(half_widths, axes, nodes: np.ndarray) -> np.ndarray:
    """The exact box eigenfunction prod cos(pi x_i / 2 a_i) / sqrt(a_i) of
    estimates.box_caricature at the grid nodes selected by the mask `nodes`,
    from the outer product of its two 1-D factors on the grid axes."""
    factors = []
    for axis, (t, a) in enumerate(zip(axes, np.asarray(half_widths, dtype=float))):
        if np.any(np.abs(t[nodes.any(axis=1 - axis)]) >= a):
            raise ValueError("point outside the box")
        factors.append(np.cos(math.pi * t / (2.0 * a)) / np.sqrt(a))
    return np.multiply.outer(*factors)[nodes]


def box_perturbation_audit(scenario: PerturbationScenario, h: float) -> dict:
    """Eigenfunction ratio audit for a box sandwich B1 subset U subset B2.

    Solves U on the grid, evaluates the exact box eigenfunctions of B1 and
    B2 at the grid nodes, and reports max_U phi_U/phi_B2 and
    min over the trimmed B1 of phi_U/phi_B1, with the eigenvalue ordering.
    Both ratios skip the nodes within two cells of the boundary.
    """
    if scenario.kind != "box":
        raise ValueError("need a box scenario")
    conditions = check_box_conditions(
        scenario.a_widths, scenario.b_widths, scenario.C1, scenario.C2
    )
    bw = scenario.b_widths
    domain = spectral2d.CartesianDomain2D(
        indicator=_box_indicator(scenario),
        bbox=(-bw[0], bw[0], -bw[1], bw[1]),
    )
    sol = spectral2d.solve_cartesian(domain, h)
    x, y = sol.axes
    X, Y = np.meshgrid(x, y, indexing="ij")
    phi_u = sol.phi
    interior = sol.interior_mask(2)

    aw = np.asarray(scenario.a_widths, dtype=float)
    inside_a = (np.abs(X) < aw[0]) & (np.abs(Y) < aw[1])
    # sandwich check on the node set
    if np.any(inside_a & ~sol.mask):
        raise ValueError("sandwich violated on grid: B1 escapes U")

    phi_b2 = _box_phi(scenario.b_widths, sol.axes, interior)
    upper_ratio = float(np.max(phi_u[interior] / phi_b2))

    trim_a = (np.abs(X) < aw[0] - 2 * h) & (np.abs(Y) < aw[1] - 2 * h)
    trim_a &= interior
    phi_b1 = _box_phi(scenario.a_widths, sol.axes, trim_a)
    lower_ratio = float(np.min(phi_u[trim_a] / phi_b1))

    lam_b1 = float(sum((math.pi / (2.0 * a)) ** 2 for a in scenario.a_widths))
    lam_b2 = float(sum((math.pi / (2.0 * a)) ** 2 for a in scenario.b_widths))
    lam_u = sol.eigenvalue
    ordering_ok = lam_b2 <= lam_u * (1 + 1e-3) and lam_u <= lam_b1 * (1 + 1e-3)
    return {
        "conditions": conditions,
        "upper_ratio": upper_ratio,
        "lower_ratio": lower_ratio,
        "lam_inner": lam_b1,
        "lam_u": lam_u,
        "lam_outer": lam_b2,
        "eigenvalue_ordering_ok": bool(ordering_ok),
        "grid_h": h,
    }


def _interp_on(sol: spectral2d.GridEigenpair, wrap: bool):
    """Bilinear interpolation of a grid eigenfunction (zero outside its mask)
    at the nodes of another grid: fn(axes, select) gives the values at the
    selected nodes of the grid with those axes, in row-major order."""
    r, th = sol.axes
    vals = sol.phi
    if wrap:
        th = np.concatenate([th, [th[0] + 2.0 * math.pi]])
        vals = np.concatenate([vals, vals[:, :1]], axis=1)

    def fn(axes, select):
        rr, tt = axes
        if wrap:
            tt = np.mod(tt, 2.0 * math.pi)
        return numerics.bilinear_on_grid((r, th), vals, rr, tt, select)

    return fn


def annulus_perturbation_audit(scenario: PerturbationScenario,
                               grids: tuple[int, int] = (48, 384)) -> dict:
    """Eigenfunction ratio audit for a shell sandwich.

    A = (1, 1+eps) x window, B = (1-a_eps, 1+eps+b_eps) x (window widened by
    eta), U bounded by the scenario's radial functions.  Reports
    (i) max_U phi_U/phi_B, (ii) min over the trimmed A of phi_U/phi_A,
    (iii) the spread of phi_U over the tent-profile product on the core
    region, and the eigenvalue ordering.  A scenario whose A subset U subset
    B fails on U's theta nodes (to 1e-12 in r) is refused before any solve.
    """
    if scenario.kind != "annulus":
        raise ValueError("need an annulus scenario")
    eps, a_eps, b_eps, eta = scenario.eps, scenario.a_eps, scenario.b_eps, scenario.eta
    Nr, Nt = grids
    full = scenario.theta1 is None
    window_a = (0.0, 2.0 * math.pi if full else scenario.theta1)
    lo, hi = (0.0, 2.0 * math.pi) if full else (-eta, scenario.theta1 + eta)
    dom_a = spectral2d.annulus_domain(1.0, 1.0 + eps, *window_a, wrap=full)
    dom_b = spectral2d.annulus_domain(1.0 - a_eps, 1.0 + eps + b_eps, lo, hi, wrap=full)
    dom_u = spectral2d.PolarDomain2D(r_min=scenario.r_min(), r_max=scenario.r_max(),
                                     theta_lo=lo, theta_hi=hi, wrap=full)
    base = bases.full_sphere(2) if full else bases.circle_arc(scenario.theta1)
    g_base = bases.base_eigendata(base)

    if Nr < 1 or Nt < 1:
        raise ValueError(f"need positive grid sizes, got Nr={Nr}, Ntheta={Nt}")
    # U's theta nodes and radial step as solve_polar takes them
    th = lo + (hi - lo) / Nt * np.arange(0 if full else 1, Nt)
    rmin, rmax, tol = dom_u.r_min(th), dom_u.r_max(th), 1e-12
    on_a = (th >= window_a[0]) & (th <= window_a[1])
    if not np.all((rmin[on_a] <= 1.0 + tol) & (rmax[on_a] >= 1.0 + eps - tol)):
        raise ValueError("sandwich violated on grid: A escapes U")
    if not np.all((rmin >= 1.0 - a_eps - tol) & (rmax <= 1.0 + eps + b_eps + tol)):
        raise ValueError("sandwich violated on grid: U escapes B")
    margin = 2.0 * ((rmax.max() - rmin.min()) / Nr) + eps**3
    # A's radial nodes in interior_mask(2), as solve_polar places them
    r_a = (1.0 + ((1.0 + eps) - 1.0) / Nr * np.arange(1, Nr))[2:-2]
    if not np.any((r_a > 1.0 + max(a_eps, margin)) & (r_a < 1.0 + eps - max(b_eps, margin))):
        raise ValueError(f"--eps {eps!r}: the margin 2*h_r + eps^3 = {margin:.6g} (or a widening) "
                         f"trims every radial node of A = (1, 1 + eps) on {Nr} cells off the core")

    sol_a = spectral2d.solve_polar(dom_a, Nr, Nt)
    sol_b = spectral2d.solve_polar(dom_b, Nr, Nt)
    sol_u = spectral2d.solve_polar(dom_u, Nr, Nt)

    lam_a, lam_u, lam_b = (s.eigenvalue for s in (sol_a, sol_u, sol_b))
    ordering_ok = lam_b <= lam_u * (1 + 1e-3) and lam_u <= lam_a * (1 + 1e-3)

    # (i) upper: phi_U / phi_B over U's interior nodes
    phi_b_at = _interp_on(sol_b, full)
    keep_u = sol_u.interior_mask(2) & (sol_u.phi > 0)
    phi_b_vals = phi_b_at(sol_u.axes, keep_u)
    pos = phi_b_vals > 0
    upper_ratio = float(np.max(sol_u.phi[keep_u][pos] / phi_b_vals[pos]))

    # (ii) lower: phi_U / phi_A over the trimmed inner shell
    phi_u_at = _interp_on(sol_u, full)
    r_a, th_a = sol_a.axes
    Ra, THa = np.meshgrid(r_a, th_a, indexing="ij")
    trim = (Ra > 1.0 + margin) & (Ra < 1.0 + eps - margin)
    if not full:
        trim &= (THa > window_a[0] + eta) & (THa < window_a[1] - eta)
    trim &= sol_a.interior_mask(2)
    phi_u_vals = phi_u_at(sol_a.axes, trim)
    lower_ratio = float(np.min(phi_u_vals / sol_a.phi[trim]))

    # (iii) core spread against the tent-profile product
    core = (Ra > 1.0 + max(a_eps, margin)) & (Ra < 1.0 + eps - max(b_eps, margin))
    if not full:
        core &= (THa > window_a[0] + eta) & (THa < window_a[1] - eta)
    core &= sol_a.interior_mask(2)
    tent = np.minimum(Ra[core] - 1.0, 1.0 + eps - Ra[core]) / eps**1.5
    profile = tent * g_base.phi0(THa[core])
    ratios = phi_u_at(sol_a.axes, core) / profile
    core_spread = float(np.max(ratios) / np.min(ratios))

    return {
        "upper_ratio": upper_ratio,
        "lower_ratio": lower_ratio,
        "core_spread": core_spread,
        "lam_inner": lam_a,
        "lam_u": lam_u,
        "lam_hull": lam_b,
        "eigenvalue_gap": lam_a - lam_b,
        "eigenvalue_ordering_ok": bool(ordering_ok),
        "grids": grids,
    }


def widening_exponent_sweep(eps: float, p_values=(2.0, 2.5, 3.0),
                            grids: tuple[int, int] = (40, 256)) -> list[dict]:
    """Exploratory sweep of the widening exponent: hull radii eps^p.

    The cubic exponent is the proven admissible scale; this sweep reports
    how the sandwich ratios and the eigenvalue gap degrade as the widening
    coarsens toward eps^2.  Report-only: no conclusion is asserted.
    """
    rows = []
    for p in p_values:
        w = eps**p
        scenario = PerturbationScenario(
            kind="annulus", eps=eps, a_eps=w, b_eps=w,
            C1=w / eps**3 * (1.0 + 1e-9), C2=w / eps**3 * (1.0 + 1e-9),
        )
        audit = annulus_perturbation_audit(scenario, grids=grids)
        rows.append({
            "p": float(p), "widening": w,
            "upper_ratio": audit["upper_ratio"],
            "lower_ratio": audit["lower_ratio"],
            "core_spread": audit["core_spread"],
            "eigenvalue_gap": audit["eigenvalue_gap"],
        })
    return rows


def parse_key_values(text: str, what: str) -> dict[str, str]:
    """Stripped `key = value` pairs, `#` comments; `what` names the file in errors."""
    fields = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{what} line {number} is not `key = value`: {raw.strip()!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        fields[key] = val
    return fields


def _parse_series(text: str):
    parts = [p.strip() for p in text.split("|")]
    const = float(parts[0])
    harm = []
    for p in parts[1:]:
        if not p:
            continue
        if p.count(":") != 2:
            raise ValueError(f"harmonic term {p!r} is not k:amp:phase")
        k, amp, phase = p.split(":")
        harm.append((int(k), float(amp), float(phase)))
    return const, tuple(harm)


def parse_scenario(text: str) -> PerturbationScenario:
    """Parse a scenario from key = value lines (see load_scenario)."""
    fields = parse_key_values(text, "scenario")
    kind = fields.pop("kind", None)
    if kind not in ("box", "annulus"):
        raise ValueError("scenario must declare kind = box | annulus")
    kwargs: dict = {"kind": kind}

    def value(key, convert=float):
        try:
            return convert(fields.pop(key))
        except ValueError as exc:
            raise ValueError(f"scenario key {key!r}: {exc}") from None

    if kind == "box":
        for key in ("b1", "b2"):
            if key not in fields:
                raise ValueError(f"box scenario needs key {key!r} (half widths)")
        def widths(text):
            return tuple(float(w) for w in text.split())

        kwargs["a_widths"] = value("b1", widths)
        kwargs["b_widths"] = value("b2", widths)
        for key in ("notch", "C1", "C2"):
            if key in fields:
                kwargs[key] = value(key)
    else:
        for key in ("eps", "a_eps", "b_eps", "eta", "C1", "C2", "theta1"):
            if key in fields:
                kwargs[key] = value(key)
        if "rmin" in fields:
            kwargs["rmin_const"], kwargs["rmin_harmonics"] = value("rmin", _parse_series)
        if "rmax" in fields:
            kwargs["rmax_const"], kwargs["rmax_harmonics"] = value("rmax", _parse_series)
    if fields:
        raise ValueError(f"unknown scenario keys: {sorted(fields)}")
    return PerturbationScenario(**kwargs)


def load_scenario(path) -> PerturbationScenario:
    """Load a scenario config file.

    Format: one `key = value` per line, `#` comments.  Keys: kind
    (box|annulus); box: b1, b2 (half widths, space separated), notch, C1,
    C2; annulus: eps, a_eps, b_eps, eta, theta1 (omit for the full circle),
    rmin, rmax (cosine series `const | k:amp:phase | ...`).
    """
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())
