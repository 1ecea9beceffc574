"""Spectral Dirichlet heat kernels and their equilibration/envelope audits.

The kernel is the truncated eigenfunction sum p(t,x,y) = sum e^{-lam_k t}
phi_k(x) phi_k(y).  A Spectrum is plain data: its modes are separable
factors held as arrays (a bases.ModeTable of interval sine modes per box
axis; a radial.RadialTable times the base's angular ModeTable for shells),
so it pickles, and Spectrum.modes(points) builds the whole (K, m) mode
table with array operations; it is built once per point set and reused
across times, and each sum over modes is one matrix product.

The truncation tail is bounded by domination by the free Gaussian
(Davies, Heat Kernels and Spectral Theory, 1989): with Lam a lower bound on
every omitted eigenvalue, sum_{k>K} e^{-lam_k t} phi_k(x)^2 <= e^{-Lam(t-s)}
(4 pi s)^{-d/2} for any s in (0, t], and off-diagonal terms follow by
Cauchy-Schwarz.  Each spectrum stores its Lam.  Evaluations whose bound
exceeds 1e-8 of the kernel scale are refused.

The normalized kernel e^(lam_1 t) p / (phi_1 phi_1) tends to 1; audits
measure its sup deviation against time, the exact product envelopes
available for boxes, and the Gaussian two-sided envelope against weighted
ball volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bases, geometry, radial

__all__ = [
    "Spectrum",
    "Box",
    "InsufficientSpectrumError",
    "box_spectrum",
    "interval_spectrum",
    "images_kernel_interval",
    "kernel_eval",
    "kernel_matrix",
    "normalized_kernel_matrix",
    "normalized_kernel_value",
    "equilibration_audit",
    "box_kernel_bounds_check",
    "gaussian_hke_audit",
    "default_pair_sample",
]

TAIL_RELATIVE_LIMIT = 1e-8


class InsufficientSpectrumError(RuntimeError):
    """The truncated spectrum cannot certify the kernel at the requested time."""


@dataclass
class Spectrum:
    """Truncated product spectrum held as eigenvalues plus mode-table factors.

    factors holds one (table, index) pair per coordinate: table is a
    bases.ModeTable or radial.RadialTable, array data that maps an (m,)
    array of that coordinate's values to an (F, m) array of one-coordinate
    eigenfunctions, and index (K,) picks the row each mode uses, so mode k
    is prod_d table_d(x_d)[index_d[k]].  The modes are orthonormal in the
    natural measure of the domain, a subset of R^dim.  omitted_floor is a
    lower bound on every eigenvalue the truncation leaves out.
    """

    eigenvalues: np.ndarray
    factors: tuple
    omitted_floor: float
    dim: int

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < -1e-12):
            raise ValueError("eigenvalues must be ascending")

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def modes(self, points, count=None) -> np.ndarray:
        """(count, m) table of the first `count` modes (every mode by
        default) at the m points of an (m, d) array."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = None
        for d, (table, index) in enumerate(self.factors):
            rows = table(pts[:, d])[index[:count]]
            out = rows if out is None else out * rows
        return out

    def spectral_gap(self) -> float:
        return float(self.eigenvalues[1] - self.eigenvalues[0])

    def tail_bound(self, t: float, reference: float = 0.0) -> float:
        """Bound on |sum_{k > K} e^(-(lam_k - reference) t) phi_k(x) phi_k(y)|
        for all x, y; pass reference = lam_1 for normalized sums.

        With Lam = omitted_floor and any s in (0, t], the omitted diagonal
        sum is at most e^(-Lam (t - s)) p(s,x,x) <= e^(-Lam (t - s)) (4 pi
        s)^(-dim/2), least at s = dim / (2 Lam) if that lies in (0, t), else
        at s = t.  Every kernel evaluation reaches this bound, so it is where
        a time t <= 0 is refused.
        """
        if not t > 0:
            raise ValueError(f"need t > 0, got {t!r}")
        lam, d = self.omitted_floor, self.dim
        s = t if lam * t <= d / 2.0 else d / (2.0 * lam)
        log_bound = reference * t - lam * (t - s) - d / 2.0 * math.log(4.0 * math.pi * s)
        return math.exp(log_bound) if log_bound < 709.0 else math.inf


@dataclass(frozen=True)
class Box:
    """Centered box prod (-a_i, a_i)."""

    half_widths: tuple

    def __post_init__(self):
        object.__setattr__(self, "half_widths", tuple(float(a) for a in self.half_widths))
        if not all(0.0 < a < math.inf for a in self.half_widths):
            raise ValueError(f"half widths must be positive and finite, got {self.half_widths}")

    @property
    def dim(self) -> int:
        return len(self.half_widths)


def box_spectrum(box: Box, modes_per_axis: int) -> Spectrum:
    """Exact product spectrum of a box, ascending, truncated per axis.

    Its omitted_floor is the exact next eigenvalue: one axis at mode
    modes_per_axis + 1 and every other axis at its ground mode.
    """
    if modes_per_axis < 1:
        raise ValueError("need at least one mode per axis")
    narrowest = min(box.half_widths)
    top = (modes_per_axis + 1) * math.pi / (2.0 * narrowest)
    if not box.dim * top * top < math.inf:
        raise ValueError(f"half width {narrowest!r} puts the eigenvalues of {modes_per_axis} "
                         "modes per axis past the float range")
    idx_grid = np.stack(
        np.meshgrid(*[np.arange(modes_per_axis) for _ in box.half_widths], indexing="ij"),
        axis=-1,
    ).reshape(-1, box.dim)
    axis_lams = [(np.arange(1, modes_per_axis + 2) * math.pi / (2.0 * a)) ** 2
                 for a in box.half_widths]
    eigenvalues = 0
    for d, axis_lam in enumerate(axis_lams):
        eigenvalues = eigenvalues + axis_lam[idx_grid[:, d]]
    order = np.argsort(eigenvalues)
    next_lam = min(sum(lam[modes_per_axis] if e == d else lam[0] for e, lam in enumerate(axis_lams))
                   for d in range(box.dim))
    return Spectrum(
        eigenvalues=eigenvalues[order],
        # axis d is the interval (0, 2 a_d) read from origin -a_d
        factors=tuple((bases.sine_modes(2.0 * a, modes_per_axis, -a), idx_grid[order, d])
                      for d, a in enumerate(box.half_widths)),
        omitted_floor=float(next_lam),
        dim=box.dim,
    )


def interval_spectrum(a: float, count: int) -> Spectrum:
    """Exact Dirichlet spectrum of the interval (-a, a)."""
    return box_spectrum(Box((a,)), count)


def images_kernel_interval(a: float, t: float, x: float, y: float) -> float:
    """Dirichlet heat kernel of (-a, a) by the method of images.

    Independent oracle for the spectral sum: alternating sum of free
    Gaussians over reflections with period 4a.
    """
    if t <= 0:
        raise ValueError("need t > 0")

    def gauss(z):
        return math.exp(-z * z / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)

    # reflections z -> 4am +/- ...; truncate once the Gaussian is negligible
    m_max = int(math.ceil((math.sqrt(4.0 * t * 200.0) + 4.0 * a) / (4.0 * a))) + 1
    total = 0.0
    for m in range(-m_max, m_max + 1):
        total += gauss(x - y + 4.0 * a * m) - gauss(x + y + 2.0 * a + 4.0 * a * m)
    return total


def _certify(tail: float, scale: float, t: float) -> None:
    """Refuse a kernel evaluation whose tail majorant is not negligible."""
    if not math.isfinite(tail) or tail > TAIL_RELATIVE_LIMIT * max(scale, 1e-300):
        raise InsufficientSpectrumError(
            f"tail {tail:.3e} too large for kernel scale {scale:.3e} at t={t}"
        )


def _mode_sum(phis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k phi_k(x_i) phi_k(x_j) over all pairs of table columns, as
    one GEMM over the table's modes (the first len(phis) weights)."""
    return (phis * weights[:len(phis), None]).T @ phis


def _live(weights: np.ndarray) -> int:
    """Number of leading modes up to the last whose weight (a row of
    `weights`) is nonzero in double precision.  The eigenvalues ascend, so
    the weights e^(-lam_k t) that underflow to 0 are the trailing ones, and
    a sum over this prefix drops only terms that are exactly 0."""
    nonzero = np.flatnonzero(weights if weights.ndim == 1 else weights.any(axis=1))
    return int(nonzero[-1]) + 1 if len(nonzero) else 0


def kernel_eval(spectrum: Spectrum, t: float, x, y) -> tuple[float, float]:
    """Truncated spectral kernel value with its certified tail estimate.

    Raises InsufficientSpectrumError when the tail estimate exceeds
    TAIL_RELATIVE_LIMIT of the value at the requested time.
    """
    tail = spectrum.tail_bound(t)
    xp = np.atleast_2d(np.asarray(x, dtype=float))
    yp = np.atleast_2d(np.asarray(y, dtype=float))
    w = np.exp(-spectrum.eigenvalues * t)
    phix, phiy = spectrum.modes(np.vstack([xp[0], yp[0]]), _live(w)).T
    value = float(np.sum(w[:len(phix)] * phix * phiy))
    _certify(tail, abs(value), t)
    return value, tail


def kernel_matrix(spectrum: Spectrum, t: float, points: np.ndarray) -> np.ndarray:
    """Kernel on all pairs of the given points (vectorized spectral sum)."""
    tail = spectrum.tail_bound(t)
    w = np.exp(-spectrum.eigenvalues * t)
    P = _mode_sum(spectrum.modes(points, _live(w)), w)
    _certify(tail, float(np.max(np.abs(P))), t)
    return P


def normalized_kernel_matrix(spectrum: Spectrum, t, points: np.ndarray):
    """e^(lam_1 t) p(t,x,y) / (phi_1(x) phi_1(y)) on all pairs of points.

    Computed in factored form with weights e^(-(lam_k - lam_1) t), which
    stays finite even when lam_1 t itself is far beyond the exponent range.
    t may be a sequence of times: the mode table is then evaluated once, for
    the modes live at the earliest time, and a list with one matrix per time
    is returned, each summed over its own live modes and certified on its
    own.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
    lam = spectrum.eigenvalues
    tails = [spectrum.tail_bound(tk, reference=lam[0]) for tk in ts]
    weights = [np.exp(-(lam - lam[0]) * tk) for tk in ts]
    live = [_live(w) for w in weights]
    phis = spectrum.modes(points, max(live))
    phi1 = phis[0]
    if np.any(phi1 == 0):
        raise ValueError("sample points must avoid the zero set of the ground state")
    ground = np.outer(phi1, phi1)
    out = []
    for tk, tail, w, count in zip(ts, tails, weights, live):
        P = _mode_sum(phis[:count], w)
        _certify(tail, float(np.max(np.abs(P))), tk)
        out.append(P / ground)
    return out if np.ndim(t) else out[0]


def normalized_kernel_value(spectrum: Spectrum, t, x, y):
    """Factored-form e^(lam_1 t) p(t,x,y) / (phi_1(x) phi_1(y)) for one pair.

    With a sequence of n times and n-row point arrays x and y, evaluates
    the pairs (x_i, y_i) at t_i from one mode table and returns an (n,)
    array.  Each pair is certified on its own at its time, against the
    largest of |p(t,x,x)|, |p(t,x,y)| and |p(t,y,y)|.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    xp = np.atleast_2d(np.asarray(x, dtype=float))
    yp = np.atleast_2d(np.asarray(y, dtype=float))
    n = len(ts)
    if len(xp) != n or len(yp) != n:
        raise ValueError(f"need one x and one y per time, got {len(xp)} and {len(yp)} for {n}")
    lam = spectrum.eigenvalues
    tails = {tk: spectrum.tail_bound(tk, reference=lam[0]) for tk in dict.fromkeys(ts.tolist())}
    w = np.exp(-np.outer(lam - lam[0], ts))
    w = w[:_live(w)]
    phis = spectrum.modes(np.vstack([xp, yp]), len(w))
    phix, phiy = phis[:, :n], phis[:, n:]
    if np.any(phix[0] == 0) or np.any(phiy[0] == 0):
        raise ValueError("sample points must avoid the zero set of the ground state")
    pxy = np.sum(w * phix * phiy, axis=0)
    scale = np.max(np.abs([np.sum(w * phix * phix, axis=0), pxy,
                           np.sum(w * phiy * phiy, axis=0)]), axis=0)
    for tk, s in zip(ts.tolist(), scale.tolist()):
        _certify(tails[tk], s, tk)
    R = pxy / (phix[0] * phiy[0])
    return R if np.ndim(t) else float(R[0])


def _fit_decay_rate(ts, devs):
    ts = np.asarray(ts, dtype=float)
    devs = np.asarray(devs, dtype=float)
    keep = (devs > 1e-12) & (devs < 0.5) & np.isfinite(devs)
    if keep.sum() < 2:
        raise RuntimeError(f"decay fit window (1e-12, 0.5) holds the sup deviation at "
                           f"{keep.sum()} of {len(ts)} times; a rate needs two")
    slope, _ = np.polyfit(ts[keep], np.log(devs[keep]), 1)
    return float(-slope)


def equilibration_audit(spectrum: Spectrum, t_grid: Sequence[float],
                        points: np.ndarray) -> dict:
    """Sup deviation of the normalized kernel from 1, against time.

    Rows hold sup_{x,y in points} |e^(lam_1 t) p/(phi_1 phi_1) - 1| per t;
    the tail of the decay is fitted log-linearly and compared with the
    spectral gap, which is the exact asymptotic rate of the spectral sum.
    Raises RuntimeError when fewer than two deviations lie in the fit window.
    """
    ts = sorted(t_grid)
    rows = [{"t": float(t), "sup_dev": float(np.max(np.abs(R - 1.0)))}
            for t, R in zip(ts, normalized_kernel_matrix(spectrum, ts, points))]
    fitted = _fit_decay_rate([r["t"] for r in rows], [r["sup_dev"] for r in rows])
    gap = spectrum.spectral_gap()
    return {
        "rows": rows,
        "fitted_rate": fitted,
        "spectral_gap": gap,
        "rate_over_gap": fitted / gap if gap > 0 else math.nan,
    }


def box_kernel_bounds_check(box: Box, t_grid: Sequence[float]) -> dict:
    """Two-sided product envelopes for the normalized box kernel.

    Upper: R <= C_up prod(1 + (a_i/sqrt(t))^3) for all t; lower: R >=
    c_low prod(1 - (a_i/sqrt(t))^3) once t >= max a_i^2.  Also reports the
    deviation constant max |R-1| / prod-envelope-gap for t >= max a_i^2; a
    deviation envelope that underflows to 0 there raises FloatingPointError.
    Samples 7 interior points per axis with 80 modes per axis.
    """
    spectrum = box_spectrum(box, 80)
    half = np.asarray(box.half_widths)
    grids = [np.linspace(-a, a, 9)[1:-1] for a in half]
    pts = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, box.dim)
    widest = max(box.half_widths)
    t_equil = widest * widest  # inf past the float range, without a NumPy warning
    ts = sorted(t_grid)
    rows = []
    for t, R in zip(ts, normalized_kernel_matrix(spectrum, ts, pts)):
        up_env = float(np.prod(1.0 + (half / math.sqrt(t)) ** 3))
        low_env = float(np.prod(1.0 - (half / math.sqrt(t)) ** 3))
        dev_env = float(np.sum((half / math.sqrt(t)) ** 3))
        rows.append({
            "t": float(t),
            "max_ratio": float(R.max()),
            "min_ratio": float(R.min()),
            "upper_envelope": up_env,
            "lower_envelope": low_env,
            "deviation_envelope": dev_env,
            "max_abs_dev": float(np.max(np.abs(R - 1.0))),
        })
    c_up = max(r["max_ratio"] / r["upper_envelope"] for r in rows)
    low_rows = [r for r in rows if r["t"] >= t_equil and r["lower_envelope"] > 0.05]
    c_low = min((r["min_ratio"] / r["lower_envelope"] for r in low_rows), default=math.nan)
    dev_rows = [r for r in rows if r["t"] >= t_equil]
    for r in dev_rows:
        if r["deviation_envelope"] == 0.0:
            raise FloatingPointError(
                f"the deviation envelope sum (a_i/sqrt(t))^3 underflows to 0 at t = {r['t']!r} "
                f"for half widths {box.half_widths}")
    c_dev = max((r["max_abs_dev"] / r["deviation_envelope"] for r in dev_rows), default=math.nan)
    return {
        "rows": rows,
        "fitted_upper_constant": float(c_up),
        "fitted_lower_constant": float(c_low),
        "deviation_constant": float(c_dev),
        "equilibration_time": t_equil,
    }


def default_pair_sample(spec: radial.AnnularDomainSpec, t: float):
    """Deterministic (x, y) pairs at separations 0, 1, 2, 4 times sqrt(t).

    Keeping sigma^2/t on a fixed grid makes the fitted envelope constants
    comparable across shells of different thickness.
    """
    eps = spec.b - spec.a
    window = 2.0 * math.pi if spec.base.kind == "full_sphere" else spec.base.theta1
    th0 = 0.3 * window / (2.0 * math.pi)
    max_arc = (window / 2.2) * spec.a
    centers = [(spec.a + 0.5 * eps, th0), (spec.a + 0.1 * eps, th0)]
    pairs = []
    for x in centers:
        pairs.append((x, x))  # near-diagonal row
        for k in (1.0, 2.0, 4.0):
            sig = k * math.sqrt(t)
            if sig <= max_arc:
                pairs.append((x, (x[0], x[1] + sig / spec.a)))
            elif abs(x[0] + sig) < spec.b and sig < eps:
                pairs.append((x, (x[0] + sig, x[1])))
    return pairs


def gaussian_hke_audit(spec: radial.AnnularDomainSpec, t_grid: Sequence[float],
                       weight: geometry.WeightFunction,
                       spectrum: Spectrum) -> dict:
    """Gaussian envelope fit for the normalized kernel against ball volumes.

    For each (t, x, y) computes R = ptilde * sqrt(V(x, sqrt(t)) V(y, sqrt(t)))
    and fits c2 = c4 from the regression of log R on q = sigma(x,y)^2 / t,
    then the window constants c_lo = min R e^(q/c2), c_hi = max R e^(q/c4).
    Distances are the product surrogate metric; its bounded distortion is
    absorbed by the fitted constants.  Separations are sampled at fixed
    multiples of sqrt(t) per time.  The kernel values are certified before
    the quadrature model is built, since the model's size grows as t shrinks.
    """
    samples = [(t, x, y) for t in sorted(t_grid) for x, y in default_pair_sample(spec, t)]
    if not samples:
        return {"rows": [], "degenerate": True}
    ts, xs, ys = zip(*samples)
    ptilde = normalized_kernel_value(spectrum, list(ts), np.array(xs), np.array(ys))
    grid = geometry.resolving_grid(spec, min(spec.b - spec.a, math.sqrt(min(t_grid))))
    model = geometry.annulus_model(spec, weight, *grid)
    rows = []
    for (t, x, y), ptil in zip(samples, ptilde.tolist()):
        rad = math.sqrt(t)
        sig = geometry.surrogate_distance(x, y, spec)
        vx = model.ball_measure(x, rad)
        vy = model.ball_measure(y, rad)
        rows.append({
            "t": float(t), "r1": x[0], "th1": x[1], "r2": y[0], "th2": y[1],
            "sigma": sig, "q": sig * sig / t,
            "ptilde": ptil, "vx": vx, "vy": vy,
            "R": ptil * math.sqrt(vx * vy),
        })
    q = np.array([r["q"] for r in rows])
    R = np.array([r["R"] for r in rows])
    good = R > 0
    if good.sum() < 3 or np.ptp(q[good]) <= 0:
        return {"rows": rows, "degenerate": True}
    slope, _ = np.polyfit(q[good], np.log(R[good]), 1)
    if slope >= 0:
        # no measurable Gaussian decay across the sample: flag it
        return {"rows": rows, "degenerate": True}
    c2 = c4 = float(-1.0 / slope)
    c_lo = float(np.min(R[good] * np.exp(q[good] / c2)))
    c_hi = float(np.max(R[good] * np.exp(q[good] / c4)))
    return {
        "rows": rows, "degenerate": False,
        "c_lo": c_lo, "c_hi": c_hi, "c2": c2, "c4": c4,
    }
