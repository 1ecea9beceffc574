"""Command-line front end.

One subcommand per solver/audit; every run writes `<out>/<command>.csv`
(17-significant-digit scientific notation, a `#` config-echo line, then the
header row) and `<out>/<command>_summary.json` (schema-versioned, sorted
keys).  Outputs are byte-identical for identical configs, in one process
or across processes, at any BLAS thread count.
`report` aggregates previously written JSON summaries into one pass/fail
table.

Each flag's argparse `type` states its domain; `--config` entries are parsed
as the flags they name.  Exit codes: 0 success; 1 bad input, one `error:`
line; 2 numerical failure (one `numerical failure:` line) or failed check.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import (
    __version__,
    auditors,
    bases,
    estimates,
    geometry,
    heatkernel,
    numerics,
    perturb,
    radial,
)

SCHEMA_VERSION = "annulab.summary.v1"

__all__ = ["main", "run"]


def _domain(parse, ok, domain: str):
    """An argparse type: `parse` the text, then require `ok` of the value."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"needs {domain}, got {text!r}")
    return convert


_positive = _domain(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_ratio = _domain(float, lambda v: 1.0 <= v < math.inf, "a finite ratio >= 1")


def _int_from(floor: int):
    return _domain(int, lambda v: v >= floor, f"an integer >= {floor}")


def _shell_width(text: str) -> float:
    """A positive finite width eps of the shell (1, 1 + eps), which must
    not round to the empty shell (1, 1)."""
    value = _positive(text)
    if 1.0 + value == 1.0:
        raise argparse.ArgumentTypeError(
            f"1 + {text} rounds to 1, so the shell (1, 1 + {text}) is empty")
    return value


def _list_of(item):
    """An argparse type: items of type `item` separated by commas or
    whitespace, with no empty comma item (an empty text is one)."""
    def convert(text: str) -> list:
        items = text.split(",")
        if not all(part.strip() for part in items):
            raise argparse.ArgumentTypeError(f"has an empty item, got {text!r}")
        return [item(v) for part in items for v in part.split()]
    return convert


_positive_list = _list_of(_positive)


class _Window(argparse.Action):
    """Two positive numbers lo < hi."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if not lo < hi:
            raise argparse.ArgumentError(self, f"needs lo < hi, got {lo:g} {hi:g}")
        setattr(namespace, self.dest, (lo, hi))


class _Parser(argparse.ArgumentParser):
    """Raises every refusal as ValueError, so `run` prints it as one line."""

    def error(self, message):
        raise ValueError(message)


def _fmt(v):
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17e")
    return v


def _write_csv(path: Path, command: str, config: dict, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(f"# annulab {__version__} {command} "
                 f"config={json.dumps(config, sort_keys=True)}\n")
        if not rows:
            return
        keys = sorted({k for row in rows for k in row})
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_fmt(row.get(k, "")) for k in keys])


def _write_summary(path: Path, command: str, config: dict, checks: list[dict],
                   results: dict) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "command": command,
        "config": config,
        "checks": checks,
        "results": results,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check(name: str, status: str, **data) -> dict:
    if status not in ("pass", "fail", "report-only"):
        raise ValueError(f"bad status {status}")
    return {"name": name, "status": status, **data}


def _base_from_args(args) -> bases.BaseDomain:
    if args.base == "full":
        return bases.full_sphere(args.n)
    if args.base == "arc":
        if args.n != 2:
            raise ValueError("arc bases need n = 2")
        return bases.circle_arc(args.theta1)
    return bases.orthant_intersection(args.n, args.k_coords)


def _cmd_solve(args):
    base = _base_from_args(args)
    data = bases.base_eigendata(base)
    if args.count > args.grid - 1:
        raise ValueError(f"argument --count: {args.count} is more than the {args.grid - 1} "
                         f"eigenvalues that --grid {args.grid} resolves")
    results = radial.solve_radial(args.n, args.a, args.b, data.lambda0,
                                  N=args.grid, k=args.count)
    rows = [{"index": j, "lambda": res.lam} for j, res in enumerate(results)]
    checks = [_check("solve", "report-only", lambda0=data.lambda0,
                     lambda_u=results[0].lam)]
    return rows, checks, {"lambda": results[0].lam, "lambda0_base": data.lambda0}


def _cmd_bounds(args):
    report = estimates.annulus_eigenvalue_bounds(args.n, args.a, args.b)
    rows = [{"lambda": report.value, "lower": report.lower, "upper": report.upper,
             "C1": report.extra["C1"], "C2": report.extra["C2"]}]
    checks = [_check("eigenvalue_in_interval", "pass" if report.passed else "fail",
                     value=report.value, lower=report.lower, upper=report.upper)]
    return rows, checks, {"interval": [report.lower, report.upper],
                          "lambda": report.value}


def _cmd_caricature(args):
    profile = (estimates.thin_annulus_caricature if args.kind == "thin"
               else estimates.wide_annulus_caricature)
    radii = args.points or list(np.linspace(args.a, args.b, 17)[1:-1])
    vals = profile(args.n, args.a, args.b, radii)
    rows = [{"r": r, "value": float(v)} for r, v in zip(radii, vals)]
    return rows, [_check("caricature_eval", "report-only", kind=args.kind)], {}


def _cmd_hadamard(args):
    rows = estimates.hadamard_scan(args.n, args.t, N=args.grid)
    checks = []
    if args.n == 3:
        target = 2.0 * math.pi**2
        ok = all(abs(r["t3_dlam"] - target) <= 0.01 * target for r in rows)
        checks.append(_check("exact_sensitivity_n3", "pass" if ok else "fail",
                             target=target))
    else:
        vals = [r["t3_dlam"] for r in rows]
        checks.append(_check("sensitivity_window", "report-only",
                             min=min(vals), max=max(vals)))
    return rows, checks, {"values": [r["t3_dlam"] for r in rows]}


def _thin_spec(eps: float) -> radial.AnnularDomainSpec:
    return radial.AnnularDomainSpec(2, 1.0, 1.0 + eps, bases.full_sphere(2))


def _weight_for(spec, tag: str) -> geometry.WeightFunction:
    if tag == "phi2":
        return geometry.dirichlet_weight(spec)
    return geometry.uniform_weight(spec)


def _audit_centers(spec, count: int = 4):
    eps = spec.b - spec.a
    mids = [spec.a + eps / 2.0, spec.a + eps / 10.0]
    angles = [2.0 * math.pi * j / count for j in range(count)]
    return [(r, th) for r in mids for th in angles]


def _dyadic_radii(spec, eps):
    diam = max(math.pi, spec.b - spec.a)
    radii = []
    r = diam
    while r >= eps / 2.0:
        radii.append(r)
        r /= 2.0
    return radii[::-1]


def _cmd_vd_audit(args):
    spec = _thin_spec(args.eps)
    weight = _weight_for(spec, args.weight)
    radii = _dyadic_radii(spec, args.eps)
    report = auditors.doubling_profile(spec, weight, _audit_centers(spec), radii)
    status = "pass" if report.summary["doubling_max"] < args.bound else "fail"
    checks = [_check("doubling_bounded", status,
                     doubling_max=report.summary["doubling_max"], bound=args.bound)]
    return report.rows, checks, report.summary


def _cmd_pi_audit(args):
    lo, hi = args.window
    spec = _thin_spec(args.eps)
    weight = _weight_for(spec, args.weight)
    radii = _dyadic_radii(spec, args.eps)
    mode = "continuous_grid" if args.mode == "continuous" else "discrete_net"
    report = auditors.poincare_profile(
        spec, weight, _audit_centers(spec, count=2), radii,
        mode=mode, epsilon=args.eps,
    )
    ok = lo <= report.summary["poincare_min"] and report.summary["poincare_max"] <= hi
    checks = [_check("poincare_window", "pass" if ok else "fail",
                     lo=lo, hi=hi,
                     poincare_min=report.summary["poincare_min"],
                     poincare_max=report.summary["poincare_max"])]
    return report.rows, checks, report.summary


# Relative weight e^(-(cutoff - lam_1) t_min) of the lowest omitted mode
TAIL_WEIGHT = 1e-11


def _annulus_spectrum_for(eps: float, t_min: float):
    """Thin shell (1, 1 + eps) and its spectrum for kernels at times >= t_min.

    Keeps every radial family below the energy cutoff lam_1 + ln(1 /
    TAIL_WEIGHT) / t_min (radial.spectrum_below), with lam_1 replaced by
    its closed-form lower bound, the first family floor of the lowest base
    level.  A cutoff that is not finite or needs more than
    radial.MAX_MODES modes raises heatkernel.InsufficientSpectrumError.
    """
    spec = _thin_spec(eps)
    lam1_floor = radial.family_floor(spec, 1, bases.base_eigendata(spec.base).lambda0)
    cutoff = lam1_floor + math.log(1.0 / TAIL_WEIGHT) / t_min
    return spec, radial.spectrum_below(spec, cutoff, N=256)


def _sample_points_annulus(spec):
    eps = spec.b - spec.a
    radii = spec.a + eps * np.array([0.3, 0.5, 0.7])
    angles = 2.0 * math.pi * np.arange(5) / 5
    return np.array([(r, th) for r in radii for th in angles])


def _on_half_widths(fn, *args):
    """fn(*args) on the box of --half-widths.  Once the flags have parsed, a
    ValueError there can only come from the widths, so it names the flag."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"argument --half-widths: {exc}") from None


def _cmd_heat_kernel(args):
    if args.domain == "box":
        box = heatkernel.Box(tuple(args.half_widths))
        spectrum = _on_half_widths(heatkernel.box_spectrum, box, args.modes)
        grids = [np.linspace(-a, a, 7)[1:-1] for a in box.half_widths]
        pts = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, box.dim)
    else:
        spec, spectrum = _annulus_spectrum_for(args.eps, min(args.t))
        pts = _sample_points_annulus(spec)
    audit = heatkernel.equilibration_audit(spectrum, args.t, pts)
    rel = abs(audit["fitted_rate"] - audit["spectral_gap"]) / audit["spectral_gap"]
    checks = [_check("decay_rate_matches_gap", "pass" if rel <= 0.05 else "fail",
                     fitted=audit["fitted_rate"], gap=audit["spectral_gap"],
                     rel_err=rel)]
    return audit["rows"], checks, {k: v for k, v in audit.items() if k != "rows"}


def _cmd_box_kernel(args):
    box = heatkernel.Box(tuple(args.half_widths))
    audit = _on_half_widths(heatkernel.box_kernel_bounds_check, box, args.t)
    ok = audit["deviation_constant"] <= 10.0
    checks = [_check("deviation_envelope", "pass" if ok else "fail",
                     constant=audit["deviation_constant"], bound=10.0)]
    return audit["rows"], checks, {k: v for k, v in audit.items() if k != "rows"}


def _cmd_hke_fit(args):
    eps2 = numerics.finite_square(args.eps, "--eps")
    diam2 = math.pi**2
    t_grid = [eps2, 4 * eps2, 0.1 * diam2, diam2]
    spec, spectrum = _annulus_spectrum_for(args.eps, min(t_grid))
    weight = geometry.dirichlet_weight(spec)
    audit = heatkernel.gaussian_hke_audit(spec, t_grid, weight, spectrum)
    if audit.get("degenerate"):
        checks = [_check("gaussian_fit", "fail", reason="degenerate fit")]
        return audit["rows"], checks, {"degenerate": True}
    finite = all(
        math.isfinite(audit[k]) and audit[k] > 0 for k in ("c_lo", "c_hi", "c2", "c4")
    )
    checks = [_check("gaussian_fit", "pass" if finite else "fail",
                     c_lo=audit["c_lo"], c_hi=audit["c_hi"],
                     c2=audit["c2"], c4=audit["c4"])]
    return audit["rows"], checks, {k: v for k, v in audit.items() if k != "rows"}


def _cmd_sector(args):
    report = auditors.sector_counterexample(args.beta, nodes=args.nodes)
    checks = [_check("ratio_increasing",
                     "pass" if report.summary["ratio_increasing_as_beta_shrinks"] else "fail")]
    for row in report.rows:
        # a flagged row's ratio comes from a quadrature that did not converge
        ok = not row["flag"] and row["doubling_ratio"] >= 0.5 * row["predicted_ratio"]
        checks.append(_check(f"doubling_ratio_beta_{row['beta']:g}",
                             "pass" if ok else "fail",
                             measured=row["doubling_ratio"],
                             predicted=row["predicted_ratio"]))
    return report.rows, checks, report.summary


def _cmd_perturb_box(args):
    if args.scenario:
        scenario = perturb.load_scenario(args.scenario)
    else:
        scenario = perturb.PerturbationScenario(
            kind="box", a_widths=(1.0, 1.0), b_widths=(1.05, 1.05),
            notch=0.05, C1=0.2, C2=1.1,
        )
    audit = perturb.box_perturbation_audit(scenario, h=args.h)
    ok = (audit["upper_ratio"] <= args.bound
          and audit["lower_ratio"] >= 1.0 / args.bound
          and audit["eigenvalue_ordering_ok"])
    rows = [{k: v for k, v in audit.items() if isinstance(v, (int, float, bool))}]
    checks = [_check("box_sandwich_ratios", "pass" if ok else "fail",
                     upper=audit["upper_ratio"], lower=audit["lower_ratio"],
                     bound=args.bound)]
    return rows, checks, {k: v for k, v in audit.items() if k != "conditions"}


def _cmd_perturb_annulus(args):
    if args.scenario:
        scenario = perturb.load_scenario(args.scenario)
    else:
        eps = args.eps
        scenario = perturb.PerturbationScenario(
            kind="annulus", eps=eps, a_eps=eps**3, b_eps=eps**3,
            rmin_const=1.0 - eps**3 / 2.0,
            rmin_harmonics=((8, eps**3 / 2.0, 0.0),),
            rmax_const=1.0 + eps + eps**3 / 2.0,
            rmax_harmonics=((9, eps**3 / 2.0, 0.7),),
        )
    audit = perturb.annulus_perturbation_audit(scenario, grids=(args.nr, args.ntheta))
    ok = (audit["upper_ratio"] <= args.bound
          and audit["lower_ratio"] >= 1.0 / args.bound
          and audit["core_spread"] <= args.bound
          and audit["eigenvalue_ordering_ok"])
    rows = [{k: v for k, v in audit.items() if isinstance(v, (int, float, bool))}]
    checks = [_check("annulus_sandwich_ratios", "pass" if ok else "fail",
                     upper=audit["upper_ratio"], lower=audit["lower_ratio"],
                     core_spread=audit["core_spread"], bound=args.bound)]
    return rows, checks, audit


def _cmd_report(args, out_dir: Path):
    rows = []
    n_pass = n_fail = 0
    for path in sorted(out_dir.glob("*_summary.json")):
        if path.name == "report_summary.json":
            continue
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
        for check in doc.get("checks", []):
            rows.append({"source": doc.get("command", path.stem),
                         "check": check["name"], "status": check["status"]})
            if check["status"] == "pass":
                n_pass += 1
            elif check["status"] == "fail":
                n_fail += 1
    checks = [_check("aggregate", "pass" if n_fail == 0 else "fail",
                     n_pass=n_pass, n_fail=n_fail)]
    return rows, checks, {"n_pass": n_pass, "n_fail": n_fail}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    p = _Parser(
        prog="annulab",
        description="Eigenpairs, heat kernels, and metric-measure audits on annular domains",
    )
    p.add_argument("--out", default=None, help="output directory (default $OUT_DIR or .)")
    p.add_argument("--config", default=None, help="key = value config file overriding defaults")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="radial shell eigenvalues")
    sp.add_argument("--n", type=_int_from(2), default=3)
    sp.add_argument("--a", type=_positive, default=1.0)
    sp.add_argument("--b", type=_positive, default=2.0)
    sp.add_argument("--base", default="full", choices=["full", "arc", "orthant"])
    sp.add_argument("--theta1", type=_positive, default=math.pi)
    sp.add_argument("--k-coords", type=_int_from(1), default=1)
    sp.add_argument("--count", type=_int_from(1), default=1)
    sp.add_argument("--grid", type=_int_from(64), default=1024)

    sp = sub.add_parser("bounds", help="two-sided annulus eigenvalue bounds")
    sp.add_argument("--n", type=_int_from(2), default=2)
    sp.add_argument("--a", type=_positive, default=1.0)
    sp.add_argument("--b", type=_positive, default=2.0)

    sp = sub.add_parser("caricature", help="evaluate a comparison profile")
    sp.add_argument("--kind", default="thin", choices=["thin", "wide"])
    sp.add_argument("--n", type=_int_from(2), default=2)
    sp.add_argument("--a", type=_positive, default=1.0)
    sp.add_argument("--b", type=_positive, default=1.5)
    sp.add_argument("--points", type=_positive_list, default=None)

    sp = sub.add_parser("hadamard", help="eigenvalue sensitivity scan")
    sp.add_argument("--n", type=_int_from(2), default=3)
    sp.add_argument("--t", type=_list_of(_shell_width), default="0.05,0.1,0.5,1.0")
    sp.add_argument("--grid", type=_int_from(64), default=1024)

    sp = sub.add_parser("vd-audit", help="volume doubling audit on a thin annulus")
    sp.add_argument("--eps", type=_shell_width, default=0.1)
    sp.add_argument("--weight", default="phi2", choices=["phi2", "uniform"])
    sp.add_argument("--bound", type=_ratio, default=64.0)

    sp = sub.add_parser("pi-audit", help="Poincare constant audit on a thin annulus")
    sp.add_argument("--eps", type=_shell_width, default=0.1)
    sp.add_argument("--weight", default="phi2", choices=["phi2", "uniform"])
    sp.add_argument("--mode", default="continuous", choices=["continuous", "discrete"])
    sp.add_argument("--window", type=_positive, nargs=2, action=_Window, default=(0.01, 1.0))

    sp = sub.add_parser("heat-kernel", help="equilibration audit")
    sp.add_argument("--domain", default="box", choices=["box", "annulus"])
    sp.add_argument("--half-widths", type=_positive_list, default="1.0")
    sp.add_argument("--eps", type=_shell_width, default=0.1)
    sp.add_argument("--t", type=_positive_list, default="0.5,1,2,3,4,5")
    sp.add_argument("--modes", type=_int_from(1), default=64)

    sp = sub.add_parser("box-kernel", help="box kernel envelope check")
    sp.add_argument("--half-widths", type=_positive_list, default="1.0")
    sp.add_argument("--t", type=_positive_list, default="1,2,4,8,16")

    sp = sub.add_parser("hke-fit", help="Gaussian envelope fit on a thin annulus")
    sp.add_argument("--eps", type=_shell_width, default=0.1)

    sp = sub.add_parser("sector", help="sector doubling counterexample")
    sp.add_argument("--beta", type=_positive_list, default="0.2")
    sp.add_argument("--nodes", type=_int_from(1), default=4096)

    sp = sub.add_parser("perturb-box", help="box sandwich audit")
    sp.add_argument("--scenario", default=None)
    sp.add_argument("--h", type=_positive, default=1.0 / 128.0)
    sp.add_argument("--bound", type=_ratio, default=10.0)

    sp = sub.add_parser("perturb-annulus", help="shell sandwich audit")
    sp.add_argument("--scenario", default=None)
    sp.add_argument("--eps", type=_shell_width, default=0.3)
    sp.add_argument("--nr", type=_int_from(1), default=48)
    sp.add_argument("--ntheta", type=_int_from(1), default=384)
    sp.add_argument("--bound", type=_ratio, default=10.0)

    sub.add_parser("report", help="aggregate JSON summaries into a pass/fail table")
    return p, sub.choices


_DISPATCH = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "caricature": _cmd_caricature,
    "hadamard": _cmd_hadamard,
    "vd-audit": _cmd_vd_audit,
    "pi-audit": _cmd_pi_audit,
    "heat-kernel": _cmd_heat_kernel,
    "box-kernel": _cmd_box_kernel,
    "hke-fit": _cmd_hke_fit,
    "sector": _cmd_sector,
    "perturb-box": _cmd_perturb_box,
    "perturb-annulus": _cmd_perturb_annulus,
}


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every run without --config, built once per process:
    parsing leaves it unchanged."""
    return _build_parser()[0]


def _apply_config_file(args, argv):
    """key = value file entries are parsed as the flags they name, by the
    subcommand's own parser, and become its defaults; argv is then parsed
    again over them, so flags still win.  The defaults go into a parser
    built for this run alone, never into the shared one."""
    parser, subcommands = _build_parser()
    with open(args.config, encoding="utf-8") as fh:
        entries = perturb.parse_key_values(fh.read(), "config")
    sub = subcommands[args.command]
    for key, val in entries.items():
        key = key.replace("-", "_")
        if key == "out":
            parser.set_defaults(out=val)
            continue
        if key in ("config", "command") or not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        tokens = val.split() if key == "window" else [val]
        try:
            flag = sub.parse_args(["--" + key.replace("_", "-"), *tokens])
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
        sub.set_defaults(**{key: getattr(flag, key)})
    return parser.parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.config:
            args = _apply_config_file(args, argv)
        out_dir = Path(args.out or os.environ.get("OUT_DIR", "."))
        config = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("out", "config") and v is not None
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "report":
            rows, checks, results = _cmd_report(args, out_dir)
        else:
            rows, checks, results = _DISPATCH[args.command](args)
    except SystemExit:  # --help; refusals raise ValueError (_Parser)
        return 0
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (numerics.NonConvergenceError, heatkernel.InsufficientSpectrumError,
            RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    stem = args.command.replace("-", "_")
    _write_csv(out_dir / f"{stem}.csv", args.command, config, rows)
    _write_summary(out_dir / f"{stem}_summary.json", args.command, config,
                   checks, _jsonable(results))
    failed = [c for c in checks if c["status"] == "fail"]
    for c in checks:
        print(f"[{c['status']:>11}] {args.command}: {c['name']}")
    return 0 if not failed else 2


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
