"""Workload definitions: the fixed list of operations one pass runs.

Each operation is one `annulab.cli.run([...])` call, or one public library
call for a path no subcommand reaches.  Inputs come from the seed through
`variant = seed % VARIANTS`, so every seed has a committed reference file.
Variant 0 runs exactly the flags listed here; other variants change the
inputs (scenario-file harmonic phases, notch depth, the sector beta list
and the t-grids) but never the sizes, so the work per pass stays the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VARIANTS = 16

WORKLOADS = ("grid-stress", "kernels-stress")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: CLI argv (without --out) or a library call."""

    name: str
    argv: tuple = ()
    call: Callable[[], dict] | None = None

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else ""


def _jitter(rng: random.Random, values, rel: float) -> str:
    return ",".join(repr(round(v * rng.uniform(1.0 - rel, 1.0 + rel), 6)) for v in values)


def _betas(rng: random.Random, orders) -> str:
    """Sector openings beta = 1/nu with the integer order nu moved by at most one.

    The sector audit costs far less at integer order (0.21 s at nu = 32
    against 0.39 s at nu = 31.15, on a 2-core x86-64 VM), so the variants
    keep nu integer to keep the work equal."""
    return ",".join(repr(1.0 / (nu + rng.choice((-1, 0, 1)))) for nu in orders)


def _box_scenario(path: Path, notch: float) -> None:
    path.write_text(
        "kind = box\nb1 = 1.0 1.0\nb2 = 1.05 1.05\n"
        f"notch = {notch!r}\nC1 = 0.2\nC2 = 1.1\n", encoding="utf-8")


def _annulus_scenario(path: Path, phase_in: float, phase_out: float) -> None:
    # The CLI default scenario at eps = 0.3, with the two harmonic phases moved.
    eps = 0.3
    w = eps**3
    path.write_text(
        f"kind = annulus\neps = {eps!r}\na_eps = {w!r}\nb_eps = {w!r}\n"
        f"rmin = {1.0 - w / 2.0!r} | 8:{w / 2.0!r}:{phase_in!r}\n"
        f"rmax = {1.0 + eps + w / 2.0!r} | 9:{w / 2.0!r}:{phase_out!r}\n",
        encoding="utf-8")


def _scenario_args(rng: random.Random, inputs: Path, kind: str) -> tuple:
    path = inputs / f"{kind}.scenario"
    if kind == "box":
        _box_scenario(path, round(rng.uniform(0.02, 0.05), 6))
    else:
        _annulus_scenario(path, round(rng.uniform(0.0, 2.0 * math.pi), 6),
                          round(rng.uniform(0.0, 2.0 * math.pi), 6))
    return ("--scenario", str(path))


def _sphere_rectangle_op() -> dict:
    from annulab import bases

    data = bases.base_eigendata(
        bases.sphere_rectangle(math.pi / 2.0, (math.pi / 4.0, 3.0 * math.pi / 4.0)), N=128)
    theta = [math.pi / 2.0 * (j + 1) / 10.0 for j in range(9)]
    phi = [math.pi / 4.0 + math.pi / 2.0 * (j + 1) / 10.0 for j in range(9)]
    samples = [float(data.phi0(t, p)) for t in theta for p in phi]
    return {"lambda0": data.lambda0, "measure": data.measure,
            "phi0_max": max(samples), "phi0_center": float(data.phi0(math.pi / 4.0, math.pi / 2.0)),
            "phi0_sumsq": math.fsum(s * s for s in samples)}


def build(workload: str, seed: int, inputs: Path) -> list[Op]:
    """Operations of one pass; scenario files for the seed go into `inputs`."""
    variant = seed % VARIANTS
    rng = random.Random(variant)
    vary = variant != 0
    if workload == "grid-stress":
        box = _scenario_args(rng, inputs, "box") if vary else ()
        ann = _scenario_args(rng, inputs, "annulus") if vary else ()
        return [
            Op("perturb-box-h256", ("perturb-box", "--h", "0.00390625") + box),
            Op("perturb-annulus-96x768",
               ("perturb-annulus", "--nr", "96", "--ntheta", "768") + ann),
            Op("pi-audit-eps0.05", ("pi-audit", "--eps", "0.05")),
            Op("sphere-rectangle-n128", call=_sphere_rectangle_op),
        ]
    if workload == "kernels-stress":
        def t(default: str, values) -> str:
            return _jitter(rng, values, 0.1) if vary else default
        betas = (0.333, 0.25, 0.2, 0.125, 0.0625, 0.03125)
        return [
            Op("box-kernel-2d", ("box-kernel", "--half-widths", "1,1",
                                 "--t", t("1,2,4,8,16", (1, 2, 4, 8, 16)))),
            Op("heat-kernel-box-2d", ("heat-kernel", "--half-widths", "1,1", "--modes", "32",
                                      "--t", t("0.5,1,2,3,4,5", (0.5, 1, 2, 3, 4, 5)))),
            Op("hke-fit-eps0.025", ("hke-fit", "--eps", "0.025")),
            Op("heat-kernel-annulus", ("heat-kernel", "--domain", "annulus",
                                       "--t", t("2,4,8,12", (2, 4, 8, 12)))),
            Op("sector-6beta", ("sector", "--beta",
                                f"0.333,0.25,0.2,{_betas(rng, (8, 16, 32))}" if vary
                                else ",".join(map(str, betas)))),
        ]
    raise ValueError(f"unknown workload {workload!r}")
