"""The variant-0 operations of both benchmark workloads against their
committed references: exit code, check statuses and results within 1e-9
relative, the gate the benchmark applies.  The reference files are only
read.  grid-stress runs its three CLI operations and its one library
operation, the S^2 rectangle; its perturb-annulus reference records the
known core_spread failure (exit 2), which the gate expects as recorded."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from annulab import bases
from annulab.cli import run

REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "reference"
RTOL = 1e-9


def _differences(got, want, path=""):
    """Every place where got differs from want beyond the gate."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for key in sorted(want) for d in _differences(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{path}[{i}]")]
    numbers = (isinstance(got, (int, float)) and isinstance(want, (int, float))
               and not isinstance(got, bool) and not isinstance(want, bool))
    if numbers and (got == want or math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)):
        return []
    return [] if got == want else [f"{path}: {got!r} vs reference {want!r}"]


def _cli_ops(workload):
    ops = json.loads((REFERENCES / f"{workload}-v00.json").read_text())["ops"]
    return {name: ref for name, ref in ops.items() if ref["argv"]}


def _assert_matches_reference(ref, tmp_path):
    stem = ref["argv"][0].replace("-", "_")
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["--out", str(tmp_path), *ref["argv"]])
    doc = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    got = {"exit": code, "checks": [[c["name"], c["status"]] for c in doc["checks"]],
           "results": doc["results"]}
    want = {key: ref[key] for key in got}
    assert _differences(got, want) == []


_KERNELS_OPS = _cli_ops("kernels-stress")
_GRID_OPS = _cli_ops("grid-stress")


@pytest.mark.parametrize("name", sorted(_KERNELS_OPS))
def test_kernels_stress_variant_0_matches_its_reference(tmp_path, name):
    _assert_matches_reference(_KERNELS_OPS[name], tmp_path)


@pytest.mark.parametrize("name", sorted(_GRID_OPS))
def test_grid_stress_variant_0_matches_its_reference(tmp_path, name):
    _assert_matches_reference(_GRID_OPS[name], tmp_path)


def _sphere_rectangle_n128():
    """The results of grid-stress's `sphere-rectangle-n128`, computed as
    bench/workloads.py does: the rectangle's principal eigendata at N = 128
    (Richardson over the 128 and 256 grids), sampled on a 9 x 9 lattice."""
    data = bases.base_eigendata(
        bases.sphere_rectangle(math.pi / 2.0, (math.pi / 4.0, 3.0 * math.pi / 4.0)), N=128)
    theta = [math.pi / 2.0 * (j + 1) / 10.0 for j in range(9)]
    phi = [math.pi / 4.0 + math.pi / 2.0 * (j + 1) / 10.0 for j in range(9)]
    samples = [float(data.phi0(t, p)) for t in theta for p in phi]
    return {"lambda0": data.lambda0, "measure": data.measure,
            "phi0_max": max(samples), "phi0_center": float(data.phi0(math.pi / 4.0, math.pi / 2.0)),
            "phi0_sumsq": math.fsum(s * s for s in samples)}


def test_grid_stress_sphere_rectangle_matches_its_reference():
    ref = json.loads((REFERENCES / "grid-stress-v00.json").read_text())["ops"]["sphere-rectangle-n128"]
    assert ref["exit"] == 0 and ref["checks"] == []
    assert _differences(_sphere_rectangle_n128(), ref["results"]) == []
