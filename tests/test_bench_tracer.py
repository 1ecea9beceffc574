"""The contract between the benchmark's tracer (bench/tracer.py) and the
package: every name in the tracer's tables is a function the tracer wraps,
traced runs record the counters its probes read, and `restore` puts every
attribute back.  The tracer is loaded from its file and only read."""

import contextlib
import importlib
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

from annulab import cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracer()
MODULES = [importlib.import_module(f"annulab.{layer}") for layer in tracing.LAYERS]


def _table_names():
    names = set(tracing.PROBES)
    for spans in (*tracing.TIMES.values(), *tracing.CALLS.values()):
        names.update(spans)
    for spans, _ in tracing.COUNTERS.values():
        names.update(spans)
    return sorted(names)


def _resolve(name):
    """The function a dotted span name wraps, or None: a function of the
    layer's module, or a method of a class defined there (what
    Tracer.install patches)."""
    layer, *path = name.split(".")
    if layer not in tracing.LAYERS:
        return None
    obj = importlib.import_module(f"annulab.{layer}")
    for part in path:
        obj = vars(obj).get(part) if inspect.ismodule(obj) or inspect.isclass(obj) else None
    defined_here = getattr(obj, "__module__", None) == f"annulab.{layer}"
    return obj if inspect.isfunction(obj) and defined_here else None


# The module-level geometry.ball_measure was deleted before this test was
# written; the tracer's table still lists it beside the two methods that
# replaced it, so its span never opens.  Pinned here until the benchmark's
# own files drop it; any other name that stops resolving fails the test.
STALE = ["geometry.ball_measure"]


def test_every_traced_name_is_a_function_of_its_layer():
    assert [name for name in _table_names() if _resolve(name) is None] == STALE


def _attributes():
    """Every function attribute Tracer.install may replace, by identity."""
    found = {}
    for mod in MODULES:
        for owner in (mod, *(c for c in vars(mod).values()
                             if inspect.isclass(c) and c.__module__ == mod.__name__)):
            for attr, obj in vars(owner).items():
                if inspect.isfunction(obj):
                    found[owner, attr] = obj
    return found


def _traced_metrics(tmp_path, argv):
    before = _attributes()
    tr = tracing.Tracer()
    tr.install(MODULES)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["--out", str(tmp_path), *argv])
    finally:
        restored = tr.restore()
    assert restored > 0
    assert all(vars(owner)[attr] is obj for (owner, attr), obj in before.items())
    assert code in (0, 2)
    return tr.metrics({tr.op_id})


@pytest.mark.parametrize("argv", [
    ["perturb-annulus", "--nr", "24", "--ntheta", "128"],
    ["perturb-box", "--h", "0.03125"],
], ids=["perturb-annulus", "perturb-box"])
def test_traced_grid_runs_record_the_sparse_solves(tmp_path, argv):
    metrics = _traced_metrics(tmp_path, argv)
    assert metrics["numerics.sparse_calls"] > 0
    assert metrics["numerics.sparse_dim"] > 0 and metrics["numerics.sparse_nnz"] > 0
    assert metrics["spectral2d.unknowns"] > 0


def test_traced_box_kernel_run_records_its_kernel_sums(tmp_path):
    metrics = _traced_metrics(tmp_path, ["box-kernel", "--t", "1,4"])
    assert metrics["heatkernel.kernel_s"] > 0 and metrics["heatkernel.mode_samples"] > 0
    assert metrics["numerics.sparse_calls"] == 0
