"""annulab benchmark: closed-loop passes over a fixed list of operations.

    python3 bench/run.py --workload grid-stress --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload grid-stress --seed 3 --record

One process runs one workload.  A pass is the workload's operation list
(see workloads.py), each operation starting when the previous one returns.
The first pass is the cold pass; up to four more cold passes run, one after
the other, in fresh interpreters (`--cold-pass`) while the time left still
holds them and the minimum of warm passes, and their median is
cold_pass_s.  Warm passes follow until `--seconds` is used up.  With
`--trace 1` the second half of the time runs traced passes (see tracer.py)
and the per-layer metrics are printed instead of the end-to-end ones.  Every operation's exit code, check statuses and numeric
results are compared with the committed reference for the seed
(reference/<workload>-vNN.json) at 1e-9 relative; `--record` writes that
file.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
RTOL = 1e-9
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
COLD_RUNS = 5
MIN_WARM = 3  # 2 in a traced run, whose time is split in two
MIN_TRACED = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "pass_s": "s", "pass_tail_s": "s", "cold_pass_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "correct_frac": "ratio",
}


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the usable core count before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)
    return {"nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def fresh_cold_pass(workload: str, seed: int) -> dict:
    """First pass of a fresh interpreter, with its gate result."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--cold-pass"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def fresh_import_s() -> float:
    """Wall time of `import annulab.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import annulab.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def import_breakdown() -> dict:
    """import.* seconds from `-X importtime` (self times summed per package)."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import annulab.cli"],
                         cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         check=True, timeout=60)
    totals = dict.fromkeys(("annulab", "scipy", "mpmath"), 0.0)
    for line in out.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        package = parts[2].strip().split(".", 1)[0]
        if package in totals:
            totals[package] += int(parts[0]) * 1e-6
    return {f"import.{k}_s": v for k, v in totals.items()}


def provenance(caps: dict) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), **caps}


# ---------------------------------------------------------------- passes

def _run_op(op: workloads.Op, out_dir: Path):
    if op.call is not None:
        return op.call()
    from annulab import cli

    return cli.run(["--out", str(out_dir), *op.argv])


def _op_dirs(ops, pass_dir: Path) -> list[Path]:
    """First use of a command writes into the pass directory; a repeated
    command gets a subdirectory of its own, so no output is overwritten."""
    seen, dirs = set(), []
    for op in ops:
        dirs.append(pass_dir if op.command not in seen else pass_dir / op.name)
        seen.add(op.command)
    return dirs


def _collect(op: workloads.Op, out_dir: Path, ret) -> dict:
    """Exit code, check statuses, numeric results and output bytes of one op."""
    if isinstance(ret, BaseException):
        return {"exit": f"raised {type(ret).__name__}: {ret}", "bytes": b""}
    if op.call is not None:
        blob = json.dumps(ret, sort_keys=True).encode()
        return {"exit": 0, "checks": [], "results": ret, "bytes": blob}
    stem = op.command.replace("-", "_")
    csv_path, summary_path = out_dir / f"{stem}.csv", out_dir / f"{stem}_summary.json"
    if not summary_path.exists():
        # Exit 2 without outputs: the program reported a numerical failure.
        return {"exit": ret, "checks": [], "results": {}, "bytes": b"", "refused": ret == 2}
    summary = summary_path.read_bytes()
    doc = json.loads(summary)
    return {"exit": ret, "checks": [[c["name"], c["status"]] for c in doc["checks"]],
            "results": doc["results"], "bytes": csv_path.read_bytes() + summary}


def run_pass(ops, work: Path, index: int, tracer=None):
    """One closed-loop pass; returns (seconds, per-op seconds, per-op outputs).

    Outputs are read and the pass directory removed outside the timed region.
    """
    pass_dir = work / f"pass{index}"
    dirs = _op_dirs(ops, pass_dir)
    rets, op_times = [], []
    with contextlib.redirect_stdout(io.StringIO()):
        t_pass = time.perf_counter()
        for op, out_dir in zip(ops, dirs):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ret = _run_op(op, out_dir)
                else:
                    tracer.op_id = f"{index}:{op.name}"
                    ret = tracer.span(f"op.{op.name}", _run_op, op, out_dir)
            except Exception as exc:  # a raising operation counts as failed
                ret = exc
            op_times.append(time.perf_counter() - t0)
            rets.append(ret)
        seconds = time.perf_counter() - t_pass
    outputs = [_collect(op, d, r) for op, d, r in zip(ops, dirs, rets)]
    shutil.rmtree(pass_dir, ignore_errors=True)
    return seconds, op_times, outputs


# ---------------------------------------------------------------- gate

def mismatch(got, want, path="") -> str | None:
    """First difference beyond the gate between two JSON values, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in sorted(want):
            bad = mismatch(got[key], want[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = mismatch(g, w, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(want, bool) or isinstance(got, bool) or not isinstance(want, (int, float)):
        return None if got == want else f"{path}: {got!r} != {want!r}"
    if not isinstance(got, (int, float)):
        return f"{path}: {got!r} != {want!r}"
    if got == want or abs(got - want) <= RTOL * max(abs(got), abs(want)):
        return None
    return f"{path}: {got!r} vs reference {want!r}"


def check(ops, outputs, reference: dict) -> list[dict]:
    """Gate every op output against the reference; one entry per failed op.

    An op the program refused with a numerical failure is failed but not
    wrong; any other difference from the reference is a wrong output."""
    failures = []
    for op, out in zip(ops, outputs):
        ref = reference["ops"].get(op.name)
        keys = ("exit", "checks", "results")
        bad = ("no reference" if ref is None else
               mismatch({k: out.get(k) for k in keys}, {k: ref[k] for k in keys}))
        if bad:
            failures.append({"op": op.name, "why": bad, "wrong": not out.get("refused")})
    return failures


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE / f"{workload}-v{seed % workloads.VARIANTS:02d}.json"


# ---------------------------------------------------------------- metrics

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it, but not below the median: with 20 samples or fewer no
    percentile above the median has ten beyond it, and the tail reads as the
    median.  A longer `--seconds` resolves a real tail."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


@contextlib.contextmanager
def work_dir(tag: str):
    """Scratch directory for one process: scenario inputs and pass outputs."""
    work = BENCH / ".work" / f"{tag}-{os.getpid()}"
    (work / "inputs").mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def prepare(workload: str, seed: int, work: Path):
    """(ops, reference) for the seed, with annulab imported."""
    ops = workloads.build(workload, seed, (work / "inputs").relative_to(ROOT))
    reference = json.loads(reference_path(workload, seed).read_text())
    import annulab.cli  # noqa: F401  (its import time is setup_s, measured apart)
    return ops, reference


def cold_pass(workload: str, seed: int) -> dict:
    with work_dir(f"cold-{workload}-{seed}") as work:
        ops, reference = prepare(workload, seed, work)
        seconds, _, outputs = run_pass(ops, work, 0)
    return {"seconds": seconds, "attempted": len(ops),
            "failures": check(ops, outputs, reference)}


def measure(workload: str, seed: int, seconds: float, trace: bool, caps: dict) -> dict:
    setup = [fresh_import_s() for _ in range(SETUP_RUNS)]
    imports = [import_breakdown() for _ in range(IMPORTTIME_RUNS)] if trace else []
    with work_dir(f"{workload}-{seed}") as work:
        return _measure(workload, seed, seconds, trace, caps, work, setup, imports)


def _measure(workload, seed, seconds, trace, caps, work, setup, imports) -> dict:
    ops, reference = prepare(workload, seed, work)

    failures: list[dict] = []
    attempted = 0

    def gated(outputs):
        nonlocal attempted
        attempted += len(outputs)
        failures.extend(check(ops, outputs, reference))

    budget = seconds / 2.0 if trace else seconds
    min_warm = MIN_WARM - 1 if trace else MIN_WARM
    t_start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - t_start

    cold, _, outputs = run_pass(ops, work, 0)
    gated(outputs)
    colds = [cold]
    while (not trace and len(colds) < COLD_RUNS
           and elapsed() + max(colds) * (1 + MIN_WARM) <= seconds):
        child = fresh_cold_pass(workload, seed)
        colds.append(child["seconds"])
        attempted += child["attempted"]
        failures.extend(child["failures"])
    warm, op_times, blobs = [], [], [[] for _ in ops]
    last_untraced = outputs
    while len(warm) < min_warm or elapsed() + warm[-1] <= budget:
        secs, times, outputs = run_pass(ops, work, len(warm) + 1)
        gated(outputs)
        warm.append(secs)
        op_times.append(times)
        for blob, out in zip(blobs, outputs):
            blob.append(out["bytes"])
        last_untraced = outputs
    nondeterministic = [op.name for op, b in zip(ops, blobs) if len(set(b)) > 1]
    tail_s, tail_pct = tail(warm)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(caps), "setup_s": setup, "cold_pass_s": colds,
        "warm_pass_s": warm, "op_s": {op.name: [t[i] for t in op_times] for i, op in enumerate(ops)},
        "nondeterministic_ops": nondeterministic, "failures": failures,
    }
    if not trace:
        metrics = {
            "pass_s": statistics.median(warm),
            "pass_tail_s": tail_s,
            "cold_pass_s": statistics.median(colds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_frac": 1.0 - len(failures) / attempted,
        }
        units = END_TO_END
    else:
        metrics, units = _traced(ops, work, warm, op_times, last_untraced, imports,
                                 gated, failures, record, t_start + seconds)
        metrics.update({
            "failed_frac": len(failures) / attempted,
            "nondeterministic_frac": len(nondeterministic) / len(ops),
            "pass_tail.percentile": tail_pct,
            "pass_tail.samples": len(warm),
        })
    record.update(attempted=attempted, failed=len(failures), pass_tail_percentile=tail_pct,
                  metrics=metrics)
    return {"record": record, "units": units}


def _traced(ops, work, warm, op_times, last_untraced, imports, gated, failures, record,
            deadline):
    import tracer as tracing
    from annulab import (auditors, bases, cli, estimates, geometry, heatkernel,
                         numerics, perturb, radial, specfun, spectral2d)

    modules = (cli, perturb, auditors, estimates, geometry, heatkernel, radial, bases,
               spectral2d, numerics, specfun)
    tr = tracing.Tracer()
    traced, per_pass = [], []
    tr.install(modules)
    try:
        while len(traced) < MIN_TRACED or time.perf_counter() + traced[-1] <= deadline:
            index = 1000 + len(traced)
            secs, _, outputs = run_pass(ops, work, index, tracer=tr)
            gated(outputs)
            traced.append(secs)
            per_pass.append(tr.metrics({f"{index}:{op.name}" for op in ops}))
    finally:
        restored = tr.restore()
    # Self-test: the traced outputs match the untraced ones within the gate.
    for op, got, want in zip(ops, outputs, last_untraced):
        bad = None if got.get("refused") or want.get("refused") else mismatch(
            got.get("results"), want.get("results"))
        if bad:
            failures.append({"op": op.name, "why": f"tracer self-test: {bad}", "wrong": True})
    metrics = {m: statistics.median(p[m] for p in per_pass) for m in tracing.METRICS}
    units = dict(tracing.UNITS)
    names = {op.name: i for i, op in enumerate(ops)}
    for name in all_op_names():
        i = names.get(name)
        metrics[f"op.{name}_s"] = 0.0 if i is None else statistics.median(t[i] for t in op_times)
        units[f"op.{name}_s"] = "s"
    for key in imports[0]:
        metrics[key] = statistics.median(d[key] for d in imports)
        units[key] = "s"
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = metrics["trace.pass_s"] / statistics.median(warm) - 1.0
    units.update({"trace.pass_s": "s", "trace.overhead_frac": "ratio", "failed_frac": "ratio",
                  "nondeterministic_frac": "ratio", "pass_tail.percentile": "%",
                  "pass_tail.samples": "count"})
    record.update(traced_pass_s=traced, restored_attributes=restored, spans=tr.dump())
    return metrics, units


def all_op_names() -> list[str]:
    return [op.name for w in workloads.WORKLOADS for op in workloads.build(w, 0, Path("."))]


# ---------------------------------------------------------------- entry

def record_reference(workload: str, seed: int, attempts: int = 5) -> int:
    with work_dir(f"record-{workload}-{seed}") as work:
        inputs = (work / "inputs").relative_to(ROOT)
        ops = workloads.build(workload, seed, inputs)
        scenarios = {p.name: p.read_text() for p in sorted((ROOT / inputs).iterdir())}
        # A numerical failure that the ARPACK random start causes now and then
        # is not the reference outcome: record from a pass without one.
        for index in range(attempts):
            _, _, outputs = run_pass(ops, work, index)
            if not any(out.get("refused") for out in outputs):
                break
    doc = {"workload": workload, "variant": seed % workloads.VARIANTS, "inputs": scenarios,
           # argv is documentation; the gate compares exit, checks and results.
           "ops": {op.name: {"argv": [a.replace(f"{inputs}/", "inputs/")
                                      for a in op.argv] or None,
                             "exit": out["exit"], "checks": out.get("checks"),
                             "results": out.get("results")}
                   for op, out in zip(ops, outputs)}}
    # Exit 2 with a failed check is a result to record; bad input or a crash is not.
    broken = [op.name for op, out in zip(ops, outputs)
              if out["exit"] not in (0, 2) or out.get("refused")]
    if broken:
        print(f"error: operations {broken} did not run", file=sys.stderr)
        return 1
    REFERENCE.mkdir(exist_ok=True)
    reference_path(workload, seed).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in its own process; print each end-to-end metric."""
    ok = True
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{workload}: {verdict}, {result['failed']} of {result['attempted']} "
              f"operations failed (failed_frac {result['failed'] / result['attempted']:g})")
        for name, m in result["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write the reference file for this seed instead of measuring")
    p.add_argument("--cold-pass", action="store_true",
                   help="run one gated pass in this fresh process and print its time")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "annulab" / "__init__.py").is_file():
        print(f"error: no annulab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    if args.record:
        return record_reference(args.workload, args.seed)
    if args.cold_pass:
        print(json.dumps(cold_pass(args.workload, args.seed)))
        return 0
    if not reference_path(args.workload, args.seed).is_file():
        print(f"error: missing {reference_path(args.workload, args.seed)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), caps)
    record, units = result["record"], result["units"]
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=repr) + "\n")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    wrong = any(f["wrong"] for f in record["failures"])
    print(json.dumps({"workload": args.workload, "provenance": record["provenance"],
                      "nondeterministic_ops": record["nondeterministic_ops"],
                      "pass_tail_percentile": record["pass_tail_percentile"],
                      "warm_passes": len(record["warm_pass_s"])}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
