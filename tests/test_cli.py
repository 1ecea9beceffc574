import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import string
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annulab
from annulab.cli import run


def read_summary(out_dir, stem):
    with open(out_dir / f"{stem}_summary.json") as fh:
        return json.load(fh)


def test_solve_n3_closed_form(tmp_path):
    code = run(["--out", str(tmp_path), "solve", "--n", "3", "--a", "1", "--b", "2",
                "--base", "full"])
    assert code == 0
    doc = read_summary(tmp_path, "solve")
    assert doc["results"]["lambda"] == pytest.approx(math.pi**2, rel=1e-7)
    assert doc["schema_version"] == "annulab.summary.v1"
    assert doc["library_version"]


def test_bounds_interval(tmp_path):
    code = run(["--out", str(tmp_path), "bounds", "--n", "2", "--a", "1", "--b", "2"])
    assert code == 0
    doc = read_summary(tmp_path, "bounds")
    lo, hi = doc["results"]["interval"]
    assert lo == pytest.approx(math.pi**2 - 0.25, abs=1e-5)
    assert hi == pytest.approx(math.pi**2 - 1.0 / 16.0, abs=1e-5)


def test_sector_csv_row(tmp_path):
    code = run(["--out", str(tmp_path), "sector", "--beta", "0.2", "--nodes", "1024"])
    assert code == 0
    lines = (tmp_path / "sector.csv").read_text().splitlines()
    assert lines[0].startswith("# annulab")
    header = lines[1].split(",")
    row = lines[2].split(",")
    pred = float(row[header.index("predicted_ratio")])
    assert pred == pytest.approx(4096.0)


def test_solve_count_error_names_both_flags(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "solve", "--count", "2000", "--grid", "64"]) == 1
    err = capsys.readouterr().err
    assert "--count" in err and "--grid 64" in err and "63" in err


@pytest.mark.parametrize("nodes", ["1", "4", "64"])
def test_sector_fails_the_doubling_checks_of_flagged_rows(tmp_path, nodes):
    # too few nodes: the refinement check flags every row, and the ratios
    # read from those quadratures must not pass
    code = run(["--out", str(tmp_path), "sector", "--beta", "0.2,0.125", "--nodes", nodes])
    doc = read_summary(tmp_path, "sector")
    checks = [(c["name"], c["status"]) for c in doc["checks"]]
    assert checks[0][0] == "ratio_increasing"
    assert checks[1:] == [("doubling_ratio_beta_0.2", "fail"), ("doubling_ratio_beta_0.125", "fail")]
    assert code == 2
    with open(tmp_path / "sector.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["flag"] for row in rows] == ["quadrature_not_converged"] * 2


def test_validation_error_exit_code(tmp_path):
    code = run(["--out", str(tmp_path), "solve", "--a", "2", "--b", "1"])
    assert code == 1


def test_unknown_subcommand_exit_code(tmp_path):
    assert run(["--out", str(tmp_path), "no-such-command"]) == 1


# every computing subcommand at a small size
SMALL_RUNS = [
    ["solve", "--grid", "256", "--count", "2"],
    ["bounds"],
    ["caricature", "--kind", "wide"],
    ["hadamard", "--n", "3", "--t", "0.5,1.0", "--grid", "256"],
    ["vd-audit", "--eps", "0.4"],
    ["pi-audit", "--eps", "0.2"],
    ["heat-kernel", "--domain", "annulus", "--t", "2,4,8"],
    ["box-kernel", "--half-widths", "1,0.5", "--t", "1,4"],
    ["hke-fit", "--eps", "0.2"],
    ["sector", "--nodes", "512"],
    ["perturb-box", "--h", "0.03125"],
    ["perturb-annulus", "--nr", "24", "--ntheta", "128"],
]


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
def test_outputs_deterministic(tmp_path, argv):
    # two runs in one process: no solver state may carry over between runs
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        assert run(["--out", str(d), *argv]) == 0
    stem = argv[0].replace("-", "_")
    for name in (f"{stem}.csv", f"{stem}_summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every small run, the default shell audit, the h = 1/256 box and a
    # discrete Poincare audit whose nets reach 250 nodes and more, each in a
    # fresh interpreter at one and at two BLAS threads
    runs = [*SMALL_RUNS, ["perturb-annulus"], ["perturb-box", "--h", "0.00390625"],
            ["pi-audit", "--eps", "0.02", "--mode", "discrete"]]
    code = """
import hashlib, json, sys
from pathlib import Path
from annulab.cli import run
out, runs = Path(sys.argv[1]), json.loads(sys.argv[2])
for i, argv in enumerate(runs):
    assert run(["--out", str(out / str(i)), *argv]) == 0, argv
    stem = argv[0].replace("-", "_")
    for name in (f"{stem}.csv", f"{stem}_summary.json"):
        print(i, name, hashlib.sha256((out / str(i) / name).read_bytes()).hexdigest())
"""
    src = str(Path(annulab.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cp = subprocess.run([sys.executable, "-c", code, str(tmp_path / threads), json.dumps(runs)],
                            capture_output=True, text=True, env=env, timeout=600)
        assert cp.returncode == 0, cp.stderr
        digests.append([line for line in cp.stdout.splitlines() if not line.startswith("[")])
    assert len(digests[0]) == 2 * len(runs)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("argv", [
    pytest.param(["perturb-box", "--scenario", "no-such.scenario"], id="missing-scenario"),
    pytest.param(["--config", "no-such.cfg", "solve"], id="missing-config"),
    pytest.param(["heat-kernel", "--t", "0"], id="heat-kernel-t0"),
    pytest.param(["box-kernel", "--t", "0"], id="box-kernel-t0"),
    pytest.param(["box-kernel", "--t", "1,-2"], id="box-kernel-negative-t"),
    pytest.param(["sector", "--nodes", "0"], id="sector-nodes0"),
    pytest.param(["perturb-box", "--h", "0"], id="perturb-box-h0"),
    pytest.param(["perturb-annulus", "--nr", "0"], id="perturb-annulus-nr0"),
    pytest.param(["perturb-annulus", "--ntheta", "0"], id="perturb-annulus-ntheta0"),
    pytest.param(["hadamard", "--t", ""], id="hadamard-empty-t"),
    pytest.param(["sector", "--beta", ""], id="sector-empty-beta"),
    pytest.param(["heat-kernel", "--half-widths", ""], id="heat-kernel-empty-half-widths"),
    pytest.param(["box-kernel", "--half-widths", ""], id="box-kernel-empty-half-widths"),
    pytest.param(["hadamard", "--n", "1"], id="hadamard-n1"),
    pytest.param(["caricature", "--n", "1"], id="caricature-n1"),
    pytest.param(["sector", "--beta", "0.001"], id="sector-beta-1e-3"),
    pytest.param(["sector", "--beta", "0.0001"], id="sector-beta-1e-4"),
    pytest.param(["sector", "--beta", "0.00001"], id="sector-beta-1e-5"),
    pytest.param(["solve", "--b", "inf"], id="solve-b-inf"),
    pytest.param(["bounds", "--b", "inf"], id="bounds-b-inf"),
    pytest.param(["caricature", "--a", "-1"], id="caricature-a-negative"),
    pytest.param(["heat-kernel", "--t", "1,,2"], id="heat-kernel-empty-t-item"),
    pytest.param(["box-kernel", "--half-widths", "1,,1"], id="box-kernel-empty-half-width-item"),
    pytest.param(["heat-kernel", "--half-widths", "nan"], id="heat-kernel-half-widths-nan"),
    pytest.param(["box-kernel", "--half-widths", "nan"], id="box-kernel-half-widths-nan"),
    pytest.param(["box-kernel", "--half-widths", "1,inf"], id="box-kernel-half-widths-inf"),
    pytest.param(["vd-audit", "--bound", "0"], id="vd-audit-bound0"),
    pytest.param(["vd-audit", "--bound", "-1"], id="vd-audit-bound-negative"),
    pytest.param(["vd-audit", "--bound", "nan"], id="vd-audit-bound-nan"),
    pytest.param(["vd-audit", "--bound", "0.5"], id="vd-audit-bound-below-1"),
    pytest.param(["perturb-box", "--bound", "0"], id="perturb-box-bound0"),
    pytest.param(["perturb-box", "--bound", "-1"], id="perturb-box-bound-negative"),
    pytest.param(["perturb-box", "--bound", "nan"], id="perturb-box-bound-nan"),
    pytest.param(["perturb-annulus", "--bound", "0"], id="perturb-annulus-bound0"),
    pytest.param(["perturb-annulus", "--bound", "-1"], id="perturb-annulus-bound-negative"),
    pytest.param(["perturb-annulus", "--bound", "nan"], id="perturb-annulus-bound-nan"),
    pytest.param(["perturb-annulus", "--bound", "inf"], id="perturb-annulus-bound-inf"),
    pytest.param(["pi-audit", "--window", "0.1", "0.1"], id="pi-audit-window-equal-ends"),
    pytest.param(["pi-audit", "--window", "1", "0.1"], id="pi-audit-window-reversed"),
    pytest.param(["pi-audit", "--window", "0", "1"], id="pi-audit-window-lo0"),
    pytest.param(["pi-audit", "--window", "nan", "1"], id="pi-audit-window-nan"),
    # refused while argv is parsed, where argparse would print a usage block
    pytest.param(["solve", "--n", "abc"], id="solve-n-abc"),
    pytest.param(["sector", "--nodes", "1e300"], id="sector-nodes-1e300"),
    pytest.param(["perturb-annulus", "--nr", "nan"], id="perturb-annulus-nr-nan"),
    pytest.param(["perturb-annulus", "--eps", "inf"], id="perturb-annulus-eps-inf"),
    pytest.param(["solve", "--nope"], id="solve-unknown-flag"),
    pytest.param(["pi-audit", "--window", "0.1"], id="pi-audit-window-one-token"),
    pytest.param(["solve", "--count", "2000", "--grid", "64"], id="solve-count-past-grid"),
    pytest.param(["perturb-annulus", "--eps", "0.9"], id="perturb-annulus-eps-past-margin"),
    # a "scenario:" item is the text of a scenario file
    pytest.param(["perturb-annulus", "--scenario", "scenario:kind = annulus\neps = 0.3\n"
                  "a_eps = 0.027\nb_eps = 0.027\nrmin = 0\n"], id="perturb-annulus-rmin-zero"),
])
def test_input_errors_exit_one(tmp_path, capsys, argv):
    def path_of(item):
        if item.startswith("scenario:"):
            path = tmp_path / "input.scenario"
            path.write_text(item.removeprefix("scenario:"))
            return str(path)
        return str(tmp_path / item) if item.startswith("no-such") else item

    argv = [path_of(a) for a in argv]
    # a warning would reach stderr ahead of the one error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--out", str(tmp_path / "out"), *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not caught, [str(w.message) for w in caught]
    assert not list((tmp_path / "out").glob("*.csv"))


def test_perturb_annulus_zero_grid_warns_nothing(tmp_path):
    # a warning would reach stderr ahead of the one error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["--out", str(tmp_path), "perturb-annulus", "--nr", "0"])
    assert code == 1
    assert not caught, [str(w.message) for w in caught]


def test_empty_list_error_names_the_flag(tmp_path, capsys):
    for command, flag in (("hadamard", "--t"), ("sector", "--beta"),
                          ("heat-kernel", "--half-widths"), ("box-kernel", "--half-widths")):
        assert run(["--out", str(tmp_path), command, flag, ""]) == 1
        assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")


@pytest.mark.parametrize("command, text, named", [
    pytest.param("solve", "n = 3\nb 1.5\n", "config line 2", id="config-line-without-equals"),
    pytest.param("perturb-box", "kind = box\nb1 = 1 1\n", "key 'b2'", id="box-scenario-without-b2"),
    pytest.param("perturb-annulus", "kind = annulus\neps = 0.3\nrmin = 0.99 | 8:0.01\n",
                 "harmonic term '8:0.01'", id="short-harmonic-term"),
    pytest.param("perturb-box", "kind = box\nb1 = 1.0\nb2 = 1.05\n", "key 'b1'",
                 id="box-scenario-one-width"),
    pytest.param("perturb-box", "kind = box\nb1 = 1 1 1\nb2 = 1.05 1.05 1.05\n", "key 'b1'",
                 id="box-scenario-three-widths"),
    pytest.param("perturb-box", "kind = box\nb1 = 1 1\nb2 = 1.05 1.05\nnotch = -0.05\n",
                 "key 'notch'", id="box-scenario-negative-notch"),
    pytest.param("perturb-box", "kind = box\nb1 = 1 1\nb2 = 1.05 1.05\nnotch = nan\n",
                 "key 'notch'", id="box-scenario-nan-notch"),
    pytest.param("perturb-box", "kind = box\nb1 = -1.0 1.0\nb2 = 1.05 1.05\n", "key 'b1'",
                 id="box-scenario-negative-half-width"),
    pytest.param("solve", "n = abc\n", "key 'n'", id="config-value-not-an-int"),
    pytest.param("solve", "base = nope\n", "key 'base'", id="config-value-not-a-choice"),
    pytest.param("perturb-annulus", "kind = annulus\neps = abc\n", "key 'eps'",
                 id="scenario-value-not-a-float"),
    # the hull's window, theta1 widened by eta on both sides, would wind past 2 pi
    pytest.param("perturb-annulus", "kind = annulus\neps = 0.3\neta = 0.1\ntheta1 = 6.2\n",
                 "'theta1' and 'eta'", id="scenario-window-beyond-2pi"),
    # a repeated key is refused, not overridden by its last entry
    pytest.param("solve", "n = 3\nn = 4\n", "config line 2: key 'n'", id="config-repeated-key"),
    pytest.param("solve", "half-widths = 1\nhalf_widths = 2\n", "config line 2: key 'half_widths'",
                 id="config-repeated-key-spelled-twice"),
    pytest.param("perturb-annulus", "kind = annulus\neps = 0.3\n# eps again\neps = 0.2\n",
                 "scenario line 4: key 'eps'", id="scenario-repeated-key"),
])
def test_key_value_errors_name_the_culprit(tmp_path, capsys, command, text, named):
    path = tmp_path / "input.txt"
    path.write_text(text)
    if command == "solve":
        argv = ["--config", str(path), command]
    else:
        argv = [command, "--scenario", str(path)]
    assert run(["--out", str(tmp_path / "out"), *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def _domain_table() -> list[list[str]]:
    """The (domain, flags, scenario keys) cells of each row of README's domain table."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    rows = []
    for line in lines[lines.index("| Domain | Flags | Scenario keys |") + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def test_domain_table_lists_every_flag_and_every_scenario_key():
    rows = _domain_table()
    parser, subcommands = annulab.cli._build_parser()
    flags = {opt for p in (parser, *subcommands.values()) for action in p._actions
             for opt in action.option_strings if opt not in ("-h", "--help")}
    assert {f for _, cell, _ in rows for f in re.findall(r"`(--[a-z0-9-]+)`", cell)} == flags
    # a scenario cell is `kind `key`, `key`` parts separated by semicolons
    keys = set()
    for *_, cell in rows:
        for part in cell.split(";"):
            kind, _, listed = part.strip().partition(" ")
            if kind in annulab.cli._SCENARIO_KEYS:
                keys |= {(kind, key) for key in re.findall(r"`(\w+)`", listed)}
    assert keys == {(kind, key) for kind, table in annulab.cli._SCENARIO_KEYS.items()
                    for key in table}
    assert any(cell.startswith("`kind`") for *_, cell in rows)


def _scenario_run(tmp_path, monkeypatch, command, text):
    """The PerturbationScenario that a `command --scenario` run builds from
    `text`: its audit is replaced by one that keeps the scenario and stops."""
    seen = []

    def keep(scenario, *args, **kwargs):
        seen.append(scenario)
        raise ValueError("audit not run")

    audit = "box_perturbation_audit" if command == "perturb-box" else "annulus_perturbation_audit"
    monkeypatch.setattr(annulab.perturb, audit, keep)
    path = tmp_path / "input.scenario"
    path.write_text(text)
    assert run(["--out", str(tmp_path / "out"), command, "--scenario", str(path)]) == 1
    return seen[0]


def test_scenario_file_round_trip(tmp_path, monkeypatch):
    text = """
# sandwich config
kind = annulus
eps = 0.3
a_eps = 0.027
b_eps = 0.027
eta = 0.05
theta1 = 2.35619449019234
rmin = 0.9865 | 3:0.0135:0.0
rmax = 1.3135 | 5:0.0135:1.2
"""
    sc = _scenario_run(tmp_path, monkeypatch, "perturb-annulus", text)
    assert sc == annulab.perturb.PerturbationScenario(
        kind="annulus", eps=0.3, a_eps=0.027, b_eps=0.027, eta=0.05,
        theta1=2.35619449019234, rmin_const=0.9865, rmin_harmonics=((3, 0.0135, 0.0),),
        rmax_const=1.3135, rmax_harmonics=((5, 0.0135, 1.2),))
    assert sc.r_min()(np.array([0.0]))[0] == pytest.approx(0.9865 + 0.0135)


def test_scenario_file_box(tmp_path, monkeypatch):
    sc = _scenario_run(tmp_path, monkeypatch, "perturb-box",
                       "kind = box\nb1 = 1 1\nb2 = 1.05 1.05\nnotch = 0.05")
    assert sc.kind == "box"
    assert sc.a_widths == (1.0, 1.0) and sc.b_widths == (1.05, 1.05)
    assert sc.notch == 0.05


@pytest.mark.parametrize("text, named", [
    ("kind = box\nb1 = 1 1\nb2 = 1 1\nbogus = 3\n", "key 'bogus'"),
    ("kind = box\nb1 = 1 1\nb2 = 1 1\neps = 0.3\n", "key 'eps'"),
    ("eps = 0.3\n", "kind = box | annulus"),
], ids=["unknown-key", "annulus-key-in-a-box", "no-kind"])
def test_scenario_file_refuses_unknown_keys(tmp_path, capsys, text, named):
    path = tmp_path / "input.scenario"
    path.write_text(text)
    assert run(["--out", str(tmp_path / "out"), "perturb-box", "--scenario", str(path)]) == 1
    [err] = capsys.readouterr().err.strip().splitlines()
    assert err.startswith("error: ") and named in err


# A scenario of each kind that breaks a constraint between its keys, and that
# constraint's words: a key set to a value inside its domain leaves it broken
BROKEN_SCENARIOS = {
    "box": ({"b1": "1 1", "b2": "0.9 0.9"}, "need B1 inside B2"),
    "annulus": ({"eps": "0.3", "a_eps": "0.05", "b_eps": "0.05"}, "cubic regime"),
}
# the (kind, key, value) cases of the sweep below whose value lies in the key's domain
IN_DOMAIN = {("box", "notch", "0"), ("box", "C1", "0"),
             *(("annulus", key, "0") for key in ("a_eps", "b_eps", "eta", "C1", "C2")),
             *(("annulus", key, value) for key in ("rmin", "rmax") for value in ("-1", "0"))}


@pytest.mark.parametrize("kind, key, value", [
    (kind, key, value) for kind, keys in annulab.cli._SCENARIO_KEYS.items() for key in keys
    for value in ("nan", "inf", "-1", "0", "abc")])
def test_every_scenario_key_states_its_domain(tmp_path, capsys, monkeypatch, kind, key, value):
    # refused while the file is read, naming the key, or else inside the
    # key's domain and refused by the scenario's broken constraint; no solve
    # runs, and nothing warns
    monkeypatch.setattr(annulab.spectral2d, "solve_polar", None)
    monkeypatch.setattr(annulab.spectral2d, "solve_cartesian", None)
    fields, constraint = BROKEN_SCENARIOS[kind]
    fields = {"kind": kind, **fields, key: value}
    path = tmp_path / "input.scenario"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["--out", str(tmp_path / "out"), f"perturb-{kind}", "--scenario", str(path)])
    assert code == 1
    [err] = capsys.readouterr().err.strip().splitlines()
    if (kind, key, value) in IN_DOMAIN:
        assert err.startswith("error: ") and constraint in err
    else:
        assert err.startswith(f"error: scenario key {key!r}: needs ")
    assert not caught, [str(w.message) for w in caught]
    assert not list((tmp_path / "out").glob("*.csv"))


# scenarios that are audited as written, and lines that each make one bad
WORKING_SCENARIOS = {"box": {"b1": "1 1", "b2": "1.05 1.05", "notch": "0.05"},
                     "annulus": {"eps": "0.3"}}


@pytest.mark.parametrize("kind, lines, named", [
    pytest.param("box", {"C1": "nan"}, "key 'C1'", id="box-C1-nan"),
    pytest.param("box", {"C2": "nan"}, "key 'C2'", id="box-C2-nan"),
    pytest.param("box", {"C2": "-1"}, "key 'C2'", id="box-C2-negative"),
    # condition 2 divides by C2
    pytest.param("box", {"C2": "0"}, "key 'C2'", id="box-C2-zero"),
    # a notch deeper than b2 - b1 on both axes cuts into B1
    pytest.param("box", {"notch": "2"}, "key 'notch'", id="box-notch-into-b1"),
    # a NaN C1 would switch the cubic-regime check off
    pytest.param("annulus", {"a_eps": "0.05", "C1": "nan"}, "key 'C1'", id="annulus-C1-nan"),
    pytest.param("annulus", {"C2": "-1"}, "key 'C2'", id="annulus-C2-negative"),
    pytest.param("annulus", {"eta": "inf"}, "key 'eta'", id="annulus-eta-inf"),
    pytest.param("annulus", {"eps": "nan"}, "key 'eps'", id="annulus-eps-nan"),
    pytest.param("annulus", {"eps": "inf"}, "key 'eps'", id="annulus-eps-inf"),
    pytest.param("annulus", {"rmax": "1.3 | 9:nan:0.7"}, "key 'rmax'",
                 id="annulus-rmax-nan-amplitude"),
    pytest.param("annulus", {"rmax": "1.3 | -9:0.01:0.7"}, "key 'rmax'",
                 id="annulus-rmax-negative-k"),
    pytest.param("annulus", {"rmax": "1.3 | 9:0.01:inf"}, "key 'rmax'",
                 id="annulus-rmax-infinite-phase"),
    # the margin 2 h_r + eps^3 trims the whole shell (1, 1.9) off the core
    pytest.param("annulus", {"eps": "0.9"}, "scenario key 'eps': the margin",
                 id="annulus-eps-past-margin"),
])
def test_scenario_value_errors_name_the_key(tmp_path, capsys, monkeypatch, kind, lines, named):
    # refused before any solve, in one line that names the key
    monkeypatch.setattr(annulab.spectral2d, "solve_polar", None)
    monkeypatch.setattr(annulab.spectral2d, "solve_cartesian", None)
    fields = {"kind": kind, **WORKING_SCENARIOS[kind], **lines}
    path = tmp_path / "input.scenario"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["--out", str(tmp_path / "out"), f"perturb-{kind}", "--scenario", str(path)])
    assert code == 1
    [err] = capsys.readouterr().err.strip().splitlines()
    assert err.startswith("error: ") and named in err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("lines, named", [
    pytest.param("eta = -0.05\ntheta1 = 3.0\n", "key 'eta'", id="negative-eta"),
    pytest.param("a_eps = -0.01\n", "key 'a_eps'", id="negative-a-eps"),
    pytest.param("rmin = 1.05\n", "A escapes U", id="inner-shell-outside-u"),
    pytest.param("rmax = 1.5\n", "U escapes B", id="u-outside-hull"),
    pytest.param("theta1 = 6.2\neta = 0.1\n", "'theta1' and 'eta'", id="hull-window-beyond-2pi"),
])
@pytest.mark.parametrize("grids", [(), ("--nr", "24", "--ntheta", "96")],
                         ids=["default-grids", "24x96"])
def test_shell_scenario_outside_its_sandwich_is_bad_input(tmp_path, capsys, monkeypatch,
                                                          lines, named, grids):
    # A within U within B is checked before any grid is solved
    monkeypatch.setattr(annulab.spectral2d, "solve_polar", None)
    path = tmp_path / "shell.scenario"
    path.write_text("kind = annulus\neps = 0.3\n" + lines)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["--out", str(tmp_path / "out"), "perturb-annulus", "--scenario", str(path),
                    *grids])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not caught, [str(w.message) for w in caught]


def test_perturb_annulus_wide_eps_names_the_flag_and_the_margin(tmp_path, capsys):
    # eps = 0.9: the margin 2 h_r + eps^3 = 0.83 trims the whole shell (1, 1.9)
    assert run(["--out", str(tmp_path), "perturb-annulus", "--eps", "0.9"]) == 1
    [err] = capsys.readouterr().err.strip().splitlines()
    assert "--eps" in err and "margin 2*h_r + eps^3 = 0.827249" in err


@pytest.mark.parametrize("argv, quantity", [
    (["bounds", "--a", "1", "--b", "1e300"], "b/a - 1"),
    (["vd-audit", "--eps", "1e300"], "outer radius b"),
    (["pi-audit", "--eps", "1e300"], "outer radius b"),
    (["hke-fit", "--eps", "1e300"], "--eps"),
    (["heat-kernel", "--domain", "annulus", "--eps", "1e300"], "outer radius b"),
    (["solve", "--b", "1e300"], "outer radius b"),
], ids=["bounds", "vd-audit", "pi-audit", "hke-fit", "heat-kernel", "solve"])
def test_square_past_the_float_range_is_one_numerical_failure_line(tmp_path, capsys, argv,
                                                                   quantity):
    # flags inside their domains whose square overflows a float: one line
    # that names the quantity, not an errno tuple after a numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert quantity in err[0] and "its square overflows a float" in err[0]
    assert not caught, [str(w.message) for w in caught]


def test_hke_fit_tiny_eps_is_a_numerical_failure(tmp_path, capsys):
    # the kernel certificate refuses t = eps^2 before a quadrature model is sized from it
    assert run(["--out", str(tmp_path), "hke-fit", "--eps", "1e-9"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


@pytest.mark.parametrize("argv", [
    ["--kind", "wide", "--a", "1e-308", "--b", "1e308"],
    ["--kind", "wide", "--n", "3", "--a", "1", "--b", "1e300"],
    ["--kind", "thin", "--a", "1e-200", "--b", "1.5e-200"],
], ids=["wide-ratio-overflows", "wide-scale-overflows", "thin-scale-underflows"])
def test_caricature_out_of_float_range_is_a_numerical_failure(tmp_path, capsys, argv):
    # flags inside their domains whose profile cannot be computed in floats:
    # one line and exit 2, not numpy warnings and a CSV of nan or inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--out", str(tmp_path), "caricature", *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ") and "profile" in err[0]
    assert not caught and not (tmp_path / "caricature.csv").exists()


def test_arc_eigenvalue_overflow_names_theta1(tmp_path, capsys):
    # theta1 = 1e-300 lies in (0, 2 pi], but (pi/theta1)^2 is past the float range
    path = tmp_path / "arc.scenario"
    path.write_text("kind = annulus\neps = 0.3\ntheta1 = 1e-300\n")
    assert run(["--out", str(tmp_path / "out"), "perturb-annulus", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "theta1 = 1e-300" in err[0] and "(pi/theta1)^2" in err[0]


@pytest.mark.parametrize("eps", ["1e-6", "3e-6"])
def test_too_thin_annulus_heat_kernel_is_a_numerical_failure(tmp_path, capsys, eps):
    # the radial solve cannot order the base levels of so thin a shell; the
    # refusal names the solve, not the sample points
    assert run(["--out", str(tmp_path), "heat-kernel", "--domain", "annulus", "--eps", eps]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ") and "too thin" in err[0]


def test_thin_annulus_heat_kernel_at_eps_1e_5_passes(tmp_path):
    # the first spacings of the j = 1 eigenvalues, 0.99995 and 3.00005, are
    # still resolved
    assert run(["--out", str(tmp_path), "heat-kernel", "--domain", "annulus", "--eps", "1e-5"]) == 0
    check = read_summary(tmp_path, "heat_kernel")["checks"][0]
    assert (check["name"], check["status"]) == ("decay_rate_matches_gap", "pass")


@pytest.mark.parametrize("eps", ["0.01", "2"])
def test_hke_fit_certifies_thin_and_thick_shells(tmp_path, eps):
    # the energy cutoff keeps 1017 modes at eps = 0.01 and a single radial
    # family per level on the thick shell (1, 3)
    assert run(["--out", str(tmp_path), "hke-fit", "--eps", eps]) == 0
    check = read_summary(tmp_path, "hke_fit")["checks"][0]
    assert (check["name"], check["status"]) == ("gaussian_fit", "pass")


@pytest.mark.parametrize("argv", [
    pytest.param(["heat-kernel", "--domain", "annulus", "--t", "1e-9"], id="heat-kernel-t-1e-9"),
    pytest.param(["heat-kernel", "--domain", "annulus", "--t", "1e-300"], id="heat-kernel-t-1e-300"),
    pytest.param(["hke-fit", "--eps", "1e-9"], id="hke-fit-eps-1e-9"),
])
def test_annulus_kernel_at_tiny_time_is_refused_fast(tmp_path, capsys, argv):
    # the energy cutoff needs more modes than radial.MAX_MODES: refused before any solve
    start = time.perf_counter()
    code = run(["--out", str(tmp_path), *argv])
    elapsed = time.perf_counter() - start
    assert code == 2 and elapsed < 1.0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ") and "modes" in err[0]


@pytest.mark.parametrize("argv", [
    pytest.param(["heat-kernel", "--domain", "annulus", "--eps", "1", "--t", "0.2,1,2,4"],
                 id="annulus-one-time-in-window"),
    pytest.param(["heat-kernel", "--t", "1e300"], id="box-no-time-in-window"),
])
def test_unmeasured_decay_rate_is_a_numerical_failure(tmp_path, capsys, argv):
    # under two sup deviations in the fit window: no rate to compare with the gap
    assert run(["--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "(1e-12, 0.5)" in err[0]
    assert not list(tmp_path.glob("*.csv"))


# Flag domains of every computing subcommand, stated here rather than read
# from the parser: an int is the least allowed integer, a tuple the choices.
POSITIVE, RATIO, LIST, WINDOW = "positive", "ratio", "list", "window"
FLAG_DOMAINS = {
    "solve": {"--n": 2, "--a": POSITIVE, "--b": POSITIVE, "--base": ("full", "arc", "orthant"),
              "--theta1": POSITIVE, "--k-coords": 1, "--count": 1, "--grid": 64},
    "bounds": {"--n": 2, "--a": POSITIVE, "--b": POSITIVE},
    "caricature": {"--kind": ("thin", "wide"), "--n": 2, "--a": POSITIVE, "--b": POSITIVE,
                   "--points": LIST},
    "hadamard": {"--n": 2, "--t": LIST, "--grid": 64},
    "vd-audit": {"--eps": POSITIVE, "--weight": ("phi2", "uniform"), "--bound": RATIO},
    "pi-audit": {"--eps": POSITIVE, "--weight": ("phi2", "uniform"),
                 "--mode": ("continuous", "discrete"), "--window": WINDOW},
    "heat-kernel": {"--domain": ("box", "annulus"), "--half-widths": LIST, "--eps": POSITIVE,
                    "--t": LIST, "--modes": 1},
    "box-kernel": {"--half-widths": LIST, "--t": LIST},
    "hke-fit": {"--eps": POSITIVE},
    "sector": {"--beta": LIST, "--nodes": 1},
    "perturb-box": {"--h": POSITIVE, "--bound": RATIO},
    "perturb-annulus": {"--eps": POSITIVE, "--nr": 1, "--ntheta": 1, "--bound": RATIO},
}


def _outside(domain):
    """Strategy for argument tokens outside `domain`."""
    junk = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e999", "0x10"])
    good = st.floats(min_value=1e-300, max_value=1e300).map(repr)
    if domain == POSITIVE:
        return st.one_of(junk, st.floats(max_value=0.0).map(repr)).map(lambda v: [v])
    if domain == RATIO:
        return st.one_of(junk, st.floats(max_value=1.0, exclude_max=True).map(repr)
                         ).map(lambda v: [v])
    if domain == LIST:
        bad = st.one_of(st.just(""), _outside(POSITIVE).map(lambda v: v[0]))
        return st.tuples(st.lists(good, max_size=3), bad, st.lists(good, max_size=3)).map(
            lambda parts: [",".join([*parts[0], parts[1], *parts[2]])])
    if domain == WINDOW:
        ordered = st.tuples(good, good).map(lambda w: sorted(w, key=float, reverse=True))
        return st.one_of(good.map(lambda v: [v]), ordered,
                         st.tuples(_outside(POSITIVE), good).map(lambda w: [w[0][0], w[1]]))
    if isinstance(domain, tuple):
        text = st.text(alphabet=string.ascii_letters + string.digits + "-_.", max_size=12)
        return text.filter(lambda v: v not in domain).map(lambda v: [v])
    return st.one_of(junk, st.floats().map(repr),
                     st.integers(max_value=domain - 1).map(str)).map(lambda v: [v])


@st.composite
def _refused_input(draw):
    command = draw(st.sampled_from(sorted(FLAG_DOMAINS)))
    flag, domain = draw(st.sampled_from(sorted(FLAG_DOMAINS[command].items())))
    return command, flag, draw(_outside(domain)), draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_refused_input())
def test_values_outside_a_flag_domain_are_one_error_line(case):
    # as a flag or as a config entry, a value outside the flag's domain is
    # refused while parsing: exit 1, one error line, no output, no warning
    command, flag, tokens, via_config = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if via_config:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(f"{flag[2:]} = {' '.join(tokens)}\n")
            argv = ["--out", str(out), "--config", str(cfg), command]
        else:
            argv = ["--out", str(out), command, flag, *tokens]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        lines = err.getvalue().strip().splitlines()
        assert code == 1, (argv, lines)
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert not caught and not out.exists(), argv


def _child_env():
    # the child imports the same annulab as this test, whatever the caller's PYTHONPATH
    src = str(Path(annulab.__file__).resolve().parent.parent)
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _cap_address_space():
    limit = 1500 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_runs_import_no_optimize_interpolate_or_special(tmp_path):
    # their import cost must neither come back at start-up nor move into a
    # first run: a sector audit (Bessel zeros, log-grid series), a shell
    # perturbation audit (bilinear ratios) and an S^2 rectangle's sampler
    code = f"""
import math, sys
import annulab.cli
from annulab import bases
heavy = ("scipy.optimize", "scipy.interpolate", "scipy.special")
assert not [m for m in heavy if m in sys.modules], "at import"
annulab.cli.run(["--out", {str(tmp_path)!r}, "sector", "--beta", "0.03125"])
annulab.cli.run(["--out", {str(tmp_path)!r}, "perturb-annulus", "--nr", "24", "--ntheta", "192"])
data = bases.base_eigendata(bases.sphere_rectangle(1.0, (0.5, 2.0)), N=16)
float(data.phi0(0.5, 1.0))
print("loaded:", *(m for m in heavy if m in sys.modules))
"""
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env=_child_env(), timeout=300)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip().splitlines()[-1] == "loaded:"
    assert (tmp_path / "sector.csv").exists() and (tmp_path / "perturb_annulus.csv").exists()


@pytest.mark.parametrize("command", ["vd-audit", "pi-audit"])
def test_out_of_memory_is_a_numerical_failure(tmp_path, command):
    # --eps 1e-6 sizes the model's angular axis at 67M columns, 512 MiB per
    # array; the child runs under a 1.5 GiB address-space cap so that an
    # allocation fails
    cp = subprocess.run(
        [sys.executable, "-m", "annulab", "--out", str(tmp_path), command, "--eps", "1e-6"],
        capture_output=True, text=True, env=_child_env(), preexec_fn=_cap_address_space,
        timeout=600,
    )
    assert cp.returncode == 2
    err = cp.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


def test_thin_doubling_audit_fits_the_address_space_cap(tmp_path):
    # the model keeps two 1-D axes: at --eps 1e-5 that is 8.4M columns, no 2-D grid
    cp = subprocess.run(
        [sys.executable, "-m", "annulab", "--out", str(tmp_path), "vd-audit", "--eps", "1e-5"],
        capture_output=True, text=True, env=_child_env(), preexec_fn=_cap_address_space,
        timeout=600,
    )
    assert cp.returncode == 0, cp.stderr
    assert read_summary(tmp_path, "vd_audit")["checks"][0]["status"] == "pass"


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["vd-audit", "--eps", "1e-300"], "--eps", id="vd-audit"),
    pytest.param(["pi-audit", "--eps", "1e-300"], "--eps", id="pi-audit"),
    pytest.param(["hke-fit", "--eps", "1e-300"], "--eps", id="hke-fit"),
    pytest.param(["heat-kernel", "--domain", "annulus", "--eps", "1e-17"], "--eps",
                 id="heat-kernel"),
    pytest.param(["perturb-annulus", "--eps", "1e-16"], "--eps", id="perturb-annulus"),
    pytest.param(["hadamard", "--t", "0.1,1e-300"], "--t", id="hadamard"),
])
def test_shell_width_rounding_to_nothing_names_the_flag(tmp_path, capsys, argv, flag):
    assert run(["--out", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: argument {flag}: ")
    assert "rounds to 1" in err[0]


def test_unaddressable_box_grid_is_a_numerical_failure(tmp_path, capsys):
    # refused from the node count, before NumPy is asked for the arrays
    assert run(["--out", str(tmp_path), "perturb-box", "--h", "1e-300"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "4.410e+600 nodes" in err[0]


@pytest.mark.parametrize("argv, code, names", [
    pytest.param(["box-kernel", "--half-widths", "1e300"], 2, (), id="box-kernel-wide"),
    pytest.param(["box-kernel", "--half-widths", "1e-300"], 1, (), id="box-kernel-narrow"),
    pytest.param(["heat-kernel", "--half-widths", "1,1e-300"], 1, (), id="heat-kernel-narrow"),
    # parses, but (a/sqrt(t))^3 underflows to 0 in the deviation envelope
    pytest.param(["box-kernel", "--half-widths", "1e-150"], 2, ("1e-150", "envelope"),
                 id="box-kernel-underflow"),
])
def test_extreme_half_widths_print_one_line(tmp_path, capsys, argv, code, names):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--out", str(tmp_path), *argv]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert not caught, [str(w.message) for w in caught]
    assert len(err) == 1
    if code == 1:
        assert err[0].startswith("error: argument --half-widths: ")
    else:
        assert err[0].startswith("numerical failure: ")
    assert all(name in err[0] for name in names)


def test_hadamard_step_below_float_resolution_is_a_numerical_failure(tmp_path, capsys):
    # 1 + t > 1, but 1 + t + t/100 and 1 + t - t/100 are the same float
    assert run(["--out", str(tmp_path), "hadamard", "--t", "2e-16"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: t = 2e-16: ")


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nb = 1.5\n")
    code = run(["--out", str(tmp_path), "--config", str(cfg), "solve"])
    assert code == 0
    doc = read_summary(tmp_path, "solve")
    assert doc["config"]["b"] == 1.5
    assert doc["results"]["lambda"] == pytest.approx(math.pi**2 / 0.25, rel=1e-6)


def test_config_run_leaves_later_runs_at_the_defaults(tmp_path):
    # a --config run sets defaults on a parser of its own; the plain run
    # after it in this process echoes the config of a fresh process
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nb = 1.5\n")
    assert run(["--out", str(tmp_path / "config"), "--config", str(cfg), "bounds"]) == 0
    assert run(["--out", str(tmp_path / "plain"), "bounds"]) == 0
    fresh = subprocess.run([sys.executable, "-m", "annulab", "--out", str(tmp_path / "fresh"),
                            "bounds"], capture_output=True, env=_child_env())
    assert fresh.returncode == 0
    for name in ("bounds.csv", "bounds_summary.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert read_summary(tmp_path / "config", "bounds")["config"]["b"] == 1.5


def test_config_file_yields_to_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nb = 1.5\n")
    code = run(["--out", str(tmp_path / "flag"), "--config", str(cfg), "bounds", "--b", "3"])
    assert code == 0
    doc = read_summary(tmp_path / "flag", "bounds")
    assert (doc["config"]["n"], doc["config"]["b"]) == (3, 3.0)
    code = run(["--out", str(tmp_path / "file"), "--config", str(cfg), "bounds"])
    assert code == 0
    doc = read_summary(tmp_path / "file", "bounds")
    assert (doc["config"]["n"], doc["config"]["b"]) == (3, 1.5)


def test_config_file_sets_two_value_window(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 0.001 100\n")
    code = run(["--out", str(tmp_path), "--config", str(cfg), "pi-audit", "--eps", "0.4"])
    assert code == 0
    doc = read_summary(tmp_path, "pi_audit")
    assert doc["config"]["window"] == [0.001, 100.0]
    assert (doc["checks"][0]["lo"], doc["checks"][0]["hi"]) == (0.001, 100.0)


def test_config_file_list_reads_whitespace_separated_values(tmp_path):
    # a config list is read by the same parser as the comma-separated flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("half_widths = 1 0.5\nt = 1 4\n")
    assert run(["--out", str(tmp_path / "file"), "--config", str(cfg), "box-kernel"]) == 0
    assert run(["--out", str(tmp_path / "flag"), "box-kernel", "--half-widths", "1,0.5",
                "--t", "1, 4"]) == 0
    # both parse to the same lists, so even the config echo agrees
    texts = [(tmp_path / d / "box_kernel.csv").read_text() for d in ("file", "flag")]
    assert texts[0] == texts[1] and len(texts[0].splitlines()) > 2


def test_config_file_wrong_value_count_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 0.001\n")
    code = run(["--out", str(tmp_path / "out"), "--config", str(cfg), "pi-audit",
                "--eps", "0.4"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'window'" in err[0]


def test_out_dir_env_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("OUT_DIR", str(tmp_path / "envout"))
    code = run(["bounds", "--n", "3", "--a", "1", "--b", "2"])
    assert code == 0
    assert (tmp_path / "envout" / "bounds_summary.json").exists()


def test_report_aggregates(tmp_path):
    assert run(["--out", str(tmp_path), "bounds", "--n", "2", "--a", "1", "--b", "2"]) == 0
    assert run(["--out", str(tmp_path), "hadamard", "--n", "3", "--t", "0.5",
                "--grid", "256"]) == 0
    code = run(["--out", str(tmp_path), "report"])
    assert code == 0
    doc = read_summary(tmp_path, "report")
    assert doc["results"]["n_fail"] == 0
    assert doc["results"]["n_pass"] >= 2
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert len(rows) >= 3  # comment, header, at least two checks


@pytest.mark.parametrize("argv", [
    ["perturb-box", "--h", "0.03125"],
    ["heat-kernel", "--domain", "annulus", "--t", "2,4,8"],
], ids=lambda argv: argv[0])
def test_outputs_identical_across_processes(tmp_path, argv):
    # one run in a fresh interpreter with this process's environment, one in
    # this process after other runs: no state of either may reach the bytes
    env = {**_child_env(), "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    cp = subprocess.run([sys.executable, "-m", "annulab.cli", "--out", str(tmp_path / "fresh"),
                         *argv], capture_output=True, text=True, timeout=300,
                        env={k: v for k, v in env.items() if v is not None})
    assert cp.returncode == 0, cp.stderr
    assert run(["--out", str(tmp_path / "here"), *argv]) == 0
    stem = argv[0].replace("-", "_")
    for name in (f"{stem}.csv", f"{stem}_summary.json"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_cli_module_entrypoint(tmp_path):
    cp = subprocess.run(
        [sys.executable, "-m", "annulab.cli", "--out", str(tmp_path),
         "caricature", "--kind", "thin", "--n", "2", "--a", "1", "--b", "1.1",
         "--points", "1.05"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert cp.returncode == 0 and cp.stderr == ""
    lines = (tmp_path / "caricature.csv").read_text().splitlines()
    assert float(lines[2].split(",")[1]) == pytest.approx(0.05 / 0.1**1.5, rel=1e-10)


def test_failed_check_exit_code(tmp_path):
    # an absurd doubling bound turns the audit check red: exit 2
    code = run(["--out", str(tmp_path), "vd-audit", "--eps", "0.5",
                "--bound", "1.0"])
    assert code == 2
    doc = read_summary(tmp_path, "vd_audit")
    assert doc["checks"][0]["status"] == "fail"
