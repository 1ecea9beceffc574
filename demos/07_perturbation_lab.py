"""Domain perturbation: eigenfunction stability between sandwich domains.

If A sits inside an arbitrary domain U inside a hull B, and the hull only
widens A on an admissible scale (cubically in the shell thickness), then
phi_U is trapped between multiples of phi_A and phi_B.  The audits solve
all three domains on grids and report the actual ratio windows.
"""

import json
import os
import tempfile

from annulab import cli, perturb

print("== box sandwich conditions ==")
res = perturb.check_box_conditions((1.0, 1.0), (1.05, 1.05), C1=0.2, C2=1.1)
for key, rep in res.items():
    print(f"{key}: value={rep.value:.4f}  passed={rep.passed}  extra={rep.extra}")

print("\n== notched box: B2 minus its corners, B1 untouched ==")
scenario = perturb.PerturbationScenario(
    kind="box", a_widths=(1.0, 1.0), b_widths=(1.05, 1.05), notch=0.05,
    C1=0.2, C2=1.1)
audit = perturb.box_perturbation_audit(scenario, h=1.0 / 128.0)
print(f"phi_U/phi_B2 max = {audit['upper_ratio']:.3f}   "
      f"phi_U/phi_B1 min = {audit['lower_ratio']:.3f}")
print(f"eigenvalues: B2 {audit['lam_outer']:.4f} <= U {audit['lam_u']:.4f} "
      f"<= B1 {audit['lam_inner']:.4f}")

print("\n== rippled shell between (1, 1.3) and its eps^3 hull ==")
eps = 0.3
cube = eps**3
scenario = perturb.PerturbationScenario(
    kind="annulus", eps=eps, a_eps=cube, b_eps=cube,
    rmin_const=1.0 - cube / 2.0, rmin_harmonics=((8, cube / 2.0, 0.0),),
    rmax_const=1.0 + eps + cube / 2.0, rmax_harmonics=((9, cube / 2.0, 0.7),))
audit = perturb.annulus_perturbation_audit(scenario, grids=(48, 384))
print(f"upper ratio {audit['upper_ratio']:.3f}, lower ratio {audit['lower_ratio']:.3f}, "
      f"core spread {audit['core_spread']:.2f}")
print(f"eigenvalue gap lam_A - lam_B = {audit['eigenvalue_gap']:.2f} "
      f"(bounded as eps -> 0)")

print("\n== the same scenario from a scenario file, through the command line ==")
cfg = """
kind = annulus
eps = 0.3
a_eps = 0.027
b_eps = 0.027
rmin = 0.9865 | 8:0.0135:0.0
rmax = 1.3135 | 9:0.0135:0.7
"""
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "shell.scenario")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg)
    code = cli.run(["--out", tmp, "perturb-annulus", "--scenario", path])
    with open(os.path.join(tmp, "perturb_annulus_summary.json"), encoding="ascii") as fh:
        results = json.load(fh)["results"]
print(f"exit {code}: upper ratio {results['upper_ratio']:.3f}, "
      f"lower ratio {results['lower_ratio']:.3f}, core spread {results['core_spread']:.2f}")
