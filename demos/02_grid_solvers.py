"""Planar grid solvers for the principal eigenpair: polar shells, boxes, and masked domains.

The polar solver handles domains bounded by radial functions r_min(theta),
r_max(theta); the Cartesian solver handles indicator-defined regions
sandwiched between boxes.  On exactly separable domains both agree with the
one-dimensional solvers to the grid's second-order accuracy.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from annulab import bases, numerics, radial, spectral2d

print("== exact annulus vs the separated radial solver ==")
sol = spectral2d.solve_polar(spectral2d.annulus_domain(1.0, 1.5), 64, 256)
oracle = radial.solve_radial(2, 1.0, 1.5, 0.0, N=4096)[0].lam
print(f"grid: {sol.eigenvalue:.6f}  separated: {oracle:.6f}  "
      f"rel err: {abs(sol.eigenvalue - oracle) / oracle:.2e}")

print("\n== annular sector against the arc-base product ==")
t1 = 3.0 * math.pi / 4.0
sol = spectral2d.solve_polar(
    spectral2d.annulus_domain(1.0, 1.5, 0.0, t1, wrap=False), 64, 192)
lam0 = bases.base_eigendata(bases.circle_arc(t1)).lambda0
oracle = radial.solve_radial(2, 1.0, 1.5, lam0, N=4096)[0].lam
print(f"grid: {sol.eigenvalue:.6f}  product: {oracle:.6f}")

print("\n== boxes: closed forms recovered with Richardson ==")
for (ax, ay), target in (((1.0, 1.0), math.pi**2 / 2.0),
                         ((1.0, 0.1), math.pi**2 / 4.0 + 25.0 * math.pi**2)):
    dom = spectral2d.CartesianDomain2D(
        indicator=lambda X, Y, ax=ax, ay=ay: (np.abs(X) < ax) & (np.abs(Y) < ay),
        bbox=(-ax, ax, -ay, ay))
    lam_c = spectral2d.solve_cartesian(dom, 1.0 / 64.0).eigenvalue
    lam_f = spectral2d.solve_cartesian(dom, 1.0 / 128.0).eigenvalue
    lam = numerics.richardson(lam_c, lam_f)
    print(f"box {ax} x {ay}: {lam:.5f}  (exact {target:.5f})")

print("\n== a bumpy shell and its mask round-trip ==")
dom = spectral2d.PolarDomain2D(
    r_min=lambda th: 1.0 + 0.01 * np.cos(5 * th),
    r_max=lambda th: 1.3 - 0.01 * np.sin(3 * th))
sol = spectral2d.solve_polar(dom, 40, 256)
print(f"bumpy shell ground eigenvalue: {sol.eigenvalue:.5f}")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "bumpy_mask.txt"
    spectral2d.save_mask(path, sol.mask, sol.meta["r_range"], sol.meta["theta_range"])
    mask, r_range, th_range = spectral2d.load_mask(path)
sol2 = spectral2d.solve_polar_mask(mask, r_range, th_range, wrap=True)
print(f"re-solved from the saved mask:  {sol2.eigenvalue:.5f}")
