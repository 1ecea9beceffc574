"""Weighted doubling and Poincare audits on thin shells.

The shell carries the measure phi^2 dx of its squared ground state and the
product surrogate metric max(base distance, radial gap).  Doubling ratios
V(x, 2r)/V(x, r) and spectral ball constants P(x, r) = 1/(r^2 mu_2) stay in
fixed windows across all locations, scales, and shell thicknesses; the
discrete analog on an eps-net graph tracks the continuum within a small
factor.
"""

import math
import tempfile
from pathlib import Path

from annulab import auditors, bases, geometry, radial

def shell(eps):
    return radial.AnnularDomainSpec(2, 1.0, 1.0 + eps, bases.full_sphere(2))

print("== eps-net of the shell (1, 1.1), eps = 0.1 ==")
spec = shell(0.1)
weight = geometry.dirichlet_weight(spec)
model = geometry.annulus_model(spec, weight, *geometry.resolving_grid(spec, 0.1))
net = geometry.build_net(model, 0.1)
checks = geometry.verify_net(net, model)
print(f"vertices: {net.size}, edges: {len(net.edges)}, max degree: {net.max_degree()}")
print(f"separation >= eps: {checks['separated']}, covered within eps: {checks['covered']}")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "shell_net.txt"
    geometry.export_net(net, path)
    print(f"net exported: {len(path.read_text().splitlines())} lines")

print("\n== doubling ratios across the thickness ladder ==")
for eps in (1.0, 0.5, 0.25, 0.1):
    spec = shell(eps)
    w = geometry.dirichlet_weight(spec, N=512)
    centers = [(1.0 + eps / 2, 0.3), (1.0 + eps / 10, 0.3 + math.pi)]
    radii = [eps / 8, eps / 2, eps, 2 * eps, 3.0]
    rep = auditors.doubling_profile(spec, w, centers, radii)
    print(f"eps={eps}: max V(2r)/V(r) = {rep.summary['doubling_max']:.3f}")

print("\n== ball Poincare constants, continuous grid vs net graph ==")
spec = shell(0.25)
w = geometry.dirichlet_weight(spec, N=512)
centers = [(1.125, 0.3)]
radii = [0.5, 1.0, 1.5]
cont = auditors.poincare_profile(spec, w, centers, radii, mode="continuous", epsilon=0.25)
disc = auditors.poincare_profile(spec, w, centers, radii, mode="discrete", epsilon=0.25)
for rc, rd in zip(cont.rows, disc.rows):
    print(f"r={rc['r']:4.2f}: continuum P = {rc['poincare']:.4f}   "
          f"net P = {rd['poincare']:.4f} (graph radius {rd['graph_radius']})")
