"""Dirichlet heat kernels: spectral sums, equilibration, Gaussian envelopes.

The normalized kernel e^(lam_1 t) p(t,x,y)/(phi_1(x) phi_1(y)) tends to 1 at
the exponential rate lam_2 - lam_1.  On a thin shell two separated time
scales appear: boundary killing at 1/lam_1 ~ (b-a)^2 and spatial mixing at
diam^2; after mixing, the kernel obeys a two-sided Gaussian envelope against
weighted ball volumes.
"""

import math

import numpy as np

from annulab import bases, geometry, heatkernel, radial

print("== spectral sum vs method-of-images on the interval (-1, 1) ==")
spectrum = heatkernel.interval_spectrum(1.0, 200)
for x, y in ((0.0, 0.0), (0.3, -0.5)):
    p, tail = heatkernel.kernel_eval(spectrum, 0.1, [x], [y])
    oracle = heatkernel.images_kernel_interval(1.0, 0.1, x, y)
    print(f"p(0.1, {x}, {y}) = {p:.12f}  images: {oracle:.12f}  tail <= {tail:.1e}")

print("\n== equilibration rate equals the spectral gap ==")
pts = np.linspace(-0.9, 0.9, 7)[:, None]
audit = heatkernel.equilibration_audit(spectrum, np.linspace(0.5, 4.0, 12), pts)
print(f"fitted decay rate: {audit['fitted_rate']:.5f}   "
      f"lam_2 - lam_1 = {audit['spectral_gap']:.5f}")

print("\n== box envelopes: deviation bounded by (a/sqrt(t))^3 ==")
env = heatkernel.box_kernel_bounds_check(heatkernel.Box((1.0,)), [1.0, 2.0, 4.0, 16.0])
for row in env["rows"]:
    print(f"t={row['t']:5.1f}: |ratio-1| max = {row['max_abs_dev']:.2e}  "
          f"envelope = {row['deviation_envelope']:.2e}")
print(f"implied constant: {env['deviation_constant']:.4f}")

print("\n== two time scales on the shell (1, 1.1) ==")
spec = radial.AnnularDomainSpec(2, 1.0, 1.1, bases.full_sphere(2))
sp = radial.assemble_spectrum(spec, M_base=12, K_radial=2, N=256)
print(f"killing time 1/lam_1 = {1.0 / sp.eigenvalues[0]:.4f}   "
      f"mixing time diam^2 = {math.pi**2:.2f}")
th = 0.3 + 2.0 * math.pi * np.arange(5) / 5.0
pts = np.array([(1.05, t) for t in th])
audit = heatkernel.equilibration_audit(sp, np.linspace(2.0, 14.0, 7), pts)
for row in audit["rows"]:
    print(f"t={row['t']:5.1f}: sup |normalized kernel - 1| = {row['sup_dev']:.2e}")

print("\n== Gaussian envelope fit against ball volumes ==")
eps = 0.1
t_grid = [eps**2, 4 * eps**2, 1.0, math.pi**2]
# keep every radial family whose floor lies below lam_1 + ln(1e11) / t_min; lam_1
# is at least the floor of family j = 1 on the circle's lowest level, lambda0 = 0
cutoff = radial.family_floor(spec, 1, 0.0) + math.log(1e11) / min(t_grid)
spectrum = radial.spectrum_below(spec, cutoff, N=256)
weight = geometry.dirichlet_weight(spec)
fit = heatkernel.gaussian_hke_audit(spec, t_grid, weight, spectrum)
print(f"c_lo={fit['c_lo']:.3f}  c_hi={fit['c_hi']:.3f}  "
      f"c2={fit['c2']:.3f}  c4={fit['c4']:.3f}")
