"""Comparison profiles: explicit expressions sandwiching eigenfunctions.

Each profile is an explicit formula two-sided comparable to the principal
eigenfunction, and a function of its parameters and then its points: the
tent and the harmonic profile take (n, a, b, r), and the separated cosine
gives its radial factor at the same arguments.  The audit below measures
the actual ratio window on the computed eigendata, the eigenvalue
sensitivity t^3 |dF/dt| which is exactly 2 pi^2 in dimension 3, and the
bounded eigenvalue gap under a cubic widening of the shell.
"""

import math

from annulab import bases, estimates, radial

print("== ratio windows phi / profile (5% margin trimmed) ==")
for n in (2, 3):
    for a, b, profile, name in (
        (1.0, 1.5, estimates.thin_annulus_caricature, "thin tent"),
        (0.2, 1.0, estimates.wide_annulus_caricature, "wide harmonic"),
    ):
        res = radial.solve_radial(n, a, b, 0.0, N=2048)[0]
        keep = (res.grid > a + 0.05 * (b - a)) & (res.grid < b - 0.05 * (b - a))
        g0 = 1.0 / math.sqrt(bases.surface_measure(n))
        car = profile(n, a, b, res.grid[keep])
        sup, inf = estimates.comparability_audit(res.f[keep] * g0, car)
        print(f"n={n} {name:14s} ({a},{b}): ratio in [{inf:.3f}, {sup:.3f}]  "
              f"spread {sup / inf:.2f}")

print("\n== the separated cosine profile is exact at n = 3 ==")
res = radial.solve_radial(3, 1.0, 1.4, 0.0, N=2048)[0]
keep = (res.grid > 1.02) & (res.grid < 1.38)
car = estimates.separated_cosine_caricature(3, 1.0, 1.4, res.grid[keep])
sup, inf = estimates.comparability_audit(res.f[keep], car)
print(f"spread = {sup / inf:.8f}")

print("\n== eigenvalue sensitivity scan: t^3 |dF/dt|, F(t) = lambda(1, 1+t) ==")
for n in (2, 3):
    rows = estimates.hadamard_scan(n, [0.05, 0.1, 0.5, 1.0], N=1024)
    print(f"n={n}: " + "  ".join(f"t={r['t']}: {r['t3_dlam']:.3f}" for r in rows))
print(f"(2 pi^2 = {2 * math.pi**2:.3f})")

print("\n== bounded gap under cubic widening ==")
rows = estimates.eigengap_scan(3, [0.1, 0.2, 0.3], N=1024)
for r in rows:
    print(f"eps={r['eps']}: lambda(1,1+eps) - lambda(widened hull) = {r['gap']:.3f}")
print(f"(two-sided limit 4 pi^2 = {4 * math.pi**2:.3f})")
