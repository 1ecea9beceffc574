"""Thin circular sectors: where uniform volume doubling genuinely fails.

The ground state of a unit sector of opening pi*beta is a Bessel function
of order 1/beta, and the phi^2-mass of center balls collapses like
(e beta/2)^(2/beta) as the opening shrinks.  The doubling ratio between
the balls of radius 1/alpha and 1/(2 alpha) at the vertex grows like
4 * 2^(2/beta) -- no uniform doubling constant can hold.  Everything is
computed in log space; the values themselves underflow double precision
long before beta reaches 1/8.
"""

from annulab import auditors, bases, geometry, radial, specfun

print("== first zeros of large-order Bessel functions ==")
for beta in (1.0 / 3.0, 0.2, 0.125):
    nu = 1.0 / beta
    alpha = specfun.first_positive_zero(nu)
    pred = nu + 1.855757 * nu ** (1.0 / 3.0)
    print(f"beta={beta:.4f}: alpha = {alpha:.6f}   (nu + 1.855757 nu^(1/3) = {pred:.6f})")

print("\n== center-ball volumes and doubling ratios ==")
report = auditors.sector_counterexample([1.0 / 3.0, 0.25, 0.2, 1.0 / 6.0, 0.125], nodes=4096)
for row in report.rows:
    print(f"beta={row['beta']:.4f}: log V = {row['log_v_full']:8.3f} "
          f"(asymptote {row['log_v_predicted']:8.3f})  "
          f"ratio = {row['doubling_ratio']:12.1f} "
          f"(prediction {row['predicted_ratio']:12.1f})")

print("\n== contrast: a thin shell's doubling ratios stay tame ==")
spec = radial.AnnularDomainSpec(2, 1.0, 1.1, bases.full_sphere(2))
w = geometry.dirichlet_weight(spec)
rep = auditors.doubling_profile(
    spec, w, [(1.05, 0.3), (1.01, 1.0)], [0.0125, 0.05, 0.1, 0.4, 1.6])
print(f"shell max ratio: {rep.summary['doubling_max']:.2f}  "
      f"sector ratio at beta=1/5: {report.rows[2]['doubling_ratio']:.0f}")
