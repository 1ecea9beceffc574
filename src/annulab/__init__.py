"""Numerical toolkit for Dirichlet spectra and heat kernels on annular domains.

The package computes principal Dirichlet (and Neumann) eigenpairs on annuli,
boxes, circular sectors and sphere-based shells, evaluates the closed-form
comparison profiles for those eigenfunctions, and runs empirical audits of
volume doubling, Poincare inequalities, Gaussian heat-kernel envelopes, and
eigenfunction stability under domain perturbation.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    auditors,
    bases,
    estimates,
    geometry,
    heatkernel,
    numerics,
    perturb,
    radial,
    specfun,
    spectral2d,
)
