"""
Tangent-law recovery from exact kernels
=======================================

The planted generator hides two symmetric 300x300 kernels sharing one
eigenbasis, with effective eigenvalues deformed by
``eps_eff = eps_bare * (1 + amplitude * tan(rate * (i - center)))``.
Given the exact kernels, the analysis chain (eigendecomposition ->
eigenvector pairing -> relative differences -> coarse grid +
Levenberg-Marquardt fit with the amplitude projected out) recovers the
planted parameters to near machine precision.

This is the full-size latent dimension (300); the fit sees nothing but
the two matrices.
"""

import numpy as np

from tanfold.presets import plant_preset
from tanfold.spectral import align_eigensystems, eig_sym, eigen_differences
from tanfold.synth import plant_series
from tanfold.tanmodel import eval_tan, fit_tan

spec = plant_preset("default-h4")
print(f"planted: ell={spec.ell}, rate={spec.rate}, "
      f"amplitude={spec.amplitude}, center={spec.center}")

plant = plant_series(spec)

# two-body kernels: same eigenvectors, tangent-deformed eigenvalues
alignment = align_eigensystems(eig_sym(plant.w_bare), eig_sym(plant.w_eff))
print(f"eigenvector pairing: max off-diagonal overlap "
      f"{alignment.max_off_diagonal:.2e} (shared basis -> ~0)")

table = eigen_differences(alignment)
fit = fit_tan(table.pairs())
print(f"\nfitted:  rate {fit.rate:.10g}")
print(f"         amplitude {fit.amplitude:.10g}")
print(f"         center {fit.center:.10g}")
print(f"         residual {fit.residual:.3e} over {fit.n_points} modes")

print(f"\nrecovery errors: |d rate| {abs(fit.rate - spec.rate):.2e}, "
      f"|d center| {abs(fit.center - spec.center):.2e}, "
      f"|d amplitude|/amplitude "
      f"{abs(fit.amplitude - spec.amplitude) / spec.amplitude:.2e}")

# the deformation profile across the spectrum
print("\nindex   relative shift   fitted curve")
for i in (1, 50, 100, 150, 200, 250, 299):
    print(f"{i:5d}   {table.rel_diff[i - 1]:+.8f}      "
          f"{eval_tan(fit, float(i)):+.8f}")

# the one-body kernels carry the same planted law
one = align_eigensystems(eig_sym(plant.m_bare), eig_sym(plant.m_eff))
one_fit = fit_tan(eigen_differences(one).pairs())
print(f"\none-body kernels give the same law: rate {one_fit.rate:.6g}, "
      f"center {one_fit.center:.6g}")
