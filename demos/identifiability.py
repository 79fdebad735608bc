"""
Is the learned tangent law identifiable?
========================================

Fits the two-stage surrogate of ``planted_pipeline.py`` to the same
plant (n_orb 3, ell 16, 21 geometries) from four stage-1 seeds, and asks
whether the learned kernels carry the planted law or only fit the data.
For each seed it prints:

* train MAE (stage 1) and test MAE (stage 2, over the geometries outside
  the references);
* the tangent law fitted to the learned kernels;
* the inertia of the learned bare kernel W_B, as (positive, negative)
  eigenvalue counts; the planted W_B is positive definite;
* the linear-image residuals of the pair-product rows ``phi_p * phi_q``
  stacked over every geometry and pair ``p <= q``: how far the learned rows
  are from a linear image of the planted rows, and the other way round
  (relative Frobenius norm of the least-squares misfit);
* the largest imaginary part of the eigenvalues of the pencil (W_D, W_B);
* the spread of the fitted law when one bare target (the largest entry at
  the first geometry, over its whole orbit) is moved by 1 ulp and both
  stages are run again with the same seeds: a measure of how much
  rounding alone moves the answer.

It is the yardstick for any change meant to make the learned law
identifiable.  Four seeds with the rerun take about 50 s on one core;
every number is seeded, so reruns print the same output.
"""

import dataclasses
import math

import numpy as np

from tanfold.heads import HeadKind
from tanfold.spectral import align_eigensystems, eig_sym, eigen_differences
from tanfold.synth import PlantSpec, plant_series
from tanfold.tanmodel import fit_tan
from tanfold.tensors import GeometrySeries, Kind, orbit_table
from tanfold.training import TrainConfig, finetune_effective, train_bare

SEEDS = (0, 1, 2, 3)
REFS = (1.86, 2.22, 2.58, 2.94)

# the plant and schedules of planted_pipeline.py
spec = PlantSpec(
    n_orb=3, ell=16, geometries=tuple(np.linspace(1.8, 3.0, 21)),
    rate=0.17, amplitude=2.0e-2, center=8.0, spectrum_lo=0.2, eta=0.0,
    fourier_scale=0.2, target_rms=1.5e-3, seed=11, system="demo",
)
CFG1 = TrainConfig(stage=HeadKind.BARE_TWO, epochs=20000, batch_size=4096, base_lr=5e-3,
                   seed=0, ell=16, hidden=(32, 32), kernel_polish=True)
CFG2 = TrainConfig(stage=HeadKind.EFF_TWO, epochs=500, batch_size=4096, base_lr=2e-3,
                   seed=1, ell=16, hidden=(32, 32), freeze_orbitals=True, kernel_polish=True)


def fit_learned(series, seed):
    """Both stages from stage-1 seed ``seed``; the models, reports and law."""
    model1, report1 = train_bare(series, dataclasses.replace(CFG1, seed=seed))
    model2, report2 = finetune_effective(series, model1, CFG2, refs=REFS)
    table = eigen_differences(align_eigensystems(eig_sym(model1.kernel), eig_sym(model2.kernel)))
    return model1, model2, report1, report2, fit_tan(table.pairs())


def moved_by_one_ulp(series):
    """``series`` with the largest bare two-body entry at the first geometry
    moved one ulp away from zero, on every member of its orbit."""
    first = series.of_kind(Kind.BARE)[0]
    two = first.two_body.copy()
    table = orbit_table(first.n_orb, first.symmetry)
    key = np.argmax(np.abs(two.ravel()[table.rep_flat]))
    members = table.orbit_of == key
    two[members] = np.nextafter(two[members], math.copysign(np.inf, two[members][0]))
    moved = dataclasses.replace(first, two_body=two)
    sets = tuple(moved if t is first else t for t in series.tensor_sets)
    return GeometrySeries(system=series.system, tensor_sets=sets)


def pair_rows(features):
    """Rows ``phi_p * phi_q`` for every geometry and pair ``p <= q``."""
    p, q = np.triu_indices(spec.n_orb)
    return np.concatenate([phi[p] * phi[q] for phi in features])


def image_residual(source, target):
    """Relative misfit of ``target`` as a linear image ``source @ X``."""
    x, *_ = np.linalg.lstsq(source, target, rcond=None)
    return np.linalg.norm(target - source @ x) / np.linalg.norm(target)


def learned_features(model, r):
    net = model.nets[0]
    lo, hi = model.geometry_range
    return net.forward(net.embed(range(net.n_orb), (r - lo) / (hi - lo)))


def planted_features(plant, r):
    lo, hi = min(spec.geometries), max(spec.geometries)
    x = (r - lo) / (hi - lo)
    return plant.coef_phi @ np.array([1.0, x, x * x, math.sin(2 * math.pi * x), math.cos(2 * math.pi * x)])


def law(fit):
    return f"rate {fit.rate:.4g}  center {fit.center:.4g}  amplitude {fit.amplitude:+.4g}"


plant = plant_series(spec)
series = plant.series
moved = moved_by_one_ulp(series)
exact = fit_tan(eigen_differences(align_eigensystems(eig_sym(plant.w_bare), eig_sym(plant.w_eff))).pairs())
print(f"planted law: rate {spec.rate:.4g}  center {spec.center:.4g}  amplitude {spec.amplitude:+.4g}")
print(f"exact kernels: {law(exact)}")
print(f"planted W_B inertia: +{np.sum(plant.two_body_spectrum > 0)}/-{np.sum(plant.two_body_spectrum < 0)}")

geometries = sorted(spec.geometries)
planted_rows = pair_rows([planted_features(plant, r) for r in geometries])
for seed in SEEDS:
    model1, model2, report1, report2, fit = fit_learned(series, seed)
    learned_rows = pair_rows([learned_features(model1, r) for r in geometries])
    w_b, w_d = model1.kernel.matrix, model2.kernel.matrix
    eps_b = np.linalg.eigvalsh(w_b)
    pencil = np.linalg.eigvals(np.linalg.solve(w_b, w_d))
    *_, fit_moved = fit_learned(moved, seed)
    print(f"\nseed {seed}: train MAE {report1.train_mae:.2e}, test MAE {report2.test_mae:.2e}")
    print(f"  fitted law:       {law(fit)}")
    print(f"  W_B inertia:      +{np.sum(eps_b > 0)}/-{np.sum(eps_b < 0)}")
    print(f"  linear image:     planted -> learned {image_residual(planted_rows, learned_rows):.3f}, "
          f"learned -> planted {image_residual(learned_rows, planted_rows):.3f}")
    print(f"  pencil max |Im|:  {np.abs(pencil.imag).max():.3g}")
    print(f"  one ulp moved:    {law(fit_moved)}")
    print(f"  spread:           rate {abs(fit_moved.rate - fit.rate):.3g}  "
          f"center {abs(fit_moved.center - fit.center):.3g}  "
          f"amplitude {abs(fit_moved.amplitude - fit.amplitude):.3g}")
