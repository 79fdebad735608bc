"""Synthetic datasets with fully known ground truth.

:func:`plant_series` builds a geometry series of bare and effective
tensors from planted pseudo-orbital features and planted symmetric
kernels whose spectra are linked by the tangent law.  Every hidden
object (features, kernels, spectra, basis) is returned, so recovery
pipelines can be scored against exact truth.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .atomic import savez, write_json
from .heads import HeadKind, KernelMatrix, entry_table, head_at_reps
from .nn import scale_geometry
from .tanmodel import _ARG_CAP
from .tensors import GeometrySeries, Kind, TensorSet, save_series

__all__ = ["PlantResult", "PlantSpec", "plant_series", "save_plant"]

#: default RMS of the noise-free bare two-body entries (see PlantSpec.target_rms)
TARGET_RMS = 0.5

_N_BASIS = 5
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PlantSpec:
    """Parameters of a planted dataset.

    The defaults mirror the two-body tangent-law magnitudes of a four-orbital
    chain: rate 1.0e-2, amplitude 0.6e-4, center 149.8 over 300 latent
    dimensions.  ``eta`` scales the smooth multiplicative deformation that
    turns phi into the second two-body family; ``noise`` is the standard
    deviation of i.i.d. Gaussian noise added per canonical entry.
    """

    n_orb: int = 4
    ell: int = 300
    geometries: tuple[float, ...] = tuple(np.linspace(1.8, 3.0, 13).tolist())
    rate: float = 1.0e-2
    amplitude: float = 0.6e-4
    center: float = 149.8
    spectrum_lo: float = 0.05
    eta: float = 0.01
    noise: float = 0.0
    target_rms: float = TARGET_RMS
    fourier_scale: float = 1.0
    seed: int = 0
    system: str = "planted"

    def __post_init__(self):
        if self.n_orb < 1:
            raise ValueError("n_orb must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.ell < 3:
            raise ValueError("ell must be >= 3")
        if not self.geometries:
            raise ValueError("need at least one geometry")
        for name in ("geometries", "rate", "amplitude", "center", "eta", "noise", "target_rms",
                     "fourier_scale"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if len(set(self.geometries)) != len(self.geometries):
            raise ValueError("geometries must be distinct")
        if not 0.0 < self.spectrum_lo <= 1.0:
            raise ValueError("spectrum_lo must lie in (0, 1]")
        if self.noise < 0.0 or self.eta < 0.0:
            raise ValueError("noise and eta must be non-negative")
        if self.target_rms <= 0.0:
            raise ValueError("target_rms must be positive")
        if self.fourier_scale < 0.0:
            raise ValueError("fourier_scale must be non-negative")
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")
        for i in (1.0, float(self.ell)):
            if abs(self.rate * (i - self.center)) >= _ARG_CAP:
                raise ValueError(
                    "tangent argument leaves (-pi/2, pi/2) over the index range"
                )


@dataclass(frozen=True)
class PlantResult:
    """A planted series together with every hidden object that built it."""

    spec: PlantSpec
    series: GeometrySeries
    w_bare: KernelMatrix
    w_eff: KernelMatrix
    m_bare: KernelMatrix
    m_eff: KernelMatrix
    two_body_spectrum: np.ndarray   # descending eigenvalues of w_bare
    one_body_spectrum: np.ndarray
    tan_factors: np.ndarray         # 1 + amplitude * tan(rate * (i - center))
    basis_two: np.ndarray           # shared eigenvectors of w_bare / w_eff
    basis_one: np.ndarray
    coef_phi: np.ndarray            # (n_orb, ell, 5) feature coefficients
    coef_psi: np.ndarray
    coef_deform: np.ndarray


def _basis_row(x: float) -> np.ndarray:
    return np.array(
        [1.0, x, x * x, math.sin(_TWO_PI * x), math.cos(_TWO_PI * x)]
    )


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _planted_kernel(z: np.ndarray, eigenvalues: np.ndarray) -> KernelMatrix:
    return KernelMatrix((z * eigenvalues) @ z.T, symmetrize=True)


def _planted_tensor(head, phi, phit, kernel, noise, rng):
    """The head's value at each orbit representative plus optional noise,
    one draw per orbit in representative order, spread over the orbit."""
    values = head_at_reps(head, phi, phit, kernel.matrix)
    if noise > 0.0:
        values += noise * rng.standard_normal(values.size)
    return entry_table(head.kind, head.body, phi.shape[0]).expand(values)


def _bare_rms(spec, coef_phi, kernel):
    """RMS of the noise-free bare two-body entries over probe geometries.

    Representatives are weighted by orbit size so this matches the RMS of
    the expanded tensors.
    """
    gs = sorted(spec.geometries)
    probe = {gs[0], gs[len(gs) // 2], gs[-1]}
    sizes = entry_table(Kind.BARE, 2, spec.n_orb).sizes
    total = sum(
        sizes @ np.square(head_at_reps(
            HeadKind.BARE_TWO, coef_phi @ _basis_row(scale_geometry((gs[0], gs[-1]), r)),
            None, kernel.matrix,
        ))
        for r in probe
    )
    return math.sqrt(total / (len(probe) * spec.n_orb**4))


def plant_series(spec: PlantSpec) -> PlantResult:
    """Generate bare and effective tensors with planted ground truth.

    Bare entries come from smooth per-orbital feature vectors contracted
    with planted symmetric kernels.  The effective kernels share the bare
    eigenvectors, with each eigenvalue scaled by the tangent factor
    ``1 + amplitude * tan(rate * (i - center))`` (``i`` indexes the
    descending bare spectrum, 1-based).  Effective two-body entries use a
    second feature family ``phi*(1 + eta*d)`` with a smooth deformation
    ``d``, so their symmetry drops from 8-fold to 4-fold.  Optional noise
    is applied per canonical entry and expanded, preserving exact symmetry.
    """
    rng = np.random.default_rng(spec.seed)
    coef_phi = rng.standard_normal((spec.n_orb, spec.ell, _N_BASIS))
    coef_psi = rng.standard_normal((spec.n_orb, spec.ell, _N_BASIS))
    coef_def = rng.standard_normal((spec.n_orb, spec.ell, _N_BASIS))
    for coef in (coef_phi, coef_psi, coef_def):
        coef[:, :, 3:] *= spec.fourier_scale  # damp the oscillatory basis pair
    z_two = _orthogonal(rng, spec.ell)
    z_one = _orthogonal(rng, spec.ell)

    index = np.arange(1, spec.ell + 1, dtype=np.float64)
    tan_factors = 1.0 + spec.amplitude * np.tan(spec.rate * (index - spec.center))
    raw = np.geomspace(1.0, spec.spectrum_lo, spec.ell)

    # calibrate the overall kernel scale to the requested entry RMS
    rms = _bare_rms(spec, coef_phi, _planted_kernel(z_two, raw))
    if rms == 0.0:
        raise ValueError("degenerate plant: probe entries are all zero")
    eps_two = (spec.target_rms / rms) * raw
    eps_one = (spec.target_rms / rms) * raw

    w_bare = _planted_kernel(z_two, eps_two)
    w_eff = _planted_kernel(z_two, eps_two * tan_factors)
    m_bare = _planted_kernel(z_one, eps_one)
    m_eff = _planted_kernel(z_one, eps_one * tan_factors)

    sets = []
    span = (min(spec.geometries), max(spec.geometries))
    for r in sorted(spec.geometries):
        x = scale_geometry(span, r)
        row = _basis_row(x)
        phi = coef_phi @ row
        psi = coef_psi @ row
        phit = phi * (1.0 + spec.eta * (coef_def @ row))
        for one, two, m, w in (
            (HeadKind.BARE_ONE, HeadKind.BARE_TWO, m_bare, w_bare),
            (HeadKind.EFF_ONE, HeadKind.EFF_TWO, m_eff, w_eff),
        ):
            sets.append(
                TensorSet._exact(
                    _planted_tensor(one, psi, None, m, spec.noise, rng),
                    _planted_tensor(two, phi, phit, w, spec.noise, rng),
                    geometry=r,
                    kind=two.kind,
                    n_orb=spec.n_orb,
                    scalar_term=0.0,
                    system=spec.system,
                )
            )

    return PlantResult(
        spec=spec,
        series=GeometrySeries(system=spec.system, tensor_sets=tuple(sets)),
        w_bare=w_bare,
        w_eff=w_eff,
        m_bare=m_bare,
        m_eff=m_eff,
        two_body_spectrum=eps_two,
        one_body_spectrum=eps_one,
        tan_factors=tan_factors,
        basis_two=z_two,
        basis_one=z_one,
        coef_phi=coef_phi,
        coef_psi=coef_psi,
        coef_deform=coef_def,
    )


def save_plant(result: PlantResult, directory: str | os.PathLike) -> None:
    """Write the series as canonical tensor files plus full provenance.

    ``plant.json`` holds the generating parameters; ``provenance.npz``
    holds every planted array (kernels, spectra, bases, coefficients).
    """
    save_series(result.series, directory)
    write_json(os.path.join(directory, "plant.json"), asdict(result.spec))
    savez(
        os.path.join(directory, "provenance.npz"),
        w_bare=result.w_bare.matrix,
        w_eff=result.w_eff.matrix,
        m_bare=result.m_bare.matrix,
        m_eff=result.m_eff.matrix,
        two_body_spectrum=result.two_body_spectrum,
        one_body_spectrum=result.one_body_spectrum,
        tan_factors=result.tan_factors,
        basis_two=result.basis_two,
        basis_one=result.basis_one,
        coef_phi=result.coef_phi,
        coef_psi=result.coef_psi,
        coef_deform=result.coef_deform,
    )
