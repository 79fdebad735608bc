"""Synthetic datasets with fully known ground truth.

Two generators live here:

* :func:`plant_series` builds a geometry series of bare and effective
  tensors from planted pseudo-orbital features and planted symmetric
  kernels whose spectra are linked by the tangent law.  Every hidden
  object (features, kernels, spectra, basis) is returned, so recovery
  pipelines can be scored against exact truth.
* :func:`toy_integrals_1d` produces a bare tensor set from honest 1-D
  quadrature: a harmonic one-body operator and a softened Coulomb
  two-body kernel over Gaussian basis functions.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import reports
from .atomic import savez
from .heads import HeadKind, KernelMatrix, entry_table, head_at_reps
from .tensors import (
    GeometrySeries,
    Kind,
    TensorSet,
    one_body_representatives,
    orbit_table,
    save_series,
    symmetry_for,
)

__all__ = [
    "GridSpec",
    "PlantResult",
    "PlantSpec",
    "plant_series",
    "refine",
    "save_plant",
    "toy_integrals_1d",
]

#: default RMS of the noise-free bare two-body entries (see PlantSpec.target_rms)
TARGET_RMS = 0.5

#: the tangent argument must stay this far away from +-pi/2
TAN_MARGIN = 1e-3

#: softening length of the 1-D interaction kernel 1/(|x - x'| + a)
SOFTENING = 0.1

_N_BASIS = 5
_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# planted factorized series
# ---------------------------------------------------------------------------

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
        if self.ell < 3:
            raise ValueError("ell must be >= 3")
        if not self.geometries:
            raise ValueError("need at least one geometry")
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
        cap = math.pi / 2 - TAN_MARGIN
        for i in (1.0, float(self.ell)):
            if abs(self.rate * (i - self.center)) >= cap:
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


def _scaled(geometries, r: float) -> float:
    lo, hi = min(geometries), max(geometries)
    return (r - lo) / (hi - lo) if hi > lo else 0.0


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
            HeadKind.BARE_TWO, coef_phi @ _basis_row(_scaled(spec.geometries, r)),
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
    for r in sorted(spec.geometries):
        x = _scaled(spec.geometries, r)
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
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    save_series(result.series, directory)
    reports.write_json(os.path.join(directory, "plant.json"), asdict(result.spec))
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


# ---------------------------------------------------------------------------
# toy 1-D quadrature integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform quadrature grid on [x_min, x_max] with n_points nodes."""

    x_min: float = -8.0
    x_max: float = 8.0
    n_points: int = 65537

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_points < 3:
            raise ValueError("need at least 3 grid points")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def refine(grid: GridSpec) -> GridSpec:
    """Halve the spacing while keeping every existing node."""
    return GridSpec(grid.x_min, grid.x_max, 2 * grid.n_points - 1)


def toy_integrals_1d(
    basis: list[tuple[float, float]],
    grid: GridSpec = GridSpec(),
    *,
    geometry: float = 0.0,
) -> TensorSet:
    """Bare tensors from 1-D quadrature over Gaussian basis functions.

    ``basis`` lists (center, width) pairs for normalized Gaussians.  The
    one-body operator is -(1/2) d^2/dx^2 + (1/2) x^2 with a three-point
    Laplacian stencil; the two-body kernel is 1/(|x - x'| + 0.1).  Both are
    integrated with trapezoid weights; the double integral is evaluated by
    FFT convolution over the difference kernel, which is the same quadrature
    sum to rounding.  Entries are computed once per canonical index and
    expanded, so the output is exactly symmetric.
    """
    if not basis:
        raise ValueError("need at least one basis function")
    widths = np.array([w for _, w in basis], dtype=np.float64)
    if (widths <= 0).any():
        raise ValueError("widths must be positive")
    h = grid.spacing
    if (widths / h).min() < 8.0:
        warnings.warn(
            "quadrature grid under-resolves a basis width "
            f"({widths.min():.3g} vs spacing {h:.3g}); refine the grid",
            stacklevel=2,
        )

    x = grid.nodes()
    n = grid.n_points
    n_orb = len(basis)
    funcs = np.empty((n_orb, n))
    for i, (c, w) in enumerate(basis):
        funcs[i] = (w * math.sqrt(math.pi)) ** -0.5 * np.exp(
            -((x - c) ** 2) / (2.0 * w * w)
        )

    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0

    # one-body: phi_p^T diag(weights) (T + V) phi_q, zero-padded stencil
    lap = np.empty_like(funcs)
    lap[:, 1:-1] = funcs[:, :-2] - 2.0 * funcs[:, 1:-1] + funcs[:, 2:]
    lap[:, 0] = -2.0 * funcs[:, 0] + funcs[:, 1]
    lap[:, -1] = funcs[:, -2] - 2.0 * funcs[:, -1]
    h_funcs = -0.5 * lap / (h * h) + 0.5 * x * x * funcs

    one_body = np.zeros((n_orb, n_orb))
    for p, q in one_body_representatives(n_orb):
        v = 0.5 * (
            float(weights @ (funcs[p] * h_funcs[q]))
            + float(weights @ (funcs[q] * h_funcs[p]))
        )
        one_body[p, q] = one_body[q, p] = v

    # two-body: pair densities against the convolved softened kernel
    pair_index = {}
    pairs = []
    for p in range(n_orb):
        for q in range(p, n_orb):
            pair_index[(p, q)] = pair_index[(q, p)] = len(pairs)
            pairs.append(weights * funcs[p] * funcs[q])
    pairs = np.array(pairs)

    # imported here, its only use: scipy.signal would add about a second
    # to every `import tanfold`
    from scipy.signal import fftconvolve

    lags = np.arange(-(n - 1), n, dtype=np.float64) * h
    kernel = 1.0 / (np.abs(lags) + SOFTENING)
    convolved = np.array(
        [fftconvolve(row, kernel)[n - 1 : 2 * n - 1] for row in pairs]
    )

    table = orbit_table(n_orb, symmetry_for(Kind.BARE))
    values = []
    for p, q, r, s in table.reps.tolist():
        a, b = pair_index[(p, q)], pair_index[(r, s)]
        values.append(0.5 * (pairs[a] @ convolved[b] + pairs[b] @ convolved[a]))
    two_body = table.expand(values)

    return TensorSet(
        geometry=geometry,
        kind=Kind.BARE,
        n_orb=n_orb,
        scalar_term=0.0,
        one_body=one_body,
        two_body=two_body,
        system="toy-1d",
    )
