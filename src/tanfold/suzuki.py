"""Dense-matrix bench for similarity-transform decoupling identities.

Given a Hermitian ``H`` and a block split ``R``/``Q`` (model space first),
this module constructs an anti-Hermitian generator ``G`` with
``Q e^{-G} H e^{G} R = 0`` via the direct rotation (the arctan of the
wave-operator amplitude), and verifies the closed-form relation between
the effective-interaction correction

    W = R e^{-G} H e^{G} R - R H R

and the tanh transform of the block-off-diagonal part,

    W = -R Z_tanh[G/2, H_OD] R,
    Z_tanh[X, Y] = sum_n t_n [X^{(2n-1)}, Y]   (nested commutators),

where ``t_n`` are the odd Taylor coefficients of tanh.  Everything works in
complex arithmetic: eigenvectors of an anti-Hermitian generator are
intrinsically complex even for real-symmetric input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

__all__ = [
    "Generator",
    "SuzukiProblem",
    "WIdentityReport",
    "build_generator",
    "expm_antihermitian",
    "h_eff",
    "h_od",
    "ituple_commutator",
    "random_coupled_problem",
    "tanh_coefficients",
    "transformed",
    "verify_w_identity",
    "z_tanh_closed",
    "z_tanh_series",
]

HERMITIAN_TOL = 1e-12
BLOCK_TOL = 1e-10
ASSIGNMENT_GAP = 1e-8
#: arguments of the closed-form tanh must stay below pi/2 by this margin
SPREAD_LIMIT = math.pi / 2


def _as_square_complex(m, name: str) -> np.ndarray:
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} has non-finite entries")
    return out


@dataclass(frozen=True, eq=False)
class SuzukiProblem:
    """Hermitian matrix with a leading model block of dimension ``r_dim``."""

    h: np.ndarray
    r_dim: int

    def __post_init__(self):
        h = _as_square_complex(self.h, "h")
        if np.abs(h - h.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("h is not Hermitian to 1e-12")
        if not 1 <= self.r_dim < h.shape[0]:
            raise ValueError("r_dim must satisfy 1 <= r_dim < dim")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def dim(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True, eq=False)
class Generator:
    """Anti-Hermitian generator with vanishing diagonal blocks."""

    g: np.ndarray
    r_dim: int

    def __post_init__(self):
        g = _as_square_complex(self.g, "g")
        if np.abs(g + g.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("generator is not anti-Hermitian to 1e-12")
        r = self.r_dim
        if not 1 <= r < g.shape[0]:
            raise ValueError("r_dim must satisfy 1 <= r_dim < dim")
        if max(np.abs(g[:r, :r]).max(), np.abs(g[r:, r:]).max()) > BLOCK_TOL:
            raise ValueError("generator has non-zero diagonal blocks")
        g.flags.writeable = False
        object.__setattr__(self, "g", g)

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenphases and eigenvectors of iG, decomposed once per generator."""
        return np.linalg.eigh(1j * self.g)


def h_od(prob: SuzukiProblem) -> np.ndarray:
    """Block-off-diagonal part R H Q + Q H R."""
    out = np.array(prob.h)
    r = prob.r_dim
    out[:r, :r] = 0.0
    out[r:, r:] = 0.0
    return out


def _expm_from_eigh(phases: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(G) from the eigensystem of iG."""
    return (v * np.exp(-1j * phases)) @ v.conj().T


def expm_antihermitian(g: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G via the Hermitian eigenproblem of iG.

    Exactly unitary to working precision, with no scaling-and-squaring
    heuristics involved.
    """
    return _expm_from_eigh(*np.linalg.eigh(1j * _as_square_complex(g, "g")))


def build_generator(prob: SuzukiProblem) -> Generator:
    """Direct-rotation generator decoupling the R and Q blocks.

    Eigenvectors of H are assigned to the model space by descending
    R-projection norm and split as ``V_r = [A; B]``.  With the thin SVD
    ``B A^{-1} = Z diag(t) X^dag`` of the gauge-free wave-operator
    amplitude, ``G = [[0, -K^dag], [K, 0]]`` and ``K = Z diag(arctan t) X^dag``
    (Davis-Kahan): the ``t`` are the tangents of the principal angles, all
    below pi/2, and G is the principal logarithm of the polar rotation.
    ``sigma_min(A)^2 < 1e-12`` and a decoupling residual above 1e-10 raise.
    """
    r = prob.r_dim
    _, vecs = np.linalg.eigh(prob.h)
    proj = np.sum(np.abs(vecs[:r, :]) ** 2, axis=0)
    order = np.argsort(-proj, kind="stable")
    if proj[order[r - 1]] - proj[order[r]] < ASSIGNMENT_GAP:
        raise ValueError(
            "ambiguous eigenvector assignment: projection norms "
            f"{proj[order[r - 1]]:.3e} and {proj[order[r]]:.3e} are too close"
        )
    v_r = vecs[:, order[:r]]
    u_a, s_a, vh_a = np.linalg.svd(v_r[:r])
    if s_a[-1] ** 2 < 1e-12:
        raise ValueError("assigned subspace is orthogonal to the reference block")
    omega = ((v_r[r:] @ vh_a.conj().T) / s_a) @ u_a.conj().T
    z, t, xh = np.linalg.svd(omega, full_matrices=False)
    k = (z * np.arctan(t)) @ xh
    g = np.zeros((prob.dim, prob.dim), dtype=np.complex128)
    g[r:, :r] = k
    g[:r, r:] = -k.conj().T
    gen = Generator(g, r)

    if np.abs(transformed(prob, gen)[r:, :r]).max() > BLOCK_TOL:
        raise ArithmeticError("decoupling residual above 1e-10")
    return gen


def transformed(prob: SuzukiProblem, gen: Generator) -> np.ndarray:
    """Full similarity transform e^{-G} H e^{G}."""
    u = _expm_from_eigh(*gen.eigh)
    return u.conj().T @ prob.h @ u


def h_eff(prob: SuzukiProblem, gen: Generator) -> np.ndarray:
    """Model-block effective matrix R e^{-G} H e^{G} R (as r_dim x r_dim)."""
    r = prob.r_dim
    return transformed(prob, gen)[:r, :r]


def ituple_commutator(a: np.ndarray, b: np.ndarray, i: int) -> np.ndarray:
    """i-fold nested commutator [A, [A, ... [A, B] ... ]]."""
    a = _as_square_complex(a, "a")
    b = _as_square_complex(b, "b")
    if a.shape != b.shape:
        raise ValueError("operands must have equal dimensions")
    if i < 1:
        raise ValueError("nesting depth must be >= 1")
    return _nested_commutator(a, b, i)


def _nested_commutator(a: np.ndarray, b: np.ndarray, i: int) -> np.ndarray:
    for _ in range(i):
        b = a @ b - b @ a
    return b


@cache
def tanh_coefficients(n_max: int) -> tuple[Fraction, ...]:
    """Odd Taylor coefficients of tanh(x) = sum t_n x^(2n-1), exact rationals.

    Tangent numbers by the integer in-place recurrence, then
    t_n = (-1)^(n-1) T_n / (2n-1)!.  Cached per ``n_max``: the tuple of
    Fractions is immutable.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t = [0] * (n_max + 1)
    t[1] = 1
    for k in range(2, n_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n_max + 1):
        for j in range(k, n_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(
        Fraction((-1) ** (n - 1) * t[n], math.factorial(2 * n - 1))
        for n in range(1, n_max + 1)
    )


def _half_spread(phases: np.ndarray) -> float:
    """Largest eigenphase difference of G/2, from the eigenphases of iG."""
    return float(phases.max() - phases.min()) / 2


def _tanh_partial_sums(g: np.ndarray, h_od_mat: np.ndarray, n_max: int):
    """Yield the truncated tanh transforms of orders 1, ..., n_max."""
    half = g / 2
    coeffs = tanh_coefficients(n_max)
    nested = _nested_commutator(half, h_od_mat, 1)
    total = float(coeffs[0]) * nested
    yield total
    for n in range(1, n_max):
        nested = _nested_commutator(half, nested, 2)
        total = total + float(coeffs[n]) * nested
        yield total


def z_tanh_series(g: np.ndarray, h_od_mat: np.ndarray, n_max: int) -> np.ndarray:
    """Truncated tanh transform sum_{n<=n_max} t_n [(G/2)^(2n-1), H_OD]."""
    g = _as_square_complex(g, "g")
    h_od_mat = _as_square_complex(h_od_mat, "h_od")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if _half_spread(np.linalg.eigvalsh(1j * g)) >= SPREAD_LIMIT:
        warnings.warn(
            "eigenphase spread of G/2 is >= pi/2: the series diverges",
            stacklevel=2,
        )
    *_, total = _tanh_partial_sums(g, h_od_mat, n_max)
    return total


def z_tanh_closed(g: np.ndarray, h_od_mat: np.ndarray) -> np.ndarray:
    """Closed-form tanh transform via the eigenbasis of G/2.

    In that basis the element (k, l) of H_OD is scaled by
    tanh(gamma_k - gamma_l) where gamma_k = i g_k are the eigenvalues of
    G/2; equivalently by i*tan(g_k - g_l), which is singular when an
    eigenphase difference reaches pi/2.
    """
    g = _as_square_complex(g, "g")
    h_od_mat = _as_square_complex(h_od_mat, "h_od")
    return _tanh_closed(*np.linalg.eigh(1j * g), h_od_mat)


def _tanh_closed(phases: np.ndarray, v: np.ndarray, h_od_mat: np.ndarray) -> np.ndarray:
    """z_tanh_closed from the eigenphases and eigenvectors of iG."""
    if _half_spread(phases) >= SPREAD_LIMIT:
        raise ValueError("eigenphase spread of G/2 reaches pi/2: "
                         "closed-form tanh transform is singular")
    gamma = -0.5j * phases
    factors = np.tanh(gamma[:, None] - gamma[None, :])
    core = factors * (v.conj().T @ h_od_mat @ v)
    return v @ core @ v.conj().T


@dataclass(frozen=True)
class WIdentityReport:
    """Agreement between the two expressions for the model-block correction.

    ``series_errors[n-1]`` is the max-norm gap between the order-n truncated
    tanh series and the closed form, so the curve doubles as a convergence
    diagnostic.
    """

    max_abs: float
    rel_frobenius: float
    lhs_frobenius: float
    half_spread: float
    series_errors: tuple[float, ...] = field(default=())


def verify_w_identity(prob: SuzukiProblem, *, n_max: int = 12) -> WIdentityReport:
    """Compare W = H_eff - RHR against -R Z_tanh[G/2, H_OD] R."""
    gen = build_generator(prob)
    od = h_od(prob)
    r = prob.r_dim

    lhs = h_eff(prob, gen) - prob.h[:r, :r]
    closed = _tanh_closed(*gen.eigh, od)

    diff = lhs + closed[:r, :r]  # lhs - (-R Z_tanh R)
    lhs_f = float(np.linalg.norm(lhs))
    rel = float(np.linalg.norm(diff)) / lhs_f if lhs_f > 0 else 0.0

    return WIdentityReport(
        max_abs=float(np.abs(diff).max()),
        rel_frobenius=rel,
        lhs_frobenius=lhs_f,
        half_spread=_half_spread(gen.eigh[0]),
        series_errors=tuple(
            float(np.abs(partial - closed).max())
            for partial in _tanh_partial_sums(gen.g, od, n_max)
        ),
    )


def random_coupled_problem(
    dim: int, r_dim: int, coupling: float, seed: int
) -> SuzukiProblem:
    """Random symmetric test matrix with weakly coupled R and Q blocks.

    The Q block is shifted by +3*I so the two block spectra are well
    separated, keeping the eigenvector assignment unambiguous at small
    coupling.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.T)
    h[r_dim:, r_dim:] += 3.0 * np.eye(dim - r_dim)
    h[:r_dim, r_dim:] *= coupling
    h[r_dim:, :r_dim] *= coupling
    return SuzukiProblem(h, r_dim)
