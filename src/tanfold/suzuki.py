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

The construction and the verification run on stacks of problems of one
shape, ``(T, dim, dim)``: each arithmetic step is one NumPy call over the
stack, and the single-problem functions are stacks of one.
"""

from __future__ import annotations

import itertools
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
    "h_eff",
    "h_od",
    "ituple_commutator",
    "random_coupled_problem",
    "tanh_coefficients",
    "transformed",
    "verify_w_identities",
    "verify_w_identity",
    "z_tanh_closed",
    "z_tanh_series",
]

HERMITIAN_TOL = 1e-12
BLOCK_TOL = 1e-10
ASSIGNMENT_GAP = 1e-8
#: arguments of the closed-form tanh must stay below pi/2 by this margin
SPREAD_LIMIT = math.pi / 2
_SINGULAR = ("eigenphase spread of G/2 reaches pi/2: "
             "closed-form tanh transform is singular")
#: byte budget of one stacked complex (T, dim, dim) array: it caps the
#: trials verified together, so memory stays bounded at any trial count
CHUNK_BYTES = 256 * 1024


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
    return _off_diagonal(prob.h, prob.r_dim)


def _off_diagonal(h: np.ndarray, r: int) -> np.ndarray:
    """Copy of a matrix or a stack with both diagonal blocks zeroed."""
    out = np.array(h)
    out[..., :r, :r] = 0.0
    out[..., r:, r:] = 0.0
    return out


def _expm_from_eigh(phases: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(G) from the eigensystem of iG, for one generator or a stack."""
    return (v * np.exp(-1j * phases)[..., None, :]) @ _ct(v)


def _require(bad: np.ndarray, error) -> None:
    """Raise ``error(k)`` for the first problem ``k`` flagged in ``bad``."""
    if bad.any():
        raise error(int(bad.argmax()))


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _direct_rotation(h: np.ndarray, r: int):
    """Direct-rotation generators of a stack ``h`` of shape (T, dim, dim),
    with the eigenphases and eigenvectors of iG and the transforms
    e^{-G} H e^{G}.  Each check precedes the arithmetic that needs it."""
    _, vecs = np.linalg.eigh(h)
    proj = np.sum(np.abs(vecs[:, :r, :]) ** 2, axis=1)
    order = np.argsort(-proj, axis=-1, kind="stable")
    edge = np.take_along_axis(proj, order[:, r - 1 : r + 1], axis=-1)
    _require(edge[:, 0] - edge[:, 1] < ASSIGNMENT_GAP, lambda k: ValueError(
        "ambiguous eigenvector assignment: projection norms "
        f"{edge[k, 0]:.3e} and {edge[k, 1]:.3e} are too close"
    ))
    v_r = np.take_along_axis(vecs, order[:, None, :r], axis=-1)
    u_a, s_a, vh_a = np.linalg.svd(v_r[:, :r])
    _require(s_a[:, -1] ** 2 < 1e-12, lambda k: ValueError(
        "assigned subspace is orthogonal to the reference block"
    ))
    omega = ((v_r[:, r:] @ _ct(vh_a)) / s_a[:, None, :]) @ _ct(u_a)
    z, t, xh = np.linalg.svd(omega, full_matrices=False)
    k = (z * np.arctan(t)[:, None, :]) @ xh
    g = np.zeros_like(h)
    g[:, r:, :r] = k
    g[:, :r, r:] = -_ct(k)
    # exact by construction, so not checked: g = -g^H, zero diagonal blocks,
    # and a finite k (omega divides by sigma_min(A), checked above)
    phases, v = np.linalg.eigh(1j * g)
    u = _expm_from_eigh(phases, v)
    full = _ct(u) @ h @ u
    _require(np.abs(full[:, r:, :r]).max(axis=(1, 2)) > BLOCK_TOL,
             lambda k: ArithmeticError("decoupling residual above 1e-10"))
    return g, phases, v, full


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
    g, *_ = _direct_rotation(prob.h[None], prob.r_dim)
    return Generator(g[0], prob.r_dim)


def transformed(prob: SuzukiProblem, gen: Generator) -> np.ndarray:
    """Full similarity transform e^{-G} H e^{G}."""
    u = _expm_from_eigh(*gen.eigh)
    return _ct(u) @ prob.h @ u


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


def _half_spread(phases: np.ndarray):
    """Largest eigenphase difference of G/2, from the eigenphases of iG
    (one value per generator of a stack)."""
    return (phases.max(axis=-1) - phases.min(axis=-1)) / 2


def _tanh_partial_sums(g: np.ndarray, h_od_mat: np.ndarray, n_max: int):
    """Yield the truncated tanh transforms of orders 1, ..., n_max
    (of each generator, for a stack)."""
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
    phases, v = np.linalg.eigh(1j * g)
    if _half_spread(phases) >= SPREAD_LIMIT:
        raise ValueError(_SINGULAR)
    return _tanh_closed(phases, v, h_od_mat)


def _tanh_closed(phases: np.ndarray, v: np.ndarray, h_od_mat: np.ndarray) -> np.ndarray:
    """z_tanh_closed from the eigenphases and eigenvectors of iG, for one
    generator or a stack; the caller checks the spread."""
    gamma = -0.5j * phases
    factors = np.tanh(gamma[..., :, None] - gamma[..., None, :])
    core = factors * (_ct(v) @ h_od_mat @ v)
    return v @ core @ _ct(v)


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


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, with the bits of the 2-D
    ``np.linalg.norm`` (one dot product each of the real and imaginary
    parts; the ``axis`` form of ``norm`` sums in another order)."""
    flat = m.reshape(len(m), -1)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _verify_stack(h: np.ndarray, r: int, n_max: int) -> list[WIdentityReport]:
    """verify_w_identity for each problem of a stack (T, dim, dim)."""
    g, phases, v, full = _direct_rotation(h, r)
    spread = _half_spread(phases)
    _require(spread >= SPREAD_LIMIT, lambda k: ValueError(_SINGULAR))
    od = _off_diagonal(h, r)

    lhs = full[:, :r, :r] - h[:, :r, :r]
    closed = _tanh_closed(phases, v, od)

    diff = lhs + closed[:, :r, :r]  # lhs - (-R Z_tanh R)
    lhs_f = _frobenius(lhs)
    rel = np.divide(_frobenius(diff), lhs_f, out=np.zeros_like(lhs_f), where=lhs_f > 0)
    series = np.stack([
        np.abs(partial - closed).max(axis=(1, 2))
        for partial in _tanh_partial_sums(g, od, n_max)
    ], axis=1)
    return [
        WIdentityReport(max_abs=m, rel_frobenius=f, lhs_frobenius=l,
                        half_spread=s, series_errors=tuple(e))
        for m, f, l, s, e in zip(np.abs(diff).max(axis=(1, 2)).tolist(), rel.tolist(),
                                 lhs_f.tolist(), spread.tolist(), series.tolist())
    ]


def verify_w_identities(problems, *, n_max: int = 12) -> list[WIdentityReport]:
    """Compare W = H_eff - RHR against -R Z_tanh[G/2, H_OD] R, per problem.

    ``problems`` (any iterable) must share ``dim`` and ``r_dim``.  Each chunk
    within ``CHUNK_BYTES`` is verified as one stack, and again one problem at
    a time if that raises, so a failure is the first failing problem's own.
    """
    it = iter(problems)
    first = next(it, None)
    if first is None:
        return []
    dim, r = first.dim, first.r_dim
    size = max(1, CHUNK_BYTES // (16 * dim * dim))
    reports, it = [], itertools.chain([first], it)
    while chunk := list(itertools.islice(it, size)):
        if any(p.dim != dim or p.r_dim != r for p in chunk):
            raise ValueError("problems must share dim and r_dim")
        h = np.stack([p.h for p in chunk])
        try:
            reports += _verify_stack(h, r, n_max)
        except (ValueError, ArithmeticError):
            for i in range(len(h)):
                _verify_stack(h[i : i + 1], r, n_max)
            raise
    return reports


def verify_w_identity(prob: SuzukiProblem, *, n_max: int = 12) -> WIdentityReport:
    """Compare W = H_eff - RHR against -R Z_tanh[G/2, H_OD] R."""
    return verify_w_identities([prob], n_max=n_max)[0]


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
