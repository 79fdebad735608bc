"""Factorized bilinear heads that turn latent orbital vectors into tensor
entries.

A symmetric kernel acts on elementwise products of latent vectors:

* one-body:      ``(p|q)    = psi_p^T M psi_q``
* bare two-body: ``(pq|rs)  = (phi_p . phi_q)^T W (phi_r . phi_s)``
* effective two-body (four-fold symmetric by construction)::

      (pq|rs) = 1/2 [ (phi_p . phit_q)^T W (phi_r . phit_s)
                    + (phi_q . phit_p)^T W (phi_s . phit_r) ]

where ``.`` is the elementwise product and ``phit`` a second latent family.

:func:`pair_head` is the package's one batched head: it computes every entry
of a batch of geometries at once from pair-product matrices, and
:func:`head_at_reps` reads it at the orbit representatives of one geometry.
Training, prediction and planting all go through it.

The scalar forms (:func:`sym_bilinear` and the ``eval_*`` heads) are the
reference the batched head is tested against.  Every bilinear form there is
evaluated as ``(x^T(Ky) + y^T(Kx))/2``; because IEEE addition and
multiplication are commutative, this makes the bare head invariant under the
full eight-fold index group and the effective head under the four-fold group
*to the bit*, and reduces the effective head to the bare one bit-exactly when
``phit == phi``.
"""

from __future__ import annotations

import enum

import numpy as np

from .tensors import Kind, orbit_table, symmetry_for

__all__ = [
    "HeadKind",
    "KernelMatrix",
    "entry_table",
    "fill",
    "head_at_reps",
    "pair_head",
    "sym_bilinear",
    "eval_one",
    "eval_bare_two",
    "eval_eff_two",
]


class HeadKind(enum.Enum):
    """Which head (and therefore which training stage) a model uses."""

    BARE_ONE = "bare-one"
    EFF_ONE = "eff-one"
    BARE_TWO = "bare-two"
    EFF_TWO = "eff-two"

    @property
    def body(self) -> int:
        return 1 if self in (HeadKind.BARE_ONE, HeadKind.EFF_ONE) else 2

    @property
    def kind(self) -> Kind:
        return Kind.BARE if self in (HeadKind.BARE_ONE, HeadKind.BARE_TWO) else Kind.EFFECTIVE

    @property
    def n_nets(self) -> int:
        """Distinct latent families the head consumes (phi and optionally phit)."""
        return 2 if self is HeadKind.EFF_TWO else 1


class KernelMatrix:
    """A square, exactly symmetric, finite float64 matrix.

    The constructor validates; ``symmetrize=True`` instead projects with
    ``(K + K^T)/2`` (which is exact for already-symmetric input).  The stored
    array is read-only.
    """

    def __init__(self, matrix: np.ndarray, *, symmetrize: bool = False):
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"kernel must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("kernel contains non-finite entries")
        if symmetrize:
            m = (m + m.T) / 2.0
        elif not np.array_equal(m, m.T):
            raise ValueError("kernel is not exactly symmetric")
        m.flags.writeable = False
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def random(cls, dim: int, scale: float = 1.0, seed: int = 0) -> "KernelMatrix":
        rng = np.random.default_rng(seed)
        return cls(rng.normal(scale=scale, size=(dim, dim)), symmetrize=True)


def _as_matrix(kernel) -> np.ndarray:
    return kernel.matrix if isinstance(kernel, KernelMatrix) else np.asarray(kernel, dtype=np.float64)


def sym_bilinear(x: np.ndarray, y: np.ndarray, kernel) -> float:
    """``(x^T(Ky) + y^T(Kx))/2``: bitwise symmetric in ``(x, y)``.

    Equals ``x^T K y`` exactly in real arithmetic for symmetric ``K``.
    """
    k = _as_matrix(kernel)
    return 0.5 * (x @ (k @ y) + y @ (k @ x))


def eval_one(psi_p: np.ndarray, psi_q: np.ndarray, kernel) -> float:
    """One-body entry ``psi_p^T M psi_q`` (bitwise symmetric in p, q)."""
    return sym_bilinear(psi_p, psi_q, kernel)


def eval_bare_two(phi_p, phi_q, phi_r, phi_s, kernel) -> float:
    """Bare two-body entry; bitwise invariant under the eight-fold group."""
    return sym_bilinear(phi_p * phi_q, phi_r * phi_s, kernel)


def eval_eff_two(phi_p, phi_q, phi_r, phi_s, phit_p, phit_q, phit_r, phit_s, kernel) -> float:
    """Effective two-body entry; bitwise invariant under the four-fold group.

    With ``phit == phi`` (bitwise) this returns exactly
    :func:`eval_bare_two` of the same vectors.
    """
    a = sym_bilinear(phi_p * phit_q, phi_r * phit_s, kernel)
    b = sym_bilinear(phi_q * phit_p, phi_s * phit_r, kernel)
    return 0.5 * (a + b)


def entry_table(kind: Kind, body: int, n_orb: int):
    """The orbit table of the ``body``-body entries of ``kind`` tensors."""
    return orbit_table(n_orb, symmetry_for(kind) if body == 2 else None)


def fill(work: dict, name, fn, *args, **kwargs) -> np.ndarray:
    """``fn(*args, **kwargs)`` written into the array ``work`` holds under
    ``name``, which keeps the result: the first call allocates it, and each
    later call with the same ``work`` overwrites it in place.  The values
    are those of the call without ``out=``; a fresh ``{}`` gives a new array.
    """
    out = work[name] = fn(*args, out=work.get(name), **kwargs)
    return out


def pair_head(head, phi, phit, w, n_geo, work=None):
    """Every entry of ``n_geo`` geometry blocks from per-geometry
    pair-product matrices.

    Rows of ``A_g`` are the orbital features (one-body) or the pair products
    ``phi_p * phi_q`` (bare) / ``phi_p * phit_q`` (effective), so
    ``A_g W A_g^T`` predicts every entry of geometry ``g`` at once; the
    effective head averages it with its pair-swapped copy.  Returns the
    predictions, shaped ``(n_geo, m, m)`` with ``m = n_orb**body``, and the
    ``(f, ft, rows, rows_w)`` intermediates of the gradient.  The arrays
    are :func:`fill`-ed into ``work``, a dict that a caller handing it back
    finds overwritten; None makes them new.
    """
    work = {} if work is None else work
    ell = w.shape[0]
    f = phi.reshape(n_geo, -1, ell)
    n = f.shape[1]
    ft = None
    if head.body == 1:
        rows = f
    else:
        ft = f if head is HeadKind.BARE_TWO else phit.reshape(n_geo, n, ell)
        rows = fill(work, "rows", np.multiply, f[:, :, None], ft[:, None]).reshape(n_geo, n * n, ell)
    rows_w = fill(work, "rows_w", np.matmul, rows, w)
    pred = fill(work, "pred", np.matmul, rows_w, rows.transpose(0, 2, 1))
    if head is HeadKind.EFF_TWO:
        # the pair swap (p, q) -> (q, p) of rows and columns, as a transpose
        blocks = pred.reshape(n_geo, n, n, n, n)
        pred = fill(work, "pred_swap", np.add, blocks, blocks.transpose(0, 2, 1, 4, 3))
        pred *= 0.5
        pred = pred.reshape(n_geo, n * n, n * n)
    return pred, (f, ft, rows, rows_w)


def head_at_reps(head, phi, phit, w) -> np.ndarray:
    """The head's values at the orbit representatives of one geometry, in
    representative order; ``phi``/``phit`` are ``(n_orb, ell)`` features."""
    pred, _ = pair_head(head, phi, phit, w, 1)
    return pred.ravel()[entry_table(head.kind, head.body, phi.shape[0]).rep_flat]
