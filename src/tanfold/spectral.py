"""Spectral comparison of bare and effective interaction kernels.

Both kernels are real symmetric, so each has a full eigendecomposition
``W = Z diag(eps) Z^T``.  The bare system fixes the index order (descending
by signed eigenvalue); effective eigenpairs inherit their index through a
greedy one-to-one pairing on the eigenvector overlap matrix ``Z_B^T Z_D``,
with signs flipped so every paired overlap is non-negative.  The per-index
eigenvalue differences are what the tangent model is fitted to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenSystem",
    "AlignmentReport",
    "DifferenceTable",
    "eig_sym",
    "align_eigensystems",
    "eigen_differences",
]

#: Eigenvalues smaller than this fraction of the largest magnitude are
#: excluded from relative differences.
EIGENVALUE_FLOOR = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Full real spectral decomposition, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray  # column k pairs with values[k]

    @property
    def dim(self) -> int:
        return self.values.size


def eig_sym(kernel) -> EigenSystem:
    """Eigendecomposition of a real symmetric matrix, descending order.

    ``kernel`` may be a :class:`~tanfold.heads.KernelMatrix` or a plain
    array symmetric to 1e-12.  Eigenvector signs are fixed so that the
    largest-magnitude component of each vector is positive (first such
    component on ties), which makes the output reproducible.
    """
    m = getattr(kernel, "matrix", kernel)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"kernel must be square, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("kernel contains non-finite entries")
    sym_defect = np.abs(m - m.T).max() if m.size else 0.0
    if sym_defect > 1e-12:
        raise ValueError(f"kernel is not symmetric: max |K - K^T| = {sym_defect:.3e}")
    m = (m + m.T) / 2.0
    values, vectors = np.linalg.eigh(m)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return EigenSystem(values=values, vectors=vectors * signs)


@dataclass(frozen=True)
class AlignmentReport:
    """Effective eigenpairs matched one-to-one onto bare indices.

    ``permutation[i]`` is the effective eigenpair paired with bare index
    ``i``; ``signs[i]`` the sign applied to that effective eigenvector.
    ``overlap`` is ``Z_B^T Z_D`` after permutation and sign flips, so its
    diagonal is non-negative; ``score`` is the smallest diagonal entry
    (1.0 means perfectly matched subspaces).
    """

    bare_values: np.ndarray
    eff_values: np.ndarray  # permuted into bare index order
    overlap: np.ndarray
    permutation: np.ndarray
    signs: np.ndarray

    @property
    def dim(self) -> int:
        return self.bare_values.size

    @property
    def score(self) -> float:
        return float(np.diag(self.overlap).min())

    @property
    def max_off_diagonal(self) -> float:
        off = self.overlap - np.diag(np.diag(self.overlap))
        return float(np.abs(off).max()) if self.dim > 1 else 0.0


def align_eigensystems(bare: EigenSystem, eff: EigenSystem) -> AlignmentReport:
    """Greedy one-to-one pairing by descending absolute eigenvector overlap.

    Ties and the iteration order are deterministic: overlaps are visited in
    decreasing ``|Z_B^T Z_D|`` with row-major position as the tie-breaker.
    """
    if bare.dim != eff.dim:
        raise ValueError(f"dimension mismatch: {bare.dim} vs {eff.dim}")
    n = bare.dim
    overlap = bare.vectors.T @ eff.vectors
    mag = np.abs(overlap)
    # An entry that comes first in the visiting order among its row and its
    # column (a mutual first argmax: argmax takes the lowest index on ties,
    # as the row-major tie-break does) is taken whatever the pass takes
    # before it, since nothing earlier shares its row or column.  With
    # orthonormal eigenvectors that covers every |overlap| > 0.75, whose
    # row and column neighbours lie below sqrt(1 - 0.75^2) ~ 0.66, so
    # matched spectra leave the greedy pass little or nothing to sort.
    permutation = np.full(n, -1, dtype=np.intp)
    if n:
        best = mag.argmax(axis=1)
        sure = mag.argmax(axis=0)[best] == np.arange(n)
        permutation[sure] = best[sure]
    rows = np.flatnonzero(permutation < 0)
    cols = np.setdiff1d(np.arange(n), permutation)
    # the greedy pass on the free rows and columns: their row-major order
    # within the submatrix is the one they had in the full matrix
    order = np.argsort(-mag[np.ix_(rows, cols)].ravel(), kind="stable")
    row_used = np.zeros(rows.size, dtype=bool)
    col_used = np.zeros(cols.size, dtype=bool)
    matched = 0
    for pos in order:
        i, j = divmod(int(pos), cols.size)
        if row_used[i] or col_used[j]:
            continue
        permutation[rows[i]] = cols[j]
        row_used[i] = True
        col_used[j] = True
        matched += 1
        if matched == rows.size:
            break
    signs = np.sign(overlap[np.arange(n), permutation])
    signs[signs == 0] = 1.0
    aligned = overlap[:, permutation] * signs
    return AlignmentReport(
        bare_values=bare.values.copy(),
        eff_values=eff.values[permutation],
        overlap=aligned,
        permutation=permutation,
        signs=signs,
    )


@dataclass(frozen=True)
class DifferenceTable:
    """Per-index eigenvalue differences between effective and bare kernels.

    ``index`` is 1-based (1 = largest bare eigenvalue).  ``rel_diff`` is NaN
    where ``flagged`` marks a bare eigenvalue below the floor
    ``EIGENVALUE_FLOOR * max|eps_B|``.
    """

    index: np.ndarray
    bare: np.ndarray
    eff: np.ndarray
    diff: np.ndarray
    rel_diff: np.ndarray
    flagged: np.ndarray

    def pairs(self) -> list[tuple[int, float, float]]:
        """Unflagged ``(index, eps_B, eps_D)`` rows, ready for tan fitting."""
        keep = ~self.flagged
        return [
            (int(i), float(b), float(d))
            for i, b, d in zip(self.index[keep], self.bare[keep], self.eff[keep])
        ]


def eigen_differences(report: AlignmentReport) -> DifferenceTable:
    """Differences and relative differences of aligned eigenvalues; bare
    eigenvalues below ``EIGENVALUE_FLOOR`` of the largest magnitude are flagged."""
    bare = report.bare_values
    eff = report.eff_values
    floor = EIGENVALUE_FLOOR * np.abs(bare).max() if bare.size else 0.0
    flagged = np.abs(bare) < floor
    diff = eff - bare
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(flagged, np.nan, diff / bare)
    return DifferenceTable(
        index=np.arange(1, bare.size + 1),
        bare=bare.copy(),
        eff=eff.copy(),
        diff=diff,
        rel_diff=rel,
        flagged=flagged,
    )
