"""Eigendecomposition, alignment, and eigenvalue difference tests."""

import numpy as np
import pytest

from tanfold.heads import KernelMatrix
from tanfold.spectral import (
    EigenSystem,
    align_eigensystems,
    eig_sym,
    eigen_differences,
)


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def greedy_permutation(overlap):
    """Reference: the full greedy pass over every entry of the overlap,
    in decreasing |overlap| with row-major position breaking ties."""
    n = overlap.shape[0]
    order = np.argsort(-np.abs(overlap).ravel(), kind="stable")
    row_used = np.zeros(n, dtype=bool)
    col_used = np.zeros(n, dtype=bool)
    permutation = np.full(n, -1, dtype=np.intp)
    for pos in order:
        i, j = divmod(int(pos), n)
        if row_used[i] or col_used[j]:
            continue
        permutation[i] = j
        row_used[i] = col_used[j] = True
    return permutation


def assert_matches_greedy(bare_vectors, eff_vectors):
    n = bare_vectors.shape[0]
    values = np.arange(n, 0, -1.0)
    report = align_eigensystems(EigenSystem(values, bare_vectors), EigenSystem(values, eff_vectors))
    overlap = bare_vectors.T @ eff_vectors
    want = greedy_permutation(overlap)
    assert np.array_equal(report.permutation, want)
    signs = np.sign(overlap[np.arange(n), want])
    signs[signs == 0] = 1.0
    assert np.array_equal(report.signs, signs)
    assert np.array_equal(report.overlap, overlap[:, want] * signs)


class TestEigSym:
    def test_diagonal_matrix(self):
        sys = eig_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(sys.values, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(sys.vectors), np.eye(3)[:, [0, 2, 1]], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 8, 64, 300])
    def test_reconstruction_and_orthogonality(self, n):
        rng = np.random.default_rng(n)
        k = KernelMatrix.random(n, seed=n)
        sys = eig_sym(k)
        scale = np.abs(k.matrix).max()
        reconstructed = (sys.vectors * sys.values) @ sys.vectors.T
        assert np.abs(reconstructed - k.matrix).max() / scale < 1e-12
        assert np.abs(sys.vectors.T @ sys.vectors - np.eye(n)).max() < 1e-12
        assert np.all(np.diff(sys.values) <= 0)

    def test_known_eigenvalues(self):
        # eigenvalues of [[2,1],[1,2]] are 3 and 1
        sys = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(sys.values, [3.0, 1.0], rtol=1e-15)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_deterministic(self):
        k = KernelMatrix.random(40, seed=5)
        a, b = eig_sym(k), eig_sym(k)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


class TestAlignmentMatchesFullGreedyPass:
    @pytest.mark.parametrize("n", [1, 2, 5, 40, 300])
    def test_random_orthogonal_pairs(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            assert_matches_greedy(random_orthogonal(n, rng), random_orthogonal(n, rng))

    @pytest.mark.parametrize("n", [2, 17, 300])
    @pytest.mark.parametrize("tilt", [0.0, 1e-3, 0.3])
    def test_permuted_and_sign_flipped_pairs(self, n, tilt):
        # a rotated copy of the bare basis, columns shuffled and negated
        rng = np.random.default_rng(n + 7)
        q = random_orthogonal(n, rng)
        a = tilt * rng.standard_normal((n, n))
        rot = np.linalg.qr(np.eye(n) + a - a.T)[0]
        eff = (q @ rot)[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
        assert_matches_greedy(q, eff)

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-3])
    def test_entries_near_one_over_root_two(self, eps):
        # 2x2 blocks rotated by pi/4 +- eps: all four overlaps near 1/sqrt 2,
        # exact ties at eps 0, so the row-major tie-break decides
        rng = np.random.default_rng(11)
        n = 12
        q = random_orthogonal(n, rng)
        rot = np.eye(n)
        for k, angle in enumerate(np.pi / 4 + eps * rng.choice([-1.0, 1.0], n // 2)):
            c, s = np.cos(angle), np.sin(angle)
            rot[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
        assert_matches_greedy(q, q @ rot)
        assert_matches_greedy(np.eye(n), rot[:, rng.permutation(n)])

    def test_ties_in_arbitrary_matrices(self):
        # vectors that are not orthonormal, with coarse values full of ties:
        # the pre-picked pairs do not rely on orthonormality
        rng = np.random.default_rng(12)
        for n in (3, 8, 30):
            for _ in range(20):
                assert_matches_greedy(np.eye(n), rng.integers(-3, 4, (n, n)).astype(float))


class TestAlignment:
    def test_identical_kernels_identity_pairing(self):
        k = KernelMatrix.random(16, seed=0)
        sys = eig_sym(k)
        report = align_eigensystems(sys, sys)
        np.testing.assert_array_equal(report.permutation, np.arange(16))
        np.testing.assert_allclose(report.overlap, np.eye(16), atol=1e-12)
        assert report.score > 1 - 1e-12

    def test_permuted_spectrum_recovered(self):
        """A kernel sharing eigenvectors pairs up regardless of value order."""
        rng = np.random.default_rng(1)
        n = 12
        z = random_orthogonal(n, rng)
        eps_b = np.linspace(2.0, 0.5, n)
        # effective eigenvalues shuffled enough to reorder the spectrum
        eps_d = eps_b[::-1].copy()
        kb = (z * eps_b) @ z.T
        kd = (z * eps_d) @ z.T
        report = align_eigensystems(eig_sym(kb), eig_sym(kd))
        # pairing follows the shared eigenvectors, not the value order
        np.testing.assert_allclose(report.eff_values, eps_d, rtol=1e-10)
        assert report.max_off_diagonal < 1e-8

    def test_sign_flips_make_diagonal_nonnegative(self):
        rng = np.random.default_rng(2)
        n = 10
        z = random_orthogonal(n, rng)
        eps = np.linspace(1.5, 0.3, n)
        kb = (z * eps) @ z.T
        kd = (z * (eps * 1.001)) @ z.T
        report = align_eigensystems(eig_sym(kb), eig_sym(kd))
        assert np.diag(report.overlap).min() >= 0.0
        assert report.score > 0.999

    def test_dimension_mismatch(self):
        a = eig_sym(np.eye(3))
        b = eig_sym(np.eye(4))
        with pytest.raises(ValueError):
            align_eigensystems(a, b)


class TestProjection:
    def test_projection_onto_own_basis_diagonalizes(self):
        k = KernelMatrix.random(15, seed=6)
        sys = eig_sym(k)
        projected = sys.vectors.T @ k.matrix @ sys.vectors
        np.testing.assert_allclose(projected, np.diag(sys.values), atol=1e-12)


class TestDifferences:
    def test_planted_relative_differences(self):
        rng = np.random.default_rng(7)
        n = 24
        z = random_orthogonal(n, rng)
        eps_b = np.linspace(1.0, 0.05, n)
        ratios = 1e-3 * np.linspace(-1.0, 1.0, n)
        kb = (z * eps_b) @ z.T
        kd = (z * (eps_b * (1 + ratios))) @ z.T
        table = eigen_differences(align_eigensystems(eig_sym(kb), eig_sym(kd)))
        np.testing.assert_array_equal(table.index, np.arange(1, n + 1))
        np.testing.assert_allclose(table.rel_diff, ratios, atol=1e-12)
        assert not table.flagged.any()
        assert len(table.pairs()) == n

    def test_floor_flags_tiny_eigenvalues(self):
        eps_b = np.array([1.0, 0.5, 1e-12])
        kb = np.diag(eps_b)
        kd = np.diag(eps_b * (1 + 1e-4))
        table = eigen_differences(align_eigensystems(eig_sym(kb), eig_sym(kd)))
        assert list(table.flagged) == [False, False, True]
        assert np.isnan(table.rel_diff[2])
        assert len(table.pairs()) == 2

    def test_identical_kernels_zero_differences(self):
        k = KernelMatrix.random(10, seed=8)
        sys = eig_sym(k)
        table = eigen_differences(align_eigensystems(sys, sys))
        np.testing.assert_array_equal(table.diff, np.zeros(10))
