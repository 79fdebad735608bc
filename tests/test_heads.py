"""Bilinear head evaluation: exact symmetry, reductions, and gradients."""

import numpy as np
import pytest

from tanfold.heads import (
    HeadKind,
    KernelMatrix,
    eval_bare_two,
    eval_eff_two,
    eval_one,
    sym_bilinear,
)
from tanfold.tensors import Kind
from tanfold.training import _Samples, _batch_loss


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_grad(f, vec, h=1e-6, rng=None, n=6):
    """Central differences of scalar f at selected coordinates of vec."""
    idx = range(vec.size) if rng is None else rng.choice(vec.size, size=min(n, vec.size), replace=False)
    out = {}
    for k in idx:
        orig = vec[k]
        vec[k] = orig + h
        up = f()
        vec[k] = orig - h
        down = f()
        vec[k] = orig
        out[k] = (up - down) / (2 * h)
    return out


class TestKernelMatrix:
    def test_validates_symmetry(self):
        with pytest.raises(ValueError):
            KernelMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
        k = KernelMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]), symmetrize=True)
        assert np.array_equal(k.matrix, k.matrix.T)
        assert k.dim == 2

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            KernelMatrix(np.zeros((2, 3)))
        bad = np.zeros((2, 2))
        bad[0, 1] = np.inf
        with pytest.raises(ValueError):
            KernelMatrix(bad, symmetrize=True)

    def test_readonly(self):
        k = KernelMatrix.random(4, seed=0)
        with pytest.raises(ValueError):
            k.matrix[0, 0] = 1.0


class TestEvaluation:
    def test_identity_kernel_is_dot_product(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(2, 16))
        assert eval_one(x, y, np.eye(16)) == pytest.approx(x @ y, rel=1e-14)

    def test_basis_vectors_pick_kernel_entry(self):
        k = KernelMatrix.random(5, seed=1)
        e2, e4 = np.eye(5)[2], np.eye(5)[4]
        assert eval_one(e2, e4, k) == k.matrix[2, 4]

    def test_one_body_bitwise_symmetric(self):
        rng = np.random.default_rng(2)
        k = KernelMatrix.random(32, seed=3)
        for _ in range(100):
            x, y = rng.normal(size=(2, 32))
            assert eval_one(x, y, k) == eval_one(y, x, k)

    def test_bare_two_eight_fold_bitwise(self):
        """All eight index permutations give the identical double."""
        rng = np.random.default_rng(4)
        k = KernelMatrix.random(24, seed=5)
        for _ in range(200):
            p, q, r, s = rng.normal(size=(4, 24))
            base = eval_bare_two(p, q, r, s, k)
            images = [
                (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ]
            for a, b, c, d in images:
                assert eval_bare_two(a, b, c, d, k) == base

    def test_eff_two_four_fold_bitwise(self):
        rng = np.random.default_rng(6)
        k = KernelMatrix.random(24, seed=7)
        for _ in range(200):
            p, q, r, s, tp, tq, tr, ts = rng.normal(size=(8, 24))
            base = eval_eff_two(p, q, r, s, tp, tq, tr, ts, k)
            assert eval_eff_two(q, p, s, r, tq, tp, ts, tr, k) == base
            assert eval_eff_two(r, s, p, q, tr, ts, tp, tq, k) == base
            assert eval_eff_two(s, r, q, p, ts, tr, tq, tp, k) == base

    def test_eff_reduces_to_bare_bitwise(self):
        rng = np.random.default_rng(8)
        k = KernelMatrix.random(16, seed=9)
        for _ in range(100):
            p, q, r, s = rng.normal(size=(4, 16))
            assert eval_eff_two(p, q, r, s, p, q, r, s, k) == eval_bare_two(p, q, r, s, k)

    def test_sym_bilinear_equals_plain_form(self):
        rng = np.random.default_rng(10)
        k = KernelMatrix.random(20, seed=11)
        x, y = rng.normal(size=(2, 20))
        assert sym_bilinear(x, y, k) == pytest.approx(x @ k.matrix @ y, rel=1e-13)


def sample_grads(head, vecs, kernel, upstream, tilde=None):
    """Gradients of the training loss on one sample ``(0, 1[, 2, 3])``
    whose orbitals carry ``vecs`` (and ``tilde``), as ``(dW, dPhi, dPhit)``.

    The target is the head's value minus ``upstream / 2``, so the squared
    residual's derivative ``2 * resid`` is ``upstream`` and the gradients
    are ``upstream`` times those of the entry.  A second sample keeps the
    one-sample ``sel`` a strict subset.
    """
    n = len(vecs)
    if tilde is None:
        value = (eval_one if head.body == 1 else eval_bare_two)(*vecs, kernel)
    else:
        value = eval_eff_two(*vecs, *tilde, kernel)
    samples = _Samples(
        x_all=np.zeros((n, n + 1)),
        base=np.zeros(2, dtype=np.intp),
        idx=np.array([np.arange(n), np.arange(n)[::-1]]),
        y=np.array([value - 0.5 * upstream, 0.0]),
        n_orb=n,
    )
    phit = None if tilde is None else np.array(tilde)
    _, *grads = _batch_loss(head, np.array(vecs), phit, kernel, samples, np.array([0]), True)
    return grads


class TestGradients:
    # each entry's gradients, through one-sample batches of the training loss
    def test_grad_one_matches_fd(self):
        rng = np.random.default_rng(12)
        k = KernelMatrix.random(12, seed=13)
        m = k.matrix.copy()
        m.flags.writeable = True
        p, q = rng.normal(size=(2, 12))
        upstream = 0.7
        dm, dpq, _ = sample_grads(HeadKind.BARE_ONE, [p, q], m, upstream)
        for vec, grad in zip((p, q), dpq):
            fd = fd_grad(lambda: upstream * eval_one(p, q, m), vec, rng=rng)
            for i, v in fd.items():
                assert rel_err(grad[i], v) < 1e-6
        fdm = fd_grad(lambda: upstream * eval_one(p, q, m), m.ravel(), rng=rng, n=10)
        for i, v in fdm.items():
            assert rel_err(dm.ravel()[i], v) < 1e-6
        assert np.array_equal(dm, dm.T)

    def test_grad_bare_two_matches_fd(self):
        rng = np.random.default_rng(14)
        w = KernelMatrix.random(10, seed=15).matrix.copy()
        w.flags.writeable = True
        vecs = rng.normal(size=(4, 10))
        p, q, r, s = vecs
        upstream = -1.3
        dw, dvecs, _ = sample_grads(HeadKind.BARE_TWO, [p, q, r, s], w, upstream)
        assert np.array_equal(dw, dw.T)
        obj = lambda: upstream * eval_bare_two(p, q, r, s, w)
        for vec, grad in zip(vecs, dvecs):
            fd = fd_grad(obj, vec, rng=rng)
            for i, v in fd.items():
                assert rel_err(grad[i], v) < 1e-6
        fdm = fd_grad(obj, w.ravel(), rng=rng, n=10)
        for i, v in fdm.items():
            assert rel_err(dw.ravel()[i], v) < 1e-6

    def test_grad_bare_two_closed_form(self):
        # d(pq|rs)/dphi_p = phi_q . (W [phi_r . phi_s]), scaled by upstream
        rng = np.random.default_rng(16)
        w = KernelMatrix.random(8, seed=17).matrix
        p, q, r, s = rng.normal(size=(4, 8))
        _, (dp, _, _, _), _ = sample_grads(HeadKind.BARE_TWO, [p, q, r, s], w, 2.0)
        np.testing.assert_allclose(dp, 2.0 * q * (w @ (r * s)), rtol=1e-13)

    def test_grad_eff_two_matches_fd(self):
        rng = np.random.default_rng(18)
        w = KernelMatrix.random(9, seed=19).matrix.copy()
        w.flags.writeable = True
        vecs = rng.normal(size=(8, 9))
        p, q, r, s, tp, tq, tr, ts = vecs
        upstream = 0.9
        dw, dphi, dphit = sample_grads(
            HeadKind.EFF_TWO, [p, q, r, s], w, upstream, tilde=[tp, tq, tr, ts]
        )
        assert np.array_equal(dw, dw.T)
        obj = lambda: upstream * eval_eff_two(p, q, r, s, tp, tq, tr, ts, w)
        for vec, grad in zip(vecs, (*dphi, *dphit)):
            fd = fd_grad(obj, vec, rng=rng)
            for i, v in fd.items():
                assert rel_err(grad[i], v) < 1e-6
        fdm = fd_grad(obj, w.ravel(), rng=rng, n=10)
        for i, v in fdm.items():
            assert rel_err(dw.ravel()[i], v) < 1e-6


class TestHeadKind:
    def test_metadata(self):
        assert HeadKind.BARE_TWO.body == 2 and HeadKind.BARE_TWO.kind is Kind.BARE
        assert HeadKind.EFF_ONE.body == 1 and HeadKind.EFF_ONE.kind is Kind.EFFECTIVE
        assert HeadKind.EFF_TWO.n_nets == 2
        assert HeadKind.EFF_ONE.n_nets == 1
