import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import logm

from tanfold import suzuki
from tanfold.suzuki import (
    Generator,
    SuzukiProblem,
    build_generator,
    h_eff,
    h_od,
    ituple_commutator,
    random_coupled_problem,
    tanh_coefficients,
    transformed,
    verify_w_identities,
    verify_w_identity,
    z_tanh_closed,
    z_tanh_series,
)


def bernoulli_numbers(m):
    """Independent oracle: Bernoulli numbers from the binomial recurrence."""
    b = [Fraction(0)] * (m + 1)
    b[0] = Fraction(1)
    for n in range(1, m + 1):
        b[n] = -sum(Fraction(math.comb(n + 1, j)) * b[j] for j in range(n)) / (n + 1)
    return b


def polar_logm_generator(prob):
    """Reference: principal logarithm of the polar factor of P1 R + (1-P1) Q.

    P1 projects onto the model eigenvectors, chosen by R-projection norm
    as in build_generator.
    """
    dim, r = prob.dim, prob.r_dim
    _, vecs = np.linalg.eigh(prob.h)
    proj = np.sum(np.abs(vecs[:r, :]) ** 2, axis=0)
    v_r = vecs[:, np.argsort(-proj, kind="stable")[:r]]
    p1 = v_r @ v_r.conj().T
    rp = np.zeros((dim, dim), dtype=complex)
    rp[:r, :r] = np.eye(r)
    t = p1 @ rp + (np.eye(dim) - p1) @ (np.eye(dim) - rp)
    s, w = np.linalg.eigh(t.conj().T @ t)
    g = logm(t @ ((w * s**-0.5) @ w.conj().T))
    return 0.5 * (g - g.conj().T), v_r


def reference_generator(prob):
    """Reference: the per-problem direct-rotation construction, one problem
    at a time (the stacked code must reproduce it bit for bit)."""
    r = prob.r_dim
    _, vecs = np.linalg.eigh(prob.h)
    proj = np.sum(np.abs(vecs[:r, :]) ** 2, axis=0)
    order = np.argsort(-proj, kind="stable")
    if proj[order[r - 1]] - proj[order[r]] < suzuki.ASSIGNMENT_GAP:
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

    if np.abs(transformed(prob, gen)[r:, :r]).max() > suzuki.BLOCK_TOL:
        raise ArithmeticError("decoupling residual above 1e-10")
    return gen


def reference_report(prob, n_max=12):
    """Reference: verify_w_identity of one problem, per problem."""
    gen = reference_generator(prob)
    od = h_od(prob)
    r = prob.r_dim

    lhs = h_eff(prob, gen) - prob.h[:r, :r]
    closed = z_tanh_closed(gen.g, od)

    diff = lhs + closed[:r, :r]
    lhs_f = float(np.linalg.norm(lhs))
    rel = float(np.linalg.norm(diff)) / lhs_f if lhs_f > 0 else 0.0
    phases = gen.eigh[0]
    return suzuki.WIdentityReport(
        max_abs=float(np.abs(diff).max()),
        rel_frobenius=rel,
        lhs_frobenius=lhs_f,
        half_spread=float(phases.max() - phases.min()) / 2,
        series_errors=tuple(
            float(np.abs(z_tanh_series(gen.g, od, n) - closed).max())
            for n in range(1, n_max + 1)
        ),
    )


def first_error(fn, problems):
    """Type and message of the first exception a loop over ``problems`` raises."""
    for prob in problems:
        try:
            fn(prob)
        except Exception as exc:  # noqa: BLE001 - the loop's error is the subject
            return type(exc), str(exc)
    return None


def stack_error(problems, **kw):
    try:
        verify_w_identities(problems, **kw)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    return None


def random_antihermitian(rng, n, half_spread):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = a - a.conj().T
    phases = np.linalg.eigvalsh(1j * g / 2)
    return g * (half_spread / (phases.max() - phases.min()))


class TestProblemTypes:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            SuzukiProblem(np.array([[0.0, 1.0], [0.5, 2.0]]), 1)

    def test_rejects_bad_rdim(self):
        h = np.eye(3)
        for r in (0, 3, 5):
            with pytest.raises(ValueError):
                SuzukiProblem(h, r)

    def test_generator_rejects_diagonal_blocks(self):
        g = np.zeros((4, 4), dtype=complex)
        g[0, 1] = 1e-6
        g[1, 0] = -1e-6
        with pytest.raises(ValueError):
            Generator(g, 2)

    def test_generator_rejects_hermitian(self):
        g = np.zeros((4, 4), dtype=complex)
        g[0, 2] = g[2, 0] = 0.1
        with pytest.raises(ValueError):
            Generator(g, 2)


class TestTanhCoefficients:
    def test_first_five_exact(self):
        assert tanh_coefficients(5) == (
            Fraction(1),
            Fraction(-1, 3),
            Fraction(2, 15),
            Fraction(-17, 315),
            Fraction(62, 2835),
        )

    def test_matches_bernoulli_oracle(self):
        b = bernoulli_numbers(20)
        oracle = tuple(
            Fraction(4**n * (4**n - 1)) * b[2 * n] / math.factorial(2 * n)
            for n in range(1, 11)
        )
        assert tanh_coefficients(10) == oracle

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            tanh_coefficients(0)

    def test_cached_per_order(self):
        assert tanh_coefficients(12) is tanh_coefficients(12)
        assert tanh_coefficients(11) == tanh_coefficients(12)[:11]
        with pytest.raises(ValueError):
            tanh_coefficients(0)


class TestCommutator:
    def test_frozen_two_by_two(self):
        a = np.diag([1j, -1j])
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        out = ituple_commutator(a, b, 1)
        assert np.allclose(out, [[0.0, 2j], [-2j, 0.0]], atol=1e-15)

    def test_commuting_operand_gives_zero(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        b = np.diag([5.0, -1.0, 0.5]).astype(complex)
        for i in range(1, 5):
            assert not ituple_commutator(a, b, i).any()

    def test_eigenbasis_power_law(self):
        # in A's eigenbasis the i-fold nesting multiplies element (k, l)
        # by (alpha_k - alpha_l)^i
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = 10 if trial < 3 else 16
            alpha = 0.3 * rng.standard_normal(n)
            a = np.diag(alpha).astype(complex)
            b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            diffs = alpha[:, None] - alpha[None, :]
            for i in range(1, 7):
                direct = ituple_commutator(a, b, i)
                assert np.abs(direct - b * diffs**i).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ituple_commutator(np.eye(2), np.eye(3), 1)


class TestTanhTransform:
    def test_tanh_of_imaginary_is_i_tan(self):
        for a in (0.0, 0.3, -0.3, 1.0, -1.0, 1.5, -1.5):
            assert abs(np.tanh(1j * a) - 1j * math.tan(a)) < 1e-14

    def test_series_order_one_is_plain_commutator(self):
        rng = np.random.default_rng(4)
        g = random_antihermitian(rng, 6, 0.4)
        hm = rng.standard_normal((6, 6))
        hm = (hm + hm.T).astype(complex)
        assert np.allclose(
            z_tanh_series(g, hm, 1), ituple_commutator(g / 2, hm, 1), atol=1e-15
        )

    def test_zero_generator_gives_zero(self):
        g = np.zeros((5, 5), dtype=complex)
        hm = np.ones((5, 5), dtype=complex)
        assert not z_tanh_series(g, hm, 6).any()
        assert not z_tanh_closed(g, hm).any()

    def test_closed_form_diagonal_pair(self):
        # G/2 has eigenvalues (0.3i, -0.2i); the off-diagonal element is
        # scaled by tanh(0.5i) = i tan(0.5)
        g = np.diag([0.6j, -0.4j])
        hm = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        z = z_tanh_closed(g, hm)
        want = 1j * math.tan(0.5)
        assert abs(z[0, 1] - want) < 1e-15
        assert abs(z[1, 0] + want) < 1e-15

    def test_series_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for n, spread in ((8, 0.5), (10, 0.5), (12, 0.25)):
            g = random_antihermitian(rng, n, spread)
            hm = rng.standard_normal((n, n))
            hm = (hm + hm.T).astype(complex)
            gap = np.abs(z_tanh_series(g, hm, 12) - z_tanh_closed(g, hm)).max()
            assert gap < 1e-10

    def test_closed_form_singularity_raises(self):
        g = np.diag([2.0j, -2.0j])
        hm = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            z_tanh_closed(g, hm)

    def test_series_warns_outside_convergence(self):
        g = np.diag([2.0j, -2.0j])
        hm = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.warns(UserWarning):
            z_tanh_series(g, hm, 3)


class TestGeneratorConstruction:
    def test_block_diagonal_input_gives_zero(self):
        h = np.zeros((6, 6))
        h[:2, :2] = [[1.0, 0.2], [0.2, 2.0]]
        h[2:, 2:] = 4.0 * np.eye(4)
        gen = build_generator(SuzukiProblem(h, 2))
        assert np.abs(gen.g).max() < 1e-12

    def test_two_by_two_decouples(self):
        prob = SuzukiProblem(np.array([[0.0, 0.1], [0.1, 1.0]]), 1)
        gen = build_generator(prob)
        out = transformed(prob, gen)
        assert abs(out[1, 0]) < 1e-12
        assert abs(out[0, 1]) < 1e-12

    def test_random_problems_decouple_with_minimal_effect(self):
        for seed in range(8):
            prob = random_coupled_problem(8, 3, 0.05, seed)
            gen = build_generator(prob)
            out = transformed(prob, gen)
            assert np.abs(out[3:, :3]).max() < 1e-10
            assert np.abs(gen.g[:3, :3]).max() < 1e-10
            assert np.abs(gen.g[3:, 3:]).max() < 1e-10

    def test_ambiguous_assignment_raises(self):
        # eigenvectors of [[0,1],[1,0]] both project onto R with norm 1/2
        with pytest.raises(ValueError, match="ambiguous"):
            build_generator(SuzukiProblem(np.array([[0.0, 1.0], [1.0, 0.0]]), 1))

    @pytest.mark.parametrize("coupling", [0.05, 0.4])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_polar_logm_reference(self, coupling, complex_):
        rng = np.random.default_rng(5)
        for dim in range(3, 13):
            for r_dim in range(1, dim):
                prob = random_coupled_problem(dim, r_dim, coupling, 100 * dim + r_dim)
                if complex_:
                    a = rng.standard_normal((dim, dim))
                    prob = SuzukiProblem(prob.h + 0.3j * coupling * (a - a.T), r_dim)
                want, _ = polar_logm_generator(prob)
                assert np.abs(build_generator(prob).g - want).max() <= 1e-13

    @pytest.mark.parametrize("coupling", [0.05, 0.4])
    def test_eigenphases_are_arctan_of_wave_operator_amplitude(self, coupling):
        # the eigenphases of iG are +-theta_i, theta_i = arctan sigma_i(B A^-1),
        # plus dim - 2 min(r, dim - r) zeros
        for dim, r_dim in ((5, 1), (8, 3), (9, 6), (12, 4)):
            prob = random_coupled_problem(dim, r_dim, coupling, dim + r_dim)
            gen = build_generator(prob)
            _, v_r = polar_logm_generator(prob)
            amplitude = np.linalg.solve(v_r[:r_dim].T, v_r[r_dim:].T).T
            theta = np.arctan(np.linalg.svd(amplitude, compute_uv=False))
            zeros = np.zeros(dim - 2 * theta.size)
            want = np.sort(np.concatenate([theta, -theta, zeros]))
            assert np.abs(np.linalg.eigvalsh(1j * gen.g) - want).max() < 1e-13
            assert np.array_equal(gen.eigh[0], np.linalg.eigh(1j * gen.g)[0])

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        # the generator is closed-form, so suzuki needs no scipy.linalg;
        # the package imports scipy.linalg and scipy.sparse only where the
        # kernel polish and the minibatch loss first run, and scipy.special
        # nowhere (tests/test_cli.py checks a training process for it)
        import tanfold

        src = os.path.dirname(os.path.dirname(tanfold.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        code = ("import sys, tanfold.cli; "
                "assert not {'scipy.linalg', 'scipy.special', 'scipy.sparse'} & set(sys.modules)")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_exponential_is_unitary(self):
        rng = np.random.default_rng(0)
        g = random_antihermitian(rng, 7, 1.2)
        u = suzuki._expm_from_eigh(*np.linalg.eigh(1j * g))
        assert np.abs(u.conj().T @ u - np.eye(7)).max() < 1e-13


class TestEffectiveBlock:
    def test_zero_generator_returns_model_block(self):
        prob = random_coupled_problem(9, 3, 0.05, 5)
        gen = Generator(np.zeros((9, 9), dtype=complex), 3)
        assert np.allclose(h_eff(prob, gen), prob.h[:3, :3], atol=1e-15)

    def test_hermitian_and_spectrum_preserving(self):
        prob = random_coupled_problem(10, 3, 0.05, 99)
        gen = build_generator(prob)
        full = transformed(prob, gen)
        eff = h_eff(prob, gen)
        assert np.abs(eff - eff.conj().T).max() < 1e-12
        whole = np.sort(np.linalg.eigvalsh(prob.h))
        split = np.sort(
            np.concatenate(
                [np.linalg.eigvalsh(eff), np.linalg.eigvalsh(full[3:, 3:])]
            )
        )
        assert np.abs(whole - split).max() < 1e-10

    def test_h_od_extracts_coupling_blocks(self):
        prob = random_coupled_problem(8, 3, 0.5, 1)
        od = h_od(prob)
        assert not od[:3, :3].any()
        assert not od[3:, 3:].any()
        assert np.array_equal(od[:3, 3:], prob.h[:3, 3:])


class TestWIdentity:
    def test_block_diagonal_is_trivially_zero(self):
        h = np.zeros((6, 6))
        h[:2, :2] = [[1.0, 0.2], [0.2, 2.0]]
        h[2:, 2:] = 4.0 * np.eye(4)
        rep = verify_w_identity(SuzukiProblem(h, 2))
        assert rep.max_abs == 0.0
        assert rep.rel_frobenius == 0.0

    @pytest.mark.parametrize("r_dim", [2, 3, 4])
    def test_random_ten_dim_problems(self, r_dim):
        for seed in range(6):
            prob = random_coupled_problem(10, r_dim, 0.05, 100 + seed)
            rep = verify_w_identity(prob)
            assert rep.rel_frobenius < 1e-8
            assert rep.max_abs < 1e-10

    def test_series_curve_converges(self):
        rep = verify_w_identity(random_coupled_problem(10, 3, 0.05, 17))
        assert len(rep.series_errors) == 12
        assert rep.series_errors[-1] <= rep.series_errors[0]
        assert rep.series_errors[-1] < 1e-10

    def test_larger_coupling_still_exact(self):
        # the identity is exact whenever the construction converges, not
        # just at leading order: push the coupling well past perturbative
        rep = verify_w_identity(random_coupled_problem(8, 3, 0.4, 2))
        assert rep.rel_frobenius < 1e-8


def ambiguous_problem(dim=6, r_dim=2):
    """After the r_dim - 1 eigenvectors e_1, ..., e_{r-1} of R-projection 1,
    the eigenvectors (e_0 +- e_r)/sqrt 2 tie at projection 1/2."""
    h = np.diag(np.arange(dim) + 2.0)
    h[0, 0] = h[r_dim, r_dim] = 0.0
    h[0, r_dim] = h[r_dim, 0] = 1.0
    return SuzukiProblem(h, r_dim)


def orthogonal_assignment_problem():
    """dim 6, r_dim 2: the R-parts of the two assigned eigenvectors
    (R-projections 0.5 and 0.45, the rest 0.2625) both lie along e_0, so A
    is singular although the assignment is clear."""
    a = np.array([0.5, 0.45, 0.0125, 0.0125, 0.0125, 0.0125]) ** 0.5
    b = np.array([0.0, 0.0, 0.5, -0.5, 0.5, -0.5])
    rows = np.vstack([a, b, np.random.default_rng(0).standard_normal((4, 6))])
    q, _ = np.linalg.qr(rows.T)
    return SuzukiProblem((q.T * np.arange(1.0, 7.0)) @ q, 2)


def coupled_problems(dim, r_dim, coupling, complex_, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        prob = random_coupled_problem(dim, r_dim, coupling, 1000 * seed + k)
        if complex_:
            a = rng.standard_normal((dim, dim))
            prob = SuzukiProblem(prob.h + 0.3j * coupling * (a - a.T), r_dim)
        out.append(prob)
    return out


class TestStackedLab:
    @pytest.mark.parametrize("coupling", [0.05, 0.4])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_per_problem_reference_bit_for_bit(self, coupling, complex_):
        for dim in range(3, 13):
            for r_dim in range(1, dim):
                probs = coupled_problems(dim, r_dim, coupling, complex_, 3, 10 * dim + r_dim)
                got = verify_w_identities(probs)
                for prob, rep in zip(probs, got):
                    assert dataclasses.astuple(rep) == dataclasses.astuple(reference_report(prob))
                    assert np.array_equal(build_generator(prob).g, reference_generator(prob).g)
                assert verify_w_identity(probs[0]) == got[0]

    @pytest.mark.parametrize("coupling", [0.05, 0.4])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_generators_are_exact_by_construction(self, coupling, complex_):
        # what the Generator type checks to 1e-12 holds here bit for bit,
        # which is why the stacked construction does not check it
        for dim in range(3, 13):
            for r_dim in range(1, dim):
                probs = coupled_problems(dim, r_dim, coupling, complex_, 3, 10 * dim + r_dim)
                g, *_ = suzuki._direct_rotation(np.stack([p.h for p in probs]), r_dim)
                assert np.isfinite(g).all()
                assert np.array_equal(g, -g.conj().swapaxes(1, 2))
                assert not g[:, :r_dim, :r_dim].any() and not g[:, r_dim:, r_dim:].any()

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunking_leaves_reports_unchanged(self, monkeypatch, chunk):
        # 7 trials in chunks of 1, 3 (not a divisor) and 7 (one stack)
        probs = coupled_problems(9, 4, 0.4, True, 7, 3)
        want = [reference_report(p) for p in probs]
        monkeypatch.setattr(suzuki, "CHUNK_BYTES", 16 * 9 * 9 * chunk)
        assert verify_w_identities(iter(probs)) == want

    def test_chunks_are_drawn_lazily_within_the_byte_budget(self):
        # chunks of CHUNK_BYTES // (16 dim^2) problems, each verified before
        # the next is drawn: a failure in the second chunk stops the draw
        dim = 64
        size = suzuki.CHUNK_BYTES // (16 * dim * dim)
        seen = []

        def draw():
            for k in range(10 * size):
                seen.append(k)
                yield ambiguous_problem(dim, 2) if k == size + 1 else random_coupled_problem(dim, 2, 0.05, k)

        with pytest.raises(ValueError, match="ambiguous"):
            verify_w_identities(draw())
        assert len(seen) == 2 * size

    def test_empty_and_mixed_input(self):
        assert verify_w_identities([]) == []
        for other in (random_coupled_problem(7, 3, 0.05, 1), random_coupled_problem(6, 3, 0.05, 1)):
            with pytest.raises(ValueError, match="share dim and r_dim"):
                verify_w_identities([random_coupled_problem(6, 2, 0.05, 0), other])

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_degenerate_two_by_two_fails_like_the_loop(self, k):
        bad = SuzukiProblem(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
        probs = [random_coupled_problem(2, 1, 0.05, s) for s in range(7)]
        probs[k] = bad
        with pytest.raises(ValueError, match="ambiguous") as alone:
            verify_w_identity(bad)
        assert stack_error(probs) == (ValueError, str(alone.value))
        assert stack_error(probs) == first_error(reference_report, probs)

    def test_earlier_problem_fails_first_whatever_its_check(self):
        # the orthogonal-assignment check comes after the ambiguity check,
        # yet the earlier problem's error wins either way round
        ortho, ambiguous = orthogonal_assignment_problem(), ambiguous_problem()
        ortho_err, amb_err = stack_error([ortho]), stack_error([ambiguous])
        assert ortho_err == (ValueError, "assigned subspace is orthogonal to the reference block")
        assert amb_err[0] is ValueError and "ambiguous" in amb_err[1]
        good = random_coupled_problem(6, 2, 0.05, 0)
        for first, second, want in ((ortho, ambiguous, ortho_err), (ambiguous, ortho, amb_err)):
            probs = [good, first, good, second, good]
            assert stack_error(probs) == want == first_error(reference_report, probs)

    def test_failing_tolerances_raise_the_loops_error(self, monkeypatch):
        # tighten the spread and decoupling limits to values inside the
        # spread of the trials, so trials fail at several checks and indices
        probs = coupled_problems(8, 3, 0.4, False, 6, 7)
        spreads, residuals = [], []
        for prob in probs:
            gen = reference_generator(prob)
            spreads.append(reference_report(prob).half_spread)
            residuals.append(np.abs(transformed(prob, gen)[3:, :3]).max())
        for spread in sorted(spreads)[1:]:
            for residual in sorted(residuals)[1:]:
                monkeypatch.setattr(suzuki, "SPREAD_LIMIT", spread)
                monkeypatch.setattr(suzuki, "BLOCK_TOL", residual)
                want = first_error(reference_report, probs)
                assert want is not None
                assert stack_error(probs) == want

    def test_bad_order_fails_like_the_loop(self):
        probs = [random_coupled_problem(5, 2, 0.05, s) for s in range(3)]
        assert stack_error(probs, n_max=0) == (ValueError, "n_max must be >= 1")
        probs[1] = SuzukiProblem(np.diag([0.0, 0.0, 1.0, 2.0, 3.0]), 2)
        assert stack_error(probs, n_max=0) == (ValueError, "n_max must be >= 1")
