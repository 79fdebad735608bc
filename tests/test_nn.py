"""MLP forward/backward, Adam, schedule, and checkpoint tests."""

import math

import numpy as np
import pytest

from tanfold import nn
from tanfold.nn import (
    AdamState,
    OrbitalNet,
    adam_step,
    cosine_lr,
    load_kernel,
    load_net,
    save_kernel,
    save_net,
    scale_geometry,
    silu,
    silu_prime,
)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestActivations:
    def test_silu_values(self):
        x = np.array([-2.0, 0.0, 0.5, 3.0])
        expected = x * (1.0 / (1.0 + np.exp(-x)))
        np.testing.assert_allclose(silu(x), expected, rtol=1e-15)

    def test_silu_prime_matches_fd(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(scale=2.0, size=64)
        for x in xs:
            fd = central_diff(lambda t: float(silu(np.array([t]))[0]), x)
            assert rel_err(float(silu_prime(np.array([x]))[0]), fd) < 1e-8

    # the sigmoid is NumPy's exp and divide; SciPy's expit is its reference
    EDGES = np.array([1.0, 37.0, 709.0, 710.0, 800.0, np.inf])

    def test_sigmoid_matches_expit(self):
        from scipy.special import expit

        rng = np.random.default_rng(5)
        z = np.concatenate([rng.normal(scale=8.0, size=4096), self.EDGES, -self.EDGES, [-0.0]])
        s = nn._sigmoid(z)
        assert np.abs(s - expit(z)).max() <= np.finfo(float).eps  # 2.2e-16
        out = np.empty_like(z)
        assert nn._sigmoid(z, out=out) is out
        np.testing.assert_array_equal(out, s)

    def test_sigmoid_is_exact_at_the_ends_and_keeps_nan(self):
        with np.errstate(all="raise"):
            s = nn._sigmoid(np.array([-np.inf, -800.0, -710.0, 800.0, np.inf, np.nan, -0.0]))
            nn._sigmoid(np.concatenate([self.EDGES, -self.EDGES]))
            silu_prime(np.concatenate([self.EDGES[:-1], -self.EDGES[:-1]]))
        assert s[:3].tolist() == [0.0, 0.0, 0.0]
        assert s[3:5].tolist() == [1.0, 1.0]
        assert np.isnan(s[5]) and s[6] == 0.5

    def test_forward_far_below_the_overflow_point_is_finite(self):
        # pre-activations of +-1000 in the first hidden layer: the sigmoid
        # of -1000 is exactly 0 without a floating-point error
        net = OrbitalNet(2, 3, hidden=(4, 4), seed=0)
        net.weights[0][...] = np.array([-1000.0, 1000.0, -1000.0, 1000.0])
        net.biases[0][...] = -5.0
        x = net.embed([0, 1], [0.0, 1.0])
        with np.errstate(all="raise"):
            y, cache = net.forward(x, with_cache=True)
        assert (cache["z", 0] < -709).any()
        assert np.isfinite(y).all()


class TestOrbitalNet:
    def test_init_shapes_and_ranges(self):
        net = OrbitalNet(4, 32, hidden=(64, 64), seed=3)
        assert net.sizes == [5, 64, 64, 32]
        for w, (fi, fo) in zip(net.weights, zip(net.sizes[:-1], net.sizes[1:])):
            limit = math.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= limit)
        for b in net.biases:
            assert not b.any()

    def test_seed_determinism(self):
        a = OrbitalNet(3, 8, hidden=(16,), seed=7)
        b = OrbitalNet(3, 8, hidden=(16,), seed=7)
        x = a.embed([0, 1, 2], [0.25, 0.5, 0.75])
        assert np.array_equal(a.forward(x), b.forward(x))
        c = OrbitalNet(3, 8, hidden=(16,), seed=8)
        assert not np.array_equal(a.forward(x), c.forward(x))

    def test_embed_layout(self):
        net = OrbitalNet(3, 4, hidden=(8,), seed=0)
        x = net.embed([1], [0.3])
        np.testing.assert_array_equal(x, [[0.0, 1.0, 0.0, 0.3]])
        with pytest.raises(ValueError):
            net.embed([3], [0.0])

    def test_scale_geometry_maps_range_onto_unit_interval(self):
        assert [scale_geometry((1.8, 3.0), r) for r in (1.8, 3.0)] == [0.0, 1.0]
        assert scale_geometry((1.8, 3.0), 2.1) == (2.1 - 1.8) / (3.0 - 1.8)
        assert scale_geometry((2.0, 2.0), 2.0) == 0.0  # a single geometry

    def test_forward_batch_matches_single(self):
        net = OrbitalNet(4, 8, hidden=(16, 16), seed=1)
        x = net.embed([0, 2, 3], [0.1, 0.2, 0.9])
        batch = net.forward(x)
        # batched and single-row evaluation agree to roundoff (BLAS may pick
        # different kernels per shape); identical shapes are bit-identical
        for row, (orb, r) in zip(batch, [(0, 0.1), (2, 0.2), (3, 0.9)]):
            single = net.forward(net.embed([orb], [r]))[0]
            np.testing.assert_allclose(row, single, rtol=1e-13, atol=1e-15)
        assert np.array_equal(batch, net.forward(x))

    def test_backward_matches_fd(self):
        """Every parameter gradient agrees with central differences."""
        rng = np.random.default_rng(5)
        net = OrbitalNet(3, 6, hidden=(10, 9), seed=2)
        x = net.embed([0, 1, 2, 1], [0.0, 0.3, 0.7, 1.0])
        grad_out = rng.normal(size=(4, 6))

        def objective():
            return float((net.forward(x) * grad_out).sum())

        _, cache = net.forward(x, with_cache=True)
        grads, grad_x = net.backward(cache, grad_out)

        h = 1e-6
        checked = 0
        for pi, p in enumerate(net.views(net.flat)):
            flat = p.ravel()
            idx = rng.choice(flat.size, size=min(30, flat.size), replace=False)
            for k in idx:
                orig = flat[k]
                flat[k] = orig + h
                up = objective()
                flat[k] = orig - h
                down = objective()
                flat[k] = orig
                fd = (up - down) / (2 * h)
                assert rel_err(grads[pi].ravel()[k], fd) < 1e-6
                checked += 1
        assert checked >= 100

        # input gradient (geometry feature) also matches
        for b in range(4):
            xp = x.copy()
            xp[b, -1] += h
            up = float((net.forward(xp) * grad_out).sum())
            xp[b, -1] -= 2 * h
            down = float((net.forward(xp) * grad_out).sum())
            fd = (up - down) / (2 * h)
            assert rel_err(grad_x[b, -1], fd) < 1e-6


def reference_forward_backward(net, x, grad_out):
    """Forward and backward written with ``silu``/``silu_prime``, each
    gradient its own array."""
    activations, pre = [x], []
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        if i < last:
            pre.append(z)
            a = silu(z)
            activations.append(a)
        else:
            a = z
    grads = [None] * (2 * len(net.weights))
    delta = grad_out
    for i in range(last, -1, -1):
        grads[2 * i] = activations[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
        if i > 0:
            delta = delta * silu_prime(pre[i - 1])
    return a, grads, delta


class TestCachedSigmoid:
    # desk shape (61 geometries x 4 orbitals, hidden 64x64, ell 32) and the
    # data-hf shape (6 geometries x 8 orbitals, hidden 200x3, ell 300)
    @pytest.mark.parametrize(
        "n_orb, rows, hidden, ell",
        [(4, 244, (64, 64), 32), (8, 48, (200, 200, 200), 300)],
        ids=["desk", "data-hf"],
    )
    def test_backward_equals_silu_prime_form_bitwise(self, n_orb, rows, hidden, ell):
        rng = np.random.default_rng(rows)
        net = OrbitalNet(n_orb, ell, hidden=hidden, seed=rows)
        # perturb the zero biases so every layer's bias enters the test
        net.flat += 0.05 * rng.standard_normal(net.flat.size)
        x = net.embed(rng.integers(0, n_orb, rows), rng.uniform(0.0, 1.0, rows))
        grad_out = rng.standard_normal((rows, ell))
        y_ref, grads_ref, gx_ref = reference_forward_backward(net, x, grad_out)
        y, cache = net.forward(x, with_cache=True)
        grads, gx = net.backward(cache, grad_out)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(gx, gx_ref)
        assert len(grads) == len(grads_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert np.array_equal(g, g_ref)
        # the same gradient, written into a caller's flat vector
        out = np.full(net.flat.size, np.nan)
        grads_out, _ = net.backward(cache, grad_out, out)
        assert np.array_equal(out, np.concatenate([g.ravel() for g in grads_ref]))
        assert all(np.shares_memory(g, out) for g in grads_out)


class TestFlatParameters:
    def test_params_are_views_of_one_vector(self):
        net = OrbitalNet(3, 5, hidden=(7, 6), seed=4)
        params = net.views(net.flat)
        assert net.flat.ndim == 1 and net.flat.flags.c_contiguous
        assert net.flat.size == sum(p.size for p in params)
        assert np.array_equal(net.flat, np.concatenate([p.ravel() for p in params]))
        net.flat[:] = np.arange(net.flat.size)
        assert net.weights[0][0, 0] == 0.0 and net.biases[-1][-1] == net.flat.size - 1

    def test_copy_has_its_own_buffer(self):
        net = OrbitalNet(3, 5, hidden=(7,), seed=4)
        twin = net.copy()
        assert np.array_equal(twin.flat, net.flat)
        assert not np.shares_memory(twin.flat, net.flat)
        before = net.flat.copy()
        twin.weights[0][...] += 1.0
        twin.biases[1][...] -= 1.0
        assert np.array_equal(net.flat, before)
        assert all(np.shares_memory(p, twin.flat) for p in (*twin.weights, *twin.biases))

    def test_move_to_makes_a_slice_of_a_larger_vector_the_parameters(self):
        net = OrbitalNet(3, 5, hidden=(7, 6), seed=4)
        before = net.flat.copy()
        x = net.embed([0, 1, 2], [0.0, 0.5, 1.0])
        y = net.forward(x)
        stage = np.full(net.flat.size + 9, np.nan)
        net.move_to(stage[4 : 4 + net.flat.size])
        assert np.array_equal(stage[4 : 4 + net.flat.size], before)
        assert np.isnan(stage[:4]).all() and np.isnan(stage[4 + net.flat.size :]).all()
        assert all(np.shares_memory(p, stage) for p in (*net.weights, *net.biases))
        assert np.array_equal(net.forward(x), y)
        stage[4] += 1.0
        assert net.weights[0][0, 0] == before[0] + 1.0

    @pytest.mark.parametrize("bad", ["short", "strided"])
    def test_move_to_rejects_a_vector_of_another_layout(self, bad):
        net = OrbitalNet(3, 5, hidden=(7,), seed=4)
        n = net.flat.size
        target = np.zeros(n - 1) if bad == "short" else np.zeros(2 * n)[::2]
        before = net.flat
        with pytest.raises(ValueError, match=str(n)):
            net.move_to(target)
        assert net.flat is before and not target.any()

    def test_loaded_nets_have_their_own_buffers(self, tmp_path):
        net = OrbitalNet(3, 5, hidden=(7, 6), seed=4)
        net.flat += 0.1
        path = tmp_path / "net.npz"
        save_net(path, net)
        a = load_net(path)
        b = load_net(path)
        assert np.array_equal(a.flat, net.flat)
        assert all(np.shares_memory(p, a.flat) for p in (*a.weights, *a.biases))
        a.flat[:] = 0.0
        assert np.array_equal(b.flat, net.flat)

    def test_load_rejects_wrong_layer_shape(self, tmp_path):
        net = OrbitalNet(2, 4, hidden=(4,), seed=0)
        path = tmp_path / "net.npz"
        save_net(path, net)
        with np.load(path) as data:
            payload = dict(data)
        payload["w1"] = payload["w1"][:1]
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="w1"):
            load_net(path)


def reference_adam(params, grads, m, v, t, state):
    """The Adam recursion one array at a time, as textbook expressions."""
    lr = cosine_lr(state.base_lr, t, state.total_steps)
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * np.square(g)
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + nn.ADAM_EPS)


def whole_vector_adam(p, g, state):
    """Reference: the in-place update over the whole vector, with two
    full-size temporaries (the same ufuncs in the same order)."""
    state.t += 1
    lr = cosine_lr(state.base_lr, state.t, state.total_steps)
    b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    u = np.multiply(g, 1.0 - b1)
    m *= b1
    m += u
    np.square(g, out=u)
    u *= 1.0 - b2
    v *= b2
    v += u
    den = np.divide(v, bc2)
    np.sqrt(den, out=den)
    den += eps
    np.divide(m, bc1, out=u)
    u *= lr
    u /= den
    p -= u
    return lr


#: the data-hf stage-2 layout: two network vectors and the ell-300 kernel,
#: 375 400 values
STAGE_TWO = (142_700, 142_700, 300 * 300)


class TestBlockedAdam:
    @staticmethod
    def gradient(rng):
        """A gradient of the stage-2 layout, each part at its own scale."""
        scales = np.repeat(10.0 ** rng.integers(-6, 2, len(STAGE_TWO)), STAGE_TWO)
        return rng.standard_normal(sum(STAGE_TWO)) * scales

    @pytest.mark.parametrize("block", [7, 1 << 13, 1 << 15, 1 << 16, 1 << 20])
    def test_blocks_equal_whole_array_update_bitwise(self, monkeypatch, block):
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        rng = np.random.default_rng(block)
        p = rng.standard_normal(sum(STAGE_TWO))
        ref = p.copy()
        state = AdamState(p.size, base_lr=0.01, total_steps=5)
        ref_state = AdamState(p.size, base_lr=0.01, total_steps=5)
        for _ in range(3):
            g = self.gradient(rng)
            assert adam_step(p, g, state) == whole_vector_adam(ref, g, ref_state)
        for got, want in ((p, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", ["strided_p", "strided_g", "2d", "short_g", "other_size"])
    def test_rejects_a_vector_not_contiguous_1d_or_of_matching_shape(self, bad):
        base = np.random.default_rng(2).standard_normal(24)
        p, g = base[:12].copy(), base[12:].copy()
        state = AdamState(12, base_lr=0.01, total_steps=5)
        if bad == "strided_p":
            p = base[::2]
        elif bad == "strided_g":
            g = base[::2]
        elif bad == "2d":
            p, g = p.reshape(3, 4), g.reshape(3, 4)
        elif bad == "short_g":
            g = g[:-1]
        else:
            state = AdamState(13, base_lr=0.01, total_steps=5)
        before = base.copy(), p.copy()
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(p, g, state)
        assert np.array_equal(base, before[0]) and np.array_equal(p, before[1])
        assert state.t == 0 and not (state.m.any() or state.v.any())

    def test_late_non_finite_block_leaves_every_block_untouched(self, monkeypatch):
        monkeypatch.setattr(nn, "ADAM_BLOCK", 1000)
        rng = np.random.default_rng(3)
        p = rng.standard_normal(sum(STAGE_TWO))
        state = AdamState(p.size, base_lr=0.01, total_steps=5)
        snapshot = p.copy()
        g = rng.standard_normal(p.size)
        g[-1] = np.inf
        with pytest.raises(FloatingPointError):
            adam_step(p, g, state)
        assert state.t == 0
        assert np.array_equal(p, snapshot)
        assert not (state.m.any() or state.v.any())


class TestFlatAdam:
    @staticmethod
    def nets_and_kernel():
        """Two networks and a symmetric kernel, all views of one vector."""
        nets = [OrbitalNet(4, 8, hidden=(16, 12), seed=s) for s in (1, 2)]
        w = np.random.default_rng(3).standard_normal((8, 8))
        ends = np.cumsum([net.flat.size for net in nets])
        theta = np.empty(ends[-1] + w.size)
        for net, flat in zip(nets, np.split(theta, ends)):
            net.move_to(flat)
        theta[ends[-1] :] = (w + w.T).ravel()
        return theta, nets, theta[ends[-1] :].reshape(w.shape)

    @staticmethod
    def arrays(nets, vector):
        """Every layer's weight and bias, then the kernel, as views of a
        vector laid out like the stage vector."""
        ends = np.cumsum([net.flat.size for net in nets])
        *parts, kernel = np.split(vector, ends)
        out = [a for net, part in zip(nets, parts) for a in net.views(part)]
        return out + [kernel.reshape(8, 8)]

    def test_flat_update_equals_per_array_recursion_bitwise(self):
        theta, nets, w = self.nets_and_kernel()
        ref_params = [a.copy() for a in self.arrays(nets, theta)]
        state = AdamState(theta.size, base_lr=0.01, total_steps=7)
        ref_m = [np.zeros_like(p) for p in ref_params]
        ref_v = [np.zeros_like(p) for p in ref_params]
        rng = np.random.default_rng(4)
        for t in range(1, 6):
            g = np.concatenate([rng.standard_normal(net.flat.size) * 10.0 ** rng.integers(-6, 2)
                                for net in nets] + [rng.standard_normal(w.size)])
            adam_step(theta, g, state)
            reference_adam(ref_params, self.arrays(nets, g), ref_m, ref_v, t, state)
            assert state.t == t
            assert all(np.array_equal(a, b) for a, b in zip(self.arrays(nets, theta), ref_params))
            assert all(np.array_equal(a, b) for a, b in zip(self.arrays(nets, state.m), ref_m))
            assert all(np.array_equal(a, b) for a, b in zip(self.arrays(nets, state.v), ref_v))
        assert w.base is theta and all(net.flat.base is theta for net in nets)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_finite_gradient_leaves_everything_untouched(self, bad):
        # bad: the first network's, the second network's or the kernel's part
        theta, nets, w = self.nets_and_kernel()
        state = AdamState(theta.size, base_lr=0.01, total_steps=10)
        rng = np.random.default_rng(5)
        for _ in range(2):
            adam_step(theta, rng.standard_normal(theta.size), state)
        snapshot = [a.copy() for a in (theta, state.m, state.v)]
        g = rng.standard_normal(theta.size)
        part = np.split(g, np.cumsum([net.flat.size for net in nets]))[bad]
        part[part.size // 2] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(theta, g, state)
        assert state.t == 2
        for a, b in zip((theta, state.m, state.v), snapshot):
            assert np.array_equal(a, b)


class TestAdam:
    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(0.4, 1000, 1000) == pytest.approx(0.0, abs=1e-16)
        assert cosine_lr(0.4, 500, 1000) == pytest.approx(0.2)
        assert cosine_lr(0.4, 1, 1000) == pytest.approx(0.4, rel=1e-4)

    def test_single_step_magnitude(self):
        # with |g| >> eps the first bias-corrected step has magnitude ~= lr(1)
        p = np.array([1.0])
        state = AdamState(1, base_lr=0.01, total_steps=100)
        lr = adam_step(p, np.array([0.5]), state)
        assert lr == pytest.approx(cosine_lr(0.01, 1, 100))
        assert abs(1.0 - p[0]) == pytest.approx(lr, rel=1e-7)
        assert state.t == 1

    def test_hand_computed_two_steps(self):
        """Freeze the textbook Adam recursion for two constant-gradient steps."""
        b1, b2, eps, lr0, T = 0.9, 0.999, 1e-8, 0.1, 10
        g = 0.3
        m = v = 0.0
        x_ref = 2.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            lr = lr0 * 0.5 * (1 + math.cos(math.pi * t / T))
            x_ref -= lr * mh / (math.sqrt(vh) + eps)
        p = np.array([2.0])
        state = AdamState(1, base_lr=lr0, total_steps=T)
        adam_step(p, np.array([g]), state)
        adam_step(p, np.array([g]), state)
        assert p[0] == pytest.approx(x_ref, rel=1e-14)

    def test_non_finite_gradient_rejected(self):
        p = np.array([1.0])
        state = AdamState(1, base_lr=0.1, total_steps=10)
        with pytest.raises(FloatingPointError):
            adam_step(p, np.array([np.nan]), state)
        assert p[0] == 1.0 and state.t == 0

    def test_deterministic_trajectory(self):
        def run():
            net = OrbitalNet(2, 4, hidden=(8,), seed=0)
            x = net.embed([0, 1], [0.2, 0.8])
            target = np.ones((2, 4))
            state = AdamState(net.flat.size, base_lr=1e-3, total_steps=50)
            grad = np.empty_like(net.flat)
            for _ in range(50):
                y, cache = net.forward(x, with_cache=True)
                net.backward(cache, 2 * (y - target) / y.size, grad)
                adam_step(net.flat, grad, state)
            return net.forward(x)

        assert np.array_equal(run(), run())


class TestCheckpoints:
    def test_net_roundtrip_bit_exact(self, tmp_path):
        net = OrbitalNet(4, 16, hidden=(32, 32), seed=9)
        path = tmp_path / "net.npz"
        save_net(path, net)
        back = load_net(path)
        with np.load(path) as data:
            assert data["step"] == 0 and data["step"].dtype == np.int64
        assert back.sizes == net.sizes
        assert np.array_equal(net.flat, back.flat)

    @pytest.mark.parametrize("sizes", [(3, 1, ()), (8, 300, (200, 200, 200))])
    def test_load_draws_no_initialization(self, tmp_path, monkeypatch, sizes):
        n_orb, output_dim, hidden = sizes
        net = OrbitalNet(n_orb, output_dim, hidden=hidden, seed=5)
        net.flat[-4:] = [-0.0, 5e-324, np.nan, -np.inf]
        path = tmp_path / "net.npz"
        save_net(path, net)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_net drew an initialization")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back = load_net(path)
        twin = back.copy()
        for other in (back, twin):
            assert (other.n_orb, other.output_dim, other.sizes, other.seed) == (
                net.n_orb, net.output_dim, net.sizes, net.seed)
            assert other.flat.dtype == np.float64 and other.flat.tobytes() == net.flat.tobytes()
            assert all(np.shares_memory(p, other.flat) for p in (*other.weights, *other.biases))
        assert not np.shares_memory(back.flat, twin.flat)

    @pytest.mark.parametrize("sizes", [[4], [1, 3], [3, 0, 2]])
    def test_load_rejects_bad_layer_widths(self, tmp_path, sizes):
        path = tmp_path / "net.npz"
        save_net(path, OrbitalNet(2, 4, hidden=(4,), seed=0))
        with np.load(path) as data:
            payload = dict(data)
        payload["sizes"] = np.asarray(sizes, dtype=np.int64)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="bad layer widths"):
            load_net(path)

    @pytest.mark.parametrize("load", [load_net, load_kernel], ids=["net", "kernel"])
    def test_foreign_archive_names_file_and_missing_keys(self, tmp_path, load):
        # the header is read first, so a foreign archive fails on its first member
        path = tmp_path / "other.npz"
        np.savez(path, a=np.eye(3))
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: version is missing; expected dtype kind 'iu', shape ()"

    @pytest.mark.parametrize("drop", ["step", "w1", "b0"])
    def test_load_rejects_missing_entry(self, tmp_path, drop):
        path = tmp_path / "net.npz"
        save_net(path, OrbitalNet(2, 4, hidden=(4,), seed=0))
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files if k != drop}
        np.savez(path, **payload)
        with pytest.raises(ValueError) as err:
            load_net(path)
        assert str(err.value).startswith(f"{path}: {drop} is missing; expected dtype kind ")

    def test_kernel_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        k = rng.normal(size=(8, 8))
        k = (k + k.T) / 2
        path = tmp_path / "kernel.npz"
        save_kernel(path, k)
        back = load_kernel(path).matrix
        with np.load(path) as data:
            assert data["step"] == 0 and data["step"].dtype == np.int64
        assert np.array_equal(back, k)

    def test_layout_mismatch_rejected(self, tmp_path):
        net = OrbitalNet(2, 4, hidden=(4,), seed=0)
        path = tmp_path / "net.npz"
        save_net(path, net)
        with pytest.raises(ValueError):
            load_kernel(path)

    def test_bytes_are_those_of_savez_on_the_path(self, tmp_path):
        k = np.arange(9.0).reshape(3, 3)
        save_kernel(tmp_path / "kernel.npz", k)
        np.savez(tmp_path / "direct.npz", version=np.int64(nn.CHECKPOINT_VERSION),
                 layout=np.str_("symmetric-matrix"), step=np.int64(0), matrix=k)
        assert (tmp_path / "kernel.npz").read_bytes() == (tmp_path / "direct.npz").read_bytes()

    def test_path_without_suffix_is_kept(self, tmp_path):
        save_kernel(tmp_path / "kernel", np.eye(2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kernel"]
        assert np.array_equal(load_kernel(tmp_path / "kernel").matrix, np.eye(2))

    @pytest.mark.parametrize("save", [
        lambda path: save_net(path, OrbitalNet(2, 4, hidden=(4,), seed=0)),
        lambda path: save_kernel(path, np.eye(3)),
    ], ids=["net", "kernel"])
    def test_interrupted_save_leaves_no_file(self, tmp_path, monkeypatch, save):
        def interrupted(file, **arrays):
            file.write(b"PK partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save(tmp_path / "ckpt.npz")
        assert list(tmp_path.iterdir()) == []
