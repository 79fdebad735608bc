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
        for pi, p in enumerate(net.params):
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
        assert net.flat.ndim == 1 and net.flat.flags.c_contiguous
        assert net.flat.size == sum(p.size for p in net.params)
        assert np.array_equal(net.flat, np.concatenate([p.ravel() for p in net.params]))
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
        assert all(np.shares_memory(p, twin.flat) for p in twin.params)

    def test_loaded_nets_have_their_own_buffers(self, tmp_path):
        net = OrbitalNet(3, 5, hidden=(7, 6), seed=4)
        net.flat += 0.1
        path = tmp_path / "net.npz"
        save_net(path, net)
        a, _ = load_net(path)
        b, _ = load_net(path)
        assert np.array_equal(a.flat, net.flat)
        assert all(np.shares_memory(p, a.flat) for p in a.params)
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
    b1, b2 = state.beta1, state.beta2
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * np.square(g)
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + state.eps)


def whole_array_adam(params, grads, state):
    """Reference: the in-place update over whole arrays, with its two
    full-size temporaries per array (the same ufuncs in the same order)."""
    state.t += 1
    lr = cosine_lr(state.base_lr, state.t, state.total_steps)
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
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


class TestBlockedAdam:
    @staticmethod
    def stage_two_arrays(rng):
        # the data-hf stage-2 parameter count: two network vectors and the
        # ell-300 kernel, 375 400 values
        return [rng.standard_normal(142_700), rng.standard_normal(142_700),
                rng.standard_normal((300, 300))]

    @pytest.mark.parametrize("block", [7, 1 << 13, 1 << 15, 1 << 16, 1 << 20])
    def test_blocks_equal_whole_array_update_bitwise(self, monkeypatch, block):
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        rng = np.random.default_rng(block)
        params = self.stage_two_arrays(rng)
        ref = [p.copy() for p in params]
        state = AdamState.for_params(params, base_lr=0.01, total_steps=5)
        ref_state = AdamState.for_params(ref, base_lr=0.01, total_steps=5)
        for _ in range(3):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2) for p in params]
            assert adam_step(params, grads, state) == whole_array_adam(ref, grads, ref_state)
        for got, want in zip((*params, *state.m, *state.v), (*ref, *ref_state.m, *ref_state.v)):
            assert np.array_equal(got, want)

    def test_strided_parameters_update_whole(self, monkeypatch):
        monkeypatch.setattr(nn, "ADAM_BLOCK", 5)
        rng = np.random.default_rng(2)
        base = rng.standard_normal((12, 20))
        params, ref, others = [base[:, ::2]], [base[:, ::2].copy()], base[:, 1::2].copy()
        state = AdamState.for_params(params, base_lr=0.01, total_steps=5)
        ref_state = AdamState.for_params(ref, base_lr=0.01, total_steps=5)
        for _ in range(3):
            grads = [rng.standard_normal((12, 10))]
            adam_step(params, grads, state)
            whole_array_adam(ref, grads, ref_state)
        assert np.array_equal(params[0], ref[0])
        assert np.array_equal(base[:, 1::2], others)

    def test_late_non_finite_block_leaves_every_block_untouched(self, monkeypatch):
        monkeypatch.setattr(nn, "ADAM_BLOCK", 1000)
        rng = np.random.default_rng(3)
        params = self.stage_two_arrays(rng)
        state = AdamState.for_params(params, base_lr=0.01, total_steps=5)
        snapshot = [p.copy() for p in params]
        grads = [rng.standard_normal(p.shape) for p in params]
        grads[-1][-1, -1] = np.inf
        with pytest.raises(FloatingPointError):
            adam_step(params, grads, state)
        assert state.t == 0
        assert all(np.array_equal(a, b) for a, b in zip(params, snapshot))
        assert not any(m.any() or v.any() for m, v in zip(state.m, state.v))


class TestFlatAdam:
    @staticmethod
    def nets_and_kernel():
        nets = [OrbitalNet(4, 8, hidden=(16, 12), seed=s) for s in (1, 2)]
        w = np.random.default_rng(3).standard_normal((8, 8))
        return nets, w + w.T

    def test_flat_update_equals_per_array_recursion_bitwise(self):
        nets, w = self.nets_and_kernel()
        ref_nets, ref_w = [net.copy() for net in nets], w.copy()
        params = [net.flat for net in nets] + [w]
        state = AdamState.for_params(params, base_lr=0.01, total_steps=7)
        ref_params = [p for net in ref_nets for p in net.params] + [ref_w]
        ref_m = [np.zeros_like(p) for p in ref_params]
        ref_v = [np.zeros_like(p) for p in ref_params]
        rng = np.random.default_rng(4)
        for t in range(1, 6):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2) for p in params]
            ref_grads = [g for net, flat in zip(nets, grads) for g in net.views(flat)] + [grads[-1]]
            adam_step(params, grads, state)
            reference_adam(ref_params, ref_grads, ref_m, ref_v, t, state)
            assert state.t == t
            for net, ref in zip(nets, ref_nets):
                assert np.array_equal(net.flat, ref.flat)
            assert np.array_equal(w, ref_w)
            flat_m = [m for net, mm in zip(nets, state.m) for m in net.views(mm)] + [state.m[-1]]
            assert all(np.array_equal(a, b) for a, b in zip(flat_m, ref_m))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_finite_gradient_leaves_everything_untouched(self, bad):
        nets, w = self.nets_and_kernel()
        params = [net.flat for net in nets] + [w]
        state = AdamState.for_params(params, base_lr=0.01, total_steps=10)
        rng = np.random.default_rng(5)
        for _ in range(2):
            adam_step(params, [rng.standard_normal(p.shape) for p in params], state)
        snapshot = [a.copy() for a in (*params, *state.m, *state.v)]
        grads = [rng.standard_normal(p.shape) for p in params]
        grads[bad].flat[grads[bad].size // 2] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(params, grads, state)
        assert state.t == 2
        for a, b in zip((*params, *state.m, *state.v), snapshot):
            assert np.array_equal(a, b)


class TestAdam:
    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(0.4, 1000, 1000) == pytest.approx(0.0, abs=1e-16)
        assert cosine_lr(0.4, 500, 1000) == pytest.approx(0.2)
        assert cosine_lr(0.4, 1, 1000) == pytest.approx(0.4, rel=1e-4)

    def test_single_step_magnitude(self):
        # with |g| >> eps the first bias-corrected step has magnitude ~= lr(1)
        p = [np.array([1.0])]
        g = [np.array([0.5])]
        state = AdamState.for_params(p, base_lr=0.01, total_steps=100)
        lr = adam_step(p, g, state)
        assert lr == pytest.approx(cosine_lr(0.01, 1, 100))
        assert abs(1.0 - p[0][0]) == pytest.approx(lr, rel=1e-7)
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
        p = [np.array([2.0])]
        state = AdamState.for_params(p, base_lr=lr0, total_steps=T)
        adam_step(p, [np.array([g])], state)
        adam_step(p, [np.array([g])], state)
        assert p[0][0] == pytest.approx(x_ref, rel=1e-14)

    def test_non_finite_gradient_rejected(self):
        p = [np.array([1.0])]
        state = AdamState.for_params(p, base_lr=0.1, total_steps=10)
        with pytest.raises(FloatingPointError):
            adam_step(p, [np.array([np.nan])], state)
        assert p[0][0] == 1.0 and state.t == 0

    def test_deterministic_trajectory(self):
        def run():
            net = OrbitalNet(2, 4, hidden=(8,), seed=0)
            x = net.embed([0, 1], [0.2, 0.8])
            target = np.ones((2, 4))
            state = AdamState.for_params(net.params, base_lr=1e-3, total_steps=50)
            for _ in range(50):
                y, cache = net.forward(x, with_cache=True)
                grads, _ = net.backward(cache, 2 * (y - target) / y.size)
                adam_step(net.params, grads, state)
            return net.forward(x)

        assert np.array_equal(run(), run())


class TestCheckpoints:
    def test_net_roundtrip_bit_exact(self, tmp_path):
        net = OrbitalNet(4, 16, hidden=(32, 32), seed=9)
        path = tmp_path / "net.npz"
        save_net(path, net, step=123)
        back, step = load_net(path)
        assert step == 123
        assert back.sizes == net.sizes
        for a, b in zip(net.params, back.params):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("sizes", [(3, 1, ()), (8, 300, (200, 200, 200))])
    def test_load_draws_no_initialization(self, tmp_path, monkeypatch, sizes):
        n_orb, output_dim, hidden = sizes
        net = OrbitalNet(n_orb, output_dim, hidden=hidden, seed=5)
        net.flat[-4:] = [-0.0, 5e-324, np.nan, -np.inf]
        path = tmp_path / "net.npz"
        save_net(path, net, step=3)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_net drew an initialization")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back, step = load_net(path)
        twin = back.copy()
        assert step == 3
        for other in (back, twin):
            assert (other.n_orb, other.output_dim, other.sizes, other.seed) == (
                net.n_orb, net.output_dim, net.sizes, net.seed)
            assert other.flat.dtype == np.float64 and other.flat.tobytes() == net.flat.tobytes()
            assert all(np.shares_memory(p, other.flat) for p in other.params)
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

    @pytest.mark.parametrize("load, keys", [
        (load_net, "version, layout, sizes, seed, step"),
        (load_kernel, "version, layout, step, matrix"),
    ], ids=["net", "kernel"])
    def test_foreign_archive_names_file_and_missing_keys(self, tmp_path, load, keys):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.eye(3))
        with pytest.raises(ValueError) as err:
            load(path)
        layout = "orbital-net" if load is load_net else "symmetric-matrix"
        assert str(err.value) == f"{path}: not a tanfold {layout} checkpoint; missing {keys}"

    @pytest.mark.parametrize("drop", ["step", "w1", "b0"])
    def test_load_rejects_missing_entry(self, tmp_path, drop):
        path = tmp_path / "net.npz"
        save_net(path, OrbitalNet(2, 4, hidden=(4,), seed=0))
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files if k != drop}
        np.savez(path, **payload)
        with pytest.raises(ValueError) as err:
            load_net(path)
        assert str(err.value) == f"{path}: orbital-net checkpoint missing {drop}"

    def test_kernel_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        k = rng.normal(size=(8, 8))
        k = (k + k.T) / 2
        path = tmp_path / "kernel.npz"
        save_kernel(path, k, step=7)
        back, step = load_kernel(path)
        assert step == 7
        assert np.array_equal(back, k)

    def test_layout_mismatch_rejected(self, tmp_path):
        net = OrbitalNet(2, 4, hidden=(4,), seed=0)
        path = tmp_path / "net.npz"
        save_net(path, net)
        with pytest.raises(ValueError):
            load_kernel(path)

    def test_bytes_are_those_of_savez_on_the_path(self, tmp_path):
        k = np.arange(9.0).reshape(3, 3)
        save_kernel(tmp_path / "kernel.npz", k, step=2)
        np.savez(tmp_path / "direct.npz", version=np.int64(nn.CHECKPOINT_VERSION),
                 layout=np.str_("symmetric-matrix"), step=np.int64(2), matrix=k)
        assert (tmp_path / "kernel.npz").read_bytes() == (tmp_path / "direct.npz").read_bytes()

    def test_path_without_suffix_is_kept(self, tmp_path):
        save_kernel(tmp_path / "kernel", np.eye(2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kernel"]
        assert np.array_equal(load_kernel(tmp_path / "kernel")[0], np.eye(2))

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
