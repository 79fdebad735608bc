"""Small dense network for per-orbital latent vectors, with hand-rolled
reverse-mode gradients and an Adam optimizer on a cosine learning-rate
schedule.

This is the only trainable-parameter machinery in the package: a fixed-depth
multilayer perceptron mapping ``one_hot(orbital) ++ [scaled geometry]`` to a
latent vector, SiLU hidden activations, linear output.  Everything is plain
float64 numpy; no autodiff framework is involved, so the backward pass is
spelled out layer by layer and checked against finite differences in the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import savez

__all__ = [
    "OrbitalNet",
    "AdamState",
    "adam_step",
    "cosine_lr",
    "silu",
    "silu_prime",
    "save_net",
    "load_net",
    "save_kernel",
    "load_kernel",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 1


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU activation ``x * sigmoid(x)``.

    :class:`OrbitalNet` computes each layer's sigmoid once and reuses it in
    :meth:`~OrbitalNet.backward`; this and :func:`silu_prime` are the
    reference it is tested against.
    """
    from scipy.special import expit
    return x * expit(x)


def silu_prime(x: np.ndarray) -> np.ndarray:
    """Derivative of SiLU: ``sigmoid(x) * (1 + x * (1 - sigmoid(x)))``."""
    from scipy.special import expit
    s = expit(x)
    return s * (1.0 + x * (1.0 - s))


class OrbitalNet:
    """MLP from ``(one-hot orbital, scaled geometry)`` to a latent vector.

    Parameters
    ----------
    n_orb : int
        Number of orbitals; the input dimension is ``n_orb + 1``.
    output_dim : int
        Latent dimension of the output vector.
    hidden : sequence of int
        Hidden layer widths.
    seed : int
        Seed for the uniform +-sqrt(6/(fan_in+fan_out)) weight init.
        Biases start at zero.

    All parameters live in one contiguous float64 vector, :attr:`flat`
    (each layer's weight matrix, then its bias); :attr:`weights`,
    :attr:`biases` and :attr:`params` are views of it, so one optimizer
    update covers the whole network.
    """

    def __init__(self, n_orb: int, output_dim: int, hidden=(200, 200, 200), seed: int = 0):
        if n_orb < 1 or output_dim < 1 or any(h < 1 for h in hidden):
            raise ValueError("network dimensions must be positive")
        sizes = [int(n_orb) + 1, *map(int, hidden), int(output_dim)]
        self._bind(sizes, seed, np.zeros(sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))))
        rng = np.random.default_rng(self.seed)
        for w in self.weights:
            fan_in, fan_out = w.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))

    # -- parameter plumbing ---------------------------------------------------

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of ``flat`` shaped like :attr:`params`: each layer's weight
        matrix, then its bias, back to back in one contiguous vector."""
        out, start = [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            out.append(flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
            start += fan_in * fan_out
            out.append(flat[start : start + fan_out])
            start += fan_out
        return out

    def _bind(self, sizes, seed: int, flat: np.ndarray) -> None:
        """Set the layer widths ``sizes`` and the init ``seed``, and make
        ``flat`` the parameter vector; weights and biases view it."""
        self.sizes = list(sizes)
        self.n_orb = self.sizes[0] - 1
        self.output_dim = self.sizes[-1]
        self.seed = int(seed)
        self.flat = flat
        views = self.views(flat)
        self.weights: list[np.ndarray] = views[0::2]
        self.biases: list[np.ndarray] = views[1::2]

    @property
    def params(self) -> list[np.ndarray]:
        """Parameter arrays, alternating weight/bias per layer; views of
        :attr:`flat`."""
        return self.views(self.flat)

    @classmethod
    def _bound(cls, sizes, seed: int, flat: np.ndarray) -> "OrbitalNet":
        """The network of layer widths ``sizes`` whose parameters are
        ``flat``, bound as they are: no initialization is drawn."""
        net = cls.__new__(cls)
        net._bind(sizes, seed, flat)
        return net

    def copy(self) -> "OrbitalNet":
        return OrbitalNet._bound(self.sizes, self.seed, self.flat.copy())

    # -- evaluation -----------------------------------------------------------

    def embed(self, orbitals, r_norm) -> np.ndarray:
        """Input rows ``one_hot(orbital) ++ [r_norm]`` for aligned arrays."""
        orbitals = np.atleast_1d(np.asarray(orbitals, dtype=np.intp))
        r_norm = np.broadcast_to(np.asarray(r_norm, dtype=np.float64), orbitals.shape)
        if orbitals.min(initial=0) < 0 or orbitals.max(initial=0) >= self.n_orb:
            raise ValueError("orbital index out of range")
        x = np.zeros((orbitals.size, self.n_orb + 1))
        x[np.arange(orbitals.size), orbitals] = 1.0
        x[:, -1] = r_norm
        return x

    def forward(self, x: np.ndarray, with_cache: bool = False):
        """Batched forward pass.

        ``x`` has shape ``(batch, n_orb + 1)``.  With ``with_cache=True``
        returns ``(y, cache)`` where the cache holds what :meth:`backward`
        needs: every layer's input and each hidden layer's pre-activation
        ``z`` and sigmoid ``expit(z)``.
        """
        from scipy.special import expit  # at first use: `import tanfold.cli` loads no scipy
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ValueError(f"input shape {x.shape} incompatible with {self.sizes[0]} features")
        activations = [x]
        pre, sig = [], []
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w
            z += b
            if i < last:
                s = expit(z)
                a = z * s  # silu(z)
                pre.append(z)
                sig.append(s)
                activations.append(a)
            else:
                a = z
        if with_cache:
            return a, (activations, pre, sig)
        return a

    def backward(self, cache, grad_out: np.ndarray, out: np.ndarray | None = None):
        """Gradients of ``sum(grad_out * forward(x))`` w.r.t. parameters.

        Returns ``(grads, grad_x)`` with ``grads`` ordered like
        :attr:`params`: views of ``out`` (a vector shaped like :attr:`flat`,
        allocated when None), which receives the whole gradient.
        """
        activations, pre, sig = cache
        if out is None:
            out = np.empty_like(self.flat)
        grads = self.views(out)
        delta = np.asarray(grad_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, delta, out=grads[2 * i])
            np.sum(delta, axis=0, out=grads[2 * i + 1])
            delta = delta @ self.weights[i].T
            if i > 0:
                # silu'(z) = s (1 + z (1 - s)) from the cached s = expit(z)
                s = sig[i - 1]
                d = 1.0 - s
                d *= pre[i - 1]
                d += 1.0
                d *= s
                delta *= d
        return grads, delta


# ----------------------------------------------------------------------------
# Adam with a cosine learning-rate schedule
# ----------------------------------------------------------------------------


def cosine_lr(base_lr: float, t: int, total_steps: int) -> float:
    """Learning rate at step ``t`` (1-based): ``base_lr/2 (1 + cos(pi t/T))``."""
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * min(t, total_steps) / total_steps))


@dataclass
class AdamState:
    """First/second moment accumulators plus the schedule bookkeeping."""

    base_lr: float
    total_steps: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, base_lr: float, total_steps: int, **kw) -> "AdamState":
        state = cls(base_lr=base_lr, total_steps=total_steps, **kw)
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        return state


#: Adam updates a larger parameter array in slices of this many elements,
#: so the slices of p, g, m, v and the two scratch blocks stay in the L2 cache
ADAM_BLOCK = 1 << 15


def _adam_pieces(p, g, m, v, scratch):
    """``(p, g, m, v, u, den)`` pieces of one array's update.

    A C-contiguous array above ``ADAM_BLOCK`` elements is cut into flat
    slices (views, so the update writes through them), and the two rows of
    ``scratch`` hold its temporaries ``u`` and ``den``; any other array is
    one piece with ``u = den = None``, and the update allocates them.
    """
    if p.size <= ADAM_BLOCK or not (
        p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous
    ):
        yield p, g, m, v, None, None
        return
    flat = [a.reshape(-1) for a in (p, g, m, v)]
    for start in range(0, p.size, ADAM_BLOCK):
        piece = [a[start : start + ADAM_BLOCK] for a in flat]
        yield *piece, *(b[: piece[0].size] for b in scratch)


def adam_step(params, grads, state: AdamState) -> float:
    """One in-place Adam update; returns the learning rate that was applied.

    Raises ``FloatingPointError`` on non-finite gradients, leaving the
    parameters untouched.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("params/grads/state length mismatch")
    for g in grads:
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient in adam_step")
    state.t += 1
    lr = cosine_lr(state.base_lr, state.t, state.total_steps)
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), spelled out in place with
    # the same operations in the same order, so every value is unchanged;
    # the operations are elementwise, so any slicing gives the same bits
    scratch = np.empty((2, min(ADAM_BLOCK, max((p.size for p in params), default=0))))
    for arrays in zip(params, grads, state.m, state.v):
        for p, g, m, v, u, den in _adam_pieces(*arrays, scratch):
            u = np.multiply(g, 1.0 - b1, out=u)
            m *= b1
            m += u
            np.square(g, out=u)
            u *= 1.0 - b2
            v *= b2
            v += u
            den = np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += eps
            np.divide(m, bc1, out=u)
            u *= lr
            u /= den
            p -= u
    return lr


# ----------------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------------


def save_net(path, net: OrbitalNet, step: int = 0) -> None:
    """Write a network checkpoint; round-trips parameters bit for bit."""
    payload = {
        "version": np.int64(CHECKPOINT_VERSION),
        "layout": np.str_("orbital-net"),
        "sizes": np.asarray(net.sizes, dtype=np.int64),
        "seed": np.int64(net.seed),
        "step": np.int64(step),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    savez(path, **payload)


def _read_checkpoint(path, layout: str, keys) -> dict[str, np.ndarray]:
    """The arrays of the checkpoint archive at ``path``.

    The archive must hold ``version``, ``layout`` and ``keys``, each stored
    as an array, with this package's version and ``layout``; a member that
    is missing or not an array is named with the file.
    """
    with np.load(path) as data:
        stored = {key: data[key] for key in data.files}
    missing = [k for k in ("version", "layout", *keys) if k not in stored]
    if "version" in missing or "layout" in missing:
        raise ValueError(f"{path}: not a tanfold {layout} checkpoint; missing {', '.join(missing)}")
    raw = [k for k, v in stored.items() if not isinstance(v, np.ndarray)]
    if raw:
        raise ValueError(f"{path}: not stored as arrays: {', '.join(raw)}")
    if int(stored["version"]) != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {int(stored['version'])} != {CHECKPOINT_VERSION}")
    if str(stored["layout"]) != layout:
        raise ValueError(f"{path}: checkpoint layout {stored['layout']!r}, expected {layout!r}")
    if missing:
        raise ValueError(f"{path}: {layout} checkpoint missing {', '.join(missing)}")
    return stored


def load_net(path) -> tuple[OrbitalNet, int]:
    """Read a checkpoint written by :func:`save_net`."""
    data = _read_checkpoint(path, "orbital-net", ("sizes", "seed", "step"))
    sizes = data["sizes"].tolist()
    if len(sizes) < 2 or sizes[0] < 2 or min(sizes) < 1:
        raise ValueError(f"{path}: bad layer widths {sizes}")
    parts = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        for key, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
            if key not in data:
                raise ValueError(f"{path}: orbital-net checkpoint missing {key}")
            if data[key].shape != shape:
                raise ValueError(f"{path}: {key} has shape {data[key].shape}, expected {shape}")
            parts.append(data[key].ravel())
    flat = np.concatenate(parts).astype(np.float64, copy=False)
    return OrbitalNet._bound(sizes, int(data["seed"]), flat), int(data["step"])


def save_kernel(path, matrix, step: int = 0) -> None:
    """Write a symmetric kernel matrix in the shared checkpoint container.

    ``matrix`` may be a plain array or any wrapper exposing ``.matrix``.
    """
    matrix = np.asarray(getattr(matrix, "matrix", matrix), dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"kernel must be square, got shape {matrix.shape}")
    savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        layout=np.str_("symmetric-matrix"),
        step=np.int64(step),
        matrix=matrix,
    )


def load_kernel(path) -> tuple[np.ndarray, int]:
    data = _read_checkpoint(path, "symmetric-matrix", ("step", "matrix"))
    return data["matrix"], int(data["step"])
