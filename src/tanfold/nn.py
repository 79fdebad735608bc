"""Small dense network for per-orbital latent vectors, with hand-rolled
reverse-mode gradients, an Adam optimizer on a cosine learning-rate
schedule, and the checkpoint files of networks and kernels.

This is the only trainable-parameter machinery in the package: a fixed-depth
multilayer perceptron mapping ``one_hot(orbital) ++ [scaled geometry]`` to a
latent vector, SiLU hidden activations, linear output, in plain float64
numpy with the backward pass spelled out layer by layer.  Adam updates one
contiguous parameter vector: a training stage keeps its networks and its
kernel as views of one such vector.  A checkpoint reader reads only the
members it names, each checked against one table of shapes and dtype kinds.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .atomic import read_npz, savez
from .heads import KernelMatrix, fill

__all__ = [
    "OrbitalNet",
    "AdamState",
    "adam_step",
    "cosine_lr",
    "silu",
    "silu_prime",
    "scale_geometry",
    "save_net",
    "load_net",
    "save_kernel",
    "load_kernel",
    "CHECKPOINT_VERSION",
]

#: every checkpoint also stores a ``step`` member, always 0
CHECKPOINT_VERSION = 1


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sigmoid ``1 / (1 + exp(-z))``, written into ``out`` when given.
    Below z = -709.78, exp(-z) overflows to inf and the quotient is exactly
    0; such overflow and underflow are expected, so they are not reported."""
    with np.errstate(over="ignore", under="ignore"):
        t = np.exp(np.negative(z, out=out), out=out)
        t += 1.0
        return np.divide(1.0, t, out=out)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU activation ``x * sigmoid(x)``.

    :class:`OrbitalNet` computes each layer's sigmoid once and reuses it in
    :meth:`~OrbitalNet.backward`; this and :func:`silu_prime` are the
    reference it is tested against.
    """
    return x * _sigmoid(x)


def silu_prime(x: np.ndarray) -> np.ndarray:
    """Derivative of SiLU: ``sigmoid(x) * (1 + x * (1 - sigmoid(x)))``."""
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def scale_geometry(geometry_range, r: float) -> float:
    """Geometry ``r`` mapped onto [0, 1] over ``geometry_range = (lo, hi)``:
    the ``r_norm`` input of :meth:`OrbitalNet.embed` (0 for a single point)."""
    lo, hi = geometry_range
    return (r - lo) / (hi - lo) if hi > lo else 0.0


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
    (each layer's weight matrix, then its bias); :attr:`weights` and
    :attr:`biases` are views of it, so one optimizer update covers the
    whole network.  :meth:`move_to` puts that vector inside a larger one.
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
        """Views of ``flat`` shaped like the parameters: each layer's weight
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

    def move_to(self, flat: np.ndarray) -> None:
        """Copy the parameters into ``flat``, a contiguous float64 vector
        of :attr:`flat`'s size, and make it the parameter vector."""
        if flat.shape != self.flat.shape or not flat.flags.c_contiguous:
            raise ValueError(f"need a contiguous vector of {self.flat.size} parameters")
        flat[...] = self.flat
        self._bind(self.sizes, self.seed, flat)

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

    def forward(self, x: np.ndarray, with_cache: bool = False, cache: dict | None = None):
        """Batched forward pass.

        ``x`` has shape ``(batch, n_orb + 1)``.  With ``with_cache=True``
        returns ``(y, cache)`` where the cache holds what :meth:`backward`
        needs: every layer's input and each hidden layer's pre-activation
        ``z`` and sigmoid ``1 / (1 + exp(-z))``.  A ``cache`` that an
        earlier call returned, for an input of the same shape, is refilled
        in place of a new one: handing it back overwrites its arrays, the
        ``y`` returned with it included.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ValueError(f"input shape {x.shape} incompatible with {self.sizes[0]} features")
        cache = {} if cache is None else cache
        cache["a", 0] = a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = fill(cache, ("z", i), np.matmul, a, w)
            z += b
            if i < last:
                s = fill(cache, ("s", i), _sigmoid, z)
                a = fill(cache, ("a", i + 1), np.multiply, z, s)  # silu(z)
        if with_cache:
            return z, cache
        return z

    def backward(self, cache, grad_out: np.ndarray, out: np.ndarray | None = None):
        """Gradients of ``sum(grad_out * forward(x))`` w.r.t. parameters.

        Returns ``(grads, grad_x)`` with ``grads`` the :meth:`views` of
        ``out`` (a vector shaped like :attr:`flat`, allocated when None),
        which receives the whole gradient.  The deltas, ``grad_x`` among
        them, are arrays of ``cache``: the next backward pass from that
        cache overwrites them.
        """
        if out is None:
            out = np.empty_like(self.flat)
        grads = self.views(out)
        delta = np.asarray(grad_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            w = self.weights[i]
            np.matmul(cache["a", i].T, delta, out=grads[2 * i])
            np.add.reduce(delta, axis=0, out=grads[2 * i + 1])  # np.sum, without its wrapper
            # two arrays of each shape take turns: layer i's delta goes where
            # the silu' factor of layer i + 1 was, its silu' factor where the
            # delta it was computed from was; both are dead by then
            delta = fill(cache, ("delta", i % 2, (len(delta), w.shape[0])), np.matmul, delta, w.T)
            if i > 0:
                # silu'(z) = s (1 + z (1 - s)) from the cached s = sigmoid(z)
                s = cache["s", i - 1]
                d = fill(cache, ("delta", (i + 1) % 2, s.shape), np.subtract, 1.0, s)
                d *= cache["z", i - 1]
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
    """First/second moment vectors of a parameter vector of ``size`` values,
    the schedule bookkeeping, and the two scratch blocks of
    :func:`adam_step`."""

    size: InitVar[int]
    base_lr: float
    total_steps: int
    t: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    scratch: np.ndarray = field(init=False)

    def __post_init__(self, size):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty((2, min(ADAM_BLOCK, size)))


#: Adam's moment decay rates and the floor of its step's denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

#: Adam updates its vector in slices of this many elements, so the slices
#: of p, g, m, v and the two scratch blocks stay in the L2 cache
ADAM_BLOCK = 1 << 15


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState) -> float:
    """One in-place Adam update of the contiguous vector ``p`` with the
    gradient ``g``; returns the learning rate that was applied.

    Raises ``ValueError`` unless ``p`` and ``g`` are contiguous 1-D vectors
    of the moments' shape, and ``FloatingPointError`` on a non-finite
    gradient, leaving the parameters untouched.
    """
    for a in (p, g):
        if a.ndim != 1 or not a.flags.c_contiguous or a.shape != state.m.shape:
            raise ValueError(f"adam_step needs contiguous {state.m.shape} vectors, got {a.shape}")
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient in adam_step")
    state.t += 1
    lr = cosine_lr(state.base_lr, state.t, state.total_steps)
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), spelled out in place;
    # the operations are elementwise, so the slicing changes no bit
    for start in range(0, p.size, ADAM_BLOCK):
        piece = slice(start, start + ADAM_BLOCK)
        pp, gg, m, v = p[piece], g[piece], state.m[piece], state.v[piece]
        u, den = state.scratch[:, : pp.size]
        np.multiply(gg, 1.0 - ADAM_BETA1, out=u)
        m *= ADAM_BETA1
        m += u
        np.square(gg, out=u)
        u *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += u
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(m, bc1, out=u)
        u *= lr
        u /= den
        pp -= u
    return lr


# ----------------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------------


def _layers(sizes) -> dict[str, tuple[int, int] | tuple[int]]:
    """Names and shapes of a network checkpoint's layers, in :meth:`OrbitalNet.views` order."""
    return {key: shape for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:]))
            for key, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,)))}


def save_net(path, net: OrbitalNet) -> None:
    """Write a network checkpoint; round-trips parameters bit for bit."""
    savez(path, version=np.int64(CHECKPOINT_VERSION), layout=np.str_("orbital-net"),
          sizes=np.asarray(net.sizes, dtype=np.int64), seed=np.int64(net.seed), step=np.int64(0),
          **dict(zip(_layers(net.sizes), net.views(net.flat))))


#: the members every checkpoint holds, in the table form of :func:`_read_checkpoint`
_HEADER = {"version": ((), "iu"), "layout": ((), "U"), "step": ((), "iu")}


def _read_checkpoint(data, path, layout: str | None, members) -> dict[str, np.ndarray]:
    """The ``members`` of the open archive ``data`` read from ``path``, each
    checked against that table: name -> (shape, None for any length; dtype
    kinds).  With a ``layout``, the ``_HEADER`` members come first and must
    carry this version and ``layout``.  No other member is read, and every
    error names the file."""
    if layout is not None:
        head = _read_checkpoint(data, path, None, _HEADER)
        if (int(head["version"]), str(head["layout"])) != (CHECKPOINT_VERSION, layout):
            raise ValueError(f"{path}: checkpoint version {head['version']}, layout "
                             f"{str(head['layout'])!r}; expected {CHECKPOINT_VERSION}, {layout!r}")
    out = {}
    for name, (shape, kinds) in members.items():
        try:
            out[name] = value = data.get(name)
        except ValueError as exc:  # an object array, or a malformed .npy header
            raise ValueError(f"{path}: {name}: {exc}") from None
        if not (isinstance(value, np.ndarray) and value.dtype.kind in kinds and value.ndim == len(shape)
                and all(n in (None, m) for n, m in zip(shape, value.shape))):
            got = ("missing" if value is None else "not an .npy array" if isinstance(value, bytes)
                   else f"{value.dtype} of shape {value.shape}")
            raise ValueError(f"{path}: {name} is {got}; expected dtype kind {kinds!r}, shape {shape}")
    return out


def load_net(path) -> OrbitalNet:
    """Read a :func:`save_net` checkpoint: ``sizes`` and ``seed``, then the layers they imply."""
    with read_npz(path) as data:
        head = _read_checkpoint(data, path, "orbital-net", {"sizes": ((None,), "iu"), "seed": ((), "iu")})
        sizes = head["sizes"].tolist()
        if len(sizes) < 2 or sizes[0] < 2 or min(sizes) < 1:
            raise ValueError(f"{path}: bad layer widths {sizes}")
        layers = _read_checkpoint(data, path, None, {k: (s, "f") for k, s in _layers(sizes).items()})
    flat = np.concatenate([a.ravel() for a in layers.values()]).astype(np.float64, copy=False)
    return OrbitalNet._bound(sizes, int(head["seed"]), flat)


def save_kernel(path, matrix) -> None:
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
        step=np.int64(0),
        matrix=matrix,
    )


def load_kernel(path, planted: str | None = None) -> KernelMatrix:
    """The kernel of a :func:`save_kernel` checkpoint, or the member
    ``planted`` of an archive that holds one, without a checkpoint header (a
    plant's ``provenance.npz``); every error names the file."""
    with read_npz(path) as data:
        name, layout = (planted, None) if planted in data.files else ("matrix", "symmetric-matrix")
        matrix = _read_checkpoint(data, path, layout, {name: ((None, None), "f")})[name]
    try:
        return KernelMatrix(matrix)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
