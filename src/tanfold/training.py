"""Two-stage training: bare tensors first, effective tensors by fine-tuning.

Stage 1 fits an orbital network plus a symmetric kernel to the bare
tensors across many geometries.  Stage 2 copies those parameters (two
copies of the network for the two-body head, one for one-body), starts
the effective kernel from the bare one, and fine-tunes on the effective
tensors at a small set of reference geometries.  Because the effective
head collapses to the bare head when its two networks coincide, the
fine-tune starts from (numerically) zero excess loss when the effective
data equals the bare data.

The loss is mean squared error over the entries of the nonsymmetric
unit; each canonical representative counts once, without orbit
multiplicity weighting.  Reported metrics are mean absolute error, both
over the unit and over the full expanded tensor.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import reports
from .heads import HeadKind, KernelMatrix, entry_table, head_at_reps, pair_head
from .nn import AdamState, OrbitalNet, adam_step, load_kernel, load_net, save_kernel, save_net
from .tensors import GeometrySeries, Kind

__all__ = [
    "FitReport",
    "GeometryMAE",
    "InteractionModel",
    "TrainConfig",
    "evaluate_mae",
    "finetune_effective",
    "load_model",
    "load_model_kernel",
    "save_model",
    "train_bare",
]

MODEL_FORMAT = "tanfold-model v1"

#: stage-1 kernel init: random symmetric, rescaled so the initial
#: predictions have this fraction of the target RMS (removes the
#: scale-adaption transient at the start of training)
KERNEL_INIT_FRACTION = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    stage: HeadKind
    epochs: int
    batch_size: int
    base_lr: float
    seed: int = 0
    ell: int = 32
    hidden: tuple[int, ...] = (64, 64)
    freeze_orbitals: bool = False
    kernel_polish: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.base_lr <= 0.0:
            raise ValueError("base_lr must be positive")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.freeze_orbitals and not self.kernel_polish:
            raise ValueError("freeze_orbitals needs kernel_polish: with frozen networks "
                             "the loss is linear in the kernel, so the exact solve is the fit")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


@dataclass(frozen=True)
class GeometryMAE:
    geometry: float
    unit_mae: float
    full_mae: float
    split: str  # "train" or "test"


@dataclass(frozen=True)
class FitReport:
    """Losses and per-geometry errors of a run; wall time is informational
    only and excluded from equality."""

    config: TrainConfig
    initial_loss: float
    final_loss: float
    per_geometry: tuple[GeometryMAE, ...]
    wall_time: float = field(compare=False, default=0.0)

    def _mean(self, split: str) -> float:
        vals = [g.unit_mae for g in self.per_geometry if g.split == split]
        return float(np.mean(vals)) if vals else math.nan

    @property
    def train_mae(self) -> float:
        return self._mean("train")

    @property
    def test_mae(self) -> float:
        return self._mean("test")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def _scale(geometry_range, r: float) -> float:
    lo, hi = geometry_range
    return (r - lo) / (hi - lo) if hi > lo else 0.0


@dataclass(eq=False)
class InteractionModel:
    """A trained head: one orbital network per latent family of ``head``
    (two for EFF_TWO, one otherwise) and one symmetric kernel."""

    head: HeadKind
    nets: tuple[OrbitalNet, ...]
    kernel: KernelMatrix
    geometry_range: tuple[float, float]
    system: str = ""

    def __post_init__(self):
        self.nets = tuple(self.nets)
        if len(self.nets) != self.head.n_nets:
            raise ValueError(
                f"head {self.head.name} needs {self.head.n_nets} network(s), got {len(self.nets)}"
            )

    @property
    def n_orb(self) -> int:
        return self.nets[0].n_orb

    def _features(self, net: OrbitalNet, geometry: float) -> np.ndarray:
        x = net.embed(range(net.n_orb), _scale(self.geometry_range, geometry))
        return net.forward(x)

    def predict_full(self, geometry: float) -> np.ndarray:
        """Every entry at one geometry, exactly closed under the head's
        symmetry: the head's value at each orbit representative, spread
        over the orbit."""
        feats = [self._features(net, geometry) for net in self.nets]
        values = head_at_reps(self.head, feats[0], feats[-1], self.kernel.matrix)
        return entry_table(self.head.kind, self.head.body, self.n_orb).expand(values)


# ---------------------------------------------------------------------------
# training engine
# ---------------------------------------------------------------------------

@dataclass
class _Samples:
    x_all: np.ndarray    # (n_geo * n_orb, n_orb + 1) network inputs
    base: np.ndarray     # (N,) row offset of each sample's geometry block
    idx: np.ndarray      # (N, 2) or (N, 4) orbital indices
    y: np.ndarray        # (N,) target entries
    n_orb: int


def _collect_samples(series, kind, geometries, body, net, geometry_range):
    """One sample per orbit representative of each geometry, in order."""
    n = net.n_orb
    table = entry_table(kind, body, n)
    sets = [series.get(g, kind) for g in geometries]
    return _Samples(
        x_all=np.vstack([net.embed(range(n), _scale(geometry_range, g)) for g in geometries]),
        base=np.repeat(np.arange(len(sets), dtype=np.intp) * n, table.rep_flat.size),
        idx=np.tile(table.reps.astype(np.intp), (len(sets), 1)),
        y=np.concatenate([
            (t.one_body if body == 1 else t.two_body).ravel()[table.rep_flat] for t in sets
        ]),
        n_orb=n,
    )


def _orbit_tables(head, samples):
    """Targets and loss weights over every entry of every geometry block.

    Each sample's target fills its whole orbit under the head's symmetry,
    weighted by 1/orbit size.  The head's predictions share that symmetry,
    so the weighted squared error over the blocks is the squared error
    summed over the samples.  :func:`_collect_samples` holds one sample per
    orbit representative, in order, block by block.  Returns the target
    shaped ``(n_geo, m, m)`` with ``m = n_orb**body`` and the weight shaped
    ``(m, m)``, the same for every block.
    """
    n = samples.n_orb
    table = entry_table(head.kind, head.body, n)
    n_geo = samples.x_all.shape[0] // n
    m = n ** head.body
    target = samples.y.reshape(n_geo, -1)[:, table.orbit_of].reshape(n_geo, m, m)
    return target, table.expand(1.0 / table.sizes).reshape(m, m)


def _feature_grads(head, dw, drows, f, ft):
    """``(dW, dPhi, dPhit)`` from the kernel gradient ``dw`` and the
    gradient ``drows`` of every row of the pair-product matrices, shaped
    ``(n_geo, m, ell)``; ``f``/``ft`` are the features of :func:`pair_head`."""
    n_geo, n, ell = f.shape
    dw = 0.5 * (dw + dw.T)
    if head.body == 1:
        return dw, drows.reshape(-1, ell), None
    drows = drows.reshape(n_geo, n, n, ell)
    dphi = np.einsum("gpqk,gqk->gpk", drows, ft).reshape(-1, ell)
    dphit = np.einsum("gpqk,gpk->gqk", drows, f).reshape(-1, ell)
    if head is HeadKind.BARE_TWO:
        return dw, dphi + dphit, None
    return dw, dphi, dphit


def _dense_loss(head, phi, phit, w, tables, inv, with_grads):
    """Full-batch loss and gradients through :func:`pair_head`."""
    target, weight = tables
    pred, (f, ft, rows, rows_w) = pair_head(head, phi, phit, w, target.shape[0])
    ell = w.shape[0]
    diff = pred - target
    wdiff = weight * diff
    loss = float(np.vdot(wdiff, diff)) * inv
    if not with_grads:
        return loss, None, None, None
    # For EFF_TWO, pred, target and weight are exactly invariant under the
    # pair swap, so the swap average passes dpred through unchanged.
    dpred = (2.0 * inv) * wdiff
    dw = rows.reshape(-1, ell).T @ (dpred @ rows).reshape(-1, ell)
    drows = (dpred + dpred.transpose(0, 2, 1)) @ rows_w
    return (loss, *_feature_grads(head, dw, drows, f, ft))


def _pair_rows(head, phi, phit, samples, sel):
    """The distinct pair rows the samples of ``sel`` touch.

    Each sample is the mean over its terms of ``a W b^T``, with ``a`` and
    ``b`` two rows of its geometry's pair-product matrix (:func:`pair_head`);
    EFF_TWO adds the pair-swapped term to the direct one.  A row is keyed by
    its flat index in the dense ``(n_geo, m)`` row space, so each distinct
    row is built once.  Returns ``(uniq, ends, rows, f, ft)``: the sorted
    keys, the positions in ``rows`` of each term's ``(a, b)`` shaped
    ``(n_terms, 2, sel.size)``, the rows, and the features of
    :func:`pair_head`.
    """
    n = samples.n_orb
    ell = phi.shape[1]
    base, idx = samples.base[sel], samples.idx[sel]
    # index columns of the rows (a, b) of each term
    cols = [(0,), (1,)] if head.body == 1 else [(0, 1), (2, 3)]
    if head is HeadKind.EFF_TWO:
        cols += [(1, 0), (3, 2)]
    digits = n ** np.arange(head.body - 1, -1, -1)
    keys = np.concatenate([base * digits[0] + idx[:, c] @ digits for c in cols])
    uniq, ends = np.unique(keys, return_inverse=True)
    f = phi.reshape(-1, n, ell)
    ft = None
    if head.body == 1:
        rows = phi[uniq]
    else:
        tilde = phi if head is HeadKind.BARE_TWO else phit
        ft = tilde.reshape(f.shape)
        p, q = np.divmod(uniq, n)
        rows = phi[p] * tilde[p - p % n + q]
    return uniq, ends.reshape(len(cols) // 2, 2, -1), rows, f, ft


def _row_loss(head, phi, phit, w, samples, sel, with_grads):
    """Loss and gradients over ``sel`` from the distinct pair rows it touches
    (:func:`_pair_rows`), computing each ``R_u W`` once.

    The residual weights go into one sparse matrix ``S`` over the rows
    (block diagonal in the geometries; repeated samples add up), and the
    gradients are the dense form's with ``S`` for ``dpred``:
    ``dW = R^T S R`` and ``dR = (S + S^T) R W`` (W is exactly symmetric).
    """
    uniq, ends, rows, f, ft = _pair_rows(head, phi, phit, samples, sel)
    y = samples.y[sel]
    rows_w = rows @ w
    half = 1.0 / len(ends)
    pred = half * sum(np.einsum("ij,ij->i", rows_w[a], rows[b]) for a, b in ends)
    resid = pred - y
    inv = 1.0 / y.size
    loss = float(resid @ resid) * inv
    if not with_grads:
        return loss, None, None, None
    dv = (2.0 * half * inv) * resid
    from scipy.sparse import csr_matrix  # at first use: `import tanfold.cli` loads no scipy
    s = csr_matrix(
        (np.tile(dv, len(ends)), (ends[:, 0].ravel(), ends[:, 1].ravel())),
        shape=(uniq.size, uniq.size),
    )
    n_geo, n, ell = f.shape
    drows = np.zeros((n_geo * n ** head.body, ell))
    drows[uniq] = (s + s.T) @ rows_w
    return (loss, *_feature_grads(head, rows.T @ (s @ rows), drows, f, ft))


def _batch_loss(head, phi, phit, w, samples, sel, with_grads, tables=None):
    """Loss over ``sel`` plus (dW, dPhi, dPhit) when ``with_grads``.

    With ``tables`` (:func:`_orbit_tables` of ``samples``, for a ``sel``
    that covers every sample) the loss comes from the dense pair-product
    form over every entry of every geometry, whatever the order of ``sel``;
    otherwise it builds only the pair rows the samples of ``sel`` touch,
    which is cheaper when the subset is small against the dense blocks.
    """
    if tables is not None:
        inv = 1.0 / samples.y.size
        return _dense_loss(head, phi, phit, w, tables, inv, with_grads)
    return _row_loss(head, phi, phit, w, samples, sel, with_grads)


def _target_scale(y: np.ndarray) -> float:
    """RMS of the training targets, or 1.0 when they are all zero.

    Training runs on targets divided by this scale and the kernel is
    multiplied back afterwards (predictions are linear in the kernel), so
    optimizer behavior does not depend on the units of the data.  Without
    this, small-magnitude targets push gradients below Adam's epsilon and
    the effective step size collapses.
    """
    rms = float(np.sqrt(np.mean(np.square(y)))) if y.size else 0.0
    return rms if rms > 0.0 else 1.0


def _calibrated_kernel(head, net, samples, ell, seed) -> np.ndarray:
    """Random symmetric kernel rescaled to match the data scale.

    The bilinear head is linear in the kernel, so scaling the kernel by
    ``c`` scales the initial predictions by ``c``.  Choose ``c`` so the
    initial prediction RMS is ``KERNEL_INIT_FRACTION`` of the target RMS,
    which keeps the start of training independent of the units of the
    planted data.  ``mean(pred**2)`` is the loss against zero targets; it
    is not taken as a difference of losses, which would cancel most of its
    digits when the random predictions are small against the targets.
    """
    w1 = KernelMatrix.random(ell, scale=1.0, seed=seed).matrix
    mean_pred_sq = _full_loss(head, [net], w1, replace(samples, y=np.zeros_like(samples.y)))
    mean_y_sq = float(np.mean(np.square(samples.y)))
    if mean_y_sq <= 0.0 or mean_pred_sq <= 0.0:
        return 0.2 * w1
    return KERNEL_INIT_FRACTION * math.sqrt(mean_y_sq / mean_pred_sq) * w1


#: size guard for the exact kernel solve: the entries of its design matrix,
#: the solve's one large array, which LAPACK factors in place (2e8 entries
#: of 8 bytes is 1.6 GB)
_POLISH_LIMIT = 2 * 10**8

#: relative singular-value cutoff for the kernel solve.  Directions of the
#: design matrix below this fraction of the leading singular value are
#: barely constrained by the data; solving along them amplifies roundoff
#: into enormous kernel components, so they are left at ``w_base``.
_POLISH_RCOND = 1e-6

#: entries per row block of the design copied for the polish residual
_RESID_BLOCK = 2**16


def _solve_kernel(head, nets, samples, w_base) -> np.ndarray:
    """Truncated least-squares kernel for the current (frozen) features.

    Predictions are linear in the kernel, so once the networks are fixed
    the optimal symmetric kernel solves an ordinary least-squares problem.
    This returns ``w_base`` plus the minimum-norm correction that attains
    the least-squares optimum over the well-conditioned directions of the
    feature design (cutoff ``_POLISH_RCOND``).  Solving exactly (a) removes
    kernel components invisible to the data, which a stochastic optimizer
    accumulates while the features are still drifting, and (b) when
    fine-tuning keeps the kernel as close as possible to its transferred
    initialization.  Only components the data constrains are changed.

    Each sample predicts ``sum_ij D_ij W_ij`` with ``D`` the mean over its
    terms (:func:`_pair_rows`) of ``(a b^T + b a^T) / 2``.  The design holds
    one row per sample and the ``ell(ell+1)/2`` upper-triangle entries of
    ``D`` as columns, those off the diagonal scaled by ``sqrt(2)``.  That
    packing maps symmetric kernels isometrically (Frobenius norm) onto the
    columns, so the singular values, the cutoff and the minimum-norm kernel
    are those of the dense ``ell**2`` design, at half the unknowns.

    The design is built in Fortran order, and LAPACK's SVD least-squares
    solver ``dgelsd`` factors it in place, so it is held once; NumPy's
    least-squares routine would factor a copy.  Raises ``LinAlgError`` when
    ``dgelsd`` fails, as on a non-finite design.
    """
    ell = w_base.shape[0]
    n = samples.y.size
    iu, ju = np.triu_indices(ell)
    if n * iu.size > _POLISH_LIMIT:
        raise ValueError(
            f"kernel_polish holds one n_samples x ell(ell+1)/2 design in memory, at most "
            f"{_POLISH_LIMIT:g} entries ({8e-9 * _POLISH_LIMIT:.1f} GB); got {n} x {iu.size}"
        )
    phi = nets[0].forward(samples.x_all)
    phit = nets[1].forward(samples.x_all) if len(nets) > 1 else None
    _, ends, rows, *_ = _pair_rows(head, phi, phit, samples, np.arange(n))
    # the design's transpose in C order: the design in Fortran order
    design_t = np.zeros((iu.size, n))
    rows_t = rows.T.copy()
    for a, b in ends:
        ra, rb = rows_t[:, a], rows_t[:, b]
        # kernel row i fills the columns (i, i..ell-1), from its diagonal on
        for i, start in enumerate(np.flatnonzero(iu == ju)):
            seg = design_t[start : start + ell - i]
            seg += rb[i:] * ra[i]
            seg += ra[i:] * rb[i]
    root2 = np.where(iu == ju, 1.0, math.sqrt(2.0))
    design_t *= (root2 / (2 * len(ends)))[:, None]
    # y - D v from C-order copies of row blocks.  Blocks of a multiple of 4
    # rows round as the product with the whole C-order design does on one
    # BLAS thread (its kernel takes rows 4 at a time); ``design_t.T @ v``
    # does not.
    v = w_base[iu, ju] * root2
    k = 4 * max(1, _RESID_BLOCK // (4 * iu.size))
    resid = np.zeros((max(n, iu.size), 1))
    resid[:n, 0] = samples.y - np.concatenate(
        [np.ascontiguousarray(design_t[:, r : r + k].T) @ v for r in range(0, n, k)]
    )
    from scipy.linalg import lapack  # at first use: `import tanfold.cli` loads no scipy

    lwork, liwork, _ = lapack.dgelsd_lwork(n, iu.size, 1, _POLISH_RCOND)
    delta, _, _, info = lapack.dgelsd(
        design_t.T, resid, int(lwork), liwork, _POLISH_RCOND, overwrite_a=1, overwrite_b=1
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"kernel polish: LAPACK dgelsd failed (info {info})")
    delta = delta[: iu.size, 0]
    step = np.zeros_like(w_base)
    step[iu, ju] = step[ju, iu] = delta / root2
    return w_base + step


def _full_loss(head, nets, w, samples) -> float:
    phi = nets[0].forward(samples.x_all)
    phit = nets[1].forward(samples.x_all) if len(nets) > 1 else None
    sel = np.arange(samples.y.size)
    loss, *_ = _batch_loss(
        head, phi, phit, w, samples, sel, False, tables=_orbit_tables(head, samples)
    )
    return loss


def _train_loop(head, nets, w, samples, cfg) -> None:
    """Adam/cosine minimization; mutates ``nets`` and ``w`` in place.

    When one batch holds every sample, the dense tables are built once,
    before the first step, and no permutation is drawn (the dense loss does
    not depend on the order, and the generator serves nothing else).
    """
    n = samples.y.size
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch

    net_grads = [np.empty_like(net.flat) for net in nets]
    params = [net.flat for net in nets] + [w]
    state = AdamState.for_params(params, cfg.base_lr, total_steps)
    tables = _orbit_tables(head, samples) if steps_per_epoch == 1 else None
    rng = np.random.default_rng(cfg.seed)
    every = np.arange(n)

    for epoch in range(cfg.epochs):
        order = every if tables is not None else rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            caches = [net.forward(samples.x_all, with_cache=True) for net in nets]
            loss, dw, dphi, dphit = _batch_loss(
                head, caches[0][0], caches[1][0] if len(caches) > 1 else None, w, samples, sel,
                True, tables=tables,
            )
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, step {state.t}"
                )
            for net, cache, dout, out in zip(nets, caches, (dphi, dphit), net_grads):
                net.backward(cache[1], dout, out)
            adam_step(params, net_grads + [dw], state)


def _fit_stage(series, cfg, nets, geometries, geometry_range, start_kernel, started):
    """The steps both training stages share, on the tensors of
    ``cfg.stage``'s kind at ``geometries``.

    The targets are divided by :func:`_target_scale`;
    ``start_kernel(samples, scale)`` returns the start kernel and the polish
    origin in those units.  Adam trains the networks (in place) and the
    kernel unless the networks are frozen, which :class:`TrainConfig`
    allows only with ``kernel_polish``: the networks would take no step,
    and the solve does not start from Adam's kernel.  With
    ``kernel_polish`` the kernel is then solved for from the polish origin.
    """
    head = cfg.stage
    samples = _collect_samples(series, head.kind, geometries, head.body, nets[0], geometry_range)
    scale = _target_scale(samples.y)
    samples.y = samples.y / scale
    w, polish_from = start_kernel(samples, scale)
    initial = _full_loss(head, nets, w, samples)
    if not cfg.freeze_orbitals:
        _train_loop(head, nets, w, samples, cfg)
    if cfg.kernel_polish:
        w = _solve_kernel(head, nets, samples, polish_from)
    final = _full_loss(head, nets, w, samples)
    sq = scale * scale

    model = InteractionModel(
        head=head,
        nets=nets,
        kernel=KernelMatrix(scale * w, symmetrize=True),
        geometry_range=geometry_range,
        system=series.system,
    )
    report = FitReport(
        config=cfg,
        initial_loss=sq * initial,
        final_loss=sq * final,
        per_geometry=evaluate_mae(model, series, train_geometries=geometries),
        wall_time=time.perf_counter() - started,
    )
    return model, report


# ---------------------------------------------------------------------------
# public pipeline
# ---------------------------------------------------------------------------

#: relative tolerance within which a requested geometry snaps onto a stored one
_GEOMETRY_REL_TOL = 1e-9


def _match_geometries(requested, available, kind: Kind, what: str) -> list[float]:
    """Snap requested geometries onto the exact stored values.

    Stored geometries and user-typed ones (CLI flags, presets) can differ
    in the last bits, so each request maps to the nearest stored value
    within ``_GEOMETRY_REL_TOL``.  A request that matches no stored value,
    or a stored value requested twice, raises ``ValueError`` naming the
    ``what`` geometries.
    """
    avail = np.asarray(sorted(set(float(g) for g in available)), dtype=np.float64)
    matched, missing = [], []
    for r in requested:
        r = float(r)
        if avail.size:
            nearest = float(avail[np.argmin(np.abs(avail - r))])
            if abs(nearest - r) <= _GEOMETRY_REL_TOL * max(1.0, abs(r)):
                matched.append(nearest)
                continue
        missing.append(r)
    if missing:
        raise ValueError(f"no {kind.value} tensors at {what} geometries {missing}")
    repeated = sorted(g for g in set(matched) if matched.count(g) > 1)
    if repeated:
        raise ValueError(f"repeated {what} geometries {repeated}")
    return matched


def evaluate_mae(model, series: GeometrySeries, train_geometries=()) -> tuple[GeometryMAE, ...]:
    """Per-geometry MAE of ``model`` against the matching tensors.

    ``unit_mae`` averages over the nonsymmetric unit (each representative
    once); ``full_mae`` weights by orbit size, i.e. averages over the full
    expanded tensor.  Geometries in ``train_geometries`` are labeled
    "train", all others "test"; each must match a distinct geometry of the
    series.
    """
    kind = model.head.kind
    train_set = set(_match_geometries(train_geometries, series.geometries(kind), kind, "train"))
    table = entry_table(kind, model.head.body, model.n_orb)
    out = []
    for g in series.geometries(kind):
        tset = series.get(g, kind)
        if tset.n_orb != model.n_orb:
            raise ValueError("model and series disagree on n_orb")
        target = tset.one_body if model.head.body == 1 else tset.two_body
        pred = model.predict_full(g)
        err = np.abs(pred - target)
        out.append(
            GeometryMAE(
                geometry=float(g),
                unit_mae=float(np.mean(err.ravel()[table.rep_flat])),
                full_mae=float(err.mean()),
                split="train" if g in train_set else "test",
            )
        )
    return tuple(out)


def train_bare(
    series: GeometrySeries, cfg: TrainConfig, holdout=()
) -> tuple[InteractionModel, FitReport]:
    """Stage 1: fit network and kernel to the bare tensors.

    All bare geometries in ``series`` are used for training except those
    listed in ``holdout``, which are only evaluated; each must match a
    distinct bare geometry.
    """
    if cfg.stage not in (HeadKind.BARE_ONE, HeadKind.BARE_TWO):
        raise ValueError(f"train_bare needs a bare stage, got {cfg.stage.name}")
    started = time.perf_counter()
    all_geos = [float(g) for g in series.geometries(Kind.BARE)]
    held = set(_match_geometries(holdout, all_geos, Kind.BARE, "holdout"))
    train_geos = [g for g in all_geos if g not in held]
    if not train_geos:
        raise ValueError("series contains no bare training geometries")

    net_seed, kernel_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(2)
    )
    net = OrbitalNet(series.n_orb, cfg.ell, hidden=cfg.hidden, seed=net_seed)

    def start_kernel(samples, scale):
        w = _calibrated_kernel(cfg.stage, net, samples, cfg.ell, kernel_seed)
        return w, np.zeros_like(w)

    return _fit_stage(series, cfg, [net], train_geos, (min(all_geos), max(all_geos)),
                      start_kernel, started)


def finetune_effective(
    series: GeometrySeries,
    bare_model: InteractionModel,
    cfg: TrainConfig,
    refs=None,
) -> tuple[InteractionModel, FitReport]:
    """Stage 2: fine-tune on effective tensors at reference geometries.

    The network parameters are copied from the stage-1 model (twice for
    the two-body head) and the kernel starts from the bare kernel, so the
    initial predictions coincide with the stage-1 ones.  ``refs`` defaults
    to every geometry with effective tensors; each must match a distinct
    one.  Other effective geometries are evaluated as the test split.
    """
    if cfg.stage not in (HeadKind.EFF_ONE, HeadKind.EFF_TWO):
        raise ValueError(f"finetune_effective needs an effective stage, got {cfg.stage.name}")
    if bare_model.head.kind is not Kind.BARE:
        raise ValueError(
            f"finetune_effective starts from a stage-1 (bare) model, got head {bare_model.head.name}"
        )
    if cfg.stage.body != bare_model.head.body:
        raise ValueError("stage-1 and stage-2 body ranks disagree")
    started = time.perf_counter()
    available = [float(g) for g in series.geometries(Kind.EFFECTIVE)]
    refs = _match_geometries(available if refs is None else refs, available,
                             Kind.EFFECTIVE, "reference")
    if not refs:
        raise ValueError("need at least one reference geometry")

    def start_kernel(samples, scale):
        w = bare_model.kernel.matrix / scale
        return w, w.copy()

    nets = [bare_model.nets[0].copy() for _ in range(cfg.stage.n_nets)]
    return _fit_stage(series, cfg, nets, sorted(refs), bare_model.geometry_range,
                      start_kernel, started)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_model(model, directory: str | os.PathLike) -> None:
    """Write a model directory: metadata JSON, network(s), kernel."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    nets = model.nets
    net_files = [f"net{i}.npz" for i in range(len(nets))]
    for fname, net in zip(net_files, nets):
        save_net(os.path.join(directory, fname), net)
    save_kernel(os.path.join(directory, "kernel.npz"), model.kernel.matrix)
    meta = {
        "format": MODEL_FORMAT,
        "head": model.head.name,
        "geometry_range": list(model.geometry_range),
        "system": model.system,
        "nets": net_files,
        "kernel": "kernel.npz",
    }
    reports.write_json(os.path.join(directory, "model.json"), meta)


def _model_meta(directory: str) -> dict:
    with open(os.path.join(directory, "model.json")) as fh:
        meta = json.load(fh)
    if meta.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {meta.get('format')!r}")
    return meta


def load_model(directory: str | os.PathLike):
    """Read a directory written by :func:`save_model`."""
    directory = os.fspath(directory)
    meta = _model_meta(directory)
    return InteractionModel(
        head=HeadKind[meta["head"]],
        nets=[load_net(os.path.join(directory, f))[0] for f in meta["nets"]],
        kernel=load_model_kernel(directory),
        geometry_range=tuple(meta["geometry_range"]),
        system=meta.get("system", ""),
    )


def load_model_kernel(directory: str | os.PathLike) -> KernelMatrix:
    """The kernel of a model directory, without reading its networks."""
    directory = os.fspath(directory)
    meta = _model_meta(directory)
    return KernelMatrix(load_kernel(os.path.join(directory, meta["kernel"]))[0])
