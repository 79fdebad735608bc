"""Tests for the two-stage training pipeline.

The gradient of the training loss is checked against central finite
differences for every head, including symmetric perturbations of the
kernel (the trainer keeps the kernel exactly symmetric, so its gradient
is reported in symmetrized form).  Fine-tuning must start from the
stage-1 model's own loss on the effective unit, bit for bit, and from
numerically zero loss when the effective data coincides with the bare
data.  Reports and checkpoints must be deterministic and round-trip
exactly.
"""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from tanfold import training as tr
from tanfold.heads import HeadKind, KernelMatrix, eval_bare_two, eval_eff_two, eval_one
from tanfold.nn import OrbitalNet
from tanfold.presets import plant_preset
from tanfold.synth import PlantSpec, plant_series
from tanfold.tensors import (
    GeometrySeries,
    Kind,
    TensorSet,
    nonsymmetric_unit,
    one_body_unit,
    symmetry_for,
    two_body_representatives,
)
from tanfold.training import (
    FitReport,
    GeometryMAE,
    InteractionModel,
    TrainConfig,
    evaluate_mae,
    finetune_effective,
    load_model,
    load_model_kernel,
    save_model,
    train_bare,
)

SMALL = PlantSpec(
    n_orb=3,
    ell=8,
    geometries=(1.0, 1.5, 2.0),
    rate=2.0e-2,
    amplitude=2.0e-4,
    center=4.0,
    seed=5,
)


@pytest.fixture(scope="module")
def small_series():
    return plant_series(SMALL).series


def quick_config(stage, **kw):
    base = dict(epochs=5, batch_size=16, base_lr=3e-3, seed=1, ell=8, hidden=(12,))
    base.update(kw)
    return TrainConfig(stage=stage, **base)


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def _setup_head(head, series):
    geos = [float(g) for g in series.geometries(head.kind)]
    rng_net = OrbitalNet(SMALL.n_orb, SMALL.ell, hidden=(10,), seed=11)
    nets = [rng_net]
    if head is HeadKind.EFF_TWO:
        nets.append(OrbitalNet(SMALL.n_orb, SMALL.ell, hidden=(10,), seed=12))
    w = KernelMatrix.random(SMALL.ell, scale=0.4, seed=13).matrix.copy()
    geometry_range = (min(geos), max(geos))
    samples = tr._collect_samples(
        series, head.kind, geos, head.body, nets[0], geometry_range
    )
    return nets, w, samples


def _full_or(head, samples, sel):
    """``sel`` and no dense tables, or (``sel`` None) every sample with the
    dense tables, as the trainer passes a full batch."""
    if sel is None:
        return np.arange(samples.y.size), tr._orbit_tables(head, samples)
    return sel, None


def _loss(head, nets, w, samples, sel=None):
    phi = nets[0].forward(samples.x_all)
    phit = nets[1].forward(samples.x_all) if len(nets) > 1 else None
    sel, tables = _full_or(head, samples, sel)
    return tr._batch_loss(head, phi, phit, w, samples, sel, False, tables=tables)[0]


def _grads(head, nets, w, samples, sel=None):
    caches = [net.forward(samples.x_all, with_cache=True) for net in nets]
    phi = caches[0][0]
    phit = caches[1][0] if len(caches) > 1 else None
    sel, tables = _full_or(head, samples, sel)
    loss, dw, dphi, dphit = tr._batch_loss(
        head, phi, phit, w, samples, sel, True, tables=tables
    )
    net_grads = []
    for net, cache, dout in zip(nets, caches, (dphi, dphit)):
        g, _ = net.backward(cache[1], dout)
        net_grads.append(g)
    return loss, dw, net_grads


def _central_diff(fn, array, index, h):
    keep = array[index]
    array[index] = keep + h
    hi = fn()
    array[index] = keep - h
    lo = fn()
    array[index] = keep
    return (hi - lo) / (2.0 * h)


_HEADS = (HeadKind.BARE_ONE, HeadKind.EFF_ONE, HeadKind.BARE_TWO, HeadKind.EFF_TWO)


# A full selection takes the dense pair-product form of the loss, a strict
# subset the pair-row form; both are checked.
@pytest.mark.parametrize(
    "head, subset",
    [pytest.param(h, False, id=str(h)) for h in _HEADS]
    + [pytest.param(h, True, id=f"{h}-subset") for h in _HEADS],
)
def test_gradient_matches_finite_difference(head, subset, small_series):
    nets, w, samples = _setup_head(head, small_series)
    sel = None
    if subset:
        n = samples.y.size
        sel = np.random.default_rng(1).permutation(n)[: n // 2]
    _, dw, net_grads = _grads(head, nets, w, samples, sel)
    fn = lambda: _loss(head, nets, w, samples, sel)
    h = 1e-6
    rng = np.random.default_rng(0)

    def check(analytic, fd):
        # 1e-9 absolute floor sits three decades above central-difference
        # roundoff here and three below any genuine formula error
        assert abs(analytic - fd) < max(1e-5 * max(abs(analytic), abs(fd)), 1e-9)

    # network parameters, a handful of coordinates per array
    for net, grads in zip(nets, net_grads):
        for param, grad in zip(net.params, grads):
            flat = param.reshape(-1)
            for k in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                check(grad.reshape(-1)[k], _central_diff(fn, flat, k, h))

    # kernel entries: perturb symmetric pairs together, because the trainer
    # reports the symmetrized gradient of a kernel kept exactly symmetric
    dim = w.shape[0]
    for i in range(3):
        check(dw[i, i], _central_diff(fn, w, (i, i), h))
    for i, j in [(0, 1), (0, 5), (2, 3), (1, 7), (4, 6)]:
        keep_ij, keep_ji = w[i, j], w[j, i]
        w[i, j] = keep_ij + h
        w[j, i] = keep_ji + h
        hi = fn()
        w[i, j] = keep_ij - h
        w[j, i] = keep_ji - h
        lo = fn()
        w[i, j], w[j, i] = keep_ij, keep_ji
        check(dw[i, j] + dw[j, i], (hi - lo) / (2.0 * h))


def test_loss_is_mean_squared_error_over_unit(small_series):
    head = HeadKind.BARE_TWO
    nets, w, samples = _setup_head(head, small_series)
    sym = symmetry_for(Kind.BARE)
    n_reps = len(two_body_representatives(SMALL.n_orb, sym))
    assert samples.y.size == n_reps * len(SMALL.geometries)

    # against a direct per-entry evaluation
    loss = _loss(head, nets, w, samples)
    phi = nets[0].forward(samples.x_all)
    total = 0.0
    for k in range(samples.y.size):
        p, q, r, s = samples.base[k] + samples.idx[k]
        a = phi[p] * phi[q]
        b = phi[r] * phi[s]
        total += (float(a @ w @ b) - samples.y[k]) ** 2
    assert loss == pytest.approx(total / samples.y.size, rel=1e-12)


@pytest.mark.parametrize("head", _HEADS)
def test_dense_form_equals_per_sample_form(head, small_series):
    # the full batch (dense pair-product form) is the size-weighted mean of
    # two complementary halves (pair-row form), loss and gradients alike
    nets, w, samples = _setup_head(head, small_series)
    phi = nets[0].forward(samples.x_all)
    phit = nets[1].forward(samples.x_all) if len(nets) > 1 else None
    n = samples.y.size
    order = np.random.default_rng(2).permutation(n)
    tables = tr._orbit_tables(head, samples)
    full = tr._batch_loss(head, phi, phit, w, samples, order, True, tables=tables)
    halves = [
        tr._batch_loss(head, phi, phit, w, samples, sel, True)
        for sel in (order[: n // 2], order[n // 2 :])
    ]
    weights = (n // 2 / n, (n - n // 2) / n)
    for k, value in enumerate(full):
        if value is None:
            assert all(h[k] is None for h in halves)
            continue
        combined = sum(c * h[k] for c, h in zip(weights, halves))
        scale = np.abs(value).max()
        assert np.abs(combined - value).max() <= 1e-12 * scale


def _per_sample_reference(head, phi, phit, w, samples, sel):
    """Loss and gradients over ``sel`` entry by entry: each sample's pair
    products gathered, its gradients scattered back with ``np.add.at`` (a
    repeated sample counts twice)."""
    base, idx, y = samples.base[sel], samples.idx[sel], samples.y[sel]
    inv = 1.0 / y.size
    dphi = np.zeros_like(phi)
    if head.body == 1:
        p, q = base + idx[:, 0], base + idx[:, 1]
        resid = np.einsum("ij,ij->i", phi[p], phi[q] @ w) - y
        dv = (2.0 * inv) * resid
        dw = (dv[:, None] * phi[p]).T @ phi[q]
        np.add.at(dphi, p, dv[:, None] * (phi[q] @ w))
        np.add.at(dphi, q, dv[:, None] * (phi[p] @ w))
        return float(resid @ resid) * inv, 0.5 * (dw + dw.T), dphi, None
    p, q, r, s = (base + idx[:, k] for k in range(4))
    eff = head is HeadKind.EFF_TWO
    tilde, dtilde = (phit, np.zeros_like(phit)) if eff else (phi, dphi)
    # v = c * sum over terms of (phi_i . tilde_j)^T W (phi_k . tilde_l);
    # EFF_TWO averages the term with its pair swap
    terms = [(p, q, r, s), (q, p, s, r)] if eff else [(p, q, r, s)]
    c = 0.5 if eff else 1.0
    pairs = [(phi[i] * tilde[j], phi[k] * tilde[l]) for i, j, k, l in terms]
    resid = c * sum(np.einsum("ij,ij->i", a, b @ w) for a, b in pairs) - y
    h = (2.0 * c * inv) * resid
    dw = sum((h[:, None] * a).T @ b for a, b in pairs)
    for (i, j, k, l), (a, b) in zip(terms, pairs):
        da, db = h[:, None] * (b @ w), h[:, None] * (a @ w)
        np.add.at(dphi, i, da * tilde[j])
        np.add.at(dtilde, j, da * phi[i])
        np.add.at(dphi, k, db * tilde[l])
        np.add.at(dtilde, l, db * phi[k])
    return float(resid @ resid) * inv, 0.5 * (dw + dw.T), dphi, dtilde if eff else None


def _assert_close(got, want, rel=1e-12):
    for g, v in zip(got, want):
        if v is None:
            assert g is None
            continue
        assert np.abs(np.asarray(g) - v).max() <= rel * np.abs(v).max()


def _pair_row_selections(samples):
    n = samples.y.size
    rng = np.random.default_rng(3)
    sub = rng.permutation(n)[: n // 3]
    one_geo = np.flatnonzero(samples.base == samples.base[-1])
    return {
        "random": rng.permutation(n)[: 2 * n // 3],
        "repeats": np.concatenate([sub, sub[:7], sub[:2]]),
        "one-geometry": one_geo[rng.permutation(one_geo.size)[: one_geo.size // 2]],
        "one-sample": np.array([n // 2]),
    }


@pytest.mark.parametrize("head", _HEADS)
def test_pair_row_form_matches_per_sample_reference(head, small_series):
    nets, w, samples = _setup_head(head, small_series)
    phi = nets[0].forward(samples.x_all)
    phit = nets[1].forward(samples.x_all) if len(nets) > 1 else None
    for name, sel in _pair_row_selections(samples).items():
        got = tr._batch_loss(head, phi, phit, w, samples, sel, True)
        _assert_close(got, _per_sample_reference(head, phi, phit, w, samples, sel))
        assert tr._batch_loss(head, phi, phit, w, samples, sel, False)[0] == got[0], name


@pytest.mark.parametrize("head", _HEADS)
def test_pair_row_form_counts_repeated_samples_twice(head, small_series):
    nets, w, samples = _setup_head(head, small_series)
    phi = nets[0].forward(samples.x_all)
    phit = nets[1].forward(samples.x_all) if len(nets) > 1 else None
    sub = np.random.default_rng(4).permutation(samples.y.size)[:10]
    twice = tr._batch_loss(head, phi, phit, w, samples, np.concatenate([sub, sub[:4]]), True)
    # the repeated four weigh 2/14, the other six 1/14
    parts = [tr._batch_loss(head, phi, phit, w, samples, s, True) for s in (sub[:4], sub[4:])]
    for k, value in enumerate(twice):
        if value is None:
            continue
        combined = (8 / 14) * parts[0][k] + (6 / 14) * parts[1][k]
        assert np.abs(combined - value).max() <= 1e-12 * np.abs(value).max()


def test_pair_row_eff_two_with_equal_families_is_bare_two(small_series):
    # phit = phi collapses the effective head onto the bare head
    nets, w, samples = _setup_head(HeadKind.EFF_TWO, small_series)
    phi = nets[0].forward(samples.x_all)
    sel = np.random.default_rng(5).permutation(samples.y.size)[: samples.y.size // 2]
    loss_e, dw_e, dphi_e, dphit_e = tr._batch_loss(
        HeadKind.EFF_TWO, phi, phi, w, samples, sel, True
    )
    loss_b, dw_b, dphi_b, _ = tr._batch_loss(HeadKind.BARE_TWO, phi, None, w, samples, sel, True)
    assert loss_e == pytest.approx(loss_b, rel=1e-13)
    _assert_close((dw_e, dphi_e + dphit_e), (dw_b, dphi_b), rel=1e-13)


# ---------------------------------------------------------------------------
# kernel polish and initial scale
# ---------------------------------------------------------------------------

def _dense_polish_reference(head, nets, samples, w_base):
    """The kernel polish on the dense ``ell**2`` design: one symmetrized
    outer product per sample, solved by ``lstsq`` at ``_POLISH_RCOND``."""
    phi = nets[0].forward(samples.x_all)
    phit = nets[-1].forward(samples.x_all)
    base, idx = samples.base, samples.idx
    if head.body == 1:
        design = np.einsum("ki,kj->kij", phi[base + idx[:, 0]], phi[base + idx[:, 1]])
    else:
        p, q, r, s = (base + idx[:, k] for k in range(4))
        if head is HeadKind.BARE_TWO:
            design = np.einsum("ki,kj->kij", phi[p] * phi[q], phi[r] * phi[s])
        else:
            design = 0.5 * (
                np.einsum("ki,kj->kij", phi[p] * phit[q], phi[r] * phit[s])
                + np.einsum("ki,kj->kij", phi[q] * phit[p], phi[s] * phit[r])
            )
    ell = w_base.shape[0]
    design = (0.5 * (design + design.transpose(0, 2, 1))).reshape(-1, ell * ell)
    resid = samples.y - design @ w_base.ravel()
    delta, *_ = np.linalg.lstsq(design, resid, rcond=tr._POLISH_RCOND)
    w = w_base + delta.reshape(ell, ell)
    return 0.5 * (w + w.T)


@pytest.mark.parametrize("head", _HEADS)
def test_solve_kernel_matches_dense_design(head, small_series):
    nets, w, samples = _setup_head(head, small_series)
    for w_base in (np.zeros_like(w), w):
        got = tr._solve_kernel(head, nets, samples, w_base)
        want = _dense_polish_reference(head, nets, samples, w_base)
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def _packed_lstsq_reference(head, nets, samples, w_base):
    """The kernel polish as ``np.linalg.lstsq`` solves it: the packed design
    built in C order, its residual as one product, and ``lstsq``'s copy of
    it factored.  Also returns the design's singular values."""
    ell = w_base.shape[0]
    n = samples.y.size
    iu, ju = np.triu_indices(ell)
    phi = nets[0].forward(samples.x_all)
    phit = nets[1].forward(samples.x_all) if len(nets) > 1 else None
    _, ends, rows, *_ = tr._pair_rows(head, phi, phit, samples, np.arange(n))
    design = np.zeros((n, iu.size))
    for a, b in ends:
        ra, rb = rows[a], rows[b]
        for i, start in enumerate(np.flatnonzero(iu == ju)):
            seg = design[:, start : start + ell - i]
            seg += ra[:, i, None] * rb[:, i:]
            seg += rb[:, i, None] * ra[:, i:]
    root2 = np.where(iu == ju, 1.0, math.sqrt(2.0))
    design *= root2 / (2 * len(ends))
    resid = samples.y - design @ (w_base[iu, ju] * root2)
    delta, _, _, sv = np.linalg.lstsq(design, resid, rcond=tr._POLISH_RCOND)
    step = np.zeros_like(w_base)
    step[iu, ju] = step[ju, iu] = delta / root2
    return w_base + step, sv


@pytest.mark.parametrize("doubled", [False, True], ids=["distinct", "doubled"])
@pytest.mark.parametrize("head", _HEADS)
def test_solve_kernel_equals_lstsq_bit_for_bit(head, doubled, small_series):
    nets, w, samples = _setup_head(head, small_series)
    if doubled:
        # each latent feature twice: the design loses rank, and the cut
        # drops directions
        for net in nets:
            net.weights[-1][:, SMALL.ell // 2 :] = net.weights[-1][:, : SMALL.ell // 2]
    for w_base in (np.zeros_like(w), w):
        want, sv = _packed_lstsq_reference(head, nets, samples, w_base)
        assert (np.count_nonzero(sv < tr._POLISH_RCOND * sv[0]) > 0) == doubled
        assert np.array_equal(tr._solve_kernel(head, nets, samples, w_base), want)


@pytest.mark.parametrize("block", [1, 8 * 36, 25 * 36])
def test_solve_kernel_residual_blocks_round_as_one_product(block, small_series, monkeypatch):
    # blocks of 4, 8 and 24 rows of the 36-column design, against the
    # product with the whole C-order design in the reference
    head = HeadKind.BARE_TWO
    nets, w, samples = _setup_head(head, small_series)
    monkeypatch.setattr(tr, "_RESID_BLOCK", block)
    want, _ = _packed_lstsq_reference(head, nets, samples, w)
    assert np.array_equal(tr._solve_kernel(head, nets, samples, w), want)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_kernel_raises_on_a_non_finite_design(bad, small_series):
    nets, w, samples = _setup_head(HeadKind.BARE_TWO, small_series)
    nets[0].biases[-1][0] = bad
    with pytest.raises(np.linalg.LinAlgError):
        tr._solve_kernel(HeadKind.BARE_TWO, nets, samples, w)


_SOLVE_RSS_SCRIPT = textwrap.dedent("""
    import dataclasses, resource
    import numpy as np
    import scipy.linalg
    from tanfold import training as tr
    from tanfold.heads import HeadKind, entry_table
    from tanfold.nn import OrbitalNet
    from tanfold.tensors import Kind

    # the desk stage-1 shape: 61 geometries of 4 orbitals, ell 32
    n_orb, ell, n_geo = 4, 32, 61
    net = OrbitalNet(n_orb, ell, hidden=(64, 64), seed=0)
    reps = entry_table(Kind.BARE, 2, n_orb).reps.astype(np.intp)
    samples = tr._Samples(
        x_all=np.vstack([net.embed(range(n_orb), r) for r in np.linspace(0, 1, n_geo)]),
        base=np.repeat(np.arange(n_geo, dtype=np.intp) * n_orb, len(reps)),
        idx=np.tile(reps, (n_geo, 1)),
        y=np.random.default_rng(0).normal(size=n_geo * len(reps)),
        n_orb=n_orb,
    )
    w = np.zeros((ell, ell))
    # one small solve first, so code paths and BLAS buffers are in place
    m = 4 * len(reps)
    small = dataclasses.replace(samples, base=samples.base[:m], idx=samples.idx[:m],
                                y=samples.y[:m])
    tr._solve_kernel(HeadKind.BARE_TWO, [net], small, w)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tr._solve_kernel(HeadKind.BARE_TWO, [net], samples, w)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(1024 * (after - before), 8 * samples.y.size * ell * (ell + 1) // 2)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_solve_kernel_holds_one_copy_of_the_design():
    # LAPACK factors the design in place: the peak rise across a desk-shape
    # solve is the design plus small work arrays, where lstsq's copy of the
    # design made it about twice the design
    src = os.path.dirname(os.path.dirname(tr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    env.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"
    ))
    proc = subprocess.run([sys.executable, "-c", _SOLVE_RSS_SCRIPT], env=env,
                          check=True, capture_output=True, text=True)
    rise, design_bytes = map(int, proc.stdout.split())
    assert rise < 1.3 * design_bytes


def test_calibrated_kernel_sets_initial_prediction_rms():
    """The initial predictions have KERNEL_INIT_FRACTION of the target RMS.

    On the desk plant the unscaled random kernel predicts about 2.5e-4 of
    the (unit) target RMS, so a difference of losses would keep only about
    eight digits of ``mean(pred**2)``; the reference here is the scalar head.
    """
    series = plant_series(plant_preset("desk")).series
    geos = [float(g) for g in series.geometries(Kind.BARE)]
    net = OrbitalNet(4, 32, hidden=(64, 64), seed=1)
    samples = tr._collect_samples(series, Kind.BARE, geos, 2, net, (min(geos), max(geos)))
    samples.y = samples.y / tr._target_scale(samples.y)
    w = tr._calibrated_kernel(HeadKind.BARE_TWO, net, samples, 32, 2)
    phi = net.forward(samples.x_all)
    pred = np.array([
        eval_bare_two(*(phi[b + i] for i in index), w)
        for b, index in zip(samples.base, samples.idx)
    ])
    ratio = math.sqrt(np.mean(pred**2) / np.mean(samples.y**2))
    assert ratio == pytest.approx(tr.KERNEL_INIT_FRACTION, rel=1e-13)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def _series_from_teacher(net, kernel, geometries):
    """Bare and effective tensors generated by one bare model (tilde = base)."""
    geometry_range = (min(geometries), max(geometries))
    bare = InteractionModel(
        head=HeadKind.BARE_TWO, nets=(net,), kernel=kernel,
        geometry_range=geometry_range, system="teacher",
    )
    eff = InteractionModel(
        head=HeadKind.EFF_TWO, nets=(net, net.copy()), kernel=kernel,
        geometry_range=geometry_range, system="teacher",
    )
    n = net.n_orb
    sets = []
    for g in geometries:
        for kind, model in ((Kind.BARE, bare), (Kind.EFFECTIVE, eff)):
            sets.append(
                TensorSet(
                    geometry=g,
                    kind=kind,
                    n_orb=n,
                    scalar_term=0.0,
                    one_body=np.zeros((n, n)),
                    two_body=model.predict_full(g),
                    system="teacher",
                )
            )
    return GeometrySeries(system="teacher", tensor_sets=tuple(sets)), bare


def test_finetune_starts_from_stage1_predictions():
    net = OrbitalNet(3, 6, hidden=(8,), seed=21)
    kernel = KernelMatrix.random(6, scale=0.5, seed=22)
    series, teacher = _series_from_teacher(net, kernel, (1.0, 1.4, 1.8))

    cfg = quick_config(HeadKind.EFF_TWO, epochs=1, base_lr=1e-12, ell=6, hidden=(8,))
    model, report = finetune_effective(series, teacher, cfg)
    # the effective head collapses to the bare head at initialization, so the
    # starting loss is the stage-1 model's own residual: zero up to rounding
    assert report.initial_loss < 1e-30
    assert report.final_loss < 1e-20


def test_finetune_initial_loss_equals_bare_model_loss(small_series):
    cfg1 = quick_config(HeadKind.BARE_TWO, epochs=10)
    bare_model, _ = train_bare(small_series, cfg1)

    cfg2 = quick_config(HeadKind.EFF_TWO, epochs=1, base_lr=1e-12)
    _, report = finetune_effective(small_series, bare_model, cfg2)

    # stage-1 predictions scored on the effective (4-fold) unit
    total, count = 0.0, 0
    for g in small_series.geometries(Kind.EFFECTIVE):
        tset = small_series.get(g, Kind.EFFECTIVE)
        pred = bare_model.predict_full(g)
        for index, value in nonsymmetric_unit(tset):
            total += (pred[index] - value) ** 2
            count += 1
    assert report.initial_loss == pytest.approx(total / count, rel=1e-12)


def test_finetune_one_body_reuses_single_net(small_series):
    cfg1 = quick_config(HeadKind.BARE_ONE, epochs=10)
    bare_model, _ = train_bare(small_series, cfg1)
    cfg2 = quick_config(HeadKind.EFF_ONE, epochs=3)
    model, report = finetune_effective(small_series, bare_model, cfg2)
    assert len(model.nets) == 1
    assert model.head is HeadKind.EFF_ONE
    assert math.isfinite(report.final_loss)


# ---------------------------------------------------------------------------
# training behaviour
# ---------------------------------------------------------------------------

def test_training_reduces_loss(small_series):
    cfg = quick_config(HeadKind.BARE_TWO, epochs=40)
    _, report = train_bare(small_series, cfg)
    assert report.final_loss < report.initial_loss
    assert report.wall_time > 0.0


def test_training_is_deterministic(small_series):
    cfg = quick_config(HeadKind.BARE_TWO, epochs=8)
    model_a, report_a = train_bare(small_series, cfg)
    model_b, report_b = train_bare(small_series, cfg)
    assert report_a == report_b
    assert dataclasses.replace(report_a, wall_time=-1.0) == report_a  # wall_time is excluded
    assert np.array_equal(model_a.kernel.matrix, model_b.kernel.matrix)
    for pa, pb in zip(model_a.nets[0].params, model_b.nets[0].params):
        assert np.array_equal(pa, pb)


def test_holdout_geometries_become_test_split(small_series):
    cfg = quick_config(HeadKind.BARE_TWO, epochs=3)
    _, report = train_bare(small_series, cfg, holdout=[1.5])
    splits = {g.geometry: g.split for g in report.per_geometry}
    assert splits == {1.0: "train", 1.5: "test", 2.0: "train"}
    assert math.isfinite(report.train_mae)
    assert math.isfinite(report.test_mae)


def test_refs_control_finetune_split(small_series):
    cfg1 = quick_config(HeadKind.BARE_TWO, epochs=3)
    bare_model, _ = train_bare(small_series, cfg1)
    cfg2 = quick_config(HeadKind.EFF_TWO, epochs=2)
    _, report = finetune_effective(small_series, bare_model, cfg2, refs=[1.0, 2.0])
    splits = {g.geometry: g.split for g in report.per_geometry}
    assert splits == {1.0: "train", 1.5: "test", 2.0: "train"}


def test_missing_reference_geometry_raises(small_series):
    cfg1 = quick_config(HeadKind.BARE_TWO, epochs=2)
    bare_model, _ = train_bare(small_series, cfg1)
    cfg2 = quick_config(HeadKind.EFF_TWO, epochs=2)
    with pytest.raises(ValueError, match="reference"):
        finetune_effective(small_series, bare_model, cfg2, refs=[1.0, 7.0])


@pytest.mark.parametrize("refs", [[1.0, 2.0, 1.0], [1.0, 1.0 + 1e-13, 2.0]])
def test_repeated_reference_geometry_raises(refs, small_series):
    # a repeat would collect the samples of one geometry twice, weighting
    # it double in the fit; a typed value that snaps onto a stored one
    # repeats it just the same
    bare_model, _ = train_bare(small_series, quick_config(HeadKind.BARE_TWO, epochs=2))
    cfg2 = quick_config(HeadKind.EFF_TWO, epochs=2)
    with pytest.raises(ValueError, match=r"^repeated reference geometries \[1\.0\]$"):
        finetune_effective(small_series, bare_model, cfg2, refs=refs)


def test_unknown_or_repeated_holdout_raises(small_series):
    cfg = quick_config(HeadKind.BARE_TWO, epochs=2)
    with pytest.raises(ValueError, match=r"^no bare tensors at holdout geometries \[7\.0\]$"):
        train_bare(small_series, cfg, holdout=[1.5, 7.0])
    with pytest.raises(ValueError, match=r"^repeated holdout geometries \[1\.5\]$"):
        train_bare(small_series, cfg, holdout=[1.5, 1.5])


def test_repeated_train_geometry_in_evaluate_raises(small_series):
    model, _ = train_bare(small_series, quick_config(HeadKind.BARE_TWO, epochs=2))
    with pytest.raises(ValueError, match=r"^repeated train geometries \[2\.0\]$"):
        evaluate_mae(model, small_series, train_geometries=[2.0, 1.0, 2.0])


@pytest.mark.parametrize("polish", [False, True])
def test_stage_takes_the_full_loss_before_and_after(polish, small_series, monkeypatch):
    # stage 1 calibrates its kernel from one full-batch loss, then each stage
    # takes the loss once before training and once after the polish
    calls = []
    full_loss = tr._full_loss

    def counted(*args):
        calls.append(full_loss(*args))
        return calls[-1]

    monkeypatch.setattr(tr, "_full_loss", counted)
    bare_model, report = train_bare(
        small_series, quick_config(HeadKind.BARE_TWO, epochs=2, kernel_polish=polish)
    )
    assert len(calls) == 3
    assert report.initial_loss / report.final_loss == pytest.approx(calls[1] / calls[2], rel=1e-12)
    del calls[:]
    finetune_effective(
        small_series, bare_model, quick_config(HeadKind.EFF_TWO, epochs=2, kernel_polish=polish)
    )
    assert len(calls) == 2


@pytest.mark.parametrize("stage", [HeadKind.EFF_TWO, HeadKind.EFF_ONE])
def test_frozen_polished_finetune_is_the_solve_alone(stage, small_series, monkeypatch):
    # the polish starts from the transferred kernel, so Adam epochs on a
    # frozen stage could only be thrown away
    bare = HeadKind.BARE_TWO if stage.body == 2 else HeadKind.BARE_ONE
    bare_model, _ = train_bare(small_series, quick_config(bare, epochs=4))
    cfg = quick_config(stage, epochs=6, batch_size=4096, freeze_orbitals=True, kernel_polish=True)

    def no_adam(*args, **kwargs):
        raise AssertionError("a frozen, polished stage ran an Adam step")

    monkeypatch.setattr(tr, "adam_step", no_adam)
    model, report = finetune_effective(small_series, bare_model, cfg)

    nets = [bare_model.nets[0].copy() for _ in range(stage.n_nets)]
    refs = sorted(float(g) for g in small_series.geometries(Kind.EFFECTIVE))
    samples = tr._collect_samples(
        small_series, Kind.EFFECTIVE, refs, stage.body, nets[0], bare_model.geometry_range
    )
    scale = tr._target_scale(samples.y)
    samples.y = samples.y / scale
    w_start = bare_model.kernel.matrix / scale
    w = tr._solve_kernel(stage, nets, samples, w_start)
    assert np.array_equal(model.kernel.matrix, KernelMatrix(scale * w, symmetrize=True).matrix)
    assert report.initial_loss == scale * scale * tr._full_loss(stage, nets, w_start, samples)
    assert report.final_loss == scale * scale * tr._full_loss(stage, nets, w, samples)
    for net in model.nets:
        assert np.array_equal(net.flat, bare_model.nets[0].flat)


@pytest.mark.parametrize("stage", [HeadKind.BARE_TWO, HeadKind.BARE_ONE])
def test_frozen_polished_train_bare_skips_adam(stage, small_series, monkeypatch):
    # the polish starts from zeros, so Adam epochs on a frozen stage 1 could
    # only be thrown away: the kernel is the solve on the untrained network
    cfg = quick_config(stage, epochs=6, batch_size=16, freeze_orbitals=True, kernel_polish=True)

    def no_adam(*args, **kwargs):
        raise AssertionError("a frozen, polished stage ran an Adam step")

    monkeypatch.setattr(tr, "adam_step", no_adam)
    model, report = train_bare(small_series, cfg)

    net_seed, kernel_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(2)
    )
    net = OrbitalNet(SMALL.n_orb, cfg.ell, hidden=cfg.hidden, seed=net_seed)
    geos = [float(g) for g in small_series.geometries(Kind.BARE)]
    samples = tr._collect_samples(
        small_series, Kind.BARE, geos, stage.body, net, (min(geos), max(geos))
    )
    scale = tr._target_scale(samples.y)
    samples.y = samples.y / scale
    w_start = tr._calibrated_kernel(stage, net, samples, cfg.ell, kernel_seed)
    w = tr._solve_kernel(stage, [net], samples, np.zeros_like(w_start))
    assert np.array_equal(model.kernel.matrix, KernelMatrix(scale * w, symmetrize=True).matrix)
    assert report.initial_loss == scale * scale * tr._full_loss(stage, [net], w_start, samples)
    assert report.final_loss == scale * scale * tr._full_loss(stage, [net], w, samples)
    assert np.array_equal(model.nets[0].flat, net.flat)


def test_diverging_run_aborts(small_series):
    # a step of size ~1e40 sends the quartic loss past float range, which
    # must surface as an error instead of a silent garbage model
    cfg = quick_config(HeadKind.BARE_TWO, epochs=4, base_lr=1e40)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError):
            train_bare(small_series, cfg)


def test_single_geometry_series_trains():
    spec = PlantSpec(
        n_orb=3, ell=8, geometries=(2.0,), rate=2.0e-2, amplitude=2.0e-4,
        center=4.0, seed=9,
    )
    series = plant_series(spec).series
    cfg = quick_config(HeadKind.BARE_TWO, epochs=3)
    model, report = train_bare(series, cfg)
    assert len(report.per_geometry) == 1
    assert report.per_geometry[0].split == "train"
    assert math.isnan(report.test_mae)


def test_training_scale_invariance():
    # targets are normalized to unit RMS inside the trainer, so scaling the
    # data must scale the error linearly and leave the relative error alone
    def scaled_series(factor):
        sets = tuple(
            TensorSet(
                geometry=t.geometry, kind=t.kind, n_orb=t.n_orb,
                scalar_term=t.scalar_term, one_body=t.one_body * factor,
                two_body=t.two_body * factor, system=t.system,
            )
            for t in plant_series(SMALL).series.tensor_sets
        )
        return GeometrySeries(system="small", tensor_sets=sets)

    cfg = quick_config(HeadKind.BARE_TWO, epochs=30)
    maes = []
    for factor in (1.0, 1e-4):
        _, report = train_bare(scaled_series(factor), cfg)
        maes.append(report.train_mae / factor)
    assert maes[1] == pytest.approx(maes[0], rel=1e-6)


def test_exactly_realizable_data_trains_below_one_millionth():
    """Data generated by a same-architecture network and kernel is fit to
    train MAE < 1e-6 within 2000 epochs at the reduced scale (latent 32,
    hidden 64x64).  Measured 3.6e-07 for this seed; 4.0e-07 and 5.1e-07
    for the two neighboring generator seeds."""
    teacher_net = OrbitalNet(3, 8, hidden=(64, 64), seed=41)
    teacher_kernel = KernelMatrix.random(8, scale=0.3, seed=42)
    geometries = (1.0, 1.5, 2.0)
    teacher = InteractionModel(
        head=HeadKind.BARE_TWO, nets=(teacher_net,), kernel=teacher_kernel,
        geometry_range=(1.0, 2.0), system="teacher",
    )
    tensors = {g: teacher.predict_full(g) for g in geometries}
    rms = np.sqrt(np.mean([np.mean(t**2) for t in tensors.values()]))
    factor = 3e-4 / rms  # entry scale typical of the small planted datasets
    sets = tuple(
        TensorSet(
            geometry=g, kind=Kind.BARE, n_orb=3, scalar_term=0.0,
            one_body=np.zeros((3, 3)), two_body=t * factor, system="teacher",
        )
        for g, t in tensors.items()
    )
    series = GeometrySeries(system="teacher", tensor_sets=sets)

    cfg = TrainConfig(
        stage=HeadKind.BARE_TWO, epochs=2000, batch_size=8, base_lr=3e-3,
        seed=0, ell=32, hidden=(64, 64),
    )
    _, report = train_bare(series, cfg)
    assert report.train_mae < 1e-6


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("head", list(HeadKind))
def test_predict_full_matches_scalar_heads(head):
    """The batched head agrees with the scalar heads at every entry, and its
    output is exactly closed under the head's symmetry group."""
    net = OrbitalNet(4, 6, hidden=(8,), seed=31)
    tilde = OrbitalNet(4, 6, hidden=(8,), seed=33) if head is HeadKind.EFF_TWO else None
    kernel = KernelMatrix.random(6, scale=0.5, seed=32)
    nets = (net,) if tilde is None else (net, tilde)
    model = InteractionModel(head=head, nets=nets, kernel=kernel, geometry_range=(1.0, 2.0))
    f = model._features(net, 1.3)
    ft = model._features(tilde, 1.3) if tilde is not None else None
    pred = model.predict_full(1.3)
    want = np.empty_like(pred)
    for index in np.ndindex(pred.shape):
        if head.body == 1:
            want[index] = eval_one(*(f[i] for i in index), kernel)
        elif head is HeadKind.BARE_TWO:
            want[index] = eval_bare_two(*(f[i] for i in index), kernel)
        else:
            want[index] = eval_eff_two(*(f[i] for i in index), *(ft[i] for i in index), kernel)
    assert np.abs(pred - want).max() <= 1e-13 * np.abs(want).max()
    perms = ((1, 0),) if head.body == 1 else symmetry_for(head.kind).permutations
    for perm in perms:
        assert np.array_equal(pred, pred.transpose(perm))


def test_zero_kernel_mae_is_mean_absolute_entry(small_series):
    net = OrbitalNet(SMALL.n_orb, 4, hidden=(5,), seed=3)
    model = InteractionModel(
        head=HeadKind.BARE_TWO,
        nets=(net,),
        kernel=KernelMatrix(np.zeros((4, 4))),
        geometry_range=(1.0, 2.0),
    )
    for entry in evaluate_mae(model, small_series):
        tset = small_series.get(entry.geometry, Kind.BARE)
        unit_values = [v for _, v in nonsymmetric_unit(tset)]
        assert entry.unit_mae == pytest.approx(np.mean(np.abs(unit_values)))
        assert entry.full_mae == pytest.approx(np.abs(tset.two_body).mean())
        assert entry.split == "test"


def test_one_body_mae(small_series):
    net = OrbitalNet(SMALL.n_orb, 4, hidden=(5,), seed=3)
    model = InteractionModel(
        head=HeadKind.BARE_ONE,
        nets=(net,),
        kernel=KernelMatrix(np.zeros((4, 4))),
        geometry_range=(1.0, 2.0),
    )
    entry = evaluate_mae(model, small_series, train_geometries=[1.0])[0]
    tset = small_series.get(1.0, Kind.BARE)
    unit_values = [v for _, v in one_body_unit(tset)]
    assert entry.unit_mae == pytest.approx(np.mean(np.abs(unit_values)))
    assert entry.full_mae == pytest.approx(np.abs(tset.one_body).mean())
    assert entry.split == "train"


def test_report_mae_aggregation():
    cfg = quick_config(HeadKind.BARE_TWO)
    rows = (
        GeometryMAE(1.0, 2.0, 1.0, "train"),
        GeometryMAE(2.0, 4.0, 2.0, "train"),
        GeometryMAE(3.0, 9.0, 5.0, "test"),
    )
    report = FitReport(config=cfg, initial_loss=1.0, final_loss=0.1, per_geometry=rows)
    assert report.train_mae == pytest.approx(3.0)
    assert report.test_mae == pytest.approx(9.0)


def test_evaluate_mae_rejects_orbital_mismatch(small_series):
    net = OrbitalNet(5, 4, hidden=(5,), seed=3)
    model = InteractionModel(
        head=HeadKind.BARE_TWO,
        nets=(net,),
        kernel=KernelMatrix(np.zeros((4, 4))),
        geometry_range=(1.0, 2.0),
    )
    with pytest.raises(ValueError, match="n_orb"):
        evaluate_mae(model, small_series)


# ---------------------------------------------------------------------------
# validation and checkpoints
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(stage=HeadKind.BARE_TWO, epochs=0, batch_size=8, base_lr=1e-3)
    with pytest.raises(ValueError):
        TrainConfig(stage=HeadKind.BARE_TWO, epochs=1, batch_size=0, base_lr=1e-3)
    with pytest.raises(ValueError):
        TrainConfig(stage=HeadKind.BARE_TWO, epochs=1, batch_size=8, base_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(stage=HeadKind.BARE_TWO, epochs=1, batch_size=8, base_lr=1e-3, ell=0)
    # frozen networks leave the loss linear in the kernel: the exact solve
    # is the whole fit, so freezing without it is refused
    with pytest.raises(ValueError, match="freeze_orbitals.*kernel_polish"):
        TrainConfig(stage=HeadKind.EFF_TWO, epochs=1, batch_size=8, base_lr=1e-3,
                    freeze_orbitals=True)


def test_stage_validation(small_series):
    with pytest.raises(ValueError, match="bare"):
        train_bare(small_series, quick_config(HeadKind.EFF_TWO))
    cfg1 = quick_config(HeadKind.BARE_TWO, epochs=2)
    bare_model, _ = train_bare(small_series, cfg1)
    with pytest.raises(ValueError, match="effective"):
        finetune_effective(small_series, bare_model, quick_config(HeadKind.BARE_TWO))
    with pytest.raises(ValueError, match="body"):
        finetune_effective(small_series, bare_model, quick_config(HeadKind.EFF_ONE))
    eff_model, _ = finetune_effective(small_series, bare_model, quick_config(HeadKind.EFF_TWO))
    with pytest.raises(ValueError, match="bare"):
        finetune_effective(small_series, eff_model, quick_config(HeadKind.EFF_TWO))


def test_model_head_validation():
    net = OrbitalNet(2, 4, hidden=(5,), seed=0)
    k = KernelMatrix(np.zeros((4, 4)))
    for head in HeadKind:
        nets = (net, net.copy())[: head.n_nets]
        assert InteractionModel(head, nets, k, (0.0, 1.0)).nets == nets
        for wrong in ((), (net, net.copy(), net.copy())[: 3 - head.n_nets]):
            with pytest.raises(ValueError, match="network"):
                InteractionModel(head, wrong, k, (0.0, 1.0))


def test_save_load_roundtrip(tmp_path, small_series):
    cfg1 = quick_config(HeadKind.BARE_TWO, epochs=3)
    bare_model, _ = train_bare(small_series, cfg1)
    cfg2 = quick_config(HeadKind.EFF_TWO, epochs=2)
    eff_model, _ = finetune_effective(small_series, bare_model, cfg2)

    for name, model in (("bare", bare_model), ("eff", eff_model)):
        where = tmp_path / name
        save_model(model, where)
        back = load_model(where)
        assert back.head is model.head
        assert back.geometry_range == model.geometry_range
        assert back.system == model.system
        for g in (1.0, 1.5, 2.0):
            assert np.array_equal(back.predict_full(g), model.predict_full(g))


def test_load_model_rejects_unknown_format(tmp_path, small_series):
    cfg = quick_config(HeadKind.BARE_TWO, epochs=2)
    model, _ = train_bare(small_series, cfg)
    save_model(model, tmp_path)
    meta = (tmp_path / "model.json").read_text().replace(tr.MODEL_FORMAT, "other v9")
    (tmp_path / "model.json").write_text(meta)
    with pytest.raises(ValueError, match="format"):
        load_model(tmp_path)
    with pytest.raises(ValueError, match="unsupported model format 'other v9'"):
        load_model_kernel(tmp_path)


def test_load_model_kernel_reads_the_kernel_alone(tmp_path, small_series):
    cfg = quick_config(HeadKind.BARE_TWO, epochs=2)
    model, _ = train_bare(small_series, cfg)
    save_model(model, tmp_path)
    (tmp_path / "net0.npz").unlink()
    kernel = load_model_kernel(tmp_path)
    assert np.array_equal(kernel.matrix, model.kernel.matrix)
    assert not kernel.matrix.flags.writeable
