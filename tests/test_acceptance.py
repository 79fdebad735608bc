"""Acceptance gate: eight go/no-go checks, one PASS/FAIL line each.

Every test computes its measurements, prints a single verdict line to the
unbuffered stdout (visible in plain ``pytest -v`` runs), then asserts.
The checks cover analytic-gradient correctness, head symmetry, the
desk-scale planted end-to-end run, spectral alignment, tangent-law
recovery on the exact-kernel and trained-network paths, the
block-decoupling operator identities, the eigensolver, and bit-identical
reruns of every CLI stage.
"""

import json
import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from tanfold import presets
from tanfold.cli import main
from tanfold.heads import HeadKind, KernelMatrix, eval_bare_two, eval_eff_two
from tanfold.nn import OrbitalNet
from tanfold.spectral import align_eigensystems, eig_sym, eigen_differences
from tanfold.suzuki import (
    build_generator,
    h_od,
    ituple_commutator,
    random_coupled_problem,
    verify_w_identity,
    z_tanh_closed,
    z_tanh_series,
)
from tanfold.synth import plant_series
from tanfold.tanmodel import fit_tan
from tanfold.tensors import (
    Kind,
    one_body_representatives,
    orbit,
    symmetry_for,
    two_body_representatives,
)
from tanfold.training import (
    TrainConfig,
    _batch_loss,
    _orbit_tables,
    _Samples,
    finetune_effective,
    train_bare,
)


def _verdict(num: int, ok: bool, summary: str) -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {summary}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def _fd_scalar(fun, arr, i, h):
    old = arr[i]
    arr[i] = old + h
    up = fun()
    arr[i] = old - h
    dn = fun()
    arr[i] = old
    return (up - dn) / (2.0 * h)


def _check_mlp_gradients(rng):
    """Worst relative FD error and coordinate count for the network."""
    net = OrbitalNet(4, 8, hidden=(16, 16), seed=7)
    x = rng.standard_normal((12, 5))
    dout = rng.standard_normal((12, 8))
    _, cache = net.forward(x, with_cache=True)
    grads, _ = net.backward(cache, dout)

    def loss():
        return float(np.sum(dout * net.forward(x)))

    gmax = max(float(np.abs(g).max()) for g in grads)
    worst, checked = 0.0, 0
    for p, g in zip(net.views(net.flat), grads):
        fp, fg = p.ravel(), g.ravel()
        take = min(fp.size, 40)
        for j in rng.choice(fp.size, size=take, replace=False):
            an = fg[j]
            if abs(an) < 1e-4 * gmax:
                continue  # FD roundoff dominates negligible coordinates
            fd = _fd_scalar(loss, fp, j, 1e-5 * (1.0 + abs(fp[j])))
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
            checked += 1
    return worst, checked


def _check_head_gradients(head, rng):
    """Worst relative FD error and coordinate count for one bilinear head.

    Three geometry blocks give each feature family 72 entries, enough for
    the 60 (one family) or 40 (two families) coordinates drawn without
    replacement below.
    """
    n_orb, ell, n_geo = 4, 6, 3
    if head.body == 1:
        reps = one_body_representatives(n_orb)
    else:
        reps = two_body_representatives(n_orb, symmetry_for(head.kind))
    base = np.repeat(np.arange(n_geo) * n_orb, len(reps))
    idx = np.asarray(list(reps) * n_geo, dtype=np.intp)
    samples = _Samples(
        x_all=np.zeros((n_geo * n_orb, n_orb + 1)),
        base=base.astype(np.intp),
        idx=idx,
        y=rng.standard_normal(len(idx)),
        n_orb=n_orb,
    )
    phi = 0.7 * rng.standard_normal((n_geo * n_orb, ell))
    phit = 0.7 * rng.standard_normal((n_geo * n_orb, ell))
    m = rng.standard_normal((ell, ell))
    w = 0.3 * (m + m.T)
    # every sample, with the dense tables: the trainer's full-batch form
    sel = np.arange(samples.y.size)
    tables = _orbit_tables(head, samples)
    _, dw, dphi, dphit = _batch_loss(head, phi, phit, w, samples, sel, True, tables=tables)

    def loss():
        value, *_ = _batch_loss(head, phi, phit, w, samples, sel, False, tables=tables)
        return value

    worst, checked = 0.0, 0

    # kernel: differentiate along symmetric directions (E_ij + E_ji)
    for _ in range(50):
        i, j = rng.integers(0, ell, size=2)
        h = 1e-5 * (1.0 + abs(w[i, j]))
        old_ij, old_ji = w[i, j], w[j, i]
        w[i, j] += h
        if i != j:
            w[j, i] += h
        up = loss()
        w[i, j] = old_ij - h
        if i != j:
            w[j, i] = old_ji - h
        dn = loss()
        w[i, j], w[j, i] = old_ij, old_ji
        fd = (up - dn) / (2.0 * h)
        an = dw[i, j] if i == j else 2.0 * dw[i, j]
        if max(abs(fd), abs(an)) < 1e-6 * np.abs(dw).max():
            continue
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
        checked += 1

    # feature families
    fams = [(phi, dphi)] + ([(phit, dphit)] if dphit is not None else [])
    per = 60 if len(fams) == 1 else 40
    for arr, grad in fams:
        flat_a, flat_g = arr.ravel(), grad.ravel()
        gmax = float(np.abs(flat_g).max())
        for j in rng.choice(flat_a.size, size=per, replace=False):
            an = flat_g[j]
            if abs(an) < 1e-4 * gmax:
                continue
            fd = _fd_scalar(loss, flat_a, j, 1e-5 * (1.0 + abs(flat_a[j])))
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
            checked += 1
    return worst, checked


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst, counts = 0.0, []
    w_mlp, n_mlp = _check_mlp_gradients(rng)
    worst = max(worst, w_mlp)
    counts.append(n_mlp)
    for head in (HeadKind.BARE_ONE, HeadKind.EFF_ONE,
                 HeadKind.BARE_TWO, HeadKind.EFF_TWO):
        w_head, n_head = _check_head_gradients(head, rng)
        worst = max(worst, w_head)
        counts.append(n_head)
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and min(counts) >= 100 and dt < 10.0
    _verdict(
        1, ok,
        f"gradients vs finite differences: worst rel {worst:.2e} "
        f"(tol 1e-5) over {counts} coords in {dt:.1f}s (limit 10s)",
    )


# ---------------------------------------------------------------------------
# 2. permutation symmetry of the two-body heads
# ---------------------------------------------------------------------------

def test_criterion_2_head_symmetry():
    rng = np.random.default_rng(23)
    ell = 6
    m = rng.standard_normal((ell, ell))
    w = KernelMatrix(0.15 * (m + m.T))
    perms_bare = orbit((0, 1, 2, 3), symmetry_for(Kind.BARE))
    perms_eff = orbit((0, 1, 2, 3), symmetry_for(Kind.EFFECTIVE))
    assert len(perms_bare) == 8 and len(perms_eff) == 4

    worst_bare = worst_eff = 0.0
    reduction_exact = True
    for _ in range(1000):
        f = 0.6 * rng.standard_normal((4, ell))
        g = 0.6 * rng.standard_normal((4, ell))
        v0 = eval_bare_two(f[0], f[1], f[2], f[3], w)
        for a, b, c, d in perms_bare:
            worst_bare = max(
                worst_bare, abs(eval_bare_two(f[a], f[b], f[c], f[d], w) - v0)
            )
        e0 = eval_eff_two(f[0], f[1], f[2], f[3], g[0], g[1], g[2], g[3], w)
        for a, b, c, d in perms_eff:
            v = eval_eff_two(f[a], f[b], f[c], f[d], g[a], g[b], g[c], g[d], w)
            worst_eff = max(worst_eff, abs(v - e0))
        collapsed = eval_eff_two(f[0], f[1], f[2], f[3],
                                 f[0], f[1], f[2], f[3], w)
        reduction_exact = reduction_exact and (collapsed == v0)

    ok = worst_bare < 1e-14 and worst_eff < 1e-14 and reduction_exact
    _verdict(
        2, ok,
        f"head symmetry on 1000 draws: 8-fold max dev {worst_bare:.2e}, "
        f"4-fold max dev {worst_eff:.2e} (tol 1e-14), "
        f"identical-family reduction exact: {reduction_exact}",
    )


# ---------------------------------------------------------------------------
# 3/4/5. planted desk-scale pipeline (shared run)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_pipeline():
    """Full two-stage run on the desk plant, plus the spectral read-out."""
    spec = presets.plant_preset("desk")
    profile = presets.PROFILES["desk"]
    s1, s2 = presets.DESK_STAGE1, presets.DESK_STAGE2

    t0 = time.perf_counter()
    plant = plant_series(spec)
    cfg1 = TrainConfig(
        stage=HeadKind.BARE_TWO, epochs=s1.epochs, batch_size=s1.batch_size,
        base_lr=s1.base_lr, seed=1, ell=profile.ell, hidden=profile.hidden,
        freeze_orbitals=s1.freeze_orbitals, kernel_polish=s1.kernel_polish,
    )
    model1, report1 = train_bare(plant.series, cfg1)
    cfg2 = TrainConfig(
        stage=HeadKind.EFF_TWO, epochs=s2.epochs, batch_size=s2.batch_size,
        base_lr=s2.base_lr, seed=2, ell=profile.ell, hidden=profile.hidden,
        freeze_orbitals=s2.freeze_orbitals, kernel_polish=s2.kernel_polish,
    )
    model2, report2 = finetune_effective(
        plant.series, model1, cfg2, refs=presets.DESK_REFS
    )
    elapsed = time.perf_counter() - t0

    alignment = align_eigensystems(eig_sym(model1.kernel), eig_sym(model2.kernel))
    fit = fit_tan(eigen_differences(alignment).pairs())
    return SimpleNamespace(
        spec=spec, report1=report1, report2=report2,
        elapsed=elapsed, alignment=alignment, fit=fit,
    )


@pytest.mark.slow
def test_criterion_3_planted_end_to_end(desk_pipeline):
    d = desk_pipeline
    ok = (
        d.report1.train_mae < 1e-5
        and d.report2.test_mae < 1e-3
        and d.elapsed < 600.0
    )
    _verdict(
        3, ok,
        f"desk end-to-end: stage-1 train MAE {d.report1.train_mae:.2e} "
        f"(tol 1e-5), stage-2 test MAE {d.report2.test_mae:.2e} (tol 1e-3), "
        f"{d.elapsed:.0f}s (limit 600s; stage-1 {d.report1.wall_time:.0f}s, "
        f"stage-2 {d.report2.wall_time:.1f}s)",
    )


@pytest.mark.slow
def test_criterion_4_spectral_alignment(desk_pipeline):
    off = desk_pipeline.alignment.max_off_diagonal
    ok = off < 0.05
    _verdict(
        4, ok,
        f"trained bare/effective eigenbasis overlap: max off-diagonal "
        f"{off:.4f} (tol 0.05)",
    )


@pytest.mark.slow
def test_criterion_5_tangent_law_recovery(desk_pipeline):
    # exact-kernel path at full latent dimension
    plant = plant_series(presets.plant_preset("default-h4"))
    alignment = align_eigensystems(eig_sym(plant.w_bare), eig_sym(plant.w_eff))
    exact = fit_tan(eigen_differences(alignment).pairs())
    spec = plant.spec
    d_rate = abs(exact.rate - spec.rate)
    d_center = abs(exact.center - spec.center)
    d_amp = abs(exact.amplitude - spec.amplitude) / spec.amplitude
    exact_ok = (
        d_rate < 1e-6 and d_center < 1e-3 and d_amp < 1e-6
        and exact.residual < 1e-12
    )

    # trained-network path on the desk run
    d = desk_pipeline
    nn_rate = abs(d.fit.rate - d.spec.rate) / d.spec.rate
    nn_center = abs(d.fit.center - d.spec.center) / d.spec.center
    sign_ok = (
        math.copysign(1.0, d.fit.amplitude)
        == math.copysign(1.0, d.spec.amplitude)
    )
    nn_ok = nn_rate < 0.10 and nn_center < 0.10 and sign_ok

    _verdict(
        5, exact_ok and nn_ok,
        f"tangent-law recovery: exact path |d_rate| {d_rate:.1e} (1e-6), "
        f"|d_center| {d_center:.1e} (1e-3), rel d_amp {d_amp:.1e} (1e-6), "
        f"residual {exact.residual:.1e} (1e-12); trained path rate "
        f"{d.fit.rate:.3g} vs planted {d.spec.rate:.3g} (err {nn_rate:.1%}), "
        f"center {d.fit.center:.3g} vs {d.spec.center:.3g} "
        f"(err {nn_center:.1%}; 10% each), amplitude {d.fit.amplitude:.3g} "
        f"vs {d.spec.amplitude:.3g} (sign {'ok' if sign_ok else 'wrong'})",
    )


# ---------------------------------------------------------------------------
# 6. block-decoupling operator identities
# ---------------------------------------------------------------------------

def test_criterion_6_operator_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)

    # (a) nested commutators scale matrix elements by eigenvalue gaps
    worst_a = 0.0
    for dim in (10, 16):
        alpha = 0.3 * rng.standard_normal(dim)
        a = np.diag(alpha).astype(complex)
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gaps = alpha[:, None] - alpha[None, :]
        for i in range(1, 7):
            direct = ituple_commutator(a, b, i)
            worst_a = max(worst_a, float(np.abs(direct - b * gaps**i).max()))

    # (b) tanh of an imaginary argument: tanh(i a) = +i tan(a)
    # (the identity is implemented with the mathematically consistent
    # positive sign; the sign convention is documented in the notes)
    worst_b = max(
        abs(np.tanh(1j * x) - 1j * math.tan(x))
        for x in (0.0, 0.3, -0.3, 1.0, -1.0, 1.5, -1.5)
    )

    # (c) truncated series vs closed form in the convergent regime
    worst_c = 0.0
    for trial in range(5):
        prob = random_coupled_problem(8, 3, 0.05, seed=100 + trial)
        gen = build_generator(prob)
        od = h_od(prob)
        gap = np.abs(
            z_tanh_series(gen.g, od, 12) - z_tanh_closed(gen.g, od)
        ).max()
        worst_c = max(worst_c, float(gap))

    # (d) effective-block correction identity over 100 random problems
    worst_d = 0.0
    for trial in range(100):
        dim = int(rng.integers(3, 13))
        r_dim = int(rng.integers(1, dim))
        prob = random_coupled_problem(dim, r_dim, 0.05, seed=1000 + trial)
        report = verify_w_identity(prob, n_max=4)
        worst_d = max(worst_d, report.rel_frobenius)

    dt = time.perf_counter() - t0
    ok = (
        worst_a < 1e-10 and worst_b < 1e-14 and worst_c < 1e-10
        and worst_d < 1e-8 and dt < 60.0
    )
    _verdict(
        6, ok,
        f"operator identities: commutator law {worst_a:.1e} (1e-10); "
        f"tanh(i a)=+i tan(a) {worst_b:.1e} (1e-14, sign documented); "
        f"series vs closed {worst_c:.1e} (1e-10); block identity rel "
        f"{worst_d:.1e} (1e-8, 100 trials); {dt:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# 7. symmetric eigensolver quality
# ---------------------------------------------------------------------------

def test_criterion_7_eigensolver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    worst_resid = worst_orth = 0.0
    for n in (50, 127, 300):
        m = rng.standard_normal((n, n))
        k = 0.5 * (m + m.T)
        system = eig_sym(k)
        z, vals = system.vectors, system.values
        resid = np.linalg.norm(k @ z - z * vals) / np.linalg.norm(k)
        orth = np.abs(z.T @ z - np.eye(n)).max()
        worst_resid = max(worst_resid, float(resid))
        worst_orth = max(worst_orth, float(orth))
    dt = time.perf_counter() - t0
    ok = worst_resid < 1e-8 and worst_orth < 1e-10 and dt < 30.0
    _verdict(
        7, ok,
        f"eigensolver up to 300x300: relative residual {worst_resid:.1e} "
        f"(1e-8), orthogonality {worst_orth:.1e} (1e-10), {dt:.1f}s "
        f"(limit 30s)",
    )


# ---------------------------------------------------------------------------
# 8. bit-identical reruns of every CLI stage
# ---------------------------------------------------------------------------

_PLANT_CFG = """
n_orb = 3
ell = 8
geometries = 1.0, 1.25, 1.5, 1.75, 2.0
rate = 0.05
amplitude = 0.01
center = 4.0
target_rms = 0.5
seed = 3
system = tiny
"""

_TRAIN_CFG = """
epochs = 40
batch_size = 64
base_lr = 0.02
ell = 8
hidden = 16,16
"""

_TUNE_CFG = """
epochs = 20
batch_size = 64
base_lr = 0.002
ell = 8
hidden = 16,16
"""


def _run_all_stages(root):
    """Run every CLI stage with fixed seeds/configs; return {relpath: bytes}."""
    root.mkdir(parents=True)
    plant_cfg = root / "plant.cfg"
    plant_cfg.write_text(_PLANT_CFG)
    train_cfg = root / "train.cfg"
    train_cfg.write_text(_TRAIN_CFG)
    tune_cfg = root / "tune.cfg"
    tune_cfg.write_text(_TUNE_CFG)
    data, run = root / "data", root / "run"

    codes = [
        main(["synth", "--plant", "desk", "--config", str(plant_cfg),
              "--out", str(data)]),
        main(["train-bare", "--system", "desk", "--body", "2",
              "--data", str(data), "--config", str(train_cfg),
              "--seed", "1", "--out", str(run / "stage1")]),
        main(["finetune", "--system", "desk",
              "--model", str(run / "stage1" / "model"),
              "--data", str(data), "--config", str(tune_cfg),
              "--refs", "1.0,1.5,2.0", "--seed", "1",
              "--out", str(run / "stage2")]),
        main(["eval", "--model", str(run / "stage2" / "model"),
              "--data", str(data), "--refs", "1.0,1.5,2.0",
              "--out", str(run / "eval")]),
        main(["analyze-spectrum", "--bare", str(run / "stage1" / "model"),
              "--eff", str(run / "stage2" / "model"),
              "--out", str(run / "spectrum")]),
        main(["fit-tan",
              "--table", str(run / "spectrum" / "eigen_differences.csv"),
              "--out", str(run / "fit")]),
        main(["suzuki-verify", "--dim", "6", "--rdim", "2",
              "--coupling", "0.05", "--trials", "3", "--seed", "2",
              "--out", str(run / "suzuki")]),
        main(["report", "--system", "desk", "--run", str(run),
              "--out", str(run / "report")]),
    ]
    assert codes == [0] * len(codes), f"stage exit codes {codes}"

    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_criterion_8_deterministic_reruns(tmp_path):
    first = _run_all_stages(tmp_path / "a")
    second = _run_all_stages(tmp_path / "b")
    same_names = set(first) == set(second)
    differing = [k for k in first if same_names and first[k] != second[k]]
    ok = same_names and not differing
    _verdict(
        8, ok,
        f"reruns of all 8 CLI stages: {len(first)} output files "
        f"bit-identical (manifest run logs excluded)"
        + ("" if ok else f"; differing: {differing[:5]}"),
    )
