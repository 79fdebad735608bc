"""Self-test of the benchmark's checks on a tiny plant.

    python3 bench/selftest.py

Runs the walkthrough once on a tiny plant (n_orb 3, ell 8, 5 geometries),
then shows two things:

* the benchmark's NumPy predictor agrees with the program's
  ``predict_full`` on both saved models at every geometry;
* the tracer reports a missing private function as absent;
* check 1 lets fit-tan exit 1 with the known tangent-fit fault's message
  and with no other;
* each checked artifact, corrupted in a copy of the round (a tensor entry,
  a kernel entry, a ``mae.csv`` value, an eigenvalue row, a Suzuki
  residual), makes its matching check fail, while every check passes on
  the pristine round; the round digest of check 7 changes with each.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: predictor and predict_full agree to this share of the largest prediction
PREDICT_RTOL = 1e-12


def _tiny():
    from workloads import Workload

    return Workload(
        name="tiny", system="desk", profile=None,
        plant=dict(n_orb=3, ell=8, geometries=(1.0, 1.25, 1.5, 1.75, 2.0), rate=0.05,
                   amplitude=0.01, center=4.0, spectrum_lo=0.05, eta=0.01, noise=0.0,
                   target_rms=0.5, fourier_scale=1.0, system="tiny"),
        refs=(1.0, 1.5, 2.0),
        stage1=dict(epochs=40, batch_size=64, base_lr=0.02, ell=8, hidden=(16, 16)),
        stage2=dict(epochs=20, batch_size=64, base_lr=0.002, ell=8, hidden=(16, 16)),
        frozen=True,
    )


def _edit_line(path, row: int, col: int, change) -> None:
    """Replace column ``col`` of line ``row`` (space- or comma-separated)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    sep = "," if path.endswith(".csv") else " "
    cells = lines[row].split(sep)
    cells[col] = format(change(float(cells[col])), ".17g")
    lines[row] = sep.join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _first_two_body_line(path) -> int:
    with open(path) as fh:
        for i, line in enumerate(fh):
            if not line.startswith("#") and not line.rstrip().endswith(" 0 0"):
                return i
    raise ValueError(f"{path}: no two-body line")


def corrupt_tensor(root):
    path = os.path.join(root, "data", "bare_0002.tensor")
    _edit_line(path, _first_two_body_line(path), 0, lambda v: v + 1e-9 * max(abs(v), 1.0))


def corrupt_kernel(root):
    path = os.path.join(root, "run", "stage2", "model", "kernel.npz")
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    m = arrays["matrix"].copy()
    bump = 1e-6 * np.abs(m).max()
    m[0, 1] += bump
    m[1, 0] += bump
    arrays["matrix"] = m
    np.savez(path, **arrays)


def corrupt_mae(root):
    _edit_line(os.path.join(root, "run", "eval", "mae.csv"), 2, 1, lambda v: v * (1 + 1e-6))


def corrupt_eigenvalue(root):
    _edit_line(os.path.join(root, "run", "spectrum", "eigen_differences.csv"), 3, 1,
               lambda v: v * (1 + 1e-9))


def corrupt_suzuki(root):
    _edit_line(os.path.join(root, "run", "suzuki", "residuals.csv"), 1, 2, lambda v: 2e-8)


#: (artifact, corruption, checks that must fail)
CORRUPTIONS = (
    ("tensor entry", corrupt_tensor, ("2 planted tensors",)),
    ("kernel entry", corrupt_kernel, ("3 model evaluation", "5 spectral read-out")),
    ("mae.csv value", corrupt_mae, ("3 model evaluation",)),
    ("eigenvalue row", corrupt_eigenvalue, ("5 spectral read-out",)),
    ("Suzuki residual", corrupt_suzuki, ("6 operator lab",)),
)


def run_checks(checks, root, workload, codes) -> dict[str, str | None]:
    """{check: None if it passed, else its failure message}."""
    cache = {"exit_codes": codes}
    out = {}
    for name, check in checks.CHECKS:
        try:
            check(root, workload, cache)
            out[name] = None
        except checks.CheckFailed as exc:
            out[name] = str(exc)
    return out


def main() -> int:
    sys.path.insert(0, SRC)
    import checks
    from tanfold.cli import main as tanfold_main
    from tanfold.training import load_model
    from workloads import seeds_for, stage_argv, write_configs

    work = os.path.join(HERE, "_runs", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tiny = _tiny()
    root = os.path.join(work, "pristine")
    configs = write_configs(tiny, work)
    codes = {}
    for stage, argv in stage_argv(tiny, configs, seeds_for(0), root):
        with contextlib.redirect_stdout(io.StringIO()):
            codes[stage] = tanfold_main(argv)

    ok = True
    results = run_checks(checks, root, tiny, codes)
    for name, failure in results.items():
        ok &= failure is None
        print(f"pristine: check {name}: {'PASS' if failure is None else 'FAIL ' + failure}")

    for stage in ("stage1", "stage2"):
        model_dir = os.path.join(root, "run", stage, "model")
        ours, theirs = checks.Predictor(model_dir), load_model(model_dir)
        worst = 0.0
        for g in tiny.geometries:
            want = theirs.predict_full(g)
            worst = max(worst, float(np.abs(ours.predict(g) - want).max() / np.abs(want).max()))
        ok &= worst <= PREDICT_RTOL
        print(f"predictor vs predict_full, {stage}: worst {worst:.1e} (bound {PREDICT_RTOL:g})")

    # the known tangent-fit fault is left out of check 1, and nothing else is
    for output, allowed in ((checks.KNOWN_FAULT, True), ("another error", False)):
        cache = {"exit_codes": {**codes, "fit-tan": 1}, "outputs": {"fit-tan": output}}
        try:
            checks.check_stage_files(root, tiny, cache)
            passed = True
        except checks.CheckFailed:
            passed = False
        ok &= passed == allowed
        print(f"fit-tan exits 1 with {output!r}: check 1 {'PASSES' if passed else 'FAILS'}")

    # a renamed private function is reported as absent, not as an error
    import tanfold.training
    import tracing

    original = tanfold.training._solve_kernel
    del tanfold.training._solve_kernel
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        tanfold.training._solve_kernel = original
    polish = tracing.layer_metrics([])["training.kernel_polish.ms"]
    absent_ok = tracer.absent == ["tanfold.training._solve_kernel"] and polish == 0.0
    ok &= absent_ok
    print(f"tracing without training._solve_kernel: absent {tracer.absent}, "
          f"training.kernel_polish.ms {polish}")

    reference = checks.digest(root)
    for artifact, corrupt, expected in CORRUPTIONS:
        copy = os.path.join(work, artifact.replace(" ", "_").replace(".", "_"))
        shutil.copytree(root, copy)
        corrupt(copy)
        results = run_checks(checks, copy, tiny, codes)
        changed = checks.digest(copy) != reference
        for name in expected:
            caught = results[name] is not None
            ok &= caught
            print(f"corrupt {artifact}: check {name} {'FAILS' if caught else 'still PASSES'}"
                  + (f" ({results[name]})" if caught else ""))
        ok &= changed
        print(f"corrupt {artifact}: check 7 digest {'changes' if changed else 'unchanged'}")
    shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
