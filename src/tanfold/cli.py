"""Command-line pipeline: synthesize, train, fine-tune, analyze, report.

Subcommands
-----------
synth             write a planted dataset (canonical tensors + provenance)
train-bare        stage 1: fit network + kernel to bare tensors
finetune          stage 2: fine-tune on effective tensors at reference geometries
eval              per-geometry MAE of a saved model against a dataset
analyze-spectrum  eigendecompose two kernels, align them, tabulate differences
fit-tan           fit the tangent law to an eigen-difference table
suzuki-verify     random trials of the exact block-decoupling identity
report            collect the plot-ready CSVs of a finished pipeline run

Conventions: exit 0 on success, 1 on validation/usage errors, 2 on
numerical failures.  All randomness flows from ``--seed``.  Hyperparameters
come from presets, overridden by ``--config`` (flat ``key = value`` lines),
overridden by ``--seed``.  Every run directory gains a
``manifest.json`` recording the resolved configuration; the manifest is a
run log (it contains wall time) and is not part of the deterministic
output-file contract.  CSV schemas are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import typing
import zipfile

import numpy as np

from . import __version__, presets, reports
from .atomic import replacing
from .heads import HeadKind, KernelMatrix
from .nn import load_kernel
from .spectral import DifferenceTable, align_eigensystems, eig_sym, eigen_differences
from .suzuki import random_coupled_problem, verify_w_identities
from .synth import plant_series, save_plant
from .tanmodel import fit_tan
from .tensors import Kind, load_series
from .training import (
    evaluate_mae,
    finetune_effective,
    load_model,
    load_model_kernel,
    save_model,
    train_bare,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NUMERICAL = 2


class _UsageError(Exception):
    """Invalid flags, config values, or inputs: exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# config files: flat "key = value" text, '#' comments
# ---------------------------------------------------------------------------

def _read_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{ln}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise _UsageError(f"{path}:{ln}: repeated config key {key!r}")
            out[key] = value
    return out


def _coerce(key: str, text: str, py_type):
    """``text`` read as a value of the field type ``py_type``."""
    try:
        if py_type is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if typing.get_origin(py_type) is tuple:  # tuple[int, ...] or tuple[float, ...]
            item = typing.get_args(py_type)[0]
            return tuple(item(part) for part in text.split(",") if part.strip())
        return py_type(text)
    except ValueError as exc:
        raise _UsageError(f"config key {key}: {exc}") from None


def _config_overrides(config_path, fields_of) -> dict:
    """The settings of a config file, each coerced to the type of its field
    of the dataclass ``fields_of`` (every field but ``stage``)."""
    if not config_path:
        return {}
    keys = typing.get_type_hints(fields_of)
    keys.pop("stage", None)
    raw = _read_config(config_path)
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(unknown)}")
    return {k: _coerce(k, v, keys[k]) for k, v in raw.items()}


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _write_manifest(out_dir, subcommand: str, resolved: dict, *, seed, started: float) -> None:
    payload = {
        "subcommand": subcommand,
        "config": resolved,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    reports.write_json(os.path.join(out_dir, "manifest.json"), payload)


def _jsonable(value):
    """``dataclasses.asdict`` output with its enums as their values and its
    tuples as lists."""
    if isinstance(value, HeadKind):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# stage resolution
# ---------------------------------------------------------------------------

def _resolve(preset, args):
    """``preset`` (a ``TrainConfig`` or ``PlantSpec``) with the settings of
    ``--config`` and then ``--seed`` in place of its own."""
    overrides = _config_overrides(args.config, type(preset))
    if args.seed is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(preset, **overrides)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    started = time.perf_counter()
    spec = _resolve(presets.plant_preset(args.plant), args)
    out = args.out
    result = plant_series(spec)
    save_plant(result, out)
    _write_manifest(out, "synth", {"plant": args.plant, **_jsonable(dataclasses.asdict(spec))},
                    seed=spec.seed, started=started)
    print(f"planted {len(result.series.tensor_sets)} tensor sets -> {out}")
    return _EXIT_OK


def _head_for(body: int, kind: Kind) -> HeadKind:
    return next(h for h in HeadKind if h.body == body and h.kind is kind)


def _write_fit(out, subcommand: str, model, report, inputs: dict, started: float) -> int:
    """The outputs of a training stage: the model directory, ``mae.csv``,
    ``fit_report.txt`` and the manifest; the report also goes to stdout."""
    cfg = report.config
    text = reports.fit_report_text(report)
    save_model(model, os.path.join(out, "model"))
    reports.write_mae_csv(os.path.join(out, "mae.csv"), report.per_geometry)
    with replacing(os.path.join(out, "fit_report.txt")) as tmp, open(tmp, "w") as fh:
        fh.write(text)
    _write_manifest(out, subcommand, {**inputs, **_jsonable(dataclasses.asdict(cfg))},
                    seed=cfg.seed, started=started)
    print(text, end="")
    print(f"wall_time_s: {report.wall_time:.3f}")
    return _EXIT_OK


def _cmd_train_bare(args) -> int:
    started = time.perf_counter()
    stage = _head_for(args.body, Kind.BARE)
    cfg = _resolve(presets.training_config(args.system, stage), args)
    series = load_series(args.data, kind=Kind.BARE)
    out = args.out
    model, report = train_bare(series, cfg)
    return _write_fit(out, "train-bare", model, report,
                      {"system": args.system, "data": os.fspath(args.data)}, started)


def _parse_refs(text: str) -> list[float]:
    """The geometries of a ``--refs`` flag; empty fields are skipped."""
    try:
        return [float(r) for r in text.split(",") if r.strip()]
    except ValueError:
        raise _UsageError(f"--refs must be comma-separated numbers, got {text!r}")


def _cmd_finetune(args) -> int:
    started = time.perf_counter()
    bare_model = load_model(args.model)
    stage = _head_for(bare_model.head.body, Kind.EFFECTIVE)
    cfg = _resolve(presets.training_config(args.system, stage), args)
    series = load_series(args.data, kind=Kind.EFFECTIVE)
    refs = _parse_refs(args.refs) if args.refs else None
    out = args.out
    model, report = finetune_effective(series, bare_model, cfg, refs=refs)
    return _write_fit(out, "finetune", model, report,
                      {"system": args.system, "data": os.fspath(args.data),
                       "model": os.fspath(args.model), "refs": refs}, started)


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    model = load_model(args.model)
    series = load_series(args.data, kind=model.head.kind)
    refs = _parse_refs(args.refs) if args.refs else []
    out = args.out
    per_geometry = evaluate_mae(model, series, train_geometries=refs)
    os.makedirs(out, exist_ok=True)
    reports.write_mae_csv(os.path.join(out, "mae.csv"), per_geometry)
    _write_manifest(out, "eval",
                    {"model": os.fspath(args.model), "data": os.fspath(args.data), "refs": refs},
                    seed=None, started=started)
    overall = float(np.mean([g.unit_mae for g in per_geometry]))
    print(f"evaluated {len(per_geometry)} geometries, mean unit MAE {overall:.6g}")
    return _EXIT_OK


def _load_kernel_matrix(path, planted: str) -> np.ndarray:
    """A kernel from a model directory, a kernel checkpoint file, or the
    ``planted`` array (``w_bare``/``w_eff``) of a plant's provenance.npz."""
    path = os.fspath(path)
    if os.path.isdir(path):
        return load_model_kernel(path).matrix
    if os.path.exists(path) and not zipfile.is_zipfile(path):
        raise _UsageError(f"{path}: neither a model directory nor an .npz archive")
    with np.load(path) as data:
        if planted in data.files:
            return KernelMatrix(data[planted]).matrix
    return load_kernel(path)


def _cmd_analyze_spectrum(args) -> int:
    started = time.perf_counter()
    bare = eig_sym(_load_kernel_matrix(args.bare, "w_bare"))
    eff = eig_sym(_load_kernel_matrix(args.eff, "w_eff"))
    out = args.out
    alignment = align_eigensystems(bare, eff)
    table = eigen_differences(alignment)
    os.makedirs(out, exist_ok=True)
    reports.write_overlap_csv(os.path.join(out, "overlap.csv"), alignment)
    reports.write_difference_csv(os.path.join(out, "eigen_differences.csv"), table)
    _write_manifest(out, "analyze-spectrum",
                    {"bare": os.fspath(args.bare), "eff": os.fspath(args.eff)},
                    seed=None, started=started)
    print(
        f"aligned {alignment.dim} eigenpairs: min diagonal overlap "
        f"{alignment.score:.6f}, max off-diagonal {alignment.max_off_diagonal:.6f}"
    )
    return _EXIT_OK


def _read_difference_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        try:
            i_idx = header.index("index")
            b_idx = header.index("bare")
            e_idx = header.index("eff")
            f_idx = header.index("flagged")
        except ValueError:
            raise _UsageError(f"{path}: expected columns index,bare,eff,...,flagged")
        for ln, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            try:
                if parts[f_idx] == "true":
                    continue
                row = (int(parts[i_idx]), float(parts[b_idx]), float(parts[e_idx]))
            except (IndexError, ValueError):
                raise _UsageError(f"{path}:{ln}: bad row {line.strip()!r} for columns {','.join(header)}")
            if not np.isfinite(row).all():
                raise _UsageError(f"{path}:{ln}: non-finite value in row {line.strip()!r}")
            rows.append(row)
    return rows


def _cmd_fit_tan(args) -> int:
    started = time.perf_counter()
    pairs = _read_difference_csv(args.table)
    out = args.out
    fit = fit_tan(pairs)
    os.makedirs(out, exist_ok=True)
    reports.write_tanfit_json(os.path.join(out, "tanfit.json"), fit)
    # re-emit the fitted curve against the observed relative differences
    index, bare, eff = (np.array(column) for column in zip(*pairs))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = (eff - bare) / bare
    table = DifferenceTable(index=index, bare=bare, eff=eff, diff=eff - bare, rel_diff=rel,
                            flagged=np.zeros(index.size, dtype=bool))
    reports.write_tanfit_csv(os.path.join(out, "tanfit.csv"), table, fit)
    _write_manifest(out, "fit-tan", {"table": os.fspath(args.table)},
                    seed=None, started=started)
    print(
        f"tan fit: rate {fit.rate:.6g}, amplitude {fit.amplitude:.6g}, "
        f"center {fit.center:.6g}, residual {fit.residual:.3g}"
    )
    return _EXIT_OK


def _cmd_suzuki_verify(args) -> int:
    started = time.perf_counter()
    if args.rdim >= args.dim:
        raise _UsageError("--rdim must be smaller than --dim")
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    out = args.out
    seeds = np.random.SeedSequence(args.seed).generate_state(args.trials)
    problems = (random_coupled_problem(args.dim, args.rdim, args.coupling, int(s))
                for s in seeds)
    results = verify_w_identities(problems, n_max=args.n_max)
    trials = np.arange(args.trials)
    errors = np.array([r.series_errors for r in results])
    os.makedirs(out, exist_ok=True)
    reports.write_csv(
        os.path.join(out, "residuals.csv"),
        ("trial", "seed", "rel_frobenius", "max_abs", "half_spread"),
        (trials, seeds, [r.rel_frobenius for r in results], [r.max_abs for r in results],
         [r.half_spread for r in results]),
    )
    reports.write_csv(
        os.path.join(out, "series_convergence.csv"),
        ("trial", "order", "rel_error"),
        (trials.repeat(errors.shape[1]), np.tile(np.arange(1, errors.shape[1] + 1), args.trials),
         errors.ravel()),
    )
    _write_manifest(out, "suzuki-verify",
                    {"dim": args.dim, "rdim": args.rdim, "coupling": args.coupling,
                     "trials": args.trials, "n_max": args.n_max},
                    seed=args.seed, started=started)
    worst = max(r.rel_frobenius for r in results)
    print(f"{args.trials} trials: worst relative residual {worst:.3e}")
    return _EXIT_OK


def _require(path, stage):
    if not os.path.exists(path):
        raise _UsageError(f"missing {path}: it is written by {stage}; run that stage first")
    return path


def _cmd_report(args) -> int:
    """Copy the outputs of finetune, analyze-spectrum and fit-tan from
    ``--run`` into ``--out``, byte for byte.  Every input is checked, and
    ``tanfit.json`` read, before ``--out`` is made."""
    started = time.perf_counter()
    run_dir = os.fspath(args.run)
    sources = [_require(os.path.join(run_dir, rel), stage) for rel, stage in (
        ("stage2/mae.csv", "finetune"), ("spectrum/overlap.csv", "analyze-spectrum"),
        ("spectrum/eigen_differences.csv", "analyze-spectrum"),
        ("fit/tanfit.csv", "fit-tan"), ("fit/tanfit.json", "fit-tan"))]
    with open(sources[-1]) as fh:
        fit = json.load(fh)
    rate, center = fit["rate"], fit["center"]
    out = args.out
    os.makedirs(out, exist_ok=True)
    for src in sources:
        reports.copy_file(src, os.path.join(out, os.path.basename(src)))
    _write_manifest(out, "report", {"system": args.system, "run": run_dir},
                    seed=None, started=started)
    print(f"report for {args.system}: tan rate {rate:.4g}, center {center:.4g}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="tanfold", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand")

    def common(p, *, seed=False, config=False):
        """``--out`` and those of ``--seed`` and ``--config`` that the
        subcommand's handler reads.  Each handler creates ``--out``
        only once its inputs have passed validation and its computation has
        succeeded, just before the first write, so a failed run leaves no
        directory behind."""
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if config:
            p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="write a planted dataset")
    p.add_argument("--plant", required=True)
    common(p, seed=True, config=True)

    p = sub.add_parser("train-bare", help="stage 1: fit bare tensors")
    p.add_argument("--system", required=True)
    p.add_argument("--body", type=int, choices=(1, 2), required=True)
    p.add_argument("--data", required=True)
    common(p, seed=True, config=True)

    p = sub.add_parser("finetune", help="stage 2: fine-tune on effective tensors")
    p.add_argument("--system", required=True)
    p.add_argument("--model", required=True, help="stage-1 model directory")
    p.add_argument("--data", required=True)
    p.add_argument("--refs", default=None, help="comma-separated reference geometries")
    common(p, seed=True, config=True)

    p = sub.add_parser("eval", help="per-geometry MAE of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--refs", default=None)
    common(p)

    p = sub.add_parser("analyze-spectrum", help="align two kernel spectra")
    p.add_argument("--bare", required=True, help="model directory, kernel .npz or provenance.npz")
    p.add_argument("--eff", required=True)
    common(p)

    p = sub.add_parser("fit-tan", help="fit the tangent law to eigen differences")
    p.add_argument("--table", required=True, help="eigen_differences.csv")
    common(p)

    p = sub.add_parser("suzuki-verify", help="random block-decoupling trials")
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--rdim", type=int, default=3)
    p.add_argument("--coupling", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-max", type=int, default=12)
    common(p, seed=True)

    p = sub.add_parser("report", help="collect plot-ready CSVs from a run")
    p.add_argument("--system", required=True)
    p.add_argument("--run", required=True, help="pipeline run directory")
    common(p)

    return parser


_HANDLERS = {
    "synth": _cmd_synth,
    "train-bare": _cmd_train_bare,
    "finetune": _cmd_finetune,
    "eval": _cmd_eval,
    "analyze-spectrum": _cmd_analyze_spectrum,
    "fit-tan": _cmd_fit_tan,
    "suzuki-verify": _cmd_suzuki_verify,
    "report": _cmd_report,
}


def _usage_text(parser) -> str:
    return parser.format_help() + "\n" + "\n".join(presets.usage_lines()) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        sys.stderr.write(_usage_text(parser))
        return _EXIT_USAGE
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            sys.stderr.write(_usage_text(parser))
            return _EXIT_USAGE
        return _HANDLERS[args.subcommand](args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # before ValueError: LinAlgError is one
        sys.stderr.write(f"tanfold: numerical failure: {exc}\n")
        return _EXIT_NUMERICAL
    except (_UsageError, OSError, ValueError, KeyError) as exc:  # so is json.JSONDecodeError
        sys.stderr.write(f"tanfold: error: {exc}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
