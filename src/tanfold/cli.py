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
numerical failures.  All randomness flows from ``--seed``; ``suzuki-verify``
takes seed 0 without it.  Hyperparameters come from presets, overridden by
``--config`` (flat ``key = value`` lines), overridden by ``--seed``.  A
stage that succeeds writes ``manifest.json`` to ``--out`` after its other
outputs: the resolved configuration, the seed, the BLAS thread-count
variables and the wall time.  The manifest is a run log and not part of the
deterministic output-file contract.  CSV schemas are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import typing

import numpy as np

from . import __version__, presets, reports
from .atomic import copy_file, read_json, read_text, write_json, write_text
from .heads import HeadKind
from .spectral import align_eigensystems, eig_sym, eigen_differences
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

#: the thread-count variables of BLAS and OpenMP; outputs are bit-identical
#: only at one count, so every manifest records them
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "SCIPY_OPENBLAS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


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

def _read_config(path) -> dict[str, tuple[int, str]]:
    """``{key: (line number, value text)}`` of a config file."""
    out: dict[str, tuple[int, str]] = {}
    for ln, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{ln}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise _UsageError(f"{path}:{ln}: repeated config key {key!r}")
        out[key] = ln, value
    return out


def _coerce(where: str, key: str, text: str, py_type):
    """``text`` read as a value of the field type ``py_type``; a fault is
    reported at ``where``, the file and line of the setting."""
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
        raise _UsageError(f"{where}: config key {key}: {exc}") from None


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
        raise _UsageError(f"{config_path}: unknown config keys: {', '.join(unknown)}")
    return {k: _coerce(f"{config_path}:{ln}", k, v, keys[k]) for k, (ln, v) in raw.items()}


# ---------------------------------------------------------------------------
# stage resolution
# ---------------------------------------------------------------------------

def _resolve(preset, args):
    """``preset`` (a ``TrainConfig`` or ``PlantSpec``) with the settings of
    ``--config`` and then ``--seed`` in place of its own.  A value that
    the dataclass rejects is reported with the config file's path."""
    overrides = _config_overrides(args.config, type(preset))
    try:
        resolved = dataclasses.replace(preset, **overrides)
    except ValueError as exc:
        raise _UsageError(f"{args.config}: {exc}") from None
    if args.seed is not None:
        resolved = dataclasses.replace(resolved, seed=args.seed)
    return resolved


# ---------------------------------------------------------------------------
# subcommands: each writes its outputs to ``--out`` and returns the
# resolved configuration and the seed that ``main`` records in the manifest
# ---------------------------------------------------------------------------

def _cmd_synth(args):
    spec = _resolve(presets.plant_preset(args.plant), args)
    result = plant_series(spec)
    save_plant(result, args.out)
    print(f"planted {len(result.series.tensor_sets)} tensor sets -> {args.out}")
    return {"plant": args.plant, **dataclasses.asdict(spec)}, spec.seed


def _head_for(body: int, kind: Kind) -> HeadKind:
    return next(h for h in HeadKind if h.body == body and h.kind is kind)


def _write_fit(out, model, report, inputs: dict):
    """The outputs of a training stage: the model directory, ``mae.csv`` and
    ``fit_report.txt``; the report also goes to stdout."""
    cfg = report.config
    text = reports.fit_report_text(report)
    save_model(model, os.path.join(out, "model"))
    reports.write_mae_csv(os.path.join(out, "mae.csv"), report.per_geometry)
    write_text(os.path.join(out, "fit_report.txt"), (text,))
    print(text, end="")
    print(f"wall_time_s: {report.wall_time:.3f}")
    return {**inputs, **dataclasses.asdict(cfg), "stage": cfg.stage.value}, cfg.seed


def _cmd_train_bare(args):
    stage = _head_for(args.body, Kind.BARE)
    cfg = _resolve(presets.training_config(args.system, stage), args)
    series = load_series(args.data, kind=Kind.BARE)
    model, report = train_bare(series, cfg)
    return _write_fit(args.out, model, report,
                      {"system": args.system, "data": os.fspath(args.data)})


def _parse_refs(text: str) -> list[float]:
    """The geometries of a ``--refs`` flag; empty fields are skipped."""
    try:
        return [float(r) for r in text.split(",") if r.strip()]
    except ValueError:
        raise _UsageError(f"--refs must be comma-separated numbers, got {text!r}")


def _cmd_finetune(args):
    bare_model = load_model(args.model)
    stage = _head_for(bare_model.head.body, Kind.EFFECTIVE)
    cfg = _resolve(presets.training_config(args.system, stage), args)
    series = load_series(args.data, kind=Kind.EFFECTIVE)
    refs = _parse_refs(args.refs) if args.refs else None
    model, report = finetune_effective(series, bare_model, cfg, refs=refs)
    return _write_fit(args.out, model, report,
                      {"system": args.system, "data": os.fspath(args.data),
                       "model": os.fspath(args.model), "refs": refs})


def _cmd_eval(args):
    model = load_model(args.model)
    series = load_series(args.data, kind=model.head.kind)
    refs = _parse_refs(args.refs) if args.refs else []
    per_geometry = evaluate_mae(model, series, train_geometries=refs)
    reports.write_mae_csv(os.path.join(args.out, "mae.csv"), per_geometry)
    overall = float(np.mean([g.unit_mae for g in per_geometry]))
    print(f"evaluated {len(per_geometry)} geometries, mean unit MAE {overall:.6g}")
    return {"model": os.fspath(args.model), "data": os.fspath(args.data), "refs": refs}, None


def _cmd_analyze_spectrum(args):
    bare = eig_sym(load_model_kernel(args.bare, "w_bare").matrix)
    eff = eig_sym(load_model_kernel(args.eff, "w_eff").matrix)
    alignment = align_eigensystems(bare, eff)
    table = eigen_differences(alignment)
    reports.write_overlap_csv(os.path.join(args.out, "overlap.csv"), alignment)
    reports.write_difference_csv(os.path.join(args.out, "eigen_differences.csv"), table)
    print(
        f"aligned {alignment.dim} eigenpairs: min diagonal overlap "
        f"{alignment.score:.6f}, max off-diagonal {alignment.max_off_diagonal:.6f}"
    )
    return {"bare": os.fspath(args.bare), "eff": os.fspath(args.eff)}, None


def _cmd_fit_tan(args):
    table = reports.read_difference_csv(args.table)
    fit = fit_tan(table.pairs())
    reports.write_tanfit_json(os.path.join(args.out, "tanfit.json"), fit)
    # re-emit the fitted curve against the observed relative differences
    reports.write_tanfit_csv(os.path.join(args.out, "tanfit.csv"), table, fit)
    print(
        f"tan fit: rate {fit.rate:.6g}, amplitude {fit.amplitude:.6g}, "
        f"center {fit.center:.6g}, residual {fit.residual:.3g}"
    )
    return {"table": os.fspath(args.table)}, None


def _cmd_suzuki_verify(args):
    if args.rdim >= args.dim:
        raise _UsageError("--rdim must be smaller than --dim")
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    seed = 0 if args.seed is None else args.seed  # the presets' default seed
    seeds = np.random.SeedSequence(seed).generate_state(args.trials)
    problems = (random_coupled_problem(args.dim, args.rdim, args.coupling, int(s))
                for s in seeds)
    results = verify_w_identities(problems, n_max=args.n_max)
    trials = np.arange(args.trials)
    errors = np.array([r.series_errors for r in results])
    reports.write_csv(
        os.path.join(args.out, "residuals.csv"),
        ("trial", "seed", "rel_frobenius", "max_abs", "half_spread"),
        (trials, seeds, [r.rel_frobenius for r in results], [r.max_abs for r in results],
         [r.half_spread for r in results]),
    )
    reports.write_csv(
        os.path.join(args.out, "series_convergence.csv"),
        ("trial", "order", "rel_error"),
        (trials.repeat(errors.shape[1]), np.tile(np.arange(1, errors.shape[1] + 1), args.trials),
         errors.ravel()),
    )
    worst = max(r.rel_frobenius for r in results)
    print(f"{args.trials} trials: worst relative residual {worst:.3e}")
    return {"dim": args.dim, "rdim": args.rdim, "coupling": args.coupling,
            "trials": args.trials, "n_max": args.n_max}, seed


def _require(path, stage):
    if not os.path.exists(path):
        raise _UsageError(f"missing {path}: it is written by {stage}; run that stage first")
    return path


def _cmd_report(args):
    """Copy the outputs of finetune, analyze-spectrum and fit-tan from
    ``--run`` into ``--out``, byte for byte.  Every input is checked, and
    ``tanfit.json`` read, before the first copy makes ``--out``."""
    run_dir = os.fspath(args.run)
    sources = [_require(os.path.join(run_dir, rel), stage) for rel, stage in (
        ("stage2/mae.csv", "finetune"), ("spectrum/overlap.csv", "analyze-spectrum"),
        ("spectrum/eigen_differences.csv", "analyze-spectrum"),
        ("fit/tanfit.csv", "fit-tan"), ("fit/tanfit.json", "fit-tan"))]
    fit = read_json(sources[-1])
    if any(type(fit.get(k)) not in (int, float) for k in ("rate", "center")):
        raise _UsageError(f"{sources[-1]}: expected numeric rate and center")
    for src in sources:
        copy_file(src, os.path.join(args.out, os.path.basename(src)))
    print(f"report for {args.system}: tan rate {fit['rate']:.4g}, center {fit['center']:.4g}")
    return {"system": args.system, "run": run_dir}, None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """The value of ``--seed``: an integer, at least 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tanfold", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand")

    def common(p, handler, *, seed=False, config=False):
        """``handler``, ``--out`` and those of ``--seed`` and ``--config``
        that the handler reads."""
        p.set_defaults(handler=handler)
        if seed:
            p.add_argument("--seed", type=_seed, default=None)
        if config:
            p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="write a planted dataset")
    p.add_argument("--plant", required=True)
    common(p, _cmd_synth, seed=True, config=True)

    p = sub.add_parser("train-bare", help="stage 1: fit bare tensors")
    p.add_argument("--system", required=True)
    p.add_argument("--body", type=int, choices=(1, 2), required=True)
    p.add_argument("--data", required=True)
    common(p, _cmd_train_bare, seed=True, config=True)

    p = sub.add_parser("finetune", help="stage 2: fine-tune on effective tensors")
    p.add_argument("--system", required=True)
    p.add_argument("--model", required=True, help="stage-1 model directory")
    p.add_argument("--data", required=True)
    p.add_argument("--refs", default=None, help="comma-separated reference geometries")
    common(p, _cmd_finetune, seed=True, config=True)

    p = sub.add_parser("eval", help="per-geometry MAE of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--refs", default=None)
    common(p, _cmd_eval)

    p = sub.add_parser("analyze-spectrum", help="align two kernel spectra")
    p.add_argument("--bare", required=True, help="model directory, kernel .npz or provenance.npz")
    p.add_argument("--eff", required=True)
    common(p, _cmd_analyze_spectrum)

    p = sub.add_parser("fit-tan", help="fit the tangent law to eigen differences")
    p.add_argument("--table", required=True, help="eigen_differences.csv")
    common(p, _cmd_fit_tan)

    p = sub.add_parser("suzuki-verify", help="random block-decoupling trials")
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--rdim", type=int, default=3)
    p.add_argument("--coupling", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-max", type=int, default=12)
    common(p, _cmd_suzuki_verify, seed=True)

    p = sub.add_parser("report", help="collect plot-ready CSVs from a run")
    p.add_argument("--system", required=True)
    p.add_argument("--run", required=True, help="pipeline run directory")
    common(p, _cmd_report)

    return parser


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
        started = time.perf_counter()
        resolved, seed = args.handler(args)
        write_json(os.path.join(args.out, "manifest.json"), {
            "subcommand": args.subcommand, "config": resolved, "seed": seed,
            "version": __version__, "wall_time_s": round(time.perf_counter() - started, 3),
            "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        })
        return _EXIT_OK
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # before ValueError: LinAlgError is one
        sys.stderr.write(f"tanfold: numerical failure: {exc}\n")
        return _EXIT_NUMERICAL
    except (_UsageError, OSError, ValueError, KeyError) as exc:  # so is json.JSONDecodeError
        sys.stderr.write(f"tanfold: error: {exc}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
