"""Command-line interface: exit codes, config precedence, artifacts."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
import typing
import zipfile

import numpy as np
import pytest

from tanfold import cli
from tanfold.cli import main
from tanfold.nn import save_kernel
from tanfold.synth import PlantSpec, plant_series
from tanfold.tensors import load_series
from tanfold.training import TrainConfig

TINY_PLANT = """
n_orb = 3
ell = 8
geometries = 1.0, 1.25, 1.5, 1.75, 2.0
rate = 0.05          # tangent growth per index
amplitude = 0.01
center = 4.0
target_rms = 0.5
seed = 3
system = tiny
"""

TINY_TRAIN = """
epochs = 40
batch_size = 64
base_lr = 0.02
ell = 8
hidden = 16,16
"""

TINY_TUNE = """
epochs = 20
batch_size = 64
base_lr = 0.002
ell = 8
hidden = 16,16
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One tiny pipeline run of all eight stages, shared by the read-only
    tests below."""
    root = tmp_path_factory.mktemp("cli")
    plant_cfg = root / "plant.cfg"
    plant_cfg.write_text(TINY_PLANT)
    train_cfg = root / "train.cfg"
    train_cfg.write_text(TINY_TRAIN)
    tune_cfg = root / "tune.cfg"
    tune_cfg.write_text(TINY_TUNE)

    data = root / "data"
    assert main(["synth", "--plant", "desk", "--config", str(plant_cfg),
                 "--out", str(data)]) == 0

    run = root / "run"
    assert main(["train-bare", "--system", "desk", "--body", "2",
                 "--data", str(data), "--config", str(train_cfg),
                 "--seed", "1", "--out", str(run / "stage1")]) == 0
    assert main(["finetune", "--system", "desk",
                 "--model", str(run / "stage1" / "model"),
                 "--data", str(data), "--config", str(tune_cfg),
                 "--refs", "1.0,1.5,2.0", "--seed", "1",
                 "--out", str(run / "stage2")]) == 0
    assert main(["analyze-spectrum", "--bare", str(run / "stage1" / "model"),
                 "--eff", str(run / "stage2" / "model"),
                 "--out", str(run / "spectrum")]) == 0
    assert main(["fit-tan", "--table", str(run / "spectrum" / "eigen_differences.csv"),
                 "--out", str(run / "fit")]) == 0
    assert main(["eval", "--model", str(run / "stage2" / "model"), "--data", str(data),
                 "--out", str(run / "eval")]) == 0
    assert main(["suzuki-verify", "--dim", "6", "--rdim", "2", "--trials", "3", "--seed", "2",
                 "--out", str(run / "suzuki")]) == 0
    assert main(["report", "--system", "desk", "--run", str(run),
                 "--out", str(run / "report")]) == 0
    return {"root": root, "data": data, "run": run,
            "plant_cfg": plant_cfg, "train_cfg": train_cfg}


# ---------------------------------------------------------------------------
# usage and validation failures: exit code 1
# ---------------------------------------------------------------------------

def test_no_arguments_prints_usage_with_presets(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "synth" in err and "suzuki-verify" in err
    for name in ("H4", "H6", "HF", "H2O", "desk", "paper"):
        assert name in err


def test_unknown_subcommand_fails(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_fails(capsys):
    assert main(["suzuki-verify", "--bogus", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_synth_requires_out(tmp_path, capsys):
    assert main(["synth", "--plant", "desk"]) == 1
    assert "--out" in capsys.readouterr().err


def test_synth_unknown_plant(tmp_path, capsys):
    code = main(["synth", "--plant", "nope", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "desk" in capsys.readouterr().err


def test_config_unknown_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    code = main(["synth", "--plant", "desk", "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "wibble" in capsys.readouterr().err


def test_config_bad_value_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ell = many\n")
    code = main(["synth", "--plant", "desk", "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_config_line_without_equals_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line\n")
    code = main(["synth", "--plant", "desk", "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "key = value" in capsys.readouterr().err


#: FORMATS.md's name for each field type a config value is read as
_TYPE_NAMES = {int: "int", float: "float", str: "str", bool: "bool",
               tuple[int, ...]: "int list", tuple[float, ...]: "float list"}


def _formats_config_table(header):
    """``{key: type}`` of the FORMATS.md table whose first column is ``header``."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "FORMATS.md")) as fh:
        after = fh.read().split(f"| {header} | type | notes |\n|---|---|---|\n", 1)[1]
    rows = [line.split("|")[1:3] for line in after.split("\n\n", 1)[0].splitlines()]
    return {key.strip().strip("`"): kind.strip() for key, kind in rows}


@pytest.mark.parametrize("header, fields_of", [("training key", TrainConfig),
                                               ("plant key", PlantSpec)])
def test_formats_config_keys_follow_the_dataclass(header, fields_of):
    hints = {k: _TYPE_NAMES[t] for k, t in typing.get_type_hints(fields_of).items()
             if k != "stage"}
    assert _formats_config_table(header) == hints


def test_config_values_take_their_field_types(tmp_path):
    train = tmp_path / "train.cfg"
    train.write_text("epochs = 3\nbatch_size=7\nbase_lr = 1e-3\nseed = 4\nell = 9\n"
                     "hidden = 16, ,8\nfreeze_orbitals = YES\nkernel_polish = 0\n")
    assert cli._config_overrides(str(train), TrainConfig) == {
        "epochs": 3, "batch_size": 7, "base_lr": 1e-3, "seed": 4, "ell": 9,
        "hidden": (16, 8), "freeze_orbitals": True, "kernel_polish": False}
    plant = tmp_path / "plant.cfg"
    plant.write_text("geometries = 1, 2.5\nsystem = a b\nn_orb = 3\nnoise = 0\n")
    got = cli._config_overrides(str(plant), PlantSpec)
    assert got == {"geometries": (1.0, 2.5), "system": "a b", "n_orb": 3, "noise": 0.0}
    assert [type(v) for v in got.values()] == [tuple, str, int, float]


@pytest.mark.parametrize("command, line, message", [
    ("train-bare", "hidden = 16,x", "config key hidden: invalid literal for int() with base 10: 'x'"),
    ("train-bare", "kernel_polish = maybe", "config key kernel_polish: not a boolean: 'maybe'"),
    ("train-bare", "base_lr = fast", "config key base_lr: could not convert string to float: 'fast'"),
    ("train-bare", "stage = EFF_TWO", "unknown config keys: stage"),
    ("synth", "geometries = 1.0,x", "config key geometries: could not convert string to float: 'x'"),
    ("synth", "seed = 3\n# a comment\nn_orb = four", "config key n_orb: invalid literal for int() with base 10: 'four'"),
    ("train-bare", "ell = 0", "ell must be >= 1"),
    ("train-bare", "hidden = 0", "hidden widths must be >= 1, got (0,)"),
    ("train-bare", "hidden = 16, -2", "hidden widths must be >= 1, got (16, -2)"),
    ("train-bare", "seed = -1", "seed must be >= 0, got -1"),
    ("synth", "seed = -1", "seed must be >= 0, got -1"),
])
def test_config_value_error_names_the_key(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    argv = {"synth": ["--plant", "desk"],
            "train-bare": ["--system", "desk", "--body", "2", "--data", str(tmp_path)]}[command]
    assert main([command, *argv, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    # a value that does not read as its type is reported at its line, the
    # last one written; the other faults name the file
    where = f"{cfg}:{line.count(chr(10)) + 1}" if message.startswith("config key") else cfg
    assert capsys.readouterr().err == f"tanfold: error: {where}: {message}\n"
    assert not (tmp_path / "x").exists()


def test_config_repeated_key_fails_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\n# the same key again\n seed=2\n")
    out = tmp_path / "x"
    assert main(["synth", "--plant", "desk", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"tanfold: error: {cfg}:3: repeated config key 'seed'\n"
    assert not out.exists()


@pytest.mark.parametrize("command, line, field", [
    ("synth", "eta = nan", "eta"),
    ("synth", "noise = nan", "noise"),
    ("synth", "rate = nan", "rate"),
    ("synth", "amplitude = nan", "amplitude"),
    ("synth", "center = nan", "center"),
    ("synth", "target_rms = inf", "target_rms"),
    ("synth", "fourier_scale = nan", "fourier_scale"),
    ("synth", "geometries = 1.0, nan, 2.0", "geometries"),
    ("synth", "geometries = 1.0, -inf", "geometries"),
    ("train-bare", "base_lr = nan", "base_lr"),
    ("train-bare", "base_lr = inf", "base_lr"),
    ("finetune", "base_lr = nan", "base_lr"),
])
def test_non_finite_setting_fails_naming_the_field(work, tmp_path, capsys, command, line, field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    argv = {"synth": ["--plant", "desk"],
            "train-bare": ["--system", "desk", "--body", "2", "--data", str(work["data"])],
            "finetune": ["--system", "desk", "--model", str(work["run"] / "stage1" / "model"),
                         "--data", str(work["data"])]}[command]
    out = tmp_path / "x"
    assert main([command, *argv, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tanfold: error: {cfg}: {field} must be ") and err.count("\n") == 1
    assert not out.exists()


def test_config_freeze_without_polish_fails(work, tmp_path, capsys):
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text(TINY_TRAIN + "freeze_orbitals = true\nkernel_polish = false\n")
    out = tmp_path / "x"
    code = main(["train-bare", "--system", "desk", "--body", "2",
                 "--data", str(work["data"]), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "freeze_orbitals" in err and "kernel_polish" in err
    assert not out.exists()


#: arguments each subcommand requires besides --out, and the shared flags
#: its handler reads
_SUBCOMMAND_ARGS = {
    "synth": (["--plant", "desk"], {"--seed", "--config"}),
    "train-bare": (["--system", "desk", "--body", "2", "--data", "d"], {"--seed", "--config"}),
    "finetune": (["--system", "desk", "--model", "m", "--data", "d"], {"--seed", "--config"}),
    "eval": (["--model", "m", "--data", "d"], set()),
    "analyze-spectrum": (["--bare", "b", "--eff", "e"], set()),
    "fit-tan": (["--table", "t"], set()),
    "suzuki-verify": ([], {"--seed"}),
    "report": (["--system", "desk", "--run", "r"], set()),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, reads) in _SUBCOMMAND_ARGS.items()
    for flag in ("--config", "--profile", "--seed") if flag not in reads
])
def test_subcommand_rejects_shared_flag_it_does_not_read(command, flag, tmp_path, capsys):
    required, _ = _SUBCOMMAND_ARGS[command]
    value = "desk" if flag == "--profile" else "1"
    out = tmp_path / "x"
    assert main([command, *required, flag, value, "--out", str(out)]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [c for c, (_, reads) in _SUBCOMMAND_ARGS.items()
                                     if "--seed" in reads])
def test_negative_seed_is_a_usage_error(command, tmp_path, capsys):
    required, _ = _SUBCOMMAND_ARGS[command]
    out = tmp_path / "x"
    assert main([command, *required, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.endswith("tanfold: error: argument --seed: must be an integer >= 0, got '-1'\n")
    assert not out.exists()


def test_train_unknown_system(work, tmp_path, capsys):
    code = main(["train-bare", "--system", "XYZ", "--body", "2",
                 "--data", str(work["data"]), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "H4" in capsys.readouterr().err


def test_missing_data_directory(tmp_path, capsys):
    code = main(["train-bare", "--system", "desk", "--body", "2",
                 "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "x")])
    assert code == 1


def test_bad_refs_fail(work, tmp_path, capsys):
    code = main(["finetune", "--system", "desk",
                 "--model", str(work["run"] / "stage1" / "model"),
                 "--data", str(work["data"]), "--refs", "1.0;2.0",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "refs" in capsys.readouterr().err


@pytest.mark.parametrize("refs, code", [("1.0,,2.0", 0), ("1.0;2.0", 1)])
def test_eval_parses_refs_like_finetune(work, tmp_path, capsys, refs, code):
    out = tmp_path / "eval"
    assert main(["eval", "--model", str(work["run"] / "stage2" / "model"),
                 "--data", str(work["data"]), "--refs", refs, "--out", str(out)]) == code
    if code:
        assert "--refs must be comma-separated numbers" in capsys.readouterr().err
    else:
        splits = [line.rsplit(",", 1)[1] for line in (out / "mae.csv").read_text().splitlines()[1:]]
        assert splits.count("train") == 2


def test_refs_off_grid_fail(work, tmp_path, capsys):
    code = main(["finetune", "--system", "desk",
                 "--model", str(work["run"] / "stage1" / "model"),
                 "--data", str(work["data"]), "--refs", "9.5",
                 "--out", str(tmp_path / "x" / "ft")])
    assert code == 1
    assert "9.5" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("refs", ["1.0,1.5,1.0", "1.0,1.5,1.0000000000001"])
def test_repeated_refs_fail(work, tmp_path, capsys, refs):
    code = main(["finetune", "--system", "desk",
                 "--model", str(work["run"] / "stage1" / "model"),
                 "--data", str(work["data"]), "--refs", refs,
                 "--out", str(tmp_path / "x" / "ft")])
    assert code == 1
    assert capsys.readouterr().err == "tanfold: error: repeated reference geometries [1.0]\n"
    assert not (tmp_path / "x").exists()


def test_eval_refs_off_grid_fail(work, tmp_path, capsys):
    code = main(["eval", "--model", str(work["run"] / "stage2" / "model"),
                 "--data", str(work["data"]), "--refs", "1.0,9.5",
                 "--out", str(tmp_path / "x" / "ev")])
    assert code == 1
    assert "9.5" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_finetune_rejects_stage2_model(work, tmp_path, capsys):
    code = main(["finetune", "--system", "desk",
                 "--model", str(work["run"] / "stage2" / "model"),
                 "--data", str(work["data"]), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "EFF_TWO" in capsys.readouterr().err


def test_suzuki_rdim_validation(tmp_path, capsys):
    code = main(["suzuki-verify", "--dim", "4", "--rdim", "4",
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_suzuki_trials_validation(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["suzuki-verify", "--trials", "0", "--out", str(out)])
    assert code == 1
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_report_requires_finished_run(tmp_path, capsys):
    code = main(["report", "--system", "desk", "--run", str(tmp_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "stage2" / "mae.csv") in err and "finetune" in err
    assert not (tmp_path / "out").exists()


#: the files report collects, relative to the run directory
REPORT_SOURCES = ("stage2/mae.csv", "spectrum/overlap.csv", "spectrum/eigen_differences.csv",
                  "fit/tanfit.csv", "fit/tanfit.json")


@pytest.mark.parametrize("missing", REPORT_SOURCES)
def test_report_missing_input(work, tmp_path, capsys, missing):
    # every input is checked before the first write: no --out is left
    run = tmp_path / "run"
    for stage in ("stage2", "spectrum", "fit"):
        shutil.copytree(work["run"] / stage, run / stage)
    (run / missing).unlink()
    out = tmp_path / "out"
    code = main(["report", "--system", "desk", "--run", str(run), "--out", str(out)])
    assert code == 1
    assert str(run / missing) in capsys.readouterr().err
    assert not out.exists()


def _stage_argv(command, run, work, out):
    stage1, stage2 = str(run / "stage1" / "model"), str(run / "stage2" / "model")
    return {
        "finetune": ["finetune", "--system", "desk", "--model", stage1,
                     "--data", str(work["data"]), "--config", str(work["root"] / "tune.cfg"),
                     "--refs", "1.0,1.5,2.0", "--out", out],
        "eval": ["eval", "--model", stage2, "--data", str(work["data"]),
                 "--refs", "1.0,1.5,2.0", "--out", out],
        "analyze-spectrum": ["analyze-spectrum", "--bare", stage1, "--eff", stage2, "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["finetune", "eval", "analyze-spectrum"])
@pytest.mark.parametrize("missing", ["model.json", "kernel.npz", "net0.npz"])
def test_partial_model_directory(work, tmp_path, capsys, command, missing):
    # a model directory without one of its files: every reader of that file
    # exits 1 naming it; analyze-spectrum reads only the kernel
    run = tmp_path / "run"
    for stage in ("stage1", "stage2"):
        shutil.copytree(work["run"] / stage, run / stage)
    model = run / ("stage2" if command == "eval" else "stage1") / "model"
    (model / missing).unlink()
    code = main(_stage_argv(command, run, work, str(tmp_path / "out")))
    err = capsys.readouterr().err
    if missing == "net0.npz" and command == "analyze-spectrum":
        assert code == 0, err
    else:
        assert code == 1
        assert str(model / missing) in err


def test_divergent_training_exits_numerical(work, tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("epochs = 4\nbatch_size = 64\nbase_lr = 1e40\nell = 8\nhidden = 16,16\n")
    with np.errstate(all="ignore"):
        code = main(["train-bare", "--system", "desk", "--body", "2",
                     "--data", str(work["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "numerical" in capsys.readouterr().err


def test_lapack_failure_exits_numerical(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError; it must still exit 2, not as a usage error
    def fail(pairs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "fit_tan", fail)
    table = tmp_path / "eigen_differences.csv"
    table.write_text("index,bare,eff,diff,rel_diff,flagged\n"
                     + "".join(f"{i},{4 - i},{4.5 - i},0.5,0.1,false\n" for i in (1, 2, 3)))
    out = tmp_path / "fit"
    assert main(["fit-tan", "--table", str(table), "--out", str(out)]) == 2
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["out-is-a-file", "table-is-a-directory"])
def test_file_system_error_is_one_error_line(tmp_path, capsys, case):
    if case == "out-is-a-file":
        (tmp_path / "x").write_text("")
        argv = ["suzuki-verify", "--dim", "4", "--rdim", "2", "--trials", "1",
                "--out", str(tmp_path / "x")]
    else:
        argv = ["fit-tan", "--table", str(tmp_path), "--out", str(tmp_path / "fit")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("tanfold: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _rewrite_npz(path, **members):
    with np.load(path) as data:
        stored = {key: data[key] for key in data.files}
    np.savez(path, **{**stored, **members})


def _edit_model_json(path, **fields):
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def _name_outside(path, key, source):
    """Point ``key`` of a model.json at a valid copy of ``source`` beside
    the model directory, a file its head does not name."""
    shutil.copy(path.parent / source, path.parent.parent / "k.npz")
    _edit_model_json(path, **{key: ["../k.npz"] if key == "nets" else "../k.npz"})


_OBJECT = np.array([None], dtype=object)


@pytest.mark.parametrize("command, rel, corrupt", [
    ("finetune", "stage1/model/net0.npz", lambda p: _rewrite_npz(p, seed=np.array([1, 2]))),
    ("eval", "stage2/model/net0.npz", lambda p: _rewrite_npz(p, seed=np.array([1, 2]))),
    ("eval", "stage2/model/net0.npz", lambda p: _rewrite_npz(p, sizes=np.ones((2, 2), int))),
    ("eval", "stage2/model/net0.npz", lambda p: _rewrite_npz(p, sizes=np.array([3.0, 8.0]))),
    ("eval", "stage2/model/net1.npz", lambda p: _rewrite_npz(p, w0=_OBJECT)),
    ("analyze-spectrum", "stage1/model/kernel.npz", lambda p: _rewrite_npz(p, version=np.ones(2))),
    ("analyze-spectrum", "stage1/model/kernel.npz", lambda p: _rewrite_npz(p, version=np.str_("x"))),
    ("analyze-spectrum", "stage2/model/kernel.npz", lambda p: _rewrite_npz(p, step=np.zeros(3))),
    ("analyze-spectrum", "stage2/model/kernel.npz", lambda p: _rewrite_npz(p, matrix=_OBJECT)),
    ("analyze-spectrum", "stage1/model/kernel.npz",
     lambda p: _rewrite_npz(p, matrix=np.triu(np.ones((8, 8))))),
    ("analyze-spectrum", "stage1/model/kernel.npz",
     lambda p: _rewrite_npz(p, matrix=np.full((8, 8), np.nan))),
    ("analyze-spectrum", "stage2/model/kernel.npz", lambda p: _rewrite_npz(p, matrix=np.ones((8, 7)))),
    ("finetune", "stage1/model/model.json", lambda p: p.write_text("[1, 2]\n")),
    ("eval", "stage2/model/model.json", lambda p: p.write_text('"model"\n')),
    ("eval", "stage2/model/model.json", lambda p: _edit_model_json(p, nets=5)),
    ("finetune", "stage1/model/model.json", lambda p: _name_outside(p, "nets", "net0.npz")),
    ("analyze-spectrum", "stage1/model/model.json",
     lambda p: _name_outside(p, "kernel", "kernel.npz")),
    ("eval", "stage2/model/model.json", lambda p: _edit_model_json(p, head=3)),
    ("eval", "stage2/model/model.json", lambda p: _edit_model_json(p, geometry_range=[1])),
    ("eval", "stage2/model/model.json", lambda p: _edit_model_json(p, geometry_range="ab")),
    ("report", "fit/tanfit.json", lambda p: p.write_text("[1, 2]\n")),
    ("report", "fit/tanfit.json", lambda p: p.write_text('{"rate": "fast", "center": 4}\n')),
    ("report", "fit/tanfit.json", lambda p: p.write_text('{"rate": 0.05}\n')),
], ids=["net-seed-finetune", "net-seed-eval", "net-sizes-2d", "net-sizes-float", "net-object-layer",
        "kernel-version", "kernel-version-text", "kernel-step", "kernel-object-matrix",
        "kernel-not-symmetric", "kernel-not-finite", "kernel-not-square",
        "model-json-list", "model-json-string", "model-json-nets-int", "model-json-nets-outside",
        "model-json-kernel-outside", "model-json-head-int", "model-json-range-short",
        "model-json-range-text", "tanfit-list", "tanfit-rate-text", "tanfit-no-center"])
def test_corrupt_input_is_one_error_line(work, tmp_path, capsys, command, rel, corrupt):
    # a stored member or field of the wrong shape, type or value, or a
    # model.json that names files other than its head's, is named with its
    # file by the reader, before --out is made
    run = tmp_path / "run"
    for stage in ("stage1", "stage2", "spectrum", "fit"):
        shutil.copytree(work["run"] / stage, run / stage)
    corrupt(run / rel)
    out = str(tmp_path / "out")
    argv = (["report", "--system", "desk", "--run", str(run), "--out", out] if command == "report"
            else _stage_argv(command, run, work, out))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tanfold: error: {run / rel}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def _garbage(path):
    path.write_bytes(b"garbage, in no format\n")


def _first_half(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _stray_ff(path):
    """Set the middle byte of ``path`` to 0xFF; in an archive, the middle
    byte of its first member, which every reader reads."""
    data = bytearray(path.read_bytes())
    at = len(data) // 2
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as z:
            first = z.infolist()[0]
        # the member's data follow its 30-byte local header, name and extra field
        start = first.header_offset + 30 + sum(struct.unpack_from("<HH", data, first.header_offset + 26))
        at = start + first.compress_size // 2
    assert data[at] != 0xFF
    data[at] = 0xFF
    path.write_bytes(bytes(data))


#: every file a stage parses, by the subcommand that reads it
_PARSED = {
    "run/stage1/model/model.json": "finetune", "run/stage1/model/net0.npz": "finetune",
    "run/stage1/model/kernel.npz": "analyze-spectrum", "run/stage2/model/net1.npz": "eval",
    "run/stage2/model/kernel.npz": "eval", "run/spectrum/eigen_differences.csv": "fit-tan",
    "run/fit/tanfit.json": "report", "data/bare_0002.tensor": "train-bare",
    "data/effective_0001.tensor": "eval", "data/provenance.npz": "analyze-spectrum",
    "train.cfg": "train-bare",
}


@pytest.mark.parametrize("corrupt", [_garbage, _first_half, _stray_ff], ids=["garbage", "half", "ff"])
@pytest.mark.parametrize("rel", _PARSED)
def test_corrupt_file_is_one_error_line(work, tmp_path, capsys, rel, corrupt):
    # garbage bytes, a truncation or an undecodable byte in any file a stage
    # parses is one error line naming that file (and the line, where the
    # parser reads by lines), before --out is made
    for part in ("data", "run/stage1", "run/stage2", "run/spectrum", "run/fit"):
        shutil.copytree(work["root"] / part, tmp_path / part)
    shutil.copy(work["train_cfg"], tmp_path / "train.cfg")
    corrupt(tmp_path / rel)
    run, data, out = tmp_path / "run", str(tmp_path / "data"), str(tmp_path / "out")
    bare = tmp_path / rel if rel.endswith("provenance.npz") else run / "stage1" / "model"
    argv = {
        "finetune": _stage_argv("finetune", run, work, out),
        "train-bare": ["train-bare", "--system", "desk", "--body", "2", "--data", data,
                       "--config", str(tmp_path / "train.cfg"), "--out", out],
        "eval": ["eval", "--model", str(run / "stage2" / "model"), "--data", data, "--out", out],
        "analyze-spectrum": ["analyze-spectrum", "--bare", str(bare),
                             "--eff", str(run / "stage2" / "model"), "--out", out],
        "fit-tan": ["fit-tan", "--table", str(tmp_path / rel), "--out", out],
        "report": ["report", "--system", "desk", "--run", str(run), "--out", out],
    }[_PARSED[rel]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.match(rf"tanfold: error: {re.escape(str(tmp_path / rel))}(:\d+)?: ", err), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# happy paths and artifacts
# ---------------------------------------------------------------------------

#: the subcommand that wrote each directory of the ``work`` fixture
_STAGE_DIRS = {"data": "synth", "run/stage1": "train-bare", "run/stage2": "finetune",
               "run/eval": "eval", "run/spectrum": "analyze-spectrum", "run/fit": "fit-tan",
               "run/suzuki": "suzuki-verify", "run/report": "report"}


@pytest.mark.parametrize("directory, subcommand", _STAGE_DIRS.items())
def test_every_stage_writes_its_manifest(work, directory, subcommand):
    manifest = json.loads((work["root"] / directory / "manifest.json").read_text())
    assert set(manifest) == {"subcommand", "config", "seed", "version", "wall_time_s",
                             "blas_threads"}
    assert manifest["subcommand"] == subcommand
    assert manifest["blas_threads"] == {var: os.environ.get(var)
                                        for var in cli._BLAS_THREAD_VARS}


def test_synth_writes_series_and_manifest(work):
    data = work["data"]
    series = load_series(data)
    assert series.n_orb == 3
    assert len(series.geometries()) == 5
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 3
    assert manifest["config"]["ell"] == 8
    assert "wall_time_s" in manifest


def test_seed_flag_overrides_config(work, tmp_path, capsys):
    out = tmp_path / "seeded"
    assert main(["synth", "--plant", "desk", "--config", str(work["plant_cfg"]),
                 "--seed", "77", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77


def test_train_bare_artifacts(work):
    stage1 = work["run"] / "stage1"
    assert (stage1 / "model" / "model.json").exists()
    report = (stage1 / "fit_report.txt").read_text()
    assert "stage: bare-two" in report
    assert "epochs: 40" in report       # config beat the preset default
    assert "seed: 1" in report          # CLI flag beat everything
    assert "wall_time" not in report
    mae = (stage1 / "mae.csv").read_text().splitlines()
    assert mae[0] == "R,mae,split"
    assert len(mae) == 1 + 5
    manifest = json.loads((stage1 / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 40
    assert manifest["config"]["base_lr"] == 0.02


def test_config_sets_the_network_size_of_a_named_system(work, tmp_path):
    # the desk network size for a paper-size system, set by the config keys
    cfg = tmp_path / "desk-size.cfg"
    cfg.write_text("ell = 32\nhidden = 64, 64\nepochs = 2\n")
    out = tmp_path / "h4"
    assert main(["train-bare", "--system", "H4", "--body", "2", "--data", str(work["data"]),
                 "--config", str(cfg), "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["ell"], config["hidden"]) == (32, [64, 64])
    assert (config["batch_size"], config["base_lr"]) == (256, 0.001)  # H4's published bare-two


def test_finetune_artifacts(work):
    stage2 = work["run"] / "stage2"
    report = (stage2 / "fit_report.txt").read_text()
    assert "stage: eff-two" in report
    mae = (stage2 / "mae.csv").read_text().splitlines()
    splits = [line.rsplit(",", 1)[1] for line in mae[1:]]
    assert splits.count("train") == 3
    assert splits.count("test") == 2


def test_eval_writes_mae(work, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["eval", "--model", str(work["run"] / "stage2" / "model"),
                 "--data", str(work["data"]), "--refs", "1.0,1.5,2.0",
                 "--out", str(out)])
    assert code == 0
    assert "mean unit MAE" in capsys.readouterr().out
    lines = (out / "mae.csv").read_text().splitlines()
    assert lines[0] == "R,mae,split"
    assert len(lines) == 6


_TRAIN_AND_EVAL = """
import sys
from tanfold.cli import main
data, train, tune, out = sys.argv[1:]
for argv in (["train-bare", "--system", "desk", "--body", "2", "--config", train, "--seed", "1",
              "--data", data, "--out", out + "/stage1"],
             ["finetune", "--system", "desk", "--model", out + "/stage1/model", "--refs", "1.0,1.5",
              "--config", tune, "--seed", "1", "--data", data, "--out", out + "/stage2"],
             ["eval", "--model", out + "/stage2/model", "--data", data, "--out", out + "/eval"]):
    assert main(argv) == 0, argv
assert "scipy.special" not in sys.modules
"""


def test_training_leaves_scipy_special_unloaded(work, tmp_path):
    # the SiLU sigmoid is NumPy's, so a process that trains and evaluates
    # never pays scipy.special's import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _TRAIN_AND_EVAL, str(work["data"]), str(work["train_cfg"]),
                    str(work["root"] / "tune.cfg"), str(tmp_path)], env=env, check=True)
    assert (tmp_path / "eval" / "mae.csv").exists()


def test_analyze_spectrum_and_fit_tan_roundtrip(work, tmp_path, capsys):
    spec_dir = tmp_path / "spec"
    code = main(["analyze-spectrum",
                 "--bare", str(work["run"] / "stage1" / "model"),
                 "--eff", str(work["run"] / "stage2" / "model"),
                 "--out", str(spec_dir)])
    assert code == 0
    lines = (spec_dir / "overlap.csv").read_text().splitlines()
    assert lines[0] == "i,j,overlap"
    assert len(lines) == 1 + 8 * 8
    diff = (spec_dir / "eigen_differences.csv").read_text().splitlines()
    assert diff[0] == "index,bare,eff,diff,rel_diff,flagged"

    fit_dir = tmp_path / "fit"
    code = main(["fit-tan", "--table", str(spec_dir / "eigen_differences.csv"),
                 "--out", str(fit_dir)])
    assert code == 0
    payload = json.loads((fit_dir / "tanfit.json").read_text())
    assert set(payload) >= {"rate", "amplitude", "center", "residual"}
    curve = (fit_dir / "tanfit.csv").read_text().splitlines()
    assert curve[0] == "index,rel_diff,fit,flagged"


def test_fit_tan_recovers_planted_law_from_exact_kernels(tmp_path, capsys):
    spec = PlantSpec(n_orb=3, ell=8, geometries=(1.0, 1.5), rate=0.05,
                     amplitude=0.01, center=4.0, seed=9, system="tiny")
    plant = plant_series(spec)
    bare_path = tmp_path / "w_bare.npz"
    eff_path = tmp_path / "w_eff.npz"
    save_kernel(bare_path, plant.w_bare)
    save_kernel(eff_path, plant.w_eff)

    spec_dir = tmp_path / "spec"
    assert main(["analyze-spectrum", "--bare", str(bare_path),
                 "--eff", str(eff_path), "--out", str(spec_dir)]) == 0
    fit_dir = tmp_path / "fit"
    assert main(["fit-tan", "--table", str(spec_dir / "eigen_differences.csv"),
                 "--out", str(fit_dir)]) == 0
    payload = json.loads((fit_dir / "tanfit.json").read_text())
    assert abs(payload["rate"] - 0.05) < 1e-6
    assert abs(payload["center"] - 4.0) < 1e-3
    assert abs(payload["amplitude"] - 0.01) / 0.01 < 1e-6


def test_analyze_spectrum_reads_provenance(work, tmp_path, capsys):
    provenance = str(work["data"] / "provenance.npz")
    spec_dir = tmp_path / "spec"
    assert main(["analyze-spectrum", "--bare", provenance, "--eff", provenance,
                 "--out", str(spec_dir)]) == 0
    with np.load(provenance) as planted:
        bare = np.linalg.eigvalsh(planted["w_bare"])[::-1]
    rows = (spec_dir / "eigen_differences.csv").read_text().splitlines()[1:]
    got = np.array([float(r.split(",")[1]) for r in rows])
    assert np.abs(got - bare).max() <= 1e-12 * np.abs(bare).max()


def _not_npz(path, what):
    if what == "npy":
        np.save(path, np.eye(8))
    elif what == "text":
        path.write_text("1 0\n0 1\n")
    else:
        path.write_bytes(b"not a zip archive")


@pytest.mark.parametrize("flag", ["--bare", "--eff"])
@pytest.mark.parametrize("name, what", [("k.npy", "npy"), ("k.txt", "text"), ("k.npz", "garbage")])
def test_analyze_spectrum_rejects_non_npz_kernel(work, tmp_path, capsys, flag, name, what):
    bad = tmp_path / name
    _not_npz(bad, what)
    kernels = {"--bare": str(work["run"] / "stage1" / "model"),
               "--eff": str(work["run"] / "stage2" / "model"), flag: str(bad)}
    code = main(["analyze-spectrum", *(a for item in kernels.items() for a in item),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"tanfold: error: {bad}: not a readable .npz archive: File is not a zip file\n"
    )
    assert not (tmp_path / "x").exists()


def _foreign_zip(path, what):
    """A zip archive that holds no usable kernel, and the error it gives."""
    if what == "keys":
        np.savez(path, a=np.eye(3))
        return "version is missing; expected dtype kind 'iu', shape ()"
    if what in ("asymmetric", "provenance"):
        if what == "asymmetric":
            save_kernel(path, np.triu(np.ones((3, 3))))
        else:  # the planted kernels of a provenance.npz
            np.savez(path, w_bare=np.triu(np.ones((3, 3))), w_eff=np.tril(np.ones((3, 3))))
        return "kernel is not exactly symmetric"
    save_kernel(path, np.eye(3))
    with zipfile.ZipFile(path) as z:
        members = {name: z.read(name) for name in z.namelist()}
    with zipfile.ZipFile(path, "w") as z:
        for name, data in members.items():
            z.writestr(name, b"garbage" if name == "matrix.npy" else data)
    return "matrix is not an .npy array; expected dtype kind 'f', shape (None, None)"


@pytest.mark.parametrize("flag", ["--bare", "--eff"])
@pytest.mark.parametrize("what", ["keys", "member", "asymmetric", "provenance"])
def test_analyze_spectrum_names_foreign_archive(work, tmp_path, capsys, flag, what):
    other = tmp_path / "other.npz"
    message = _foreign_zip(other, what)
    kernels = {"--bare": str(work["run"] / "stage1" / "model"),
               "--eff": str(work["run"] / "stage2" / "model"), flag: str(other)}
    code = main(["analyze-spectrum", *(a for item in kernels.items() for a in item),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == f"tanfold: error: {other}: {message}\n"
    assert not (tmp_path / "x").exists()


def test_unread_object_member_is_ignored(work, tmp_path):
    # readers read only the members they check, so an extra object array,
    # which cannot be loaded without pickle, does not stop them
    run = tmp_path / "run"
    for stage in ("stage1", "stage2"):
        shutil.copytree(work["run"] / stage, run / stage)
    for path in (run / "stage2" / "model").glob("*.npz"):
        _rewrite_npz(path, extra=_OBJECT)
    assert main(_stage_argv("eval", run, work, str(tmp_path / "eval"))) == 0
    assert main(_stage_argv("analyze-spectrum", run, work, str(tmp_path / "spectrum"))) == 0
    table = "eigen_differences.csv"
    assert (tmp_path / "spectrum" / table).read_bytes() == (work["run"] / "spectrum" / table).read_bytes()


def test_truncated_tensor_file_fails(work, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in work["data"].glob("*.tensor"):
        lines = path.read_text().splitlines(keepends=True)
        if path.name == "bare_0002.tensor":
            lines = lines[:-1]
        (data / path.name).write_text("".join(lines))
    code = main(["train-bare", "--system", "desk", "--body", "2",
                 "--data", str(data), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "bare_0002.tensor: truncated" in err
    assert "first missing: (3 3 3 3)" in err


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls[:6] + ["nan" + ls[6][ls[6].index(" "):]] + ls[7:],
     "bare_0002.tensor:7: non-finite value 'nan'"),
    (lambda ls: ls + ["1.5 1 1 0 0\n"],
     "bare_0002.tensor:{end}: conflicting duplicate for the orbit of (1 1 0 0)"),
    (lambda ls: ls + ["0 1 9 0 0\n"],
     "bare_0002.tensor:{end}: index 9 out of range for n_orb=3"),
    (lambda ls: [line.replace("# n_orb: 3", "# n_orb: three") for line in ls],
     "bare_0002.tensor: bad or missing header field"),
], ids=["nan", "duplicate", "index", "header"])
def test_bad_tensor_file_fails(work, tmp_path, capsys, edit, message):
    data = tmp_path / "data"
    data.mkdir()
    for path in work["data"].glob("*.tensor"):
        lines = path.read_text().splitlines(keepends=True)
        if path.name == "bare_0002.tensor":
            lines = edit(lines)
            end = len(lines)
        (data / path.name).write_text("".join(lines))
    code = main(["train-bare", "--system", "desk", "--body", "2",
                 "--data", str(data), "--out", str(tmp_path / "x")])
    assert code == 1
    assert message.format(end=end) in capsys.readouterr().err


def test_duplicate_tensor_file_names_both_files(work, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in work["data"].glob("*.tensor"):
        (data / path.name).write_bytes(path.read_bytes())
    (data / "bare_0099.tensor").write_bytes((data / "bare_0000.tensor").read_bytes())
    code = main(["train-bare", "--system", "desk", "--body", "2",
                 "--data", str(data), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(data / "bare_0000.tensor") in err
    assert str(data / "bare_0099.tensor") in err


def _data_copy(work, tmp_path, keep=lambda name: True, edits=None):
    """A copy of the shared data directory: the ``*.tensor`` files ``keep``
    accepts, each passed through ``edits[name]`` (a function of its lines)."""
    data = tmp_path / "data"
    data.mkdir()
    for path in work["data"].glob("*.tensor"):
        if keep(path.name):
            lines = path.read_text().splitlines(keepends=True)
            if path.name in (edits or {}):
                lines = edits[path.name](lines)
            (data / path.name).write_text("".join(lines))
    return data


def _stage(name, work, data, out):
    if name == "train-bare":
        return main(["train-bare", "--system", "desk", "--body", "2", "--config", str(work["train_cfg"]),
                     "--data", str(data), "--out", str(out)])
    return main(["finetune", "--system", "desk", "--model", str(work["run"] / "stage1" / "model"),
                 "--data", str(data), "--out", str(out)])


@pytest.mark.parametrize("stage, kind", [("train-bare", "bare"), ("finetune", "effective")])
def test_stage_without_its_kind_fails(work, tmp_path, capsys, stage, kind):
    data = _data_copy(work, tmp_path, keep=lambda name: not name.startswith(kind))
    out = tmp_path / "out"
    assert _stage(stage, work, data, out) == 1
    assert f"{data}: no {kind} .tensor files found" in capsys.readouterr().err
    assert not out.exists()


def test_each_stage_reads_only_its_kind(work, tmp_path, capsys):
    nan = lambda ls: ls[:6] + ["nan" + ls[6][ls[6].index(" "):]] + ls[7:]  # noqa: E731
    data = _data_copy(work, tmp_path, edits={"effective_0001.tensor": nan})
    assert _stage("train-bare", work, data, tmp_path / "stage1") == 0
    out = tmp_path / "stage2"
    capsys.readouterr()
    assert _stage("finetune", work, data, out) == 1
    assert f"{data / 'effective_0001.tensor'}:7: non-finite value 'nan'" in capsys.readouterr().err
    assert not out.exists()


def test_bad_effective_header_fails_train_bare(work, tmp_path, capsys):
    three = lambda ls: [line.replace("# n_orb: 3", "# n_orb: three") for line in ls]  # noqa: E731
    data = _data_copy(work, tmp_path, edits={"effective_0000.tensor": three})
    out = tmp_path / "out"
    assert _stage("train-bare", work, data, out) == 1
    assert f"{data / 'effective_0000.tensor'}: bad or missing header field" in capsys.readouterr().err
    assert not out.exists()


def test_fit_tan_short_row_fails(tmp_path, capsys):
    table = tmp_path / "eigen_differences.csv"
    table.write_text("index,bare,eff,diff,rel_diff,flagged\n"
                     "0,1.5,1.25,-0.25,-0.1666,false\n"
                     "1,0.5\n")
    assert main(["fit-tan", "--table", str(table), "--out", str(tmp_path / "fit")]) == 1
    assert f"{table}:3: bad row '1,0.5'" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [
    "",
    "1,1.5,1.25,-0.25,-0.1666,true\n2,0.5,0.5,0,0,true\n3,0.25,0.3,0.05,0.2,true\n",
], ids=["header-only", "all-flagged"])
def test_fit_tan_without_pairs_fails(tmp_path, capsys, rows):
    table = tmp_path / "eigen_differences.csv"
    table.write_text("index,bare,eff,diff,rel_diff,flagged\n" + rows)
    out = tmp_path / "fit"
    assert main(["fit-tan", "--table", str(table), "--out", str(out)]) == 1
    assert "need at least 3 eigenvalue pairs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", [
    "nan,1.5,1.25,-0.25,-0.1666,false",
    "2,nan,1.25,nan,nan,false",
    "2,1.5,nan,nan,nan,false",
    "2,1.5,inf,inf,inf,false",
    "2,-inf,1.25,inf,-0,false",
])
def test_fit_tan_non_finite_row_fails(tmp_path, capsys, row):
    table = tmp_path / "eigen_differences.csv"
    table.write_text("index,bare,eff,diff,rel_diff,flagged\n"
                     "1,2.5,2.25,-0.25,-0.1,false\n"
                     f"{row}\n"
                     "3,0.5,0.75,0.25,0.5,false\n")
    out = tmp_path / "fit"
    assert main(["fit-tan", "--table", str(table), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"tanfold: error: {table}:3: ")
    assert not out.exists()


def test_suzuki_verify_artifacts(work):
    out = work["run"] / "suzuki"
    rows = (out / "residuals.csv").read_text().splitlines()
    assert rows[0] == "trial,seed,rel_frobenius,max_abs,half_spread"
    assert len(rows) == 4
    worst = max(float(r.split(",")[2]) for r in rows[1:])
    assert worst < 1e-8
    curves = (out / "series_convergence.csv").read_text().splitlines()
    assert curves[0] == "trial,order,rel_error"


def test_report_collects_tables(work, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["report", "--system", "desk", "--run", str(work["run"]),
                 "--out", str(out)])
    assert code == 0
    for source in REPORT_SOURCES:
        name = os.path.basename(source)
        assert (out / name).read_bytes() == (work["run"] / source).read_bytes(), name
    assert json.loads((out / "manifest.json").read_text())["subcommand"] == "report"
    fit = json.loads((work["run"] / "fit" / "tanfit.json").read_text())
    assert f"tan rate {fit['rate']:.4g}, center {fit['center']:.4g}" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == sorted(
        ["manifest.json", *(os.path.basename(s) for s in REPORT_SOURCES)])


# ---------------------------------------------------------------------------
# determinism: reruns with the same seed/config produce identical bytes
# ---------------------------------------------------------------------------

def _tree_bytes(root, *, skip=("manifest.json",)):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_synth_rerun_is_bit_identical(work, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--plant", "desk", "--config",
                     str(work["plant_cfg"]), "--out", str(out)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_synth_refuses_a_directory_of_another_series(work, tmp_path, capsys):
    # a rerun of one plant overwrites its files; a plant on fewer geometries
    # is refused before it writes anything, so the first dataset is intact
    out = tmp_path / "d"
    for _ in range(2):
        assert main(["synth", "--plant", "desk", "--config", str(work["plant_cfg"]),
                     "--out", str(out)]) == 0
    assert _tree_bytes(out) == _tree_bytes(work["data"])
    first = _tree_bytes(out, skip=())
    fewer = tmp_path / "fewer.cfg"
    fewer.write_text(TINY_PLANT.replace("1.0, 1.25, 1.5, 1.75, 2.0", "1.0, 1.5"))
    capsys.readouterr()
    assert main(["synth", "--plant", "desk", "--config", str(fewer), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"tanfold: error: {out}: bare_0002.tensor is a .tensor file of another series\n"
    assert _tree_bytes(out, skip=()) == first


def test_train_rerun_is_bit_identical(work, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["train-bare", "--system", "desk", "--body", "2",
                     "--data", str(work["data"]), "--config",
                     str(work["train_cfg"]), "--seed", "1",
                     "--out", str(out)]) == 0
    trees = _tree_bytes(a), _tree_bytes(b)
    assert trees[0].keys() == trees[1].keys()
    assert trees[0] == trees[1]


def test_suzuki_verify_without_seed_uses_seed_0(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["suzuki-verify", "--dim", "6", "--rdim", "2",
                     "--trials", "3", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_suzuki_rerun_is_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["suzuki-verify", "--dim", "6", "--rdim", "2",
                     "--trials", "2", "--seed", "5", "--out", str(out)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)
