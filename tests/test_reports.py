"""CSV/JSON artifact writers: schemas, precision, determinism."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from tanfold.atomic import copy_file, write_json, write_text
from tanfold.heads import HeadKind
from tanfold.reports import (
    fit_report_text,
    format_value,
    read_difference_csv,
    write_csv,
    write_difference_csv,
    write_mae_csv,
    write_overlap_csv,
    write_tanfit_csv,
    write_tanfit_json,
)
from tanfold.spectral import AlignmentReport, align_eigensystems, eig_sym, eigen_differences
from tanfold.tanmodel import TanFit, eval_tan
from tanfold.training import FitReport, GeometryMAE, TrainConfig


def _read(path):
    with open(path) as fh:
        return fh.read()


def test_format_value_floats_roundtrip_exactly():
    rng = np.random.default_rng(3)
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        assert float(format_value(float(x))) == float(x)


def test_format_value_types():
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value(3) == "3"
    assert format_value("x") == "x"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(np.float64(2.0)) == "2"


def reference_write_csv(path, header, rows):
    """The per-cell writer the column form replaced: one format_value call
    per cell, one line per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(cell) for cell in row) + "\n")


def test_write_csv_header_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), ([1, 2], [0.5, 0.25]))
    assert _read(path) == "a,b\n1,0.5\n2,0.25\n"


#: doubles whose text is easy to get wrong: signed zero, the smallest
#: subnormal, the extremes, an integral value, a non-terminating binary
#: fraction, and the non-finite values
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               2.0, 0.1, 1.0 / 3.0, np.nan, np.inf, -np.inf]


def _edge_columns():
    n = len(EDGE_FLOATS)
    rng = np.random.default_rng(8)
    return {
        "f": np.array(EDGE_FLOATS),
        "g": [float(x) for x in rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)],
        "b": np.arange(n) % 3 == 0,
        "bl": [bool(x) for x in np.arange(n) % 2],
        "i": np.arange(-5, n - 5, dtype=np.int64),
        "u": np.random.SeedSequence(3).generate_state(n),
        "il": [10**15 * k for k in range(n)],
        "s": [f"s{k}" if k % 2 else "train" for k in range(n)],
    }


def test_write_csv_bytes_match_per_cell_writer(tmp_path):
    cols = _edge_columns()
    write_csv(tmp_path / "a.csv", tuple(cols), tuple(cols.values()))
    reference_write_csv(tmp_path / "b.csv", tuple(cols), zip(*cols.values()))
    got = (tmp_path / "a.csv").read_bytes()
    assert got == (tmp_path / "b.csv").read_bytes()
    first = [line.split(",")[0] for line in got.decode().splitlines()[1:]]
    assert first[:3] == ["-0", "0", "4.9406564584124654e-324"]
    assert first[-3:] == ["nan", "inf", "-inf"]


@pytest.mark.parametrize("name", list(_edge_columns()))
def test_write_csv_one_column_matches_per_cell_writer(tmp_path, name):
    col = _edge_columns()[name]
    write_csv(tmp_path / "a.csv", (name,), (col,))
    reference_write_csv(tmp_path / "b.csv", (name,), ((v,) for v in col))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_write_csv_no_rows(tmp_path):
    write_csv(tmp_path / "t.csv", ("a", "b"), ([], np.zeros(0)))
    assert _read(tmp_path / "t.csv") == "a,b\n"


def test_write_csv_interrupted_leaves_no_file(tmp_path):
    # a table is written whole or not at all: a reader never finds a
    # truncated file, nor the temp file it was being written to
    class Interrupted:
        def __len__(self):
            return 2

        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("interrupted")

    path = tmp_path / "t.csv"
    with pytest.raises(RuntimeError, match="interrupted"):
        write_csv(path, ("a", "b"), ([1, 2], Interrupted()))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("columns, error, message", [
    (([1, 2], [None, 0.5]), TypeError, "not object"),
    (([1, 2], [[0.5], [0.25]]), ValueError, "one-dimensional"),
    (([1, 2], [0.5]), ValueError, "unequal lengths"),
    (([1, 2],), ValueError, "2 header names for 1 columns"),
])
def test_write_csv_rejects_bad_columns_and_leaves_no_file(tmp_path, columns, error, message):
    with pytest.raises(error, match=message):
        write_csv(tmp_path / "t.csv", ("a", "b"), columns)
    assert os.listdir(tmp_path) == []


def test_write_mae_csv_schema(tmp_path):
    rows = (
        GeometryMAE(geometry=1.8, unit_mae=1e-5, full_mae=2e-5, split="train"),
        GeometryMAE(geometry=2.0, unit_mae=3e-4, full_mae=4e-4, split="test"),
    )
    path = tmp_path / "mae.csv"
    write_mae_csv(path, rows)
    lines = _read(path).splitlines()
    assert lines[0] == "R,mae,split"
    assert lines[1].endswith(",train")
    assert float(lines[2].split(",")[1]) == 3e-4


def _aligned_pair():
    rng = np.random.default_rng(11)
    basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    values = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    bare = basis @ np.diag(values) @ basis.T
    eff = basis @ np.diag(values * 1.01) @ basis.T
    report = align_eigensystems(eig_sym(bare), eig_sym(eff))
    return report, eigen_differences(report)


def test_write_overlap_csv_covers_full_matrix(tmp_path):
    report, _ = _aligned_pair()
    path = tmp_path / "overlap.csv"
    write_overlap_csv(path, report)
    lines = _read(path).splitlines()
    assert lines[0] == "i,j,overlap"
    assert len(lines) == 1 + report.dim**2
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("1", "1")
    assert abs(abs(float(first[2])) - 1.0) < 1e-12


def test_write_difference_csv_roundtrips_values(tmp_path):
    _, table = _aligned_pair()
    path = tmp_path / "diff.csv"
    write_difference_csv(path, table)
    lines = _read(path).splitlines()
    assert lines[0] == "index,bare,eff,diff,rel_diff,flagged"
    assert len(lines) == 1 + table.index.size
    got = lines[1].split(",")
    assert int(got[0]) == 1
    assert float(got[1]) == table.bare[0]
    assert float(got[4]) == pytest.approx(0.01, rel=1e-12)
    assert got[5] == "false"


def test_write_tanfit_csv_fit_column_matches_eval(tmp_path):
    _, table = _aligned_pair()
    fit = TanFit(rate=0.1, amplitude=0.01, center=3.0, residual=0.0, n_points=6)
    path = tmp_path / "tanfit.csv"
    write_tanfit_csv(path, table, fit)
    lines = _read(path).splitlines()
    assert lines[0] == "index,rel_diff,fit,flagged"
    for line in lines[1:]:
        idx, _, fitted, _ = line.split(",")
        assert float(fitted) == eval_tan(fit, float(int(idx)))


def _tanfit_csv_per_index(path, table, fit):
    """The per-index writer the array form replaced."""
    rows = []
    for i, rel, flagged in zip(table.index, table.rel_diff, table.flagged):
        fitted = np.nan if fit.degenerate else eval_tan(fit, float(i))
        rows.append((int(i), rel, fitted, bool(flagged)))
    reference_write_csv(path, ("index", "rel_diff", "fit", "flagged"), rows)


@pytest.mark.parametrize("degenerate", [False, True])
def test_write_tanfit_csv_bytes_match_per_index_writer(tmp_path, degenerate):
    rng = np.random.default_rng(5)
    ell = 300
    bare = np.sort(rng.uniform(0.05, 1.0, ell))[::-1]
    eff = bare * (1.0 + 1e-4 * np.tan(0.01 * (np.arange(1, ell + 1) - 149.8)))
    table = eigen_differences(align_eigensystems(eig_sym(np.diag(bare)), eig_sym(np.diag(eff))))
    fit = TanFit(rate=0.01, amplitude=1e-4, center=149.8, residual=0.0, n_points=ell,
                 degenerate=degenerate)
    write_tanfit_csv(tmp_path / "a.csv", table, fit)
    _tanfit_csv_per_index(tmp_path / "b.csv", table, fit)
    got = _read(tmp_path / "a.csv")
    assert got == _read(tmp_path / "b.csv")
    assert all(line.split(",")[2] == "nan" for line in got.splitlines()[1:]) == degenerate


def test_write_tanfit_json_fields(tmp_path):
    fit = TanFit(rate=0.1, amplitude=0.01, center=3.0, residual=1e-14, n_points=6)
    path = tmp_path / "tanfit.json"
    write_tanfit_json(path, fit)
    assert json.loads(_read(path)) == {
        "rate": 0.1, "amplitude": 0.01, "center": 3.0, "residual": 1e-14, "n_points": 6,
        "degenerate": False, "converged": True}


def test_write_json_sorted_atomic(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": 2, "a": 1})
    text = _read(path)
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert not os.path.exists(str(path) + ".tmp")


def test_write_json_overwrites_existing(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"v": 1})
    write_json(path, {"v": 2})
    assert json.loads(_read(path)) == {"v": 2}


def test_writes_make_their_directory(tmp_path):
    # an output directory appears at its first write, parents included
    write_json(tmp_path / "a" / "b" / "x.json", {"v": 1})
    copy_file(tmp_path / "a" / "b" / "x.json", tmp_path / "c" / "y.json")
    write_text(tmp_path / "d" / "z.txt", ("x", "\n"))
    assert json.loads(_read(tmp_path / "c" / "y.json")) == {"v": 1}
    assert sorted(os.listdir(tmp_path)) == ["a", "c", "d"]


def test_write_text_is_utf8_with_given_line_ends(tmp_path):
    path = tmp_path / "t.txt"
    write_text(path, (c for c in ("\u00e9\n", "b\r\n", "cd")))
    assert path.read_bytes() == "\u00e9\nb\r\ncd".encode("utf-8")


def test_write_text_interrupted_mid_stream_leaves_no_file(tmp_path):
    # the parts are written as they come: a generator that fails half way
    # leaves neither a truncated file nor its temp file
    def parts():
        yield "i,j,overlap\n"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_text(tmp_path / "t.csv", parts())
    assert os.listdir(tmp_path) == []


def test_fit_report_text_lists_config_and_losses():
    cfg = TrainConfig(
        stage=HeadKind.BARE_TWO, epochs=10, batch_size=4, base_lr=0.01,
        seed=3, ell=8, hidden=(16, 16),
    )
    report = FitReport(
        config=cfg,
        initial_loss=1.0,
        final_loss=0.25,
        per_geometry=(
            GeometryMAE(geometry=1.0, unit_mae=0.5, full_mae=0.5, split="train"),
        ),
        wall_time=1.234,
    )
    text = fit_report_text(report)
    assert "stage: bare-two" in text
    assert "epochs: 10" in text
    assert "hidden: 16,16" in text
    assert "final_loss: 0.25" in text
    assert "train_mae: 0.5" in text
    assert "test_mae: nan" in text
    assert text.endswith("\n")
    assert math.isnan(report.test_mae)
    # timing varies between reruns, so it stays out of the artifact
    assert "wall_time" not in text


def test_write_overlap_csv_bytes_match_write_csv(tmp_path):
    report, _ = _aligned_pair()
    overlap = report.overlap.copy()
    overlap[0, 1] = -0.0
    overlap[1, 0] = 1.0 / 3.0
    overlap[2, 3] = np.nextafter(1.0, 2.0)
    overlap[3, 2] = np.nextafter(0.0, -1.0)
    report = dataclasses.replace(report, overlap=overlap)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_overlap_csv(fast, report)
    n = report.dim
    reference_write_csv(slow, ("i", "j", "overlap"),
                        ((i + 1, j + 1, overlap[i, j]) for i in range(n) for j in range(n)))
    assert fast.read_bytes() == slow.read_bytes()
    assert b"\n1,2,-0\n" in fast.read_bytes()


@pytest.mark.parametrize("ell", [1, 300])
def test_write_overlap_csv_bytes_match_write_csv_at_ell(tmp_path, ell):
    specials = [0.0, -0.0, 1.0, 5e-324, -0.75]  # +-0, one, subnormal, negative
    if ell == 1:
        matrices = [np.array([[v]]) for v in specials]
    else:
        overlap = np.random.default_rng(ell).standard_normal((ell, ell))
        overlap.ravel()[[0, 1, ell + 7, 4321, ell * ell - 1]] = specials
        matrices = [overlap]
    for overlap in matrices:
        report = AlignmentReport(np.zeros(ell), np.zeros(ell), overlap,
                                 np.arange(ell), np.ones(ell))
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_overlap_csv(fast, report)
        reference_write_csv(slow, ("i", "j", "overlap"),
                            ((i + 1, j + 1, overlap[i, j]) for i in range(ell) for j in range(ell)))
        assert fast.read_bytes() == slow.read_bytes()


def _ell300_table(flag=()):
    rng = np.random.default_rng(300)
    bare = np.sort(rng.uniform(0.05, 1.0, 300))[::-1]
    bare[list(flag)] = 1e-18  # below the eigenvalue floor
    eff = bare * (1.0 + 1e-4 * rng.standard_normal(300))
    return eigen_differences(align_eigensystems(eig_sym(np.diag(bare)), eig_sym(np.diag(eff))))


@pytest.mark.parametrize("flag", [(), (298, 299)])
def test_write_difference_csv_bytes_match_per_row_writer(tmp_path, flag):
    table = _ell300_table(flag)
    assert table.flagged.sum() == len(flag)
    write_difference_csv(tmp_path / "a.csv", table)
    reference_write_csv(
        tmp_path / "b.csv", ("index", "bare", "eff", "diff", "rel_diff", "flagged"),
        ((int(i), b, e, d, r, bool(f)) for i, b, e, d, r, f in zip(
            table.index, table.bare, table.eff, table.diff, table.rel_diff, table.flagged)),
    )
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("flag", [(), (298, 299)])
def test_read_difference_csv_returns_the_unflagged_rows(tmp_path, flag):
    table = _ell300_table(flag)
    write_difference_csv(tmp_path / "t.csv", table)
    back = read_difference_csv(tmp_path / "t.csv")
    keep = ~table.flagged
    assert keep.sum() == 300 - len(flag) and not back.flagged.any()
    for name in ("index", "bare", "eff", "diff", "rel_diff"):
        got, want = getattr(back, name), getattr(table, name)[keep]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_write_mae_csv_bytes_match_per_row_writer(tmp_path):
    rows = [GeometryMAE(geometry=g, unit_mae=m, full_mae=2 * m, split=s)
            for g, m, s in ((1.8, 1e-5, "train"), (2.0 / 3.0, 5e-324, "test"),
                            (2.0, 0.1, "train"), (np.float64(2.5), np.float64(np.nan), "test"))]
    write_mae_csv(tmp_path / "a.csv", rows)
    reference_write_csv(tmp_path / "b.csv", ("R", "mae", "split"),
                        ((g.geometry, g.unit_mae, g.split) for g in rows))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_suzuki_tables_match_per_row_writer(tmp_path):
    """suzuki-verify's two tables against the per-trial rows they replaced."""
    from tanfold.cli import main
    from tanfold.suzuki import random_coupled_problem, verify_w_identity

    argv = ["--dim", "6", "--rdim", "2", "--coupling", "0.05", "--trials", "5", "--n-max", "7"]
    assert main(["suzuki-verify", *argv, "--seed", "4", "--out", str(tmp_path / "cli")]) == 0
    rows, curves = [], []
    for trial, s in enumerate(np.random.SeedSequence(4).generate_state(5)):
        report = verify_w_identity(random_coupled_problem(6, 2, 0.05, int(s)), n_max=7)
        rows.append((trial, int(s), report.rel_frobenius, report.max_abs, report.half_spread))
        curves += [(trial, order, err) for order, err in enumerate(report.series_errors, start=1)]
    reference_write_csv(tmp_path / "residuals.csv",
                        ("trial", "seed", "rel_frobenius", "max_abs", "half_spread"), rows)
    reference_write_csv(tmp_path / "series_convergence.csv", ("trial", "order", "rel_error"), curves)
    for name in ("residuals.csv", "series_convergence.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert len(curves) == 35
