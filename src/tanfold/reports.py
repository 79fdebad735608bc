"""Plot-ready CSV artifacts and structured run reports.

Every CSV has a header row, deterministic row ordering, and floats
rendered with repr-faithful precision ('%.17g'), so identical runs
produce bit-identical files.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Sequence

import numpy as np

# write_json is bound here too, as the name the benchmark's tracer wraps
from .atomic import read_text, write_json, write_text
from .spectral import AlignmentReport, DifferenceTable
from .tanmodel import TanFit, eval_tan

__all__ = [
    "format_value",
    "write_csv",
    "write_mae_csv",
    "write_overlap_csv",
    "write_difference_csv",
    "read_difference_csv",
    "write_tanfit_csv",
    "write_tanfit_json",
    "fit_report_text",
]


def format_value(value) -> str:
    """Render a cell: floats at full precision, everything else via str."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _column(values) -> tuple[str, list]:
    """A column's row-template field and its cells as Python objects."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"a column must be one-dimensional, got shape {a.shape}")
    if a.dtype.kind == "f":
        return "%.17g", a.tolist()
    if a.dtype.kind == "b":
        return "%s", np.where(a, "true", "false").tolist()
    if a.dtype.kind in "iuU":
        return "%s", a.tolist()
    raise TypeError(f"a column holds floats, bools, ints or strings, not {a.dtype}")


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write a table given as ``columns``, one per ``header`` name.

    Each column is an array or sequence of one type: floats are written as
    ``%.17g`` (NaN and infinities as ``nan``, ``inf`` and ``-inf``), bools
    as ``true``/``false``, ints and strings through ``str``.  The whole
    table is formatted from one row template, and the file replaced
    atomically: a column that fails to convert leaves no file.
    """
    if not header or len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    fields, cells = zip(*map(_column, columns))
    n_rows = {len(c) for c in cells}
    if len(n_rows) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(n_rows)}")
    row = ",".join(fields) + "\n"
    write_text(path, (",".join(header) + "\n",
                      (row * n_rows.pop()) % tuple(itertools.chain.from_iterable(zip(*cells)))))


def write_mae_csv(path, per_geometry) -> None:
    """Per-geometry mean absolute error over the nonsymmetric unit."""
    write_csv(
        path,
        ("R", "mae", "split"),
        (
            [g.geometry for g in per_geometry],
            [g.unit_mae for g in per_geometry],
            [g.split for g in per_geometry],
        ),
    )


def write_overlap_csv(path, report: AlignmentReport) -> None:
    """Aligned eigenvector overlap matrix in tidy (i, j, value) form."""
    # the bytes of write_csv, one % per row on a template holding its indices;
    # one row of Python floats at a time keeps the ell-300 read-out's peak
    # memory below the training stages'
    cells = [f"{j},%.17g" for j in range(1, report.overlap.shape[1] + 1)]
    rows = ((f"{i}," + f"\n{i},".join(cells) + "\n") % tuple(row.tolist())
            for i, row in enumerate(report.overlap, start=1))
    write_text(path, itertools.chain(("i,j,overlap\n",), rows))


def write_difference_csv(path, table: DifferenceTable) -> None:
    write_csv(
        path,
        ("index", "bare", "eff", "diff", "rel_diff", "flagged"),
        (table.index, table.bare, table.eff, table.diff, table.rel_diff, table.flagged),
    )


def read_difference_csv(path) -> DifferenceTable:
    """The unflagged rows of a :func:`write_difference_csv` table, read by
    the columns ``index``, ``bare``, ``eff`` and ``flagged``; ``diff`` and
    ``rel_diff`` are recomputed from ``bare`` and ``eff``."""
    header, *lines = read_text(path).splitlines() or [""]
    header = header.strip().split(",")
    try:
        i_idx, b_idx, e_idx, f_idx = (header.index(c) for c in ("index", "bare", "eff", "flagged"))
    except ValueError:
        raise ValueError(f"{path}: expected columns index,bare,eff,...,flagged") from None
    rows = []
    for ln, line in enumerate(lines, start=2):
        parts = line.strip().split(",")
        try:
            if parts[f_idx] == "true":
                continue
            row = (int(parts[i_idx]), float(parts[b_idx]), float(parts[e_idx]))
        except (IndexError, ValueError):
            raise ValueError(f"{path}:{ln}: bad row {line.strip()!r} for columns {','.join(header)}")
        if not np.isfinite(row).all():
            raise ValueError(f"{path}:{ln}: non-finite value in row {line.strip()!r}")
        rows.append(row)
    index = np.array([r[0] for r in rows], dtype=np.int64)
    bare, eff = (np.array([r[k] for r in rows], dtype=np.float64) for k in (1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = (eff - bare) / bare
    return DifferenceTable(index=index, bare=bare, eff=eff, diff=eff - bare, rel_diff=rel,
                           flagged=np.zeros(index.size, dtype=bool))


def write_tanfit_csv(path, table: DifferenceTable, fit: TanFit) -> None:
    """Relative eigenvalue differences next to the fitted tangent curve."""
    index = np.asarray(table.index, dtype=np.float64)
    fitted = np.full(index.size, np.nan) if fit.degenerate else eval_tan(fit, index)
    write_csv(path, ("index", "rel_diff", "fit", "flagged"),
              (table.index, table.rel_diff, fitted, table.flagged))


def write_tanfit_json(path, fit: TanFit) -> None:
    write_json(path, dataclasses.asdict(fit))


def fit_report_text(report) -> str:
    """Human-readable summary of a :class:`~tanfold.training.FitReport`
    (config, losses, aggregate MAE).

    Wall time is deliberately omitted so the text is identical across
    reruns with the same seed and config; timing lives in the run manifest.
    """
    cfg = report.config
    lines = [
        f"stage: {cfg.stage.value}",
        f"epochs: {cfg.epochs}",
        f"batch_size: {cfg.batch_size}",
        f"base_lr: {format_value(cfg.base_lr)}",
        f"seed: {cfg.seed}",
        f"ell: {cfg.ell}",
        f"hidden: {','.join(str(h) for h in cfg.hidden)}",
        f"freeze_orbitals: {str(cfg.freeze_orbitals).lower()}",
        f"initial_loss: {format_value(report.initial_loss)}",
        f"final_loss: {format_value(report.final_loss)}",
        f"train_mae: {format_value(report.train_mae)}",
        f"test_mae: {format_value(report.test_mae)}",
        f"n_geometries: {len(report.per_geometry)}",
    ]
    return "\n".join(lines) + "\n"
