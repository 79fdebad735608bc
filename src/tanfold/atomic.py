"""Whole-file writes, so a reader sees the old file or the new one, never
half; and whole-file reads, each fault of the file one ``ValueError`` naming it."""

from __future__ import annotations

import contextlib
import json
import os
import zipfile

import numpy as np

__all__ = ["read_json", "read_npz", "read_text", "replacing", "savez"]


@contextlib.contextmanager
def replacing(path):
    """Yield ``path.tmp`` for the block to write, then rename it to ``path``,
    so no reader sees a half-written file; remove it if the block raises."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def savez(path, **arrays) -> None:
    """``np.savez`` through :func:`replacing`.  It writes to an open handle,
    since given a path without ``.npz`` it would append that suffix."""
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **arrays)


@contextlib.contextmanager
def read_npz(path):
    """Yield the open ``NpzFile`` of the archive at ``path`` for the block to
    read.  A file that is not a zip archive (an ``.npy`` array, other bytes,
    a truncated archive) and a damaged member that the block reads are faults."""
    with open(path, "rb") as fh:
        try:
            if fh.peek(4)[:4] not in (b"PK\x03\x04", b"PK\x05\x06"):  # np.load's zip test
                raise zipfile.BadZipFile("File is not a zip file")
            with np.load(fh) as data:
                yield data
        except zipfile.BadZipFile as exc:
            raise ValueError(f"{path}: not a readable .npz archive: {exc}") from None


def read_text(path) -> str:
    """The UTF-8 text of ``path``, line ends as stored."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: byte {raw[exc.start]:#04x} at offset {exc.start}: {exc.reason}") from None


def read_json(path) -> dict:
    """The JSON object that ``path`` holds."""
    try:
        value = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value
