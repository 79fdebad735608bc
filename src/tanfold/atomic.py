"""The one write path and the one read path of each file kind.  A write
replaces the whole file, as UTF-8 with ``\n`` line ends for text, and makes
the file's directory when it is missing, so an output directory appears at
its first write and a stage that fails before that leaves none.  A read
takes the whole file; each fault of the file is one ``ValueError`` naming it."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import zipfile

import numpy as np

__all__ = ["copy_file", "read_json", "read_npz", "read_text", "savez", "write_json", "write_text"]


@contextlib.contextmanager
def _replacing(path):
    """Yield ``path.tmp`` for the block to write, then rename it to ``path``,
    so no reader sees a half-written file; remove it if the block raises.
    The parent directory of ``path`` is made first when it is missing."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_text(path, parts) -> None:
    """Write the strings of ``parts`` in order as the UTF-8 text of ``path``,
    line ends as given; ``parts`` may be a generator, consumed as it is written."""
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(parts)


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    write_text(path, (json.dumps(payload, indent=2, sort_keys=True), "\n"))


def copy_file(src, dst) -> None:
    """Copy the bytes of ``src`` to ``dst``."""
    with _replacing(dst) as tmp:
        shutil.copyfile(src, tmp)


def savez(path, **arrays) -> None:
    """``np.savez`` to a whole-file write.  It writes to an open handle,
    since given a path without ``.npz`` it would append that suffix."""
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
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
