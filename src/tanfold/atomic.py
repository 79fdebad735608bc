"""Whole-file writes: a reader sees the old file or the new one, never half."""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = ["replacing", "savez"]


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
