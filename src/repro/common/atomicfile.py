"""Crash-consistent file replacement.

Every durable artefact the reproduction writes -- metric and trace
exports, verifier snapshots, the bench trajectory, ``report --out`` --
goes through :func:`write_atomic`: the content is written to a temp
file in the destination directory, fsynced, and renamed over the
target.  A crash at any step leaves either the old file or the
complete new one, never a truncated hybrid, and no temp file behind.
"""

from __future__ import annotations

import os
import tempfile
from typing import IO, Any, Callable


def write_atomic(
    path: str | os.PathLike, write: Callable[[IO[Any]], None], binary: bool = False
) -> None:
    """Run *write(handle)* against a same-directory temp file, then
    fsync + rename it over *path*.

    The handle is text (UTF-8) unless *binary*.  On any failure the temp
    file is removed and the exception propagates; *path* is untouched.
    """
    path = os.fspath(path)
    handle = tempfile.NamedTemporaryFile(
        "wb" if binary else "w",
        encoding=None if binary else "utf-8",
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=os.path.basename(path) + ".", suffix=".tmp", delete=False,
    )
    try:
        with handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
