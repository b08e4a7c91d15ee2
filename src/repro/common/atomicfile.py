"""Crash-consistent file replacement.

The metric and trace exports, verifier snapshots and ``report --out``
go through :func:`write_atomic`: the content is written to a temp file
in the destination directory, fsynced, renamed over the target, and
the directory is fsynced so the rename itself is durable.  A crash at
any step leaves either the old file or the complete new one, never a
truncated hybrid, and no temp file behind.  (The bench trajectory of
``benchmarks/harness.py`` is not rewritten but appended to, with its
own fsync; it also calls :func:`fsync_directory` when an append
creates the file.)
"""

from __future__ import annotations

import os
import tempfile
from typing import IO, Any, Callable


def write_atomic(
    path: str | os.PathLike, write: Callable[[IO[Any]], None], binary: bool = False
) -> None:
    """Run *write(handle)* against a same-directory temp file, then
    fsync + rename it over *path* and fsync the directory.

    The handle is text (UTF-8) unless *binary*.  On a failure before the
    rename the temp file is removed and the exception propagates; *path*
    is untouched.  A failure of the directory fsync propagates too, with
    *path* already holding the new content.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "wb" if binary else "w",
        encoding=None if binary else "utf-8",
        dir=directory,
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
    # The rename lives in the directory entry: until the directory is
    # flushed, a crash can still bring back the old file.
    fsync_directory(directory)


def fsync_directory(directory: str) -> None:
    """Flush *directory*'s entries: a new or renamed name survives a crash."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
