"""Output files that are either written whole or not at all."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path):
    """Open path for writing text through a temporary file in the same
    directory, which replaces path only when the block finishes.  On an
    exception the temporary file is removed and any previous file at path is
    left untouched.  The temporary file is created like open(path, "w")
    would create path, so the result gets the same permissions."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
