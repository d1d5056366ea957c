"""Input files read as JSON, and output files that are either written whole
or not at all."""

from __future__ import annotations

import contextlib
import json
import os

from .errors import DomainError


def load_json(path, what: str):
    """The JSON value in the file at path; DomainError, naming the file as
    what, when it cannot be read or holds no JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DomainError(f"{what} {path} is not JSON: {exc}") from exc


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
