"""Output files that appear whole or not at all, and JSON input files
whose faults are reported as one error class."""
from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temp file beside ``path`` for writing; replace ``path``
    with it on a clean exit.

    If the body raises, the temp file is removed and any existing file
    at ``path`` is left untouched.  There is no fsync: this guards
    against partial files from a failed write, not against power loss.
    The temp file is created like ``open`` creates files, so the result
    has the usual umask-derived permissions.  Pipes and devices are
    written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        # a pipe or device (say /dev/stdout) cannot be replaced by a rename
        with open(path, mode, **open_kwargs) as fh:
            yield fh
        return
    path = os.path.realpath(path)  # replace a symlink's target, not the link
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    # "x" creates the temp file exclusively, with open()'s default mode
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_json(path, error: type[Exception], what: str):
    """Parse the UTF-8 JSON file at ``path``; a file that cannot be read
    or parsed raises ``error``, its message naming ``what`` and ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
