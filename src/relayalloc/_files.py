"""Atomic file writes shared by every artifact writer."""

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Write to ``path + ".tmp"``, then move it over ``path``.

    If the body raises, the temporary file is removed and ``path`` keeps
    its previous contents.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
