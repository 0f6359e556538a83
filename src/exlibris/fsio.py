"""UTF-8 file I/O without newline translation, so splice edits and golden
comparisons stay byte-exact.  `read_text` is the package's only decoder."""

from __future__ import annotations

import errno
import os
import stat
from pathlib import Path

from .errors import ExlibrisError


def read_text(path: Path | str) -> str:
    """The file's text; bytes that are not UTF-8 raise an error naming
    `path:line`."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ExlibrisError(
            f"{path}:{line}: cannot decode byte 0x{data[exc.start]:02x} as UTF-8"
        ) from exc


def write_text(path: Path | str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# errors by which `Path.is_file` finds no file, and a name too long for the file system
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP, errno.ENAMETOOLONG)


def is_file(path: str) -> bool:
    """Whether `path` is a file or a link to one; as for `Path.is_file`, a
    name with a NUL or an error in `_NO_FILE` names none, and others raise."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except (OSError, ValueError) as exc:
        if isinstance(exc, ValueError) or exc.errno in _NO_FILE:
            return False
        raise
