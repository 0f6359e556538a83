"""UTF-8 file I/O without newline translation, so splice edits and golden
comparisons stay byte-exact.  `read_text` is the package's only decoder."""

from __future__ import annotations

import errno
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


def is_file(path: Path) -> bool:
    """Whether `path` is a file; a name too long for the file system names none."""
    try:
        return path.is_file()
    except OSError as exc:
        if exc.errno == errno.ENAMETOOLONG:
            return False
        raise
