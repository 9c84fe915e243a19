"""Atomic file writes: temp file in the target directory, then rename."""

from __future__ import annotations

import os


def _atomic_write(path: str, data, mode: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}{os.path.basename(path)}")
    # created as a plain open() creates a file: mode 0o666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, text, "w")


def atomic_write_bytes(path: str, data: bytes) -> None:
    _atomic_write(path, data, "wb")
