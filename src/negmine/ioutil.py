"""Deterministic, atomic file plumbing shared across the pipeline.

All artifact writers go through `atomic_write_*` (write to a temp file in the
target directory, then rename) so partially written outputs never appear
under their final name. Floats in text artifacts are formatted with `repr`,
which round-trips every double exactly, keeping reruns byte-identical.

Every text artifact is read through `read_lines`, so that every reader
skips the same lines and reports a bad line, undecodable bytes included,
as a `ParseError` naming the file and line.
"""
from __future__ import annotations

import logging
import os
import re
import tempfile
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

logger = logging.getLogger(__name__)

T = TypeVar("T")

# What `errors="surrogateescape"` turns each undecodable byte into.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class ParseError(ValueError):
    """Malformed line of a text artifact; message carries path and line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def read_lines(
    path: str | Path, parse: Callable[..., T], n_fields: int | None = None
) -> Iterator[tuple[int, T]]:
    """Yield `(line_no, parse(line))` for each content line of a UTF-8 file.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped; line numbers count every line from 1. With `n_fields`, a line
    is split on tabs and must hold exactly that many fields, and `parse`
    gets the field list; otherwise it gets the line without its newline. A
    `ValueError` from `parse`, and a byte that is not UTF-8, become a
    `ParseError` for their line.
    """
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, raw in enumerate(f, start=1):
                line = raw.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                if n_fields is not None:
                    line = line.split("\t")
                    if len(line) != n_fields:
                        raise ParseError(path, line_no, f"expected {n_fields} fields, got {len(line)}")
                try:
                    value = parse(line)
                except ValueError as exc:
                    raise ParseError(path, line_no, str(exc)) from exc
                yield line_no, value
    except UnicodeDecodeError:
        # The decoder works on blocks, so its error names no line. Read the
        # file again with each bad byte escaped to find the first one.
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            for line_no, line in enumerate(f, start=1):
                bad = _ESCAPED_BYTE.search(line)
                if bad:
                    byte = ord(bad.group()) - 0xDC00
                    raise ParseError(
                        path, line_no, f"byte 0x{byte:02x} at column {bad.start() + 1} is not UTF-8"
                    ) from None
        raise


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to exactly the same double."""
    return repr(float(x))


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


class LockError(RuntimeError):
    """Another process holds the output-directory lock."""


class DirectoryLock:
    """Exclusive advisory lock on an output directory via an O_EXCL lockfile.

    The lockfile holds its owner's pid. A lockfile whose pid names no live
    process was left by a run that died; it is reclaimed. A live pid, or
    content that is not a positive integer, keeps the directory locked.
    """

    def __init__(self, directory: str | Path):
        self.path = Path(directory) / ".lock"
        self._fd: int | None = None

    def __enter__(self) -> "DirectoryLock":
        try:
            self._fd = self._create()
        except FileExistsError:
            if not self._reclaim_stale():
                raise LockError(
                    f"lockfile exists: {self.path} (another run in progress?)"
                ) from None
            try:
                self._fd = self._create()
            except FileExistsError:
                raise LockError(f"lockfile exists: {self.path} (another run took it)") from None
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def _create(self) -> int:
        return os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)

    def _reclaim_stale(self) -> bool:
        """Remove our lockfile if the pid in it is dead; True if it is gone."""
        try:
            content = self.path.read_bytes()
            pid = int(content.decode("ascii"))
        except (OSError, ValueError):
            return False
        if not _process_exited(pid):
            return False
        # Move the file aside before deleting it, so that a lock another run
        # has just put in its place is never deleted.
        aside = self.path.with_name(f"{self.path.name}.{os.getpid()}.stale")
        try:
            os.rename(self.path, aside)
        except FileNotFoundError:
            return True  # someone else reclaimed it first
        if aside.read_bytes() != content:
            os.rename(aside, self.path)
            return False
        aside.unlink()
        logger.warning("reclaimed stale lockfile %s of exited pid %d", self.path, pid)
        return True

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self.path.exists():
            self.path.unlink()


def _process_exited(pid: int) -> bool:
    """True iff `pid` is a valid pid that names no process."""
    if pid < 1:
        return False
    try:
        os.kill(pid, 0)  # signal 0: existence check only
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # alive but not ours, or not a pid
        return False
    return False


def derive_seed(seed: int, *salt: int) -> int:
    """Independent child seed for a namespaced subtask of a base seed."""
    return int(np.random.SeedSequence([int(seed), *map(int, salt)]).generate_state(1)[0])
