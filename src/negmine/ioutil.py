"""Deterministic, atomic file plumbing shared across the pipeline.

All artifact writers go through `atomic_write_*` (write to a temp file in the
target directory, then rename) so partially written outputs never appear
under their final name. Floats in text artifacts are formatted with `repr`,
which round-trips every double exactly, keeping reruns byte-identical.
"""
from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


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

    def __init__(self, directory: str | Path, name: str = ".lock"):
        self.path = Path(directory) / name
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
