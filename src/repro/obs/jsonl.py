"""The crash-consistent append-only log behind ``runs.jsonl``,
``jobs.jsonl`` and ``audit.jsonl`` (``docs/RUNS.md``, "Crash
consistency")."""

from __future__ import annotations

import fcntl
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from repro.errors import ReproError
from repro.obs.log import get_logger

__all__ = ["JsonlLog"]

_LOG = get_logger("obs.jsonl")


def _stamp(stat: os.stat_result) -> tuple[int, int, int]:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


class JsonlLog:
    """``json.dumps(encode(record), sort_keys=True)`` lines at ``path``;
    ``decode`` maps a parsed line back to a record.

    Reads skip an unterminated last line: it may be an append in flight.
    A malformed terminated line is interior corruption and raises. Under
    the append lock an unterminated tail can only be a crashed writer's;
    it moves to ``<log>.torn`` and ``repairs`` counts it."""

    def __init__(
        self,
        path: Union[str, Path],
        decode: Callable[[dict], Any] = dict,
        encode: Callable[[Any], dict] = dict,
        kind: str = "record",
    ) -> None:
        self.path = Path(path)
        self.repairs = 0
        self._decode, self._encode, self._kind = decode, encode, kind
        self._mutex = threading.RLock()
        # Appends extend the list in O(1); records() re-tuples it lazily.
        self._records: Optional[list] = None
        self._view: tuple = ()
        self._stamp: Optional[tuple[int, int, int]] = None

    def records(self) -> tuple:
        """Every complete record, oldest first (cached per file stamp)."""
        with self._mutex:
            try:
                stamp = _stamp(self.path.stat())
            except FileNotFoundError:
                stamp = None
            if self._records is None or stamp != self._stamp:
                # Stamped before the read: a later append is re-read.
                data = self.path.read_bytes() if stamp else b""
                lines = data[: data.rfind(b"\n") + 1].split(b"\n")[:-1]
                self._records = [
                    self._parse(line, number)
                    for number, line in enumerate(lines, 1)
                    if line.strip()
                ]
                self._view, self._stamp = (), stamp
            if len(self._view) != len(self._records):
                self._view = tuple(self._records)
            return self._view

    def _parse(self, line: bytes, number: int) -> Any:
        try:
            return self._decode(json.loads(line))
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise ReproError(
                f"{self.path} line {number} is not a valid {self._kind}: "
                f"{error}"
            ) from None

    def append(self, record: Any) -> Any:
        """Append one record with a single write and return it; a
        callable ``record`` is built from the records read under the
        lock (how run ids stay unique across processes)."""
        with self._locked() as (fd, stamp):
            if callable(record):
                record = record(self.records())
            data = self._line(record)
            while data:
                data = data[os.write(fd, data):]
            if self._records is not None and self._stamp == stamp:
                self._records.append(record)
                self._stamp = _stamp(os.fstat(fd))
            else:
                self._records = None
        return record

    def rewrite(self, select: Callable[[tuple], Any]) -> tuple[tuple, tuple]:
        """Atomically replace the log with ``select(records)``, read and
        renamed under the append lock. Returns ``(before, after)``."""
        if not self.path.exists():
            return (), ()
        with self._locked():
            before = self.records()
            after = tuple(select(before))
            if len(after) != len(before):
                staging = self.path.with_name(self.path.name + ".tmp")
                staging.write_bytes(b"".join(map(self._line, after)))
                staging.replace(self.path)
                self._records, self._view = list(after), after
                self._stamp = _stamp(self.path.stat())
        return before, after

    def _line(self, record: Any) -> bytes:
        line = json.dumps(self._encode(record), sort_keys=True) + "\n"
        return line.encode("utf-8")

    @contextmanager
    def _locked(self) -> Iterator[tuple[int, tuple[int, int, int]]]:
        """Hold both locks, repair a torn tail, and yield an ``O_APPEND``
        descriptor on the log with its stamp."""
        with self._mutex:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            lock = self.path.with_name(self.path.name + ".lock")
            sidecar = os.open(lock, os.O_WRONLY | os.O_CREAT, 0o644)
            try:
                fcntl.flock(sidecar, fcntl.LOCK_EX)
                flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
                fd = os.open(self.path, flags, 0o644)
                try:
                    yield fd, self._repair(fd)
                finally:
                    os.close(fd)
            finally:
                os.close(sidecar)  # and with it the flock

    def _repair(self, fd: int) -> tuple[int, int, int]:
        """Move an unterminated tail to ``<log>.torn``, truncate it
        away, and return the log's stamp."""
        stamp = _stamp(os.fstat(fd))
        size = stamp[2]
        if not size or os.pread(fd, 1, size - 1) == b"\n":
            return stamp
        data = os.pread(fd, size, 0)  # rare: only after a crash
        start = data.rfind(b"\n") + 1
        torn = self.path.with_name(self.path.name + ".torn")
        with open(torn, "ab") as out:
            out.write(data[start:] + b"\n")
        os.ftruncate(fd, start)
        self.repairs += 1
        self._records = None
        _LOG.warning("%s: moved a torn tail to %s", self.path, torn)
        return _stamp(os.fstat(fd))
