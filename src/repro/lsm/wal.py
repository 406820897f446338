"""The write-ahead log: durable mutation records with a torn-tail contract.

Every mutation against :class:`~repro.lsm.store.LsmMatchDatabase` is
appended here *before* it touches the in-memory state, so a crash at any
instant loses at most the suffix of the log that never reached the disk.
The format is deliberately boring:

``file header`` (16 bytes)
    ``8s`` magic ``b"reprowal"`` · ``<I`` format version · ``<I`` reserved
    (zero).  A foreign or stale file fails loudly at open.

``record`` (framed, little-endian)
    ``<I`` payload length · ``<I`` CRC-32 of the payload · payload.

``payload``
    ``B`` opcode (1 = insert, 2 = delete) · ``<Q`` generation · ``<q``
    point id · for inserts ``<I`` dimensionality followed by that many
    ``<d`` float64 coordinates.

Each record carries the :attr:`generation` the mutation was applied
under, which makes replay *idempotent*: recovery applies only records
whose generation exceeds the manifest's ``persisted_generation``
watermark, so a crash between flushing a segment and resetting the log
cannot double-apply the flushed prefix.

The reader (:func:`read_wal`) trusts nothing.  It stops at the first
frame that is incomplete, overlong, CRC-mismatched or semantically
malformed and reports the length of the valid prefix — recovery then
truncates the torn tail (:func:`truncate_wal`) and serves exactly the
durable mutations, never a half-written one.

``fsync`` batching is the caller's policy: :meth:`WalWriter.append`
writes through an unbuffered file object (so an in-process crash cannot
lose Python-buffered bytes) and :meth:`WalWriter.sync` forces the OS
cache to the device.  The store syncs every ``wal_sync_interval``
records and before every flush/manifest write.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..errors import StorageError
from ..storage.fault import FaultSchedule, InjectedCrashError

__all__ = [
    "fsync_directory",
    "WAL_MAGIC",
    "WAL_VERSION",
    "OP_INSERT",
    "OP_DELETE",
    "WalRecord",
    "WalScan",
    "WalWriter",
    "encode_record",
    "read_wal",
    "truncate_wal",
    "wal_info",
]

WAL_MAGIC = b"reprowal"
WAL_VERSION = 1

OP_INSERT = 1
OP_DELETE = 2

_HEADER = struct.Struct("<8sII")
_FRAME = struct.Struct("<II")
_RECORD_HEAD = struct.Struct("<BQq")
_DIM = struct.Struct("<I")

#: Upper bound on a single payload, far above any real record (a
#: million-dimension insert) — rejects garbage lengths in a torn frame
#: before attempting a giant read.
_MAX_PAYLOAD = 64 * 1024 * 1024


class WalRecord(NamedTuple):
    """One decoded mutation: ``coords`` is ``None`` for deletes."""

    op: int
    generation: int
    pid: int
    coords: Optional[np.ndarray]


class WalScan(NamedTuple):
    """The result of reading a log: the valid prefix and its boundary."""

    records: List[WalRecord]
    valid_bytes: int
    total_bytes: int
    torn: bool
    reason: str


def encode_record(
    op: int, generation: int, pid: int, coords: Optional[np.ndarray] = None
) -> bytes:
    """One framed record (length + CRC + payload), ready to append."""
    if op == OP_INSERT:
        if coords is None:
            raise StorageError("insert records require coordinates")
        flat = np.ascontiguousarray(coords, dtype=np.float64).ravel()
        payload = (
            _RECORD_HEAD.pack(op, generation, pid)
            + _DIM.pack(flat.shape[0])
            + flat.tobytes()
        )
    elif op == OP_DELETE:
        payload = _RECORD_HEAD.pack(op, generation, pid)
    else:
        raise StorageError(f"unknown WAL opcode {op}")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> WalRecord:
    """Decode one CRC-verified payload; raises ``StorageError`` if torn."""
    if len(payload) < _RECORD_HEAD.size:
        raise StorageError("payload shorter than the record head")
    op, generation, pid = _RECORD_HEAD.unpack_from(payload, 0)
    if op == OP_DELETE:
        if len(payload) != _RECORD_HEAD.size:
            raise StorageError("delete payload has trailing bytes")
        return WalRecord(op, generation, pid, None)
    if op == OP_INSERT:
        offset = _RECORD_HEAD.size
        if len(payload) < offset + _DIM.size:
            raise StorageError("insert payload missing dimensionality")
        (dim,) = _DIM.unpack_from(payload, offset)
        offset += _DIM.size
        expected = offset + 8 * dim
        if dim < 1 or len(payload) != expected:
            raise StorageError("insert payload length does not match dim")
        coords = np.frombuffer(payload, dtype="<f8", count=dim, offset=offset)
        return WalRecord(op, generation, pid, coords.astype(np.float64))
    raise StorageError(f"unknown WAL opcode {op}")


class WalWriter:
    """Append-only writer over one log file.

    Creates the file (with its header) if absent, otherwise appends.
    ``fault`` is an optional :class:`~repro.storage.fault.FaultSchedule`
    whose torn-write budget is honoured byte-exactly: the on-disk file
    ends with precisely the prefix the "power cut" let through.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        fault: Optional[FaultSchedule] = None,
    ) -> None:
        self.path = os.fspath(path)
        self._fault = fault
        self.appended = 0
        self.bytes_written = 0
        self.syncs = 0
        self._unsynced = 0
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        # buffering=0: bytes hit the OS on write(), so a Python-level
        # crash (including an injected one) never loses buffered data.
        self._handle = open(self.path, "ab", buffering=0)
        if fresh:
            self._handle.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0))
            self.sync()

    @property
    def size_bytes(self) -> int:
        return os.path.getsize(self.path)

    @property
    def unsynced(self) -> int:
        """Records appended since the last :meth:`sync`."""
        return self._unsynced

    def append(
        self,
        op: int,
        generation: int,
        pid: int,
        coords: Optional[np.ndarray] = None,
    ) -> int:
        """Append one record; returns its framed size in bytes."""
        frame = encode_record(op, generation, pid, coords)
        if self._fault is not None:
            persisted, torn = self._fault.wal_write(frame)
            if torn:
                self._handle.write(persisted)
                os.fsync(self._handle.fileno())
                raise InjectedCrashError(
                    f"injected torn WAL write: {len(persisted)} of "
                    f"{len(frame)} bytes persisted"
                )
        self._handle.write(frame)
        self.appended += 1
        self.bytes_written += len(frame)
        self._unsynced += 1
        return len(frame)

    def sync(self) -> None:
        """Force appended records to the device."""
        os.fsync(self._handle.fileno())
        self.syncs += 1
        self._unsynced = 0

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _iter_frames(blob: bytes) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(frame_end_offset, payload)`` for every intact frame."""
    offset = _HEADER.size
    total = len(blob)
    while offset < total:
        if total - offset < _FRAME.size:
            raise StorageError("torn frame header")
        length, crc = _FRAME.unpack_from(blob, offset)
        if length > _MAX_PAYLOAD:
            raise StorageError(f"implausible payload length {length}")
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            raise StorageError("torn payload")
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            raise StorageError("payload CRC mismatch")
        yield end, payload
        offset = end


def read_wal(path: Union[str, os.PathLike]) -> WalScan:
    """Scan a log, returning every durable record and the torn boundary.

    A missing or header-less file is an error (the store always creates
    the log with its header before the first append); a log whose *tail*
    fails to decode is not — the scan stops at the last intact record
    and flags ``torn`` with the failure reason.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        raise StorageError(f"cannot read WAL {path!r}: {error}") from error
    if len(blob) < _HEADER.size:
        raise StorageError(f"{path!r} is too short to be a WAL")
    magic, version, _reserved = _HEADER.unpack_from(blob, 0)
    if magic != WAL_MAGIC:
        raise StorageError(f"{path!r} is not a repro WAL")
    if version != WAL_VERSION:
        raise StorageError(
            f"{path!r} uses WAL version {version}; this build reads "
            f"version {WAL_VERSION}"
        )
    records: List[WalRecord] = []
    valid = _HEADER.size
    torn = False
    reason = ""
    try:
        for end, payload in _iter_frames(blob):
            records.append(_decode_payload(payload))
            valid = end
    except StorageError as error:
        torn = True
        reason = str(error)
    return WalScan(records, valid, len(blob), torn, reason)


def fsync_directory(path: Union[str, os.PathLike]) -> None:
    """Make the entries of directory ``path`` durable (after a rename)."""
    directory_fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def truncate_wal(path: Union[str, os.PathLike], valid_bytes: int) -> None:
    """Drop a torn tail, keeping exactly the valid prefix, durably."""
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        os.fsync(handle.fileno())


def wal_info(path: Union[str, os.PathLike]) -> dict:
    """A JSON-friendly summary of one log file (used by ``repro wal-info``)."""
    scan = read_wal(path)
    inserts = sum(1 for r in scan.records if r.op == OP_INSERT)
    deletes = len(scan.records) - inserts
    generations = [r.generation for r in scan.records]
    return {
        "path": os.fspath(path),
        "total_bytes": scan.total_bytes,
        "valid_bytes": scan.valid_bytes,
        "torn": scan.torn,
        "torn_reason": scan.reason,
        "records": len(scan.records),
        "inserts": inserts,
        "deletes": deletes,
        "min_generation": min(generations) if generations else None,
        "max_generation": max(generations) if generations else None,
    }
