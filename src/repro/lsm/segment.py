"""Immutable LSM segments: one static block-AD database per sorted run.

A segment is the durable unit of the LSM store: a frozen ``(rows, pids)``
pair with prebuilt sorted columns, written once at flush or compaction
time and never modified.  Queries see it through
:mod:`repro.core.segment_search`: its :attr:`Segment.engine` runs the
block-AD windows with the store's dead-row mask for this segment and the
caps of the segments searched before it, and answer-set row indices map
back to stable point ids through :attr:`Segment.pids`.

``pids`` are sorted ascending.  Point ids are assigned monotonically at
insert time and compaction merges whole segments, so sorting by pid is
free at build time and buys ``searchsorted`` membership tests (dead
masks, point lookup) at query time.

On disk a segment is the same ``.npz``-with-JSON-header container as
:mod:`repro.io`: raw rows, the pid array, and the prebuilt sorted
columns (installed on load via
:meth:`~repro.sorted_lists.SortedColumns.from_prebuilt`, no re-sort).
"""

from __future__ import annotations

import json
import os
from typing import Optional, Union

import numpy as np

from ..core.ad_block import BlockADEngine
from ..core.segment_search import position
from ..errors import StorageError
from ..sorted_lists import SortedColumns
from .wal import fsync_directory

__all__ = ["Segment", "SEGMENT_MAGIC", "SEGMENT_FORMAT_VERSION"]

SEGMENT_MAGIC = "repro-lsm-segment"
SEGMENT_FORMAT_VERSION = 1


class Segment:
    """One immutable sorted run: frozen rows, stable pids, lazy engine."""

    def __init__(
        self,
        segment_id: int,
        level: int,
        rows: np.ndarray,
        pids: np.ndarray,
        columns: Optional[SortedColumns] = None,
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        pids = np.ascontiguousarray(pids, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise StorageError(
                f"segment rows must be a non-empty 2d array; got {rows.shape}"
            )
        if pids.shape != (rows.shape[0],):
            raise StorageError(
                f"segment pids shape {pids.shape} does not match "
                f"{rows.shape[0]} rows"
            )
        if np.any(np.diff(pids) <= 0):
            raise StorageError("segment pids must be strictly ascending")
        self.segment_id = int(segment_id)
        self.level = int(level)
        self.rows = rows
        self.pids = pids
        self._columns = columns
        self._engine: Optional[BlockADEngine] = None

    # ------------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        return self.rows.shape[0]

    @property
    def dimensionality(self) -> int:
        return self.rows.shape[1]

    @property
    def filename(self) -> str:
        return f"seg-{self.segment_id:08d}.npz"

    def contains_pid(self, pid: int) -> bool:
        return position(self.pids, pid) >= 0

    def get_point(self, pid: int) -> Optional[np.ndarray]:
        """The coordinates stored for ``pid``, or ``None`` if absent."""
        row = position(self.pids, pid)
        return self.rows[row].copy() if row >= 0 else None

    @property
    def engine(self) -> BlockADEngine:
        """The segment's block-AD engine, built on first use.

        It stays uninstrumented so logical query counters are not
        double-counted; the store's own spans time it.
        """
        if self._engine is None:
            if self._columns is not None:
                self._engine = BlockADEngine(self._columns)
            else:
                self._engine = BlockADEngine(self.rows)
                self._columns = self._engine.columns
        return self._engine

    @property
    def columns(self) -> SortedColumns:
        return self.engine.columns

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, os.PathLike]) -> str:
        """Write the segment into ``directory``, fsync'd; returns the name.

        The file is written to a temporary name and renamed into place,
        so a crash mid-write leaves an orphan temp file (cleaned on
        recovery), never a half-written segment under the real name.
        The directory is fsync'd after the rename, so a manifest written
        later can never name a segment whose entry a power loss undid.
        """
        directory = os.fspath(directory)
        columns = self.columns
        header = json.dumps(
            {
                "magic": SEGMENT_MAGIC,
                "version": SEGMENT_FORMAT_VERSION,
                "segment_id": self.segment_id,
                "level": self.level,
                "cardinality": self.cardinality,
                "dimensionality": self.dimensionality,
            }
        )
        final_path = os.path.join(directory, self.filename)
        tmp_path = final_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            np.savez(
                handle,
                header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
                rows=self.rows,
                pids=self.pids,
                sorted_values=columns.values_matrix,
                sorted_ids=columns.ids_matrix,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, final_path)
        fsync_directory(directory)
        return self.filename

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "Segment":
        """Load a segment file, verifying header and shapes."""
        path = os.fspath(path)
        try:
            archive = np.load(path)
        except (OSError, ValueError) as error:
            raise StorageError(
                f"cannot read segment file {path!r}: {error}"
            ) from error
        try:
            required = {"header", "rows", "pids", "sorted_values", "sorted_ids"}
            missing = required - set(archive.files)
            if missing:
                raise StorageError(
                    f"{path!r} is not a repro segment file "
                    f"(missing {sorted(missing)})"
                )
            try:
                header = json.loads(bytes(archive["header"]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise StorageError(
                    f"{path!r} has a corrupt segment header"
                ) from error
            if header.get("magic") != SEGMENT_MAGIC:
                raise StorageError(f"{path!r} is not a repro segment file")
            if header.get("version") != SEGMENT_FORMAT_VERSION:
                raise StorageError(
                    f"{path!r} uses segment format version "
                    f"{header.get('version')}; this build reads version "
                    f"{SEGMENT_FORMAT_VERSION}"
                )
            rows = np.ascontiguousarray(archive["rows"], dtype=np.float64)
            pids = np.ascontiguousarray(archive["pids"], dtype=np.int64)
            c = header.get("cardinality")
            d = header.get("dimensionality")
            if rows.shape != (c, d):
                raise StorageError(
                    f"{path!r}: rows shape {rows.shape} does not match "
                    f"header ({c}, {d})"
                )
            values = np.ascontiguousarray(
                archive["sorted_values"], dtype=np.float64
            )
            ids = np.ascontiguousarray(archive["sorted_ids"], dtype=np.int64)
            if values.shape != (d, c) or ids.shape != (d, c):
                raise StorageError(
                    f"{path!r}: sorted-column shapes are inconsistent"
                )
            columns = SortedColumns.from_prebuilt(rows, values, ids)
            return cls(
                header.get("segment_id", 0),
                header.get("level", 0),
                rows,
                pids,
                columns=columns,
            )
        finally:
            archive.close()
