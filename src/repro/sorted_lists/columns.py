"""Sorted-column organisation of a multidimensional database.

The AD algorithm (Sec. 3 of the paper) assumes "attributes are sorted in
each dimension; each attribute is associated with its point ID", i.e. the
database is stored as ``d`` sorted lists of ``(attribute, point-id)``
pairs.  :class:`SortedColumns` builds and serves that organisation from an
in-memory array.  It is the substrate shared by the in-memory AD engine,
the block-AD engine and (serialised page-wise) the disk AD engine, and it
doubles as one "system" per dimension in the multiple-system information
retrieval model (:mod:`repro.ir`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core import validation
from ..errors import ValidationError

__all__ = ["SortedColumns"]


class SortedColumns:
    """Per-dimension sorted view of a ``(c, d)`` database.

    ``values[j]`` is dimension ``j`` sorted ascending and ``ids[j]`` the
    matching point ids (a permutation of ``0..c-1``).  Sorting is stable,
    so ties on the attribute value keep ascending id order — this keeps
    every engine built on top deterministic.
    """

    def __init__(self, data) -> None:
        array = validation.as_database_array(data)
        c, d = array.shape
        self._data = array
        # argsort each column; stable so equal values keep id order.
        order = np.argsort(array, axis=0, kind="stable")
        self._ids = np.ascontiguousarray(order.T)  # (d, c) int
        self._values = np.ascontiguousarray(
            np.take_along_axis(array, order, axis=0).T
        )  # (d, c) float64
        self._cardinality = c
        self._dimensionality = d
        self._ids32 = None

    @classmethod
    def from_prebuilt(
        cls, data: np.ndarray, values: np.ndarray, ids: np.ndarray
    ) -> "SortedColumns":
        """Install already-sorted columns without re-sorting.

        ``data`` is the row-major ``(c, d)`` array, ``values``/``ids``
        the ``(d, c)`` sorted-column matrices exactly as
        :attr:`values_matrix`/:attr:`ids_matrix` expose them.  The
        arrays are adopted as-is (no copy, no argsort) — this is the
        zero-copy path used by the persistence loader and by the
        shared-memory process workers, where the matrices are views
        over storage built (and verified) elsewhere.  Callers own the
        consistency of the three arrays.
        """
        c, d = data.shape
        if values.shape != (d, c) or ids.shape != (d, c):
            raise ValidationError(
                f"prebuilt column shapes {values.shape}/{ids.shape} do not "
                f"match data shape {data.shape}"
            )
        columns = cls.__new__(cls)
        columns._data = data
        columns._values = values
        columns._ids = ids
        columns._cardinality = int(c)
        columns._dimensionality = int(d)
        columns._ids32 = None
        return columns

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The original row-major ``(c, d)`` array."""
        return self._data

    @property
    def cardinality(self) -> int:
        return self._cardinality

    @property
    def dimensionality(self) -> int:
        return self._dimensionality

    @property
    def total_attributes(self) -> int:
        return self._cardinality * self._dimensionality

    # ------------------------------------------------------------------
    # column access
    # ------------------------------------------------------------------
    def column_values(self, dimension: int) -> np.ndarray:
        """Sorted attribute values of one dimension (read-only view)."""
        self._check_dimension(dimension)
        return self._values[dimension]

    def column_ids(self, dimension: int) -> np.ndarray:
        """Point ids aligned with :meth:`column_values`."""
        self._check_dimension(dimension)
        return self._ids[dimension]

    @property
    def values_matrix(self) -> np.ndarray:
        """All sorted columns as one ``(d, c)`` array (row ``j`` = dim ``j``).

        A contiguous view over the build's internal storage, shared by the
        batch engines so a whole query batch can consume every column
        without per-dimension Python calls.  Treat it as read-only.
        """
        return self._values

    @property
    def ids_matrix(self) -> np.ndarray:
        """Point ids aligned row-wise with :attr:`values_matrix`."""
        return self._ids

    @property
    def ids_matrix32(self) -> np.ndarray:
        """:attr:`ids_matrix` narrowed to int32, built on first use.

        The block engines scatter window ids into per-query count rows;
        the scatter is memory-bound, so the half-width ids measurably
        help.  One ``4*c*d``-byte copy per build, shared by every engine
        over these columns.
        """
        if self._ids32 is None:
            self._ids32 = self._ids.astype(np.int32)
        return self._ids32

    def entry(self, dimension: int, position: int) -> Tuple[int, float]:
        """The ``(point id, attribute)`` pair at one sorted position."""
        self._check_dimension(dimension)
        if not 0 <= position < self._cardinality:
            raise ValidationError(
                f"position {position} out of range [0, {self._cardinality})"
            )
        return (
            int(self._ids[dimension, position]),
            float(self._values[dimension, position]),
        )

    def locate(self, dimension: int, value: float) -> int:
        """Binary-search ``value`` in a sorted dimension (Fig. 4, line 3).

        Returns the position of the first attribute ``>= value`` (the
        ``np.searchsorted`` "left" convention).  Attributes strictly below
        the returned position are smaller than ``value``; the position
        itself and everything after are greater or equal.  The two AD
        cursors start from either side of this split.
        """
        self._check_dimension(dimension)
        return int(np.searchsorted(self._values[dimension], value, side="left"))

    def locate_all(self, query: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`locate` of ``query[j]`` in dimension ``j``."""
        query = validation.as_query_array(query, self._dimensionality)
        positions = np.empty(self._dimensionality, dtype=np.int64)
        for j in range(self._dimensionality):
            positions[j] = np.searchsorted(self._values[j], query[j], side="left")
        return positions

    def _check_dimension(self, dimension: int) -> None:
        if not 0 <= dimension < self._dimensionality:
            raise ValidationError(
                f"dimension {dimension} out of range [0, {self._dimensionality})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SortedColumns(cardinality={self._cardinality}, "
            f"dimensionality={self._dimensionality})"
        )
