"""A numpy naive oracle for served answers, independent of the program.

Definitions 1-4 of the paper, transcribed directly: the n-match
difference of a point is the n-th smallest of its per-dimension absolute
differences to the query; a k-n-match answer is the k smallest such
differences under the canonical ``(difference, id)`` tie-break; a
frequent k-n-match answer ranks the points of the per-n answer sets over
``[n0, n1]`` by (higher frequency, smaller best rank, smaller id).

Answers are compared bit for bit: the same float64 subtraction and
absolute value the engines use, so no tolerance is involved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


def _profiles(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    return np.sort(np.abs(data - query), axis=1)


def k_n_match(
    data: np.ndarray, ids: np.ndarray, query, k: int, n: int
) -> Tuple[List[int], List[float]]:
    """``(ids, differences)`` of the k-n-match of ``query`` over ``data``."""
    query = np.asarray(query, dtype=np.float64)
    column = np.partition(np.abs(data - query), n - 1, axis=1)[:, n - 1]
    order = np.lexsort((ids, column))[:k]
    return [int(i) for i in ids[order]], [float(x) for x in column[order]]


def frequent_k_n_match(
    data: np.ndarray, ids: np.ndarray, query, k: int, n_range: Tuple[int, int]
) -> Tuple[List[int], List[int]]:
    """``(ids, frequencies)`` of the frequent k-n-match over ``n_range``."""
    profiles = _profiles(data, np.asarray(query, dtype=np.float64))
    frequency: Dict[int, int] = {}
    best_rank: Dict[int, int] = {}
    for n in range(n_range[0], n_range[1] + 1):
        order = np.lexsort((ids, profiles[:, n - 1]))[:k]
        for rank, pid in enumerate(int(i) for i in ids[order]):
            frequency[pid] = frequency.get(pid, 0) + 1
            best_rank[pid] = min(rank, best_rank.get(pid, rank))
    chosen = sorted(
        frequency, key=lambda pid: (-frequency[pid], best_rank[pid], pid)
    )[:k]
    return chosen, [frequency[pid] for pid in chosen]


def check(
    data: np.ndarray, ids: np.ndarray, path: str, request: Dict, response: Dict
) -> Optional[str]:
    """``None`` when ``response`` is the oracle's answer, else a reason."""
    k = request["k"]
    if path == "/v1/query":
        got = response["result"]
        want = k_n_match(data, ids, request["query"], k, request["n"])
        if (got["ids"], got["differences"]) != want:
            return f"query: served {got['ids'][:3]}..., oracle {want[0][:3]}..."
        return None
    if path == "/v1/frequent":
        got = response["result"]
        want = frequent_k_n_match(
            data, ids, request["query"], k, tuple(request["n_range"])
        )
        if (got["ids"], got["frequencies"]) != want:
            return f"frequent: served {got['ids'][:3]}..., oracle {want[0][:3]}..."
        return None
    if path == "/v1/batch":
        results = response["results"]
        if len(results) != len(request["queries"]):
            return f"batch: {len(results)} results for {len(request['queries'])} rows"
        for row, (query, got) in enumerate(zip(request["queries"], results)):
            want = k_n_match(data, ids, query, k, request["n"])
            if (got["ids"], got["differences"]) != want:
                return (
                    f"batch row {row}: served {got['ids'][:3]}..., "
                    f"oracle {want[0][:3]}..."
                )
        return None
    raise ValueError(f"no oracle for {path}")
