"""Block-AD: a vectorised variant of the AD algorithm.

The reference :class:`~repro.core.ad.ADEngine` consumes attributes one at
a time through a heap, exactly like the paper's Fig. 4/6 — provably
optimal in attributes retrieved, but interpreter-bound in pure Python.
``BlockADEngine`` trades a *bounded* amount of extra attribute retrieval
for numpy speed:

1. Per dimension, take the whole window of attributes within a
   symmetric threshold ``eps`` of the query with two binary searches.  A
   point's n-match difference is ``<= eps`` iff it occurs in at least
   ``n`` of the windows, counted in one int32 row per query.
2. Seed ``eps`` instead of discovering it round by round — the pruning
   idea of Fagin's threshold algorithm (the paper's [11]): a fixed
   sample of the database gives each query's n-match differences in one
   vectorised pass, and its 4th smallest, scaled from the sample to
   ``k`` points, starts the search just below the k-th answer.
3. A level pointer walks ``n`` from ``n0`` to ``n1``.  While the current
   level has fewer than ``k`` points with ``n`` hits, grow ``eps`` by the
   clamped factor its deficit suggests; once it is satisfied, jump to
   the next level's seed if that is larger.  Windows nest as ``eps``
   grows, so each round scatters only the newly admitted window ends.
4. Refine: at a level's earliest sufficient ``eps`` every member of its
   answer set has at least ``n`` hits, so the union of those sets holds
   every possible answer for ``n in [n0, n1]``.  Exact match profiles of
   these candidates give the per-n answer sets.

The answer is identical to the naive oracle (same deterministic
tie-breaking); the seed only decides how much work is done.  Most
k-n-match queries finish in one or two rounds, and the windows consumed
stay within a small factor of the Thm 3.2/3.3 optimum (``repro.obs.audit``
reports the ratio).

Batches run the same schedule (:meth:`BlockADEngine.grow_windows`) in
**lock-step**: per round, per dimension, one ``searchsorted`` locates
the window bounds of every active query, and a query leaves the round
set as soon as its ``n1`` level is satisfied.  A query's seeds and
growth factors do not depend on its batch, so batch answers and
per-query ``SearchStats`` are identical to one-at-a-time calls.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..sorted_lists import SortedColumns
from . import validation
from .advisor import sample_row_ids
from .types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency

__all__ = ["BlockADEngine", "BatchBlockADEngine"]


class BlockADEngine:
    """Vectorised epsilon-stepping AD search (see module docstring)."""

    name = "block-ad"

    #: bounds on the adaptive growth multiplier applied between rounds
    MIN_GROWTH = 1.25
    MAX_GROWTH = 4.0
    #: rows of the fixed sample the epsilon seed is read from
    SEED_SAMPLE = 512
    #: the sample order statistic the seed is extrapolated from
    SEED_RANK = 4
    #: shrink applied to the seed so the first round tends to undershoot
    SEED_SHRINK = 0.9
    #: queries per seed block, bounding the (block, sample, d) cube
    SEED_BLOCK = 32
    #: default lock-step group size of the batch calls.  Each in-flight
    #: query owns a ``c``-element count row that the scatter and
    #: threshold passes sweep every round, so the group working set is
    #: ``chunk * 4c`` bytes; past the last-level cache the rows thrash
    #: and the scatter slows ~2x.  32 rows balances that against
    #: amortising each round's column bisections over more queries
    #: (measured optimum on a 50k x 32 database; 16 is within a few
    #: percent).
    DEFAULT_CHUNK = 32

    def __init__(
        self,
        data: Union[np.ndarray, SortedColumns],
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if isinstance(data, SortedColumns):
            self._columns = data
        else:
            self._columns = SortedColumns(data)
        self._metrics = metrics
        self._spans = spans
        self._sample: Optional[np.ndarray] = None
        if chunk_size is None:
            chunk_size = self.DEFAULT_CHUNK
        elif chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1; got {chunk_size}")
        self._chunk_size = int(chunk_size)

    @property
    def metrics(self):
        """The installed :class:`~repro.obs.MetricsRegistry`, or ``None``."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry

    @property
    def spans(self):
        """The installed :class:`~repro.obs.SpanCollector`, or ``None``."""
        return self._spans

    @spans.setter
    def spans(self, collector) -> None:
        self._spans = collector

    @property
    def columns(self) -> SortedColumns:
        return self._columns

    @property
    def data(self) -> np.ndarray:
        return self._columns.data

    @property
    def cardinality(self) -> int:
        return self._columns.cardinality

    @property
    def dimensionality(self) -> int:
        return self._columns.dimensionality

    # ------------------------------------------------------------------
    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        """k-n-match via windows + exact refinement of the candidates."""
        c, d = self._columns.cardinality, self._columns.dimensionality
        query, k, n = validation.validate_match_args(query, k, n, c, d)
        registry = self._metrics
        spans = self._spans
        started = time.perf_counter() if registry is not None else 0.0
        data = self._columns.data
        if spans is None:
            result = self._frequent_impl(query, k, n, n, keep_answer_sets=True)
            ids = result.answer_sets[n]
            differences = n_match_differences(data, query, ids, n)
        else:
            with spans.span(f"{self.name}/k_n_match", k=k, n=n):
                result = self._frequent_impl(
                    query, k, n, n, keep_answer_sets=True
                )
                with spans.span("finalize"):
                    ids = result.answer_sets[n]
                    differences = n_match_differences(data, query, ids, n)
        if registry is not None:
            from ..obs import observe_query

            observe_query(
                registry, self.name, "k_n_match", result.stats,
                time.perf_counter() - started, d,
            )
        return MatchResult(
            ids=list(ids), differences=differences, k=k, n=n, stats=result.stats
        )

    def frequent_k_n_match(
        self,
        query,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = True,
    ) -> FrequentMatchResult:
        """Frequent k-n-match with answer sets identical to the oracle."""
        c, d = self._columns.cardinality, self._columns.dimensionality
        query, k, (n0, n1) = validation.validate_frequent_args(
            query, k, n_range, c, d
        )
        registry = self._metrics
        spans = self._spans
        started = time.perf_counter() if registry is not None else 0.0
        if spans is None:
            result = self._frequent_impl(
                query, k, n0, n1, keep_answer_sets=keep_answer_sets
            )
        else:
            with spans.span(
                f"{self.name}/frequent_k_n_match", k=k, n0=n0, n1=n1
            ):
                result = self._frequent_impl(
                    query, k, n0, n1, keep_answer_sets=keep_answer_sets
                )
        if registry is not None:
            from ..obs import observe_query

            observe_query(
                registry, self.name, "frequent_k_n_match", result.stats,
                time.perf_counter() - started, d,
            )
        return result

    def _frequent_impl(
        self,
        query: np.ndarray,
        k: int,
        n0: int,
        n1: int,
        keep_answer_sets: bool,
    ) -> FrequentMatchResult:
        """The window-growth + refinement body (arguments pre-validated)."""
        c, d = self._columns.cardinality, self._columns.dimensionality
        data = self._columns.data
        spans = self._spans
        if spans is None:
            masks, attributes, rounds, _ = self.grow_windows(query[None], k, n0, n1)
            candidates, profiles = refine(data, query, masks[0])
            answer_sets = rank_answer_sets(candidates, profiles, k, n0, n1)
            chosen, frequencies = rank_by_frequency(answer_sets, k)
        else:
            with spans.span("window_grow"):
                masks, attributes, rounds, _ = self.grow_windows(
                    query[None], k, n0, n1
                )
                spans.annotate(
                    rounds=rounds[0], window_attributes=attributes[0]
                )
            with spans.span("refine"):
                candidates, profiles = refine(data, query, masks[0])
                spans.annotate(candidates=int(candidates.shape[0]))
            with spans.span("rank"):
                answer_sets = rank_answer_sets(
                    candidates, profiles, k, n0, n1
                )
                chosen, frequencies = rank_by_frequency(answer_sets, k)
        return FrequentMatchResult(
            ids=chosen,
            frequencies=frequencies,
            k=k,
            n_range=(n0, n1),
            answer_sets=answer_sets if keep_answer_sets else None,
            stats=window_stats(
                c, d, attributes[0], rounds[0], candidates.shape[0]
            ),
        )

    # ------------------------------------------------------------------
    # batch API: the schedule in lock-step over the whole batch
    # ------------------------------------------------------------------
    def k_n_match_batch(self, queries, k: int, n: int) -> List[MatchResult]:
        """One k-n-match per row of ``queries`` in one lock-step run."""
        c, d = self._columns.cardinality, self._columns.dimensionality
        queries, k, n = validation.validate_batch_match_args(
            queries, k, n, c, d
        )
        return self._run_batch("k_n_match", queries, k, n, n, False)

    def frequent_k_n_match_batch(
        self,
        queries,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = False,
    ) -> List[FrequentMatchResult]:
        """One frequent k-n-match per row of ``queries``, lock-step."""
        c, d = self._columns.cardinality, self._columns.dimensionality
        queries, k, (n0, n1) = validation.validate_batch_frequent_args(
            queries, k, n_range, c, d
        )
        return self._run_batch(
            "frequent_k_n_match", queries, k, n0, n1, keep_answer_sets
        )

    def _run_batch(
        self, kind: str, queries: np.ndarray, k: int, n0: int, n1: int,
        keep_answer_sets: bool,
    ) -> list:
        """Span and metrics around :meth:`_batch_impl`.

        The batch runs lock-step, so individual query latencies do not
        exist; each query's metrics event is charged the batch mean
        (documented in ``docs/observability.md``).  Cost counters come
        from each query's own :class:`SearchStats`, so totals are exact.
        """
        registry = self._metrics
        spans = self._spans
        started = time.perf_counter() if registry is not None else 0.0
        if spans is None:
            results = self._batch_impl(
                kind, queries, k, n0, n1, keep_answer_sets
            )
        else:
            levels = {"n": n0} if kind == "k_n_match" else {"n0": n0, "n1": n1}
            with spans.span(
                f"{self.name}/{kind}_batch",
                batch=int(queries.shape[0]), k=k, **levels,
            ):
                results = self._batch_impl(
                    kind, queries, k, n0, n1, keep_answer_sets
                )
        if registry is not None and results:
            from ..obs import observe_query

            share = (time.perf_counter() - started) / len(results)
            d = self._columns.dimensionality
            for result in results:
                observe_query(registry, self.name, kind, result.stats, share, d)
        return results

    def _batch_impl(
        self, kind: str, queries: np.ndarray, k: int, n0: int, n1: int,
        keep_answer_sets: bool,
    ) -> list:
        """Lock-step rounds then finalize, one chunk of queries at a time.

        Queries are independent (each has its own epsilon schedule), so
        chunking only bounds the cache working set; the per-query
        answers and stats are unaffected.
        """
        spans = self._spans
        results: list = []
        for start in range(0, queries.shape[0], self._chunk_size):
            chunk = queries[start : start + self._chunk_size]
            args = (kind, chunk, k, n0, n1, keep_answer_sets)
            if spans is None:
                grown = self.grow_windows(chunk, k, n0, n1)
                results += self._finalize_batch(*args, *grown[:3])
                continue
            with spans.span("lockstep", queries=chunk.shape[0]):
                grown = self.grow_windows(chunk, k, n0, n1)
                spans.annotate(rounds=max(grown[2]))
            with spans.span("finalize"):
                results += self._finalize_batch(*args, *grown[:3])
        return results

    def _finalize_batch(
        self, kind: str, queries: np.ndarray, k: int, n0: int, n1: int,
        keep_answer_sets: bool, masks: np.ndarray, attributes: List[int],
        rounds: List[int],
    ) -> list:
        """Exact refinement + result assembly after the lock-step rounds.

        A k-n-match reads each answer's difference straight off its
        refined profile, so it needs no frequency ranking and no second
        gather of the answer rows.
        """
        c, d = self._columns.cardinality, self._columns.dimensionality
        data = self._columns.data
        results: list = []
        for i, query in enumerate(queries):
            candidates, profiles = refine(data, query, masks[i])
            stats = window_stats(
                c, d, attributes[i], rounds[i], candidates.shape[0]
            )
            if kind == "k_n_match":
                column = profiles[:, n0 - 1]
                order = np.lexsort((candidates, column))[:k]
                results.append(MatchResult(
                    ids=candidates[order].tolist(),
                    differences=column[order].tolist(),
                    k=k, n=n0, stats=stats,
                ))
                continue
            answer_sets = rank_answer_sets(candidates, profiles, k, n0, n1)
            chosen, frequencies = rank_by_frequency(answer_sets, k)
            results.append(FrequentMatchResult(
                ids=chosen,
                frequencies=frequencies,
                k=k,
                n_range=(n0, n1),
                answer_sets=answer_sets if keep_answer_sets else None,
                stats=stats,
            ))
        return results

    # ------------------------------------------------------------------
    # the epsilon schedule (shared by single-query and batch calls)
    # ------------------------------------------------------------------
    def grow_windows(
        self, queries: np.ndarray, k: int, n0: int, n1: int,
        dead: Optional[np.ndarray] = None, caps: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, List[int], List[int], List[int]]:
        """Run the epsilon schedule for a ``(a, d)`` batch of queries.

        Returns ``(candidate masks (a, c) bool, window attributes at
        each query's final eps, rounds per query, levels closed by a
        cap per query)``.  Rounds run in lock-step; a query leaves the
        round set once its ``n1`` level is satisfied, so its counters do
        not depend on the rest of the batch and a batch of one is the
        serial engine.

        Two optional inputs serve searches over several sources (see
        :mod:`repro.core.segment_search`):

        * ``dead`` — a ``(c,)`` bool mask of deleted rows.  Their count
          rows start at ``-(d + 1)``, so they never reach ``n`` hits and
          never become candidates.
        * ``caps`` — ``(a, n1 - n0 + 1)`` finite per-level bounds: a
          point whose n-match difference exceeds ``caps[i, n - n0]``
          cannot be an answer.  The seeds are skipped and each level runs
          at its cap (plus a rounding margin), where every point with
          difference ``<= cap`` has ``n`` hits, so the level is satisfied
          in one round.  Callers pass caps no looser than the seeds.
        """
        schedule = _Schedule(self, queries, k, n0, n1, dead, caps)
        spans = self._spans
        if spans is None:
            while schedule.active:
                schedule.step()
        else:
            while schedule.active:
                with spans.span("round", queries=len(schedule.active)):
                    schedule.step()
        return schedule.masks, schedule.attributes, schedule.rounds, schedule.capped

    def seed_epsilons(
        self, queries: np.ndarray, k: int, n0: int, n1: int
    ) -> np.ndarray:
        """Per-query, per-level starting thresholds, ``(a, n1 - n0 + 1)``.

        For each sampled row, its n-match difference to the query; the
        ``r``-th smallest of those (``r = SEED_RANK``) is the sample's
        estimate of where ``r * c / s`` database points reach ``n``
        matches.  Locally that count grows like ``eps^n``, so scaling by
        ``(k * s / (r * c))^(1/n)`` aims at ``k`` points; ``SEED_SHRINK``
        biases the first round towards undershooting.  The scale factors
        are python floats and the order statistics exact, so a query's
        seeds do not depend on the batch it arrives in.
        """
        c = self._columns.cardinality
        sample = self._seed_sample()
        s = sample.shape[0]
        rank = min(self.SEED_RANK, s)
        scale = np.array(
            [
                self.SEED_SHRINK * (k * s / (rank * c)) ** (1.0 / n)
                for n in range(n0, n1 + 1)
            ]
        )
        seeds = np.empty((queries.shape[0], n1 - n0 + 1))
        # Blocks bound the (block, s, d) difference cube's memory.
        for start in range(0, queries.shape[0], self.SEED_BLOCK):
            block = queries[start : start + self.SEED_BLOCK]
            profiles = np.sort(np.abs(sample - block[:, None, :]), axis=2)
            levels = profiles[:, :, n0 - 1 : n1]
            seeds[start : start + block.shape[0]] = np.partition(
                levels, rank - 1, axis=1
            )[:, rank - 1, :]
        return seeds * scale

    def _seed_sample(self) -> np.ndarray:
        """The fixed seed sample's rows, drawn on first use."""
        if self._sample is None:
            c = self._columns.cardinality
            ids = sample_row_ids(c, min(c, self.SEED_SAMPLE), seed=0)
            self._sample = self._columns.data[np.sort(ids)]
        return self._sample

    def _smallest_positive(self, query: np.ndarray) -> float:
        """Fallback threshold when a query's seed is zero.

        The smallest positive difference in a sorted column sits next to
        the run of values equal to the query, so two bisections per
        dimension find it.
        """
        c = self._columns.cardinality
        smallest = np.inf
        for column, value in zip(self._columns.values_matrix, query):
            above = np.searchsorted(column, value, side="right")
            below = np.searchsorted(column, value, side="left") - 1
            if above < c:
                smallest = min(smallest, column[above] - value)
            if below >= 0:
                smallest = min(smallest, value - column[below])
        # No positive difference: the database equals the query.
        return float(smallest) if np.isfinite(smallest) else 1.0


class BatchBlockADEngine(BlockADEngine):
    """The ``batch-block-ad`` name for :class:`BlockADEngine`.

    Kept so saved defaults, plan models and callers that name it keep
    working; every call runs the same code as ``block-ad``.
    """

    name = "batch-block-ad"


class _Schedule:
    """State of one :meth:`BlockADEngine.grow_windows` call.

    Per query: its ``eps``, a level pointer (the smallest ``n`` not yet
    satisfied), one int32 count row of window hits and the window
    bounds of the previous round.  Windows nest as ``eps`` grows, so a
    round scatters only the newly admitted window ends.
    """

    def __init__(
        self, engine: BlockADEngine, queries: np.ndarray, k: int, n0: int, n1: int,
        dead: Optional[np.ndarray], caps: Optional[np.ndarray],
    ) -> None:
        columns = engine.columns
        c, d = columns.cardinality, columns.dimensionality
        a = queries.shape[0]
        self.engine = engine
        self.k, self.n0, self.n1 = k, n0, n1
        self.values = columns.values_matrix
        # One row list per delta side, matching the (2d,) start/stop
        # layout built each round.
        ids_rows = list(columns.ids_matrix32)
        self.ids_twice = ids_rows + ids_rows
        self.caps: Optional[List[List[float]]] = None
        if caps is None:
            self.seeds = engine.seed_epsilons(queries, k, n0, n1).tolist()
            self.eps = [
                seeds[0] if seeds[0] > 0 else engine._smallest_positive(query)
                for seeds, query in zip(self.seeds, queries)
            ]
        else:
            # Window ends are rounded sums ``q +- eps``: widen each cap by
            # a few ulps of ``|q| + cap`` so every point whose computed
            # difference is <= cap lies inside the cap's windows.
            caps = np.asarray(caps, dtype=np.float64)
            scale = np.abs(queries).max(axis=1)[:, None] + caps
            self.caps = (caps + 2 * np.finfo(np.float64).eps * scale).tolist()
            self.eps = [cap[0] for cap in self.caps]
        # ``ufunc.at`` has a no-cast fast path only when the accumulator
        # and the operand dtypes match, hence the int32 one.  Dead rows
        # start at -(d + 1): even d hits leave them below every level.
        start = np.zeros(c, dtype=np.int32)
        self.live = None if dead is None else ~dead
        if dead is not None:
            start[dead] = -(d + 1)
        self.counts = [start.copy() for _ in range(a)]
        self.level = [n0] * a
        self.masks = np.zeros((a, c), dtype=bool)
        self.attributes = [0] * a
        self.rounds = [0] * a
        self.capped = [0] * a
        # Compacted to the still-active queries.
        self.active: List[int] = list(range(a))
        self.queries = queries
        self.old_lo = self.old_hi = None  # (len(active), d) bounds

    def step(self) -> None:
        """One lock-step round over the active queries."""
        k, n0, n1 = self.k, self.n0, self.n1
        engine = self.engine
        c, d = self.masks.shape[1], self.values.shape[0]
        active = self.active
        eps = np.array([self.eps[gi] for gi in active])[:, None]
        lo_keys = (self.queries - eps).T
        hi_keys = (self.queries + eps).T
        new_lo = np.empty((d, len(active)), dtype=np.int64)
        new_hi = np.empty((d, len(active)), dtype=np.int64)
        # One bisection pass per dimension serves every active query.
        for j in range(d):
            column = self.values[j]
            new_lo[j] = column.searchsorted(lo_keys[j], side="left")
            new_hi[j] = column.searchsorted(hi_keys[j], side="right")
        new_lo, new_hi = new_lo.T, new_hi.T
        if self.old_lo is None:
            # First round: the whole window is new.
            self.old_lo = self.old_hi = new_lo
        window = (new_hi - new_lo).sum(axis=1).tolist()
        # The left ends [new_lo, old_lo) then the right ends [old_hi, new_hi).
        starts = np.concatenate([new_lo, self.old_hi], axis=1).tolist()
        stops = np.concatenate([self.old_lo, new_hi], axis=1).tolist()
        one = np.int32(1)

        still: List[int] = []
        for pos, gi in enumerate(active):
            row = self.counts[gi]
            pieces = [
                ids[s:t]
                for ids, s, t in zip(self.ids_twice, starts[pos], stops[pos])
                if t > s
            ]
            if pieces:
                np.add.at(row, np.concatenate(pieces), one)
            self.rounds[gi] += 1
            self.attributes[gi] = window[pos]

            # Advance the level pointer past every level this eps
            # satisfies.  The first of them is the earliest sufficient
            # eps for each: its k-th smallest n-match difference (or its
            # cap) is at most eps, so every possible member of its answer
            # set has >= n hits now, and the ``row >= first`` set covers
            # the higher levels.
            cap = self.caps[gi] if self.caps is not None else None
            lev = first = self.level[gi]
            satisfied = int(np.count_nonzero(row >= lev))
            while lev <= n1:
                if satisfied < k:
                    if cap is None or self.eps[gi] < cap[lev - n0]:
                        break
                    self.capped[gi] += 1
                lev += 1
                if lev <= n1:
                    satisfied = int(np.count_nonzero(row >= lev))
            if lev > first:
                self.masks[gi] |= row >= first
            self.level[gi] = lev

            if lev > n1:
                continue
            if window[pos] >= c * d:
                # Defensive: the whole database is inside every window,
                # yet some level has fewer than k points.
                self.masks[gi] = True if self.live is None else self.live
                continue
            if cap is not None:
                # The next level runs at its cap; max keeps windows nested.
                self.eps[gi] = max(self.eps[gi], cap[lev - n0])
            elif lev > first and self.seeds[gi][lev - n0] > self.eps[gi]:
                self.eps[gi] = self.seeds[gi][lev - n0]
            else:
                # The count at level ``lev`` grows roughly like eps^lev,
                # so its deficit suggests the factor still needed; the
                # clamps bound both the rounds and the overshoot.
                needed = (k / max(satisfied, 0.5)) ** (1.0 / lev)
                self.eps[gi] *= min(
                    engine.MAX_GROWTH, max(engine.MIN_GROWTH, needed)
                )
            still.append(pos)

        if len(still) != len(active):
            self.active = [active[pos] for pos in still]
            self.queries = self.queries[still]
            new_lo, new_hi = new_lo[still], new_hi[still]
        self.old_lo, self.old_hi = new_lo, new_hi


def refine(
    data: np.ndarray, query: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate ids and their sorted exact difference profiles."""
    candidates = np.flatnonzero(mask)
    profiles = np.sort(np.abs(data[candidates] - query), axis=1)
    return candidates, profiles


def n_match_differences(
    data: np.ndarray, query: np.ndarray, ids: List[int], n: int
) -> List[float]:
    """The n-match differences of the rows ``ids``, in order."""
    rows = np.abs(data[ids] - query)
    return np.partition(rows, n - 1, axis=1)[:, n - 1].tolist()


def rank_answer_sets(
    candidates: np.ndarray, profiles: np.ndarray, k: int, n0: int, n1: int
) -> Dict[int, List[int]]:
    """Per-n answer sets from the refined profiles (oracle order)."""
    answer_sets: Dict[int, List[int]] = {}
    for n in range(n0, n1 + 1):
        order = np.lexsort((candidates, profiles[:, n - 1]))
        answer_sets[n] = [int(candidates[i]) for i in order[:k]]
    return answer_sets


def window_stats(
    c: int, d: int, window_attributes: int, rounds: int, refined: int
) -> SearchStats:
    """The work counters of one query of the block engines.

    ``binary_search_probes`` charges ``2d`` bisections per round plus
    ``d`` per query, so :func:`repro.obs.epsilon_rounds_from_stats`
    recovers the rounds.
    """
    return SearchStats(
        attributes_retrieved=int(window_attributes + refined * d),
        total_attributes=c * d,
        binary_search_probes=int(d + 2 * d * rounds),
        candidates_refined=int(refined),
    )
