"""Per-query engine selection: the ``engine="auto"`` planner.

The paper proves the AD algorithm optimal in *attributes retrieved*
(Thm 3.2), but its own efficiency study (Sec. 5.2) shows the wall-clock
winner flipping between AD, block-AD and a plain scan with ``k``,
``n1`` and the device profile.  :class:`QueryPlanner` makes that choice
per workload instead of per deployment:

1. estimate the fraction of attributes a frontier engine would retrieve
   for *this* (kind, k, n-range) — the advisor's sampled estimate, run
   with the query kind actually being planned;
2. convert the estimate into per-engine cell counts and price them with
   the database's calibrated :class:`~repro.plan.model.PlanModel`
   (probing any engine the model has no curve for);
3. pick the cheapest engine, deterministically (predicted seconds, then
   candidate order breaks exact ties).

**Exactness is untouched.**  The planner only chooses *which exact
engine runs*, and it chooses among the canonical-tie-break engines
(``block-ad`` and ``naive``) so an ``engine="auto"`` answer is
bit-identical to every manual engine choice even on tie-heavy data.  The reference ``ad`` engine is deliberately
not a candidate: it exists to minimise attributes in the
multiple-system setting (ask ``recommend_engine(minimize="attributes")``
for it), its within-tie discovery order is heap-dependent, and
``block-ad`` dominates it in wall clock on every measured workload.

Decisions are cached per (kind, k, n-range, batched) — planning costs a
few sampled queries, so it amortises across the workload it describes —
and every planned query feeds its measured cost back into the model
(:meth:`QueryPlanner.record_actual`), keeping predictions honest.
Planning itself runs under a ``plan`` span when a collector is
installed, and the facades export each decision as ``repro_plan_*``
metrics with predicted vs actual seconds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core import validation
from ..core.advisor import (
    CostEstimate,
    estimate_fraction_retrieved,
    sample_row_ids,
)
from ..errors import ValidationError
from .model import PlanModel

__all__ = ["QueryPlan", "QueryPlanner", "FALLBACK_ENGINE", "PLAN_KINDS"]

#: The engine a planner falls back to when it cannot price the
#: candidates (no curve fit and probing failed) — the all-round
#: vectorised engine, never a pathological choice.
FALLBACK_ENGINE = "block-ad"

#: Query kinds the planner understands (the facade method names).
PLAN_KINDS = ("k_n_match", "frequent_k_n_match")

#: Canonical-tie-break candidates (see the module docstring for why
#: ``ad`` is excluded).  Batches of ``block-ad`` always run lock-step,
#: so there is no second block-AD batch path to race.
_SINGLE_CANDIDATES = ("block-ad", "naive")
_BATCH_CANDIDATES = ("block-ad", "naive")

#: Planning modes.  ``"approx"`` admits the :mod:`repro.approx` engines
#: as candidates — and *only* then: an exact plan never resolves to an
#: approximate engine, the caller must declare ``mode="approx"`` first.
PLAN_MODES = ("exact", "approx")

#: Queries sampled for the advisor estimate and per-engine probes; small
#: because decisions are cached per workload and refined online.
_DEFAULT_SAMPLE_QUERIES = 3
_DEFAULT_PROBE_QUERIES = 2

#: Batched workloads probe with at least this many queries, so engines
#: that amortise per-call setup across a batch are priced fairly.
_BATCH_PROBE_QUERIES = 8


@dataclass(frozen=True)
class QueryPlan:
    """One planning decision: the chosen engine plus its evidence."""

    engine: str
    kind: str
    k: int
    n_range: Tuple[int, int]
    batched: bool
    fanout: int
    cells: float
    predicted_seconds: float
    candidates: Dict[str, float] = field(hash=False)
    reason: str = ""
    fallback: bool = False
    estimate: Optional[CostEstimate] = field(default=None, hash=False)
    mode: str = "exact"
    predicted_recall: Optional[float] = None

    def describe(self) -> str:
        """One line for logs and the CLI."""
        priced = ", ".join(
            f"{name}={seconds * 1e3:.2f}ms"
            for name, seconds in sorted(self.candidates.items())
        )
        return (
            f"plan[{self.kind} k={self.k} n={self.n_range}"
            f"{' batch' if self.batched else ''}]: {self.engine} "
            f"({self.reason}; candidates: {priced or 'none priced'})"
        )


class QueryPlanner:
    """Plans queries for one database facade (see the module docstring).

    ``db`` is any object with the :class:`~repro.core.engine.MatchDatabase`
    estimation surface (``columns``, ``data``, ``cardinality``,
    ``dimensionality``, ``spans``); the sharded facade plans over its
    largest shard and reports the fan-out it will scatter to.
    """

    def __init__(
        self,
        db,
        model: Optional[PlanModel] = None,
        seed: int = 0,
        sample_queries: int = _DEFAULT_SAMPLE_QUERIES,
        probe_queries: int = _DEFAULT_PROBE_QUERIES,
        fanout: int = 1,
        spans_owner=None,
    ) -> None:
        if sample_queries < 1:
            raise ValidationError(
                f"sample_queries must be >= 1; got {sample_queries}"
            )
        if probe_queries < 1:
            raise ValidationError(
                f"probe_queries must be >= 1; got {probe_queries}"
            )
        self._db = db
        self._model = model if model is not None else PlanModel()
        self._seed = int(seed)
        self._sample_queries = int(sample_queries)
        self._probe_queries = int(probe_queries)
        self._fanout = max(1, int(fanout))
        # where the span collector lives: the sharded facade plans over
        # one shard's MatchDatabase but traces on the facade's collector.
        self._spans_owner = spans_owner if spans_owner is not None else db
        self._decisions: Dict[Tuple, QueryPlan] = {}
        self._lock = threading.Lock()
        self._last_plan: Optional[QueryPlan] = None

    # ------------------------------------------------------------------
    @property
    def db(self):
        """The database (or shard) the planner estimates and probes on."""
        return self._db

    @property
    def model(self) -> PlanModel:
        return self._model

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def last_plan(self) -> Optional[QueryPlan]:
        """The most recently returned plan (cached hits included)."""
        return self._last_plan

    def invalidate(self) -> None:
        """Drop every cached decision (keep the fitted model)."""
        with self._lock:
            self._decisions.clear()

    # ------------------------------------------------------------------
    def plan(
        self,
        kind: str,
        k: int,
        n_range: Tuple[int, int],
        batched: bool = False,
        mode: str = "exact",
        target_recall: Optional[float] = None,
    ) -> QueryPlan:
        """The engine to run this workload with (cached per workload).

        ``mode="approx"`` plans among the approximate engines instead
        (k-n-match only); ``target_recall`` then sizes their budgets and
        filters candidates by the recall their curves have observed.
        """
        if kind not in PLAN_KINDS:
            raise ValidationError(
                f"unknown plan kind {kind!r}; choose from {PLAN_KINDS}"
            )
        if mode not in PLAN_MODES:
            raise ValidationError(
                f"unknown plan mode {mode!r}; choose from {PLAN_MODES}"
            )
        if mode == "approx" and kind != "k_n_match":
            from ..approx import APPROX_FREQUENT_MESSAGE

            raise ValidationError(APPROX_FREQUENT_MESSAGE)
        k = validation.validate_k(k, self._db.cardinality)
        n0, n1 = validation.validate_n_range(
            n_range, self._db.dimensionality
        )
        key = (kind, k, n0, n1, bool(batched), mode, target_recall)
        with self._lock:
            cached = self._decisions.get(key)
        if cached is not None:
            self._last_plan = cached
            return cached
        spans = getattr(self._spans_owner, "spans", None)
        if spans is None:
            plan = self._plan_dispatch(
                kind, k, (n0, n1), bool(batched), mode, target_recall
            )
        else:
            with spans.span("plan", kind=kind, k=k, n0=n0, n1=n1, mode=mode):
                plan = self._plan_dispatch(
                    kind, k, (n0, n1), bool(batched), mode, target_recall
                )
                spans.annotate(
                    engine=plan.engine,
                    predicted_ms=round(plan.predicted_seconds * 1e3, 3),
                )
        with self._lock:
            self._decisions.setdefault(key, plan)
            plan = self._decisions[key]
        self._last_plan = plan
        return plan

    def _plan_dispatch(
        self, kind, k, n_range, batched, mode, target_recall
    ) -> QueryPlan:
        if mode == "approx":
            return self._plan_approx(k, n_range, target_recall)
        return self._plan_uncached(kind, k, n_range, batched)

    def record_actual(self, plan: QueryPlan, cells: float, seconds: float) -> None:
        """Feed one executed planned query back into the cost model."""
        if cells <= 0:
            cells = plan.cells
        self._model.observe(plan.engine, cells, seconds)

    def record_recall(self, engine: str, certified_recall: float) -> None:
        """Feed one executed approx query's certificate into its curve.

        The recall track is the cost curves' second output: the model
        learns what certified quality each approx engine actually
        delivers here, and later approx plans filter candidates by it.
        """
        self._model.observe_recall(engine, certified_recall)

    # ------------------------------------------------------------------
    def _plan_uncached(
        self, kind: str, k: int, n_range: Tuple[int, int], batched: bool
    ) -> QueryPlan:
        candidates = _BATCH_CANDIDATES if batched else _SINGLE_CANDIDATES
        estimate = self._estimate(kind, k, n_range)
        total = self._db.cardinality * self._db.dimensionality
        fraction = estimate.mean_fraction if estimate is not None else 1.0
        priced: Dict[str, float] = {}
        for engine in candidates:
            cells = self._engine_cells(engine, fraction, k, total)
            if not self._model.has_curve(engine):
                self._probe(engine, kind, k, n_range, batched)
            predicted = self._model.predict(engine, cells)
            if predicted is not None:
                priced[engine] = predicted
        if not priced:
            plan = QueryPlan(
                engine=FALLBACK_ENGINE,
                kind=kind,
                k=k,
                n_range=n_range,
                batched=batched,
                fanout=self._fanout,
                cells=float(total),
                predicted_seconds=0.0,
                candidates={},
                reason=(
                    "no cost curve could be fit; falling back to the "
                    "all-round vectorised engine"
                ),
                fallback=True,
                estimate=estimate,
            )
            return plan
        # deterministic argmin: predicted seconds, candidate order on ties
        chosen = min(
            priced, key=lambda name: (priced[name], candidates.index(name))
        )
        chosen_cells = self._engine_cells(chosen, fraction, k, total)
        reason = (
            f"estimated retrieval {fraction:.0%} of {total} cells; "
            f"{chosen} prices cheapest under the calibrated model"
        )
        return QueryPlan(
            engine=chosen,
            kind=kind,
            k=k,
            n_range=n_range,
            batched=batched,
            fanout=self._fanout,
            cells=chosen_cells,
            predicted_seconds=priced[chosen],
            candidates=priced,
            reason=reason,
            fallback=False,
            estimate=estimate,
        )

    def _estimate(
        self, kind: str, k: int, n_range: Tuple[int, int]
    ) -> Optional[CostEstimate]:
        try:
            return estimate_fraction_retrieved(
                self._db,
                k,
                n_range,
                sample_queries=min(self._sample_queries, self._db.cardinality),
                seed=self._seed,
                kind="frequent" if kind == "frequent_k_n_match" else "k-n-match",
                spans=getattr(self._spans_owner, "spans", None),
            )
        except ValidationError:
            raise
        except Exception:  # pragma: no cover - estimation is best-effort
            return None

    def _engine_cells(
        self, engine: str, fraction: float, k: int, total: int
    ) -> float:
        """Cells ``engine`` is expected to touch on this workload."""
        if engine == "naive":
            return float(total)
        # Frontier engines touch about the retrieved fraction, never less
        # than the k answers they must materialise.
        return float(
            min(total, max(fraction * total, k * self._db.dimensionality))
        )

    def _probe(
        self, engine: str, kind: str, k: int, n_range, batched: bool = False
    ) -> None:
        """Fit ``engine``'s curve by timing a few real queries.

        Probes run on throwaway engine instances (no metrics registry)
        so logical query counters are never inflated by planning; the
        span collector, when installed, still sees the probe phases
        nested under the ``plan`` span.  Batched workloads probe with a
        larger batch through the engine's native batch path (block-AD's
        lock-step run amortises its per-call setup across the batch);
        single queries probe one call at a time, as they run.
        """
        from ..core.engine import make_engine

        try:
            probe = make_engine(
                engine,
                self._db.columns,
                spans=getattr(self._spans_owner, "spans", None),
            )
        except ValidationError:
            return
        probe_queries = self._probe_queries
        if batched:
            probe_queries = max(probe_queries, _BATCH_PROBE_QUERIES)
        rows = sample_row_ids(
            self._db.cardinality,
            min(probe_queries, self._db.cardinality),
            self._seed + 1,
        )
        queries = self._db.data[rows]
        cells = 0
        started = time.perf_counter()
        if kind == "frequent_k_n_match":
            native = getattr(probe, "frequent_k_n_match_batch", None)
            if batched and native is not None:
                results = native(queries, k, n_range, keep_answer_sets=False)
            else:
                results = [
                    probe.frequent_k_n_match(
                        query, k, n_range, keep_answer_sets=False
                    )
                    for query in queries
                ]
        else:
            n = n_range[1]
            native = getattr(probe, "k_n_match_batch", None)
            if batched and native is not None:
                results = native(queries, k, n)
            else:
                results = [probe.k_n_match(query, k, n) for query in queries]
        seconds = time.perf_counter() - started
        cells = sum(result.stats.attributes_retrieved for result in results)
        if cells <= 0:
            cells = len(results) * self._db.cardinality * self._db.dimensionality
        # fit on the per-query averages so curves are batch-size neutral
        self._model.fit(
            engine, cells / len(results), seconds / len(results)
        )

    # ------------------------------------------------------------------
    # approximate planning (mode="approx")
    # ------------------------------------------------------------------
    def _plan_approx(
        self, k: int, n_range, target_recall: Optional[float]
    ) -> QueryPlan:
        """Price the approx engines for one workload (k-n-match only).

        Candidates whose curves have *observed* a certified recall below
        the target are dropped (a cheap engine that can't deliver is no
        bargain); among the rest the cheapest predicted wall clock wins.
        Unlike exact planning there is no fallback outside the tier —
        the caller declared ``mode="approx"``, so the answer is always
        an approx engine.
        """
        from ..approx import (
            APPROX_ENGINE_NAMES,
            DEFAULT_APPROX_ENGINE,
            DEFAULT_TARGET_RECALL,
        )

        recall_goal = (
            target_recall if target_recall is not None else DEFAULT_TARGET_RECALL
        )
        total = self._db.cardinality * self._db.dimensionality
        priced: Dict[str, float] = {}
        recalls: Dict[str, Optional[float]] = {}
        for engine in APPROX_ENGINE_NAMES:
            if not self._model.has_curve(engine):
                self._probe_approx(engine, k, n_range, recall_goal)
            cells = self._approx_engine_cells(engine, k, recall_goal, total)
            predicted = self._model.predict(engine, cells)
            if predicted is not None:
                priced[engine] = predicted
                recalls[engine] = self._model.predict_recall(engine)
        if not priced:
            return QueryPlan(
                engine=DEFAULT_APPROX_ENGINE,
                kind="k_n_match",
                k=k,
                n_range=n_range,
                batched=False,
                fanout=self._fanout,
                cells=float(total),
                predicted_seconds=0.0,
                candidates={},
                reason=(
                    "no approx cost curve could be fit; falling back to "
                    "the certified engine"
                ),
                fallback=True,
                estimate=None,
                mode="approx",
                predicted_recall=None,
            )
        meeting = {
            name: seconds
            for name, seconds in priced.items()
            if recalls.get(name) is None or recalls[name] >= recall_goal
        }
        pool = meeting or priced
        chosen = min(
            pool,
            key=lambda name: (pool[name], APPROX_ENGINE_NAMES.index(name)),
        )
        reason = (
            f"approx mode (target recall {recall_goal:.2f}): {chosen} "
            f"prices cheapest among "
            f"{sorted(pool)}"
        )
        return QueryPlan(
            engine=chosen,
            kind="k_n_match",
            k=k,
            n_range=n_range,
            batched=False,
            fanout=self._fanout,
            cells=self._approx_engine_cells(chosen, k, recall_goal, total),
            predicted_seconds=priced[chosen],
            candidates=priced,
            reason=reason,
            fallback=False,
            estimate=None,
            mode="approx",
            predicted_recall=recalls.get(chosen),
        )

    def _approx_engine_cells(
        self, engine: str, k: int, recall_goal: float, total: int
    ) -> float:
        """Cells an approx engine touches: frontier budget or sketch scan.

        The unit matches what :meth:`_probe_approx` fits against —
        ``attributes_retrieved + approximation_entries_scanned`` — so
        the sketch's O(c p) rank scan is priced even though it never
        touches a raw attribute.
        """
        from ..approx import DEFAULT_PIVOTS, multiplier_from_target_recall

        d = self._db.dimensionality
        c = self._db.cardinality
        if engine == "budget-ad":
            budget = recall_goal * total
            return float(min(total, budget + 2 * k * d))
        multiplier = multiplier_from_target_recall(recall_goal)
        count = c if multiplier == 0 else min(c, multiplier * k)
        return float(c * DEFAULT_PIVOTS + count * d + DEFAULT_PIVOTS * d)

    def _probe_approx(
        self, engine: str, k: int, n_range, recall_goal: float
    ) -> None:
        """Fit an approx engine's curve (cost and certified recall).

        Probes reuse the database's cached approx engine — the
        pivot-sketch build is expensive and would otherwise run twice —
        with its metrics registry detached, so probe queries never
        inflate the logical approx-query counters.
        """
        getter = getattr(self._db, "_approx_engine", None)
        if getter is None:
            return
        try:
            probe = getter(engine)
        except ValidationError:
            return
        rows = sample_row_ids(
            self._db.cardinality,
            min(self._probe_queries, self._db.cardinality),
            self._seed + 1,
        )
        queries = self._db.data[rows]
        n = n_range[1]
        saved_metrics = probe.metrics
        probe.metrics = None
        try:
            started = time.perf_counter()
            results = [
                probe.k_n_match(query, k, n, target_recall=recall_goal)
                for query in queries
            ]
            seconds = time.perf_counter() - started
        finally:
            probe.metrics = saved_metrics
        cells = sum(
            result.stats.attributes_retrieved
            + result.stats.approximation_entries_scanned
            for result in results
        )
        if cells <= 0:
            cells = len(results) * self._db.cardinality * self._db.dimensionality
        self._model.fit(engine, cells / len(results), seconds / len(results))
        for result in results:
            self._model.observe_recall(engine, result.certified_recall)
