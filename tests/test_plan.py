"""The cost-based query planner behind ``engine="auto"``.

Covers the exactness contract (auto answers bit-identical to every
manual canonical-tie-break engine across the flat, sharded and dynamic
facades, on tie-heavy data), planner determinism, the cost-model
round-trip and sidecar persistence, the fallback path, and the
``repro_plan_*`` metrics / ``plan`` span surface.
"""

import numpy as np
import pytest

from repro import MatchDatabase, MetricsRegistry
from repro.core.dynamic import DynamicMatchDatabase
from repro.core.engine import AUTO_ENGINE, ENGINE_CHOICES, ENGINE_NAMES
from repro.errors import ValidationError
from repro.obs import SpanCollector
from repro.plan import (
    FALLBACK_ENGINE,
    CostCurve,
    PlanModel,
    QueryPlanner,
    load_plan_model,
    plan_model_path,
    save_plan_model,
)
from repro.shard import ShardedMatchDatabase


@pytest.fixture
def tie_data(rng):
    """Quantised values: heavy ties, where engine order differences show."""
    return np.round(rng.random((240, 6)) * 4) / 4


@pytest.fixture
def tie_queries(tie_data):
    return tie_data[:4] + 0.125


#: A model whose curves make block-ad the predictable winner without
#: probing; used whenever a test needs a deterministic decision.
def fixed_model():
    return PlanModel(
        {
            "block-ad": CostCurve("block-ad", 1e-7, source="bench"),
            "naive": CostCurve("naive", 2e-7, source="bench"),
            "batch-block-ad": CostCurve("batch-block-ad", 1e-7, source="bench"),
        }
    )


class TestAutoBitIdentical:
    """engine="auto" never changes an answer, only which engine runs."""

    @pytest.mark.parametrize("manual", ["block-ad", "naive"])
    def test_single_query_flat(self, tie_data, tie_queries, manual):
        db = MatchDatabase(tie_data)
        for query in tie_queries:
            auto = db.k_n_match(query, 7, 4, engine="auto")
            ref = db.k_n_match(query, 7, 4, engine=manual)
            assert auto.ids == ref.ids
            assert auto.differences == ref.differences

    @pytest.mark.parametrize("manual", ["block-ad", "naive"])
    def test_frequent_flat(self, tie_data, tie_queries, manual):
        db = MatchDatabase(tie_data)
        for query in tie_queries:
            auto = db.frequent_k_n_match(query, 6, (2, 5), engine="auto")
            ref = db.frequent_k_n_match(query, 6, (2, 5), engine=manual)
            assert auto.ids == ref.ids
            assert auto.frequencies == ref.frequencies
            assert auto.answer_sets == ref.answer_sets

    @pytest.mark.parametrize("manual", ["batch-block-ad", "block-ad", "naive"])
    def test_batch_flat(self, tie_data, tie_queries, manual):
        db = MatchDatabase(tie_data)
        auto = db.k_n_match_batch(tie_queries, 7, 4, engine="auto")
        ref = db.k_n_match_batch(tie_queries, 7, 4, engine=manual)
        for a, r in zip(auto, ref):
            assert a.ids == r.ids
            assert a.differences == r.differences

    @pytest.mark.parametrize("manual", ["batch-block-ad", "block-ad", "naive"])
    def test_frequent_batch_flat(self, tie_data, tie_queries, manual):
        db = MatchDatabase(tie_data)
        auto = db.frequent_k_n_match_batch(tie_queries, 6, (2, 5), engine="auto")
        ref = db.frequent_k_n_match_batch(tie_queries, 6, (2, 5), engine=manual)
        for a, r in zip(auto, ref):
            assert a.ids == r.ids
            assert a.frequencies == r.frequencies

    def test_auto_as_default_engine(self, tie_data, tie_queries):
        db = MatchDatabase(tie_data, default_engine="auto")
        ref = MatchDatabase(tie_data)
        for query in tie_queries:
            auto = db.k_n_match(query, 5, 3)
            manual = ref.k_n_match(query, 5, 3, engine="block-ad")
            assert auto.ids == manual.ids

    @pytest.mark.parametrize("manual", ["block-ad", "naive"])
    def test_sharded_matches_flat(self, tie_data, tie_queries, manual):
        flat = MatchDatabase(tie_data)
        sharded = ShardedMatchDatabase(tie_data, shards=3)
        for query in tie_queries:
            auto = sharded.k_n_match(query, 7, 4, engine="auto")
            ref = flat.k_n_match(query, 7, 4, engine=manual)
            assert auto.ids == ref.ids
            assert auto.differences == ref.differences

    def test_sharded_frequent_and_batch(self, tie_data, tie_queries):
        flat = MatchDatabase(tie_data)
        sharded = ShardedMatchDatabase(tie_data, shards=3)
        fa = sharded.frequent_k_n_match(tie_queries[0], 6, (2, 5), engine="auto")
        fr = flat.frequent_k_n_match(tie_queries[0], 6, (2, 5), engine="block-ad")
        assert fa.ids == fr.ids and fa.frequencies == fr.frequencies
        ba = sharded.k_n_match_batch(tie_queries, 7, 4, engine="auto")
        br = flat.k_n_match_batch(tie_queries, 7, 4, engine="block-ad")
        for a, r in zip(ba, br):
            assert a.ids == r.ids
        fba = sharded.frequent_k_n_match_batch(tie_queries, 6, (2, 5), engine="auto")
        fbr = flat.frequent_k_n_match_batch(
            tie_queries, 6, (2, 5), engine="block-ad"
        )
        for a, r in zip(fba, fbr):
            assert a.ids == r.ids

    def test_sharded_auto_default_engine(self, tie_data, tie_queries):
        sharded = ShardedMatchDatabase(tie_data, shards=3, default_engine="auto")
        flat = MatchDatabase(tie_data)
        auto = sharded.k_n_match(tie_queries[0], 5, 3)
        ref = flat.k_n_match(tie_queries[0], 5, 3, engine="block-ad")
        assert auto.ids == ref.ids

    def test_dynamic_matches_flat_auto(self, tie_data, tie_queries):
        # The dynamic facade has no engine= parameter; its canonical
        # tie-break must agree with whatever the planner picks.
        dynamic = DynamicMatchDatabase(tie_data)
        flat = MatchDatabase(tie_data)
        for query in tie_queries:
            dyn = dynamic.k_n_match(query, 7, 4)
            auto = flat.k_n_match(query, 7, 4, engine="auto")
            assert dyn.ids == auto.ids
            assert dyn.differences == auto.differences


class TestPlannerDecisions:
    def test_deterministic_given_model(self, tie_data):
        a = QueryPlanner(MatchDatabase(tie_data), model=fixed_model(), seed=3)
        b = QueryPlanner(MatchDatabase(tie_data), model=fixed_model(), seed=3)
        pa = a.plan("frequent_k_n_match", 6, (2, 5))
        pb = b.plan("frequent_k_n_match", 6, (2, 5))
        assert pa.engine == pb.engine
        assert pa.predicted_seconds == pb.predicted_seconds
        assert pa.candidates == pb.candidates
        assert pa.reason == pb.reason

    def test_decision_cached_per_workload(self, tie_data):
        planner = QueryPlanner(MatchDatabase(tie_data), model=fixed_model())
        first = planner.plan("k_n_match", 5, (3, 3))
        again = planner.plan("k_n_match", 5, (3, 3))
        assert again is first
        planner.invalidate()
        fresh = planner.plan("k_n_match", 5, (3, 3))
        assert fresh is not first
        assert fresh.engine == first.engine

    def test_fixed_model_prefers_cheaper_curve(self, tie_data):
        # naive touches every cell, so with a per-cell price only 2x
        # block-ad's it loses whenever the estimated fraction is < 50%.
        planner = QueryPlanner(MatchDatabase(tie_data), model=fixed_model())
        plan = planner.plan("k_n_match", 5, (2, 2))
        assert plan.engine == "block-ad"
        assert not plan.fallback
        assert set(plan.candidates) == {"block-ad", "naive"}
        assert plan.estimate is not None
        assert plan.estimate.kind == "k-n-match"

    def test_naive_wins_when_frontier_overpriced(self, tie_data):
        model = PlanModel(
            {
                "block-ad": CostCurve("block-ad", 1e-4),
                "naive": CostCurve("naive", 1e-9),
            }
        )
        planner = QueryPlanner(MatchDatabase(tie_data), model=model)
        plan = planner.plan("frequent_k_n_match", 5, (2, 5))
        assert plan.engine == "naive"

    def test_batch_candidates_are_block_ad_and_naive(self, tie_data):
        # block-ad batches always run lock-step, so its alias is no
        # longer raced against it even when a model prices the alias.
        planner = QueryPlanner(MatchDatabase(tie_data), model=fixed_model())
        plan = planner.plan("k_n_match", 5, (3, 3), batched=True)
        assert set(plan.candidates) == {"block-ad", "naive"}
        assert plan.engine == "block-ad"

    def test_probing_fits_missing_curves(self, tie_data):
        planner = QueryPlanner(MatchDatabase(tie_data))
        assert planner.model.engines == ()
        plan = planner.plan("k_n_match", 5, (3, 3))
        assert not plan.fallback
        assert planner.model.has_curve(plan.engine)
        assert plan.predicted_seconds > 0

    def test_fallback_when_unpriceable(self, tie_data, monkeypatch):
        import repro.core.engine as engine_module

        def refuse(name, columns, metrics=None, spans=None):
            raise ValidationError("probing disabled for this test")

        monkeypatch.setattr(engine_module, "make_engine", refuse)
        planner = QueryPlanner(MatchDatabase(tie_data))
        plan = planner.plan("k_n_match", 5, (3, 3))
        assert plan.fallback
        assert plan.engine == FALLBACK_ENGINE
        assert plan.candidates == {}

    def test_validation_flows_through_plan(self, tie_data):
        db = MatchDatabase(tie_data)
        with pytest.raises(ValidationError):
            db.plan_query("k_n_match", 0, (3, 3))
        with pytest.raises(ValidationError):
            db.plan_query("k_n_match", 5, (5, 2))
        with pytest.raises(ValidationError):
            db.plan_query("nearest", 5, (2, 3))

    def test_auto_error_messages_match_manual(self, tie_data):
        # A bad k rejected on the auto path reads exactly like the same
        # bad k rejected on a manual-engine path.
        db = MatchDatabase(tie_data)
        with pytest.raises(ValidationError) as auto_error:
            db.k_n_match(tie_data[0], 0, 3, engine="auto")
        with pytest.raises(ValidationError) as manual_error:
            db.k_n_match(tie_data[0], 0, 3, engine="block-ad")
        assert str(auto_error.value) == str(manual_error.value)

    def test_record_actual_refines_curve(self, tie_data):
        planner = QueryPlanner(MatchDatabase(tie_data), model=fixed_model())
        plan = planner.plan("k_n_match", 5, (3, 3))
        before = planner.model.curve(plan.engine).seconds_per_cell
        planner.record_actual(plan, cells=1000.0, seconds=1.0)
        after = planner.model.curve(plan.engine).seconds_per_cell
        assert after != before

    def test_sharded_plan_clamps_k_to_largest_shard(self, rng):
        data = np.round(rng.random((30, 4)) * 4) / 4
        sharded = ShardedMatchDatabase(data, shards=6)
        # k valid globally but larger than any single shard's cardinality
        plan = sharded.plan_query("k_n_match", 20, (2, 2))
        assert plan.k <= max(
            db.cardinality for db in sharded._shard_dbs if db is not None
        )
        assert plan.fanout > 1


class TestEngineRegistry:
    def test_auto_in_choices_not_names(self):
        assert AUTO_ENGINE in ENGINE_CHOICES
        assert AUTO_ENGINE not in ENGINE_NAMES

    def test_engine_accessor_rejects_auto(self, tie_data):
        db = MatchDatabase(tie_data, default_engine="auto")
        with pytest.raises(ValidationError, match="resolved per query"):
            db.engine()
        with pytest.raises(ValidationError, match="resolved per query"):
            MatchDatabase(tie_data).engine("auto")

    def test_unknown_default_engine_still_rejected(self, tie_data):
        with pytest.raises(ValidationError):
            MatchDatabase(tie_data, default_engine="bogus")
        with pytest.raises(ValidationError):
            ShardedMatchDatabase(tie_data, shards=2, default_engine="bogus")


class TestPlanModel:
    def test_round_trip(self):
        model = fixed_model()
        model.observe("block-ad", 500, 0.01)
        restored = PlanModel.from_dict(model.to_dict())
        assert restored.engines == model.engines
        for name in model.engines:
            assert restored.curve(name) == model.curve(name)

    def test_sidecar_save_load(self, tmp_path):
        base = tmp_path / "db.npz"
        base.write_bytes(b"")
        path = save_plan_model(fixed_model(), base)
        assert path == plan_model_path(base)
        loaded = load_plan_model(base)
        assert loaded is not None
        assert loaded.engines == fixed_model().engines

    def test_missing_sidecar_is_none(self, tmp_path):
        assert load_plan_model(tmp_path / "absent.npz") is None

    def test_malformed_sidecar_raises(self, tmp_path):
        base = tmp_path / "db.npz"
        with open(plan_model_path(base), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ValidationError):
            load_plan_model(base)

    def test_version_mismatch_raises(self):
        with pytest.raises(ValidationError):
            PlanModel.from_dict({"version": 99, "curves": {}})
        with pytest.raises(ValidationError):
            PlanModel.from_dict(["not", "a", "dict"])

    def test_observe_creates_and_blends(self):
        model = PlanModel()
        model.observe("block-ad", 100, 0.001)
        assert model.curve("block-ad").source == "observed"
        first = model.curve("block-ad").seconds_per_cell
        model.observe("block-ad", 100, 0.003)
        blended = model.curve("block-ad").seconds_per_cell
        assert first < blended < 0.003 / 100

    def test_predict_unfit_engine_is_none(self):
        assert PlanModel().predict("block-ad", 100) is None

    def test_set_plan_model_resets_planner(self, tie_data):
        db = MatchDatabase(tie_data)
        first = db.planner
        db.set_plan_model(fixed_model())
        assert db.planner is not first
        assert db.planner.model.has_curve("naive")


class TestPlanObservability:
    def test_metrics_and_span_exported(self, tie_data, tie_queries):
        db = MatchDatabase(tie_data)
        registry = MetricsRegistry()
        spans = SpanCollector()
        db.set_metrics(registry)
        db.set_spans(spans)
        db.set_plan_model(fixed_model())
        result = db.k_n_match(tie_queries[0], 5, 3, engine="auto")
        assert len(result.ids) == 5
        decisions = registry.get("repro_plan_decisions_total")
        assert decisions is not None
        (child,) = [
            c
            for c in decisions.children()
            if dict(c.labels)["engine"] == "block-ad"
        ]
        assert child.value == 1
        assert registry.get("repro_plan_predicted_seconds").children()
        assert registry.get("repro_plan_actual_seconds").children()
        plan_spans = [
            root for root in spans.traces() if root.name == "plan"
        ]
        assert plan_spans, [root.name for root in spans.traces()]
        assert plan_spans[0].meta["engine"] == "block-ad"

    def test_no_metrics_no_overhead_objects(self, tie_data, tie_queries):
        db = MatchDatabase(tie_data)
        db.set_plan_model(fixed_model())
        result = db.k_n_match(tie_queries[0], 5, 3, engine="auto")
        assert len(result.ids) == 5  # no registry installed: still fine

    def test_sharded_fanout_metric(self, tie_data, tie_queries):
        sharded = ShardedMatchDatabase(tie_data, shards=3)
        registry = MetricsRegistry()
        sharded.set_metrics(registry)
        sharded.set_plan_model(fixed_model())
        sharded.k_n_match(tie_queries[0], 5, 3, engine="auto")
        fanout = registry.get("repro_plan_fanout_total")
        assert fanout is not None and fanout.children()


class TestPlanCLI:
    def test_plan_command_saves_sidecar(self, tie_data, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_database

        path = tmp_path / "db.npz"
        save_database(MatchDatabase(tie_data), path)
        rc = main(
            ["plan", str(path), "--k", "5", "--n-range", "2:5", "--save"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan[frequent_k_n_match" in out
        assert "cost curves" in out
        sidecar = load_plan_model(path)
        assert sidecar is not None and sidecar.engines

    def test_query_engine_auto(self, tie_data, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_database

        path = tmp_path / "db.npz"
        save_database(MatchDatabase(tie_data), path)
        query = ",".join(str(v) for v in tie_data[0])
        rc = main(
            [
                "query", str(path), "--k", "3", "--n", "4",
                "--query", query, "--engine", "auto",
            ]
        )
        assert rc == 0
        assert "3-4-match answers" in capsys.readouterr().out


class TestBatchesRunLockstep:
    """Served batches resolve to block-AD's lock-step path, not a loop."""

    def test_batched_plan_on_a_served_shard_resolves_to_block_ad(self):
        # One shard of the served batch workload: uniform 25,000 x 16.
        data = np.random.default_rng(7).random((25_000, 16))
        planner = QueryPlanner(MatchDatabase(data))
        plan = planner.plan("k_n_match", 10, (8, 8), batched=True)
        assert not plan.fallback
        assert plan.engine == "block-ad"
        assert set(plan.candidates) == {"block-ad", "naive"}

    def test_sharded_auto_batch_records_a_lockstep_span(self):
        from repro.serve import ServeApp
        from repro.serve.protocol import canonical_json

        rng = np.random.default_rng(3)
        data = rng.random((2_000, 8))
        queries = data[:6] + rng.normal(0.0, 0.01, size=(6, 8))
        spans = SpanCollector(capacity=4096)
        db = ShardedMatchDatabase(data, shards=2)
        # A fixed model keeps the decision off the clock on a small shard.
        db.set_plan_model(fixed_model())
        app = ServeApp(db, spans=spans, cache_size=0)
        # Shards trace only when a collector is installed on them, as
        # the served benchmark's traced run does.
        for index in range(db.shard_count):
            db.shard(index).set_spans(spans)
        payload = {
            "queries": queries.tolist(), "k": 5, "n": 6, "engine": "auto",
        }
        status, _, _ = app.handle(
            "POST", "/v1/batch", canonical_json(payload)
        )
        assert status == 200
        names = {
            span.name for root in spans.traces() for span in root.iter_spans()
        }
        assert "lockstep" in names
        assert "window_grow" not in names
