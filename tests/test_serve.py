"""The serving subsystem: protocol, admission, routing, HTTP round-trips.

The acceptance bar: the server answers **bit-identically** to direct
facade calls for query/frequent/batch across all three facades, sheds
with 429 beyond ``max_inflight`` (never hangs), and exposes
``repro_serve_*`` metrics.
"""

import json
import threading
import time

import pytest

from repro.core.dynamic import DynamicMatchDatabase
from repro.core.engine import MatchDatabase
from repro.errors import ValidationError
from repro.obs import SpanCollector, render_prometheus
from repro.serve import (
    PROTOCOL_VERSION,
    AdmissionController,
    MatchServer,
    ServeApp,
    ServeClient,
    ServeError,
    ShedError,
    canonical_json,
    decode_frequent_result,
    decode_match_result,
    parse_batch_request,
    parse_frequent_request,
    parse_query_request,
)
from repro.shard import ShardedMatchDatabase


def make_db(kind, data):
    if kind == "flat":
        return MatchDatabase(data)
    if kind == "sharded":
        return ShardedMatchDatabase(data, shards=3)
    return DynamicMatchDatabase(data)


@pytest.fixture(params=["flat", "sharded", "dynamic"])
def any_db(request, small_data):
    return make_db(request.param, small_data)


def post(app, path, payload):
    """POST a dict through the socket-free app; returns (status, headers, body)."""
    return app.handle("POST", path, canonical_json(payload))


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_query_request_roundtrip(self):
        request = parse_query_request(
            {"query": [1, 2.5], "k": 3, "n": 2, "engine": "ad"}
        )
        assert request.query == [1.0, 2.5]
        assert request.k == 3 and request.n == 2
        assert request.engine == "ad" and request.deadline_ms is None

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError, match="missing required field 'k'"):
            parse_query_request({"query": [1.0], "n": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown field 'kk'"):
            parse_query_request({"query": [1.0], "k": 1, "n": 1, "kk": 2})

    def test_wrong_protocol_version_rejected(self):
        with pytest.raises(ValidationError, match="unsupported protocol"):
            parse_query_request(
                {"protocol": 99, "query": [1.0], "k": 1, "n": 1}
            )

    def test_non_numeric_query_rejected(self):
        with pytest.raises(ValidationError, match=r"query\[1\] must be a number"):
            parse_query_request({"query": [1.0, "x"], "k": 1, "n": 1})

    def test_boolean_query_entry_rejected(self):
        with pytest.raises(ValidationError, match=r"query\[0\]"):
            parse_query_request({"query": [True], "k": 1, "n": 1})

    def test_bad_deadline_rejected(self):
        for bad in (0, -5, "soon", True):
            with pytest.raises(ValidationError, match="deadline_ms"):
                parse_query_request(
                    {"query": [1.0], "k": 1, "n": 1, "deadline_ms": bad}
                )

    def test_frequent_n_range_shape(self):
        with pytest.raises(ValidationError, match="n_range"):
            parse_frequent_request({"query": [1.0], "k": 1, "n_range": [1]})
        request = parse_frequent_request(
            {"query": [1.0], "k": 1, "n_range": [1, 3]}
        )
        assert request.n_range == (1, 3)

    def test_batch_rows_validated(self):
        with pytest.raises(ValidationError, match=r"queries\[1\]\[0\]"):
            parse_batch_request(
                {"queries": [[1.0], ["x"]], "k": 1, "n": 1}
            )

    def test_match_result_roundtrip_is_exact(self, small_data, small_query):
        from repro.serve import encode_match_result

        result = MatchDatabase(small_data).k_n_match(small_query, 7, 5)
        payload = json.loads(
            canonical_json(encode_match_result(result)).decode()
        )
        decoded = decode_match_result(payload)
        assert decoded.ids == result.ids
        assert decoded.differences == result.differences  # bit-identical
        assert decoded.stats == result.stats

    def test_frequent_result_roundtrip_is_exact(self, small_data, small_query):
        from repro.serve import encode_frequent_result

        result = MatchDatabase(small_data).frequent_k_n_match(
            small_query, 5, (2, 6), keep_answer_sets=True
        )
        payload = json.loads(
            canonical_json(encode_frequent_result(result)).decode()
        )
        decoded = decode_frequent_result(payload)
        assert decoded.ids == result.ids
        assert decoded.frequencies == result.frequencies
        assert decoded.answer_sets == result.answer_sets
        assert decoded.n_range == result.n_range


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_admit_release_accounting(self):
        controller = AdmissionController(max_inflight=2)
        ticket = controller.admit()
        assert controller.inflight == 1
        assert ticket.queue_seconds >= 0.0
        controller.release()
        assert controller.inflight == 0

    def test_sheds_when_full(self):
        controller = AdmissionController(
            max_inflight=1, deadline_seconds=0.05
        )
        controller.admit()
        with pytest.raises(ShedError) as info:
            controller.admit()
        assert info.value.reason == "queue_full"
        assert controller.sheds == 1
        controller.release()
        controller.admit()  # slot usable again

    def test_queued_request_admitted_when_slot_frees(self):
        controller = AdmissionController(
            max_inflight=1, deadline_seconds=5.0
        )
        controller.admit()
        admitted = []

        def waiter():
            admitted.append(controller.admit())

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        controller.release()
        thread.join(timeout=5)
        assert admitted and admitted[0].queue_seconds > 0.0
        controller.release()

    def test_wait_idle(self):
        controller = AdmissionController(max_inflight=2)
        assert controller.wait_idle(0.1)
        controller.admit()
        assert not controller.wait_idle(0.05)
        controller.release()
        assert controller.wait_idle(0.1)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValidationError):
            AdmissionController(deadline_seconds=0)
        with pytest.raises(ValidationError):
            AdmissionController().admit(deadline_seconds=-1)

    def test_retry_after_idle_minimum(self):
        controller = AdmissionController(max_inflight=1)
        assert controller.retry_after_seconds() == 1
        assert controller.retry_after_seconds(0.2) == 1

    def test_retry_after_tracks_observed_wait(self):
        controller = AdmissionController(max_inflight=1)
        # This shed request itself queued 2.4s: the advertised delay
        # must cover it (rounded up), not the idle minimum.
        assert controller.retry_after_seconds(2.4) == 3

    def test_retry_after_tracks_sustained_load(self):
        controller = AdmissionController(
            max_inflight=1, deadline_seconds=0.05
        )
        controller.admit()
        # Sustained overload: several sheds, each waiting a full budget,
        # drag the smoothed queue wait above zero.
        for _ in range(4):
            with pytest.raises(ShedError):
                controller.admit()
        assert controller.queue_wait_ewma_seconds > 0.0
        # A new shed's advertised delay covers the *larger* of its own
        # wait and the smoothed recent wait.
        assert controller.retry_after_seconds(0.0) >= 1
        assert controller.retry_after_seconds(5.2) == 6
        controller.release()


# ----------------------------------------------------------------------
# routing and error mapping (socket-free, via ServeApp.handle)
# ----------------------------------------------------------------------
class TestRouting:
    @pytest.fixture
    def app(self, small_data):
        return ServeApp(MatchDatabase(small_data))

    def test_unknown_path_404(self, app):
        status, _, body = app.handle("GET", "/nope", b"")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "not_found"

    def test_wrong_method_405(self, app):
        status, headers, _ = app.handle("GET", "/v1/query", b"")
        assert status == 405
        assert ("Allow", "POST") in headers
        status, _, _ = app.handle("POST", "/healthz", b"")
        assert status == 405

    def test_bad_json_400(self, app):
        status, _, body = app.handle("POST", "/v1/query", b"{nope")
        assert status == 400
        assert json.loads(body)["error"]["type"] == "bad_json"

    def test_healthz(self, app, small_data):
        status, _, body = app.handle("GET", "/healthz", b"")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["cardinality"] == small_data.shape[0]
        assert payload["generation"] == 0

    def test_queue_ms_header_on_every_post(self, app, small_query):
        """X-Repro-Queue-Ms is uniform: misses, cache hits, and errors."""
        payload = {"query": list(small_query), "k": 2, "n": 3}
        _, miss_headers, _ = post(app, "/v1/query", payload)
        _, hit_headers, _ = post(app, "/v1/query", payload)  # cache hit
        _, error_headers, _ = post(
            app, "/v1/query", {"query": list(small_query), "k": 0, "n": 3}
        )
        for headers in (miss_headers, hit_headers, error_headers):
            value = dict(headers).get("X-Repro-Queue-Ms")
            assert value is not None, headers
            assert float(value) >= 0.0
        assert dict(hit_headers)["X-Repro-Cache"] == "hit"

    def test_metrics_exposes_serve_counters(self, app, small_query):
        post(app, "/v1/query", {"query": list(small_query), "k": 2, "n": 3})
        status, headers, body = app.handle("GET", "/metrics", b"")
        text = body.decode()
        assert status == 200
        assert dict(headers)["Content-Type"].startswith("text/plain")
        assert 'repro_serve_requests_total{endpoint="/v1/query",status="200"} 1' in text
        assert "repro_serve_cache_misses_total" in text
        assert "repro_serve_queue_seconds" in text
        assert "repro_serve_inflight" in text

    def test_validation_message_matches_direct_call(self, app, small_data, small_query):
        with pytest.raises(ValidationError) as direct:
            MatchDatabase(small_data).k_n_match(small_query, 0, 3)
        status, _, body = post(
            app, "/v1/query", {"query": list(small_query), "k": 0, "n": 3}
        )
        assert status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "validation"
        assert error["message"] == str(direct.value)

    def test_engine_selection_rejected_on_dynamic(self, small_data, small_query):
        app = ServeApp(DynamicMatchDatabase(small_data))
        status, _, body = post(
            app,
            "/v1/query",
            {"query": list(small_query), "k": 2, "n": 3, "engine": "naive"},
        )
        assert status == 400
        assert "engine selection" in json.loads(body)["error"]["message"]

    def test_unknown_engine_rejected(self, app, small_query):
        status, _, body = post(
            app,
            "/v1/query",
            {"query": list(small_query), "k": 2, "n": 3, "engine": "bogus"},
        )
        assert status == 400

    def test_internal_error_500(self, small_data, small_query):
        class ExplodingDB:
            cardinality = small_data.shape[0]
            dimensionality = small_data.shape[1]

            def k_n_match(self, query, k, n):
                raise RuntimeError("boom")

        app = ServeApp(ExplodingDB())
        status, _, body = post(
            app, "/v1/query", {"query": list(small_query), "k": 2, "n": 3}
        )
        assert status == 500
        assert "RuntimeError" in json.loads(body)["error"]["message"]

    def test_draining_rejects_posts(self, app, small_query):
        app.begin_drain()
        status, _, body = post(
            app, "/v1/query", {"query": list(small_query), "k": 2, "n": 3}
        )
        assert status == 503
        assert json.loads(body)["error"]["type"] == "draining"
        status, _, body = app.handle("GET", "/healthz", b"")
        assert status == 503
        assert json.loads(body)["status"] == "draining"

    def test_ragged_batch_rejected(self, app):
        status, _, body = post(
            app,
            "/v1/batch",
            {"queries": [[1.0] * 8, [1.0] * 7], "k": 1, "n": 1},
        )
        assert status == 400
        assert "same length" in json.loads(body)["error"]["message"]


# ----------------------------------------------------------------------
# bit-identity with direct facade calls, across all three facades
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_query(self, any_db, small_query):
        app = ServeApp(any_db)
        direct = any_db.k_n_match(small_query, 7, 5)
        status, _, body = post(
            app, "/v1/query", {"query": list(small_query), "k": 7, "n": 5}
        )
        assert status == 200
        remote = decode_match_result(json.loads(body)["result"])
        assert remote.ids == direct.ids
        assert remote.differences == direct.differences
        assert remote.stats == direct.stats

    def test_frequent(self, any_db, small_query):
        app = ServeApp(any_db)
        direct = any_db.frequent_k_n_match(
            small_query, 5, (2, 6), keep_answer_sets=True
        )
        status, _, body = post(
            app,
            "/v1/frequent",
            {
                "query": list(small_query),
                "k": 5,
                "n_range": [2, 6],
                "keep_answer_sets": True,
            },
        )
        assert status == 200
        remote = decode_frequent_result(json.loads(body)["result"])
        assert remote.ids == direct.ids
        assert remote.frequencies == direct.frequencies
        assert remote.answer_sets == direct.answer_sets

    def test_frequent_default_n_range_is_full(self, any_db, small_query):
        direct = any_db.frequent_k_n_match(
            small_query, 4, (1, any_db.dimensionality)
        )
        app = ServeApp(any_db)
        status, _, body = post(
            app, "/v1/frequent", {"query": list(small_query), "k": 4}
        )
        assert status == 200
        remote = decode_frequent_result(json.loads(body)["result"])
        assert remote.ids == direct.ids
        assert remote.n_range == (1, any_db.dimensionality)

    def test_batch(self, any_db, small_data):
        queries = small_data[:4] + 0.125
        if hasattr(any_db, "k_n_match_batch"):
            direct = any_db.k_n_match_batch(queries, 3, 4)
        else:
            direct = [any_db.k_n_match(row, 3, 4) for row in queries]
        app = ServeApp(any_db)
        status, _, body = post(
            app,
            "/v1/batch",
            {"queries": [list(row) for row in queries], "k": 3, "n": 4},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 4
        for remote_payload, expected in zip(payload["results"], direct):
            remote = decode_match_result(remote_payload)
            assert remote.ids == expected.ids
            assert remote.differences == expected.differences

    def test_empty_batch_still_validates_k(self, any_db):
        app = ServeApp(any_db)
        status, _, _ = post(app, "/v1/batch", {"queries": [], "k": 0, "n": 1})
        assert status == 400
        status, _, body = post(
            app, "/v1/batch", {"queries": [], "k": 1, "n": 1}
        )
        assert status == 200
        assert json.loads(body)["results"] == []


# ----------------------------------------------------------------------
# spans through the request path
# ----------------------------------------------------------------------
class TestServeSpans:
    def test_request_produces_serve_handle_root(self, small_data, small_query):
        spans = SpanCollector()
        app = ServeApp(MatchDatabase(small_data), spans=spans)
        payload = {"query": list(small_query), "k": 2, "n": 3}
        post(app, "/v1/query", payload)
        post(app, "/v1/query", payload)  # second one hits the cache
        roots = spans.traces()
        handles = [root for root in roots if root.name == "serve_handle"]
        assert len(handles) == 2
        assert handles[0].meta["endpoint"] == "/v1/query"
        assert handles[0].meta["cache"] == "miss"
        assert handles[1].meta["cache"] == "hit"
        assert handles[0].find("serve_cache")
        # the engine's own spans nest under the same root
        assert handles[0].find("heap_consume") or handles[0].find("window_grow")

    def test_no_spans_no_overhead_path(self, small_data, small_query):
        app = ServeApp(MatchDatabase(small_data), spans=None)
        status, _, _ = post(
            app, "/v1/query", {"query": list(small_query), "k": 2, "n": 3}
        )
        assert status == 200


# ----------------------------------------------------------------------
# overload shedding (deterministic, via a gated database)
# ----------------------------------------------------------------------
class GatedDB:
    """Duck-typed facade whose queries block until released."""

    def __init__(self, inner, gate):
        self._inner = inner
        self._gate = gate
        self.cardinality = inner.cardinality
        self.dimensionality = inner.dimensionality

    def k_n_match(self, query, k, n):
        assert self._gate.wait(timeout=10), "gate never opened"
        return self._inner.k_n_match(query, k, n)


class TestOverload:
    def test_excess_requests_shed_with_429(self, small_data, small_query):
        gate = threading.Event()
        db = GatedDB(MatchDatabase(small_data), gate)
        app = ServeApp(db, max_inflight=1, deadline_ms=100.0, cache_size=0)
        payload = {"query": list(small_query), "k": 2, "n": 3}
        statuses = []
        lock = threading.Lock()

        def fire():
            status, _, _ = post(app, "/v1/query", payload)
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # all deadlines expired; holder still blocked
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(statuses) == [200, 429, 429, 429]
        assert app.admission.sheds == 3
        assert app.admission.inflight == 0
        text = render_prometheus(app.metrics)
        assert 'repro_serve_sheds_total{endpoint="/v1/query",reason="queue_full"} 3' in text

    def test_429_retry_after_tracks_queue_wait(self, small_data, small_query):
        gate = threading.Event()
        db = GatedDB(MatchDatabase(small_data), gate)
        app = ServeApp(db, max_inflight=1, deadline_ms=1200.0, cache_size=0)
        app.admission.admit()  # occupy the only slot
        # Shed after queueing ~1.2s: the advertised retry delay must
        # cover the wait actually observed (ceil(1.2) = 2), not a
        # hard-coded constant.
        status, headers, _ = post(
            app, "/v1/query", {"query": list(small_query), "k": 2, "n": 3}
        )
        assert status == 429
        header = dict(headers)
        assert int(header["Retry-After"]) == 2
        # A fast shed on an idle-again controller still advertises the
        # protocol minimum of one second.
        status, headers, _ = post(
            app,
            "/v1/query",
            {"query": list(small_query), "k": 2, "n": 3, "deadline_ms": 20},
        )
        assert status == 429
        assert int(dict(headers)["Retry-After"]) >= 1
        app.admission.release()

    def test_per_request_deadline_overrides_default(self, small_data, small_query):
        gate = threading.Event()
        db = GatedDB(MatchDatabase(small_data), gate)
        # server default is generous; the request's own deadline is tiny
        app = ServeApp(db, max_inflight=1, deadline_ms=30000.0, cache_size=0)
        app.admission.admit()  # occupy the only slot
        started = time.perf_counter()
        status, _, body = post(
            app,
            "/v1/query",
            {"query": list(small_query), "k": 2, "n": 3, "deadline_ms": 50},
        )
        elapsed = time.perf_counter() - started
        assert status == 429
        assert elapsed < 5.0  # shed at its own deadline, not the server's
        assert json.loads(body)["error"]["type"] == "shed"
        app.admission.release()


# ----------------------------------------------------------------------
# over HTTP: real sockets, client round-trips, graceful shutdown
# ----------------------------------------------------------------------
class TestHTTP:
    @pytest.fixture
    def served(self, small_data):
        db = MatchDatabase(small_data)
        app = ServeApp(db, spans=SpanCollector())
        with MatchServer(app) as server:
            yield db, server, ServeClient(server.host, server.port)

    def test_client_roundtrip_bit_identical(self, served, small_query):
        db, _, client = served
        direct = db.k_n_match(small_query, 7, 5)
        remote = client.query(list(small_query), 7, 5)
        assert remote.ids == direct.ids
        assert remote.differences == direct.differences
        assert remote.stats == direct.stats

    def test_client_frequent_and_batch(self, served, small_data, small_query):
        db, _, client = served
        frequent = client.frequent(
            list(small_query), 5, (2, 6), keep_answer_sets=True
        )
        direct = db.frequent_k_n_match(small_query, 5, (2, 6))
        assert frequent.ids == direct.ids
        assert frequent.frequencies == direct.frequencies
        queries = small_data[:3]
        batch = client.batch([list(row) for row in queries], 3, 4)
        for remote, expected in zip(batch, db.k_n_match_batch(queries, 3, 4)):
            assert remote.ids == expected.ids
            assert remote.differences == expected.differences

    def test_cache_headers_and_byte_identity(self, served, small_query):
        _, _, client = served
        body = canonical_json(
            {"query": list(small_query), "k": 3, "n": 4}
        )
        status1, headers1, body1 = client.post_raw("/v1/query", body)
        status2, headers2, body2 = client.post_raw("/v1/query", body)
        assert (status1, status2) == (200, 200)
        assert headers1["X-Repro-Cache"] == "miss"
        assert headers2["X-Repro-Cache"] == "hit"
        assert body1 == body2  # byte-identical replay

    def test_kept_alive_connection_does_not_stall(self, served, small_query):
        """Responses on one connection must not wait for delayed ACKs.

        Headers and body are written separately; with Nagle's algorithm
        on, each body waits ~40 ms for the client's delayed ACK, so 20
        requests took about 0.9 s.
        """
        import http.client

        _, server, _ = served
        body = canonical_json({"query": list(small_query), "k": 3, "n": 4})
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            started = time.perf_counter()
            for _ in range(20):
                conn.request(
                    "POST", "/v1/query", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.5

    def test_trace_id_round_trips_through_client(self, served, small_query):
        from repro.obs import TraceContext

        _, _, client = served
        client.query(list(small_query), 3, 4)
        minted = client.last_trace
        assert minted is not None and len(minted.trace_id) == 32
        pinned = TraceContext("ab" * 16, "cd" * 8)
        client.query(list(small_query), 3, 4, trace=pinned)
        assert client.last_trace.trace_id == pinned.trace_id

    def test_server_error_raises_serve_error(self, served, small_query):
        _, _, client = served
        with pytest.raises(ServeError) as info:
            client.query(list(small_query), 0, 3)
        assert info.value.status == 400
        assert info.value.error_type == "validation"

    def test_health_and_metrics(self, served):
        _, _, client = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        text = client.metrics_text()
        assert "repro_serve_requests_total" in text

    def test_stop_drains_inflight_request(self, small_data, small_query):
        gate = threading.Event()
        db = GatedDB(MatchDatabase(small_data), gate)
        app = ServeApp(db, deadline_ms=10000.0, cache_size=0)
        server = MatchServer(app).start()
        client = ServeClient(server.host, server.port)
        results = []

        def fire():
            results.append(
                client.post_raw(
                    "/v1/query",
                    canonical_json(
                        {"query": list(small_query), "k": 2, "n": 3}
                    ),
                )
            )

        thread = threading.Thread(target=fire)
        thread.start()
        while app.admission.inflight == 0:  # request holds its slot
            time.sleep(0.005)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.05)
        gate.set()  # let the in-flight request finish during the drain
        stopper.join(timeout=10)
        thread.join(timeout=10)
        assert results and results[0][0] == 200  # drained, not dropped
        assert not stopper.is_alive()
