"""Run one benchmark workload against ``repro serve`` and report its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload query-unique --seed 1 --seconds 10 --trace 0

``--trace 0`` starts three fresh servers.  Each is set up (``setup_s`` is
the median), probed, and driven for a third of ``--seconds`` with
tracing off; the end-to-end metrics come from these three slices.
``--trace 1`` sets up one server and drives it for all of ``--seconds``,
then does the same with a server started under ``traced_serve.py``, and
reports the per-layer metrics.  Either way every metric is printed by
name with its unit, followed by the oracle, self-time and counter
checks, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
from loadgen import (
    Connection, Record, WriteClock, closed_loop, open_loop, percentile,
    run_clients,
)
from procs import (
    MetricsDelta, RssSampler, ServerProcess, host_cpu_times, parse_metrics,
    wait_healthy,
)
from workloads import DIMS, K, N, WORKLOADS, WRITE_RATE, LsmMixed, Workload

#: Fresh servers per ``--trace 0`` run.
SETUPS = 3
#: Largest allowed gap between the summed per-layer self times and the
#: traced end-to-end time, as a share of the latter.
SELF_TIME_TOLERANCE = 0.02
#: Writer lateness (p99) past which a run's write figures are flagged.
LATE_LIMIT_MS = 100.0
#: Hard limit for one run; the run fails rather than overstay it.
RUN_LIMIT_SECONDS = 175
#: Client number of the open-loop writer (it only shapes trace ids).
WRITER_CLIENT = 9
READ_KINDS = ("query", "frequent", "batch")

END_TO_END: Dict[str, str] = {
    "read_mean_ms": "ms",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "server_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    **{name: "ms" for name in layers.SELF_TIME_METRICS.values()},
    "serve.peak_rss_mb": "MB",
    "serve.load_rss_mb": "MB",
    "serve.admission.sheds": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.evictions": "count",
    "plan.decisions.block-ad": "count",
    "plan.decisions.batch-block-ad": "count",
    "plan.decisions.naive": "count",
    "plan.actual_over_predicted": "ratio",
    "core.ad_block.attributes_per_query": "count",
    "core.ad_block.rounds_per_query": "count",
    "core.ad_block.probes_per_query": "count",
    "core.ad_block.candidates_per_query": "count",
    "core.ad_block.attr_over_optimal": "ratio",
    "obs.spans_per_query": "count",
    "obs.trace_overhead": "ratio",
    "obs.traced_ms": "ms",
    "obs.untraced_ms": "ms",
    "obs.self_time_gap": "ratio",
    "obs.counters_repeat": "count",
    "host.cpu_steal_share": "ratio",
    "shard.straggler_ratio": "ratio",
    "lsm.segments_per_query": "count",
    "lsm.wal.bytes_per_write": "bytes",
    "lsm.flushes": "count",
    "lsm.compactions": "count",
    "lsm.compaction_ms": "ms",
    "lsm.rows_rewritten": "count",
    "lsm.write_amp": "ratio",
    "lsm.disk_bytes_per_live_byte": "ratio",
    "loadgen.query_p50_ms": "ms",
    "loadgen.query_p99_ms": "ms",
    "loadgen.query_qps": "1/s",
    "loadgen.frequent_p50_ms": "ms",
    "loadgen.frequent_p90_ms": "ms",
    "loadgen.batch_rows_per_s": "1/s",
    "loadgen.batch_p90_ms": "ms",
    "loadgen.write_p50_ms": "ms",
    "loadgen.write_p99_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.failed_ratio": "ratio",
}


class Failures:
    """Every attempted operation or check, and the reasons of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: List[str] = []

    def add(self, reason: str) -> None:
        self.reasons.append(reason)

    @property
    def failed(self) -> int:
        return len(self.reasons)


@dataclass
class Server:
    """A started, warmed-up server."""

    process: ServerProcess
    conn: Connection
    setup_s: float
    setup_rss_mb: float
    workdir: str
    serve_args: List[str]

    def scrape(self) -> Dict:
        return parse_metrics(self.conn.get_text("/metrics"))


@dataclass
class Slice:
    """One timed drive of one server."""

    records: List[Record]
    delta: MetricsDelta
    wall: float
    rss_samples: List[float]
    steal_share: float


class Bench:
    """One benchmark run: its work directory, failures and server processes."""

    def __init__(self, root: str, workload: Workload, workdir: str) -> None:
        self.root = root
        self.workload = workload
        self.workdir = workdir
        self.failures = Failures()
        self.processes: List[ServerProcess] = []
        #: timed answers the oracle has checked
        self.checked = 0

    def close(self) -> None:
        for process in self.processes:
            process.stop()

    def _writes(self) -> int:
        return len(getattr(self.workload, "log", ()))

    # ------------------------------------------------------------------
    def set_up(self, name: str, traced_out: Optional[str] = None) -> Server:
        """Inputs -> server process -> healthy -> warm-up, timed as ``setup_s``."""
        workload, failures = self.workload, self.failures
        workdir = os.path.join(self.workdir, name)
        os.makedirs(workdir, exist_ok=True)
        started = time.perf_counter()
        serve_args = workload.build(workdir)
        process = ServerProcess(self.root, workdir, serve_args, traced_out)
        self.processes.append(process)
        conn = Connection(process.wait_port())
        wait_healthy(conn)
        rss_mb = process.rss_mb()
        for op in workload.warmup_ops():
            failures.attempted += 1
            status, response = conn.post_json(op.path, op.payload)
            if status != 200:
                failures.add(f"warm-up {op.path} returned {status}")
            elif op.kind in ("insert", "delete"):
                workload.acknowledge(op, response)
        workload.after_warmup(conn)
        setup_s = time.perf_counter() - started
        return Server(process, conn, setup_s, rss_mb, workdir, serve_args)

    def probe(self, server: Server, audit: bool) -> Dict[str, float]:
        """Send the seeded probe set one at a time; return its exact counters.

        Each answer is checked against the oracle.  The counters come from
        the responses' ``stats`` and from ``/metrics`` deltas around the
        probe, so with the same seed they must repeat exactly on every
        fresh server; a planner that resolves differently makes them differ.
        """
        before = server.scrape()
        totals: Dict[str, float] = defaultdict(float)
        writes = self._writes()
        examined = lower_bound = 0
        for op in self.workload.probe_ops():
            self.failures.attempted += 1
            status, response = server.conn.post_json(op.path, op.payload)
            if status != 200:
                self.failures.add(f"probe {op.path} returned {status}")
                continue
            reason = self.workload.check(op, response, (writes, writes))
            if reason is not None:
                self.failures.add(f"probe oracle mismatch: {reason}")
            if op.kind == "batch":
                rows = list(zip(op.payload["queries"], response["results"]))
            else:
                rows = [(op.payload["query"], response["result"])]
            for query, result in rows:
                stats = result["stats"]
                totals["rows"] += 1
                for field in (
                    "attributes_retrieved", "binary_search_probes",
                    "candidates_refined",
                ):
                    totals[field] += stats[field]
                if audit and op.kind != "frequent":
                    examined_now, bound_now = self._audit(writes, query, stats)
                    examined += examined_now
                    lower_bound += bound_now
        delta = MetricsDelta(before, server.scrape())
        totals["epsilon_rounds"] = delta.total("repro_epsilon_rounds_total")
        decisions = delta.by_label("repro_plan_decisions_total", "engine")
        for engine, count in decisions.items():
            totals[f"plan.{engine}"] = count
        if audit:
            totals["attr_over_optimal"] = (
                examined / lower_bound if lower_bound else 0.0
            )
        return dict(totals)

    def _audit(self, writes: int, query, stats: Dict) -> Tuple[int, int]:
        """(attributes examined, Fagin lower bound) for one k-n-match row."""
        from repro.obs.audit import examined_cost, fagin_lower_bound
        from repro.serve.protocol import decode_stats

        data, _ = self.workload.state(writes)
        bound, _, _ = fagin_lower_bound(data, np.asarray(query), K, N)
        return examined_cost(decode_stats(stats)), bound

    def drive(self, server: Server, seconds: float) -> Slice:
        """Drive ``server`` for ``seconds``, then oracle-check the answers."""
        workload = self.workload
        writes_base = self._writes()
        before = server.scrape()
        steal_before, total_before = host_cpu_times()
        clock = WriteClock()
        sampler = RssSampler(server.process)
        start = time.perf_counter()
        deadline = start + seconds
        targets = [
            (lambda c=c: closed_loop(
                server.conn, c, workload.client_ops(c), deadline, clock,
                sampler if c == 0 else None,
            ))
            for c in range(workload.clients)
        ]
        if isinstance(workload, LsmMixed):
            targets.append(lambda: open_loop(
                server.conn, WRITER_CLIENT, workload.writer_ops(), start,
                WRITE_RATE, int(WRITE_RATE * seconds), clock,
                workload.acknowledge,
            ))
        records = run_clients(targets)
        wall = max(record.done for record in records) - start
        steal_after, total_after = host_cpu_times()
        steal = (steal_after - steal_before) / max(total_after - total_before, 1)
        piece = Slice(
            records, MetricsDelta(before, server.scrape()), wall,
            sampler.samples, steal,
        )
        self.verify(records, writes_base)
        return piece

    def verify(self, records: List[Record], writes_base: int) -> None:
        """Count failed requests and oracle-check the sampled answers."""
        for record in records:
            self.failures.attempted += 1
            if record.status != 200:
                self.failures.add(f"{record.kind} returned {record.status}")
                continue
            if record.response is None or record.kind not in READ_KINDS:
                continue
            self.checked += 1
            bracket = (
                writes_base + record.writes_before,
                writes_base + record.writes_after,
            )
            reason = self.workload.check(record.op, record.response, bracket)
            if reason is not None:
                self.failures.add(f"oracle mismatch: {reason}")

    def lsm_restart_check(self, server: Server) -> float:
        """Drain, restart on the same store and re-check it.

        Returns the store's bytes on disk after the clean shutdown per
        byte of live points.
        """
        workload, failures = self.workload, self.failures
        server.process.stop()
        store = server.serve_args[1]
        disk = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(store) for name in names
        )
        writes = self._writes()
        data, ids = workload.state(writes)
        restarted = ServerProcess(self.root, server.workdir, server.serve_args)
        self.processes.append(restarted)
        try:
            conn = Connection(restarted.wait_port())
            health = wait_healthy(conn)
            failures.attempted += 1
            if health["cardinality"] != len(ids):
                failures.add(
                    f"restart: {health['cardinality']} live points, "
                    f"expected {len(ids)}"
                )
            for op in workload.probe_ops()[:8]:
                failures.attempted += 1
                status, response = conn.post_json(op.path, op.payload)
                reason = (
                    f"status {status}" if status != 200
                    else workload.check(op, response, (writes, writes))
                )
                if reason is not None:
                    failures.add(f"restart oracle: {reason}")
        finally:
            restarted.stop()
        from repro.lsm import LsmMatchDatabase

        reopened = LsmMatchDatabase.recover(store, auto_compact=False)
        try:
            rows, pids = reopened.snapshot()
        finally:
            reopened.close()
        failures.attempted += 1
        if not (np.array_equal(pids, ids) and np.array_equal(rows, data)):
            failures.add(
                "restart: recovered live set differs from the acknowledged writes"
            )
        return disk / (len(ids) * DIMS * 8)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ok(records: List[Record], kind: str) -> List[Record]:
    return [r for r in records if r.kind == kind and r.status == 200]


def slice_figures(workload: Workload, piece: Slice) -> Dict[str, float]:
    """``read_mean_ms`` and ``rows_per_s`` of one slice."""
    read_kind = "batch" if workload.name == "batch-sharded" else "query"
    reads = [r.latency_ms for r in _ok(piece.records, read_kind)]
    rows = sum(
        r.rows for r in piece.records
        if r.status == 200 and r.kind in READ_KINDS
    )
    return {"read_mean_ms": float(np.mean(reads)), "rows_per_s": rows / piece.wall}


def client_layer(piece: Slice, failures: Failures) -> Dict[str, float]:
    """The load generator's own view, one figure per request kind."""
    records, wall = piece.records, piece.wall
    query = [r.latency_ms for r in _ok(records, "query")]
    frequent = [r.latency_ms for r in _ok(records, "frequent")]
    batch = _ok(records, "batch")
    writes = [r for r in records if r.kind in ("insert", "delete")]
    acknowledged = [r.latency_ms for r in writes if r.status == 200]
    late = [(r.sent - r.due) * 1000.0 for r in writes]
    return {
        "loadgen.query_p50_ms": percentile(query, 50),
        "loadgen.query_p99_ms": percentile(query, 99),
        "loadgen.query_qps": len(query) / wall,
        "loadgen.frequent_p50_ms": percentile(frequent, 50),
        "loadgen.frequent_p90_ms": percentile(frequent, 90),
        "loadgen.batch_rows_per_s": sum(r.rows for r in batch) / wall,
        "loadgen.batch_p90_ms": percentile([r.latency_ms for r in batch], 90),
        "loadgen.write_p50_ms": percentile(acknowledged, 50),
        "loadgen.write_p99_ms": percentile(acknowledged, 99),
        "loadgen.late_p99_ms": percentile(late, 99),
        "loadgen.failed_ratio": failures.failed / max(failures.attempted, 1),
    }


def server_counters(delta: MetricsDelta) -> Dict[str, float]:
    """Per-layer figures from ``/metrics`` deltas over an untraced slice."""
    hits = delta.total("repro_serve_cache_hits_total")
    misses = delta.total("repro_serve_cache_misses_total")
    predicted = delta.total("repro_plan_predicted_seconds_sum")
    mutations = delta.total("repro_lsm_mutations_total")
    inserts = delta.total("repro_lsm_mutations_total", op="insert")
    compactions = delta.total("repro_lsm_compactions_total")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "serve.admission.sheds": delta.total("repro_serve_sheds_total"),
        "serve.cache.hit_ratio": ratio(hits, hits + misses),
        "serve.cache.evictions": delta.total("repro_serve_cache_evictions_total"),
        "plan.actual_over_predicted": ratio(
            delta.total("repro_plan_actual_seconds_sum"), predicted
        ),
        "lsm.wal.bytes_per_write": ratio(
            delta.total("repro_lsm_wal_bytes_total"), mutations
        ),
        "lsm.flushes": delta.total("repro_lsm_flushes_total"),
        "lsm.compactions": compactions,
        "lsm.compaction_ms": 1000.0 * ratio(
            delta.total("repro_lsm_compaction_seconds_sum"), compactions
        ),
        "lsm.rows_rewritten": delta.total("repro_lsm_compaction_rows_total"),
        "lsm.write_amp": ratio(
            delta.total("repro_lsm_segment_bytes_total"), inserts * DIMS * 8
        ),
    }


def probe_layer(counters: Dict[str, float]) -> Dict[str, float]:
    """The probe's exact counters as per-query (or per-probe) figures."""
    rows = max(counters.get("rows", 0.0), 1.0)
    prefix = "core.ad_block."
    return {
        prefix + "attributes_per_query": counters.get("attributes_retrieved", 0) / rows,
        prefix + "rounds_per_query": counters.get("epsilon_rounds", 0) / rows,
        prefix + "probes_per_query": counters.get("binary_search_probes", 0) / rows,
        prefix + "candidates_per_query": counters.get("candidates_refined", 0) / rows,
        prefix + "attr_over_optimal": counters.get("attr_over_optimal", 0.0),
        "plan.decisions.block-ad": counters.get("plan.block-ad", 0.0),
        "plan.decisions.batch-block-ad": counters.get("plan.batch-block-ad", 0.0),
        "plan.decisions.naive": counters.get("plan.naive", 0.0),
    }


def _exact(counters: Dict[str, float]) -> Dict[str, float]:
    return {k: v for k, v in counters.items() if k != "attr_over_optimal"}


# ----------------------------------------------------------------------
def run(root: str, name: str, seed: int, seconds: float, trace: int):
    """One run; returns ``(metrics, failures, notes)``."""
    workdir = os.path.join(root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[name](seed)
    bench = Bench(root, workload, workdir)
    metrics: Dict[str, float] = {}
    notes: List[str] = []
    probes: List[Dict[str, float]] = []
    try:
        count = SETUPS if trace == 0 else 1
        servers: List[Server] = []
        pieces: List[Slice] = []
        for index in range(count):
            server = bench.set_up(f"setup{index}")
            probes.append(bench.probe(server, audit=index == count - 1))
            pieces.append(bench.drive(server, seconds / count))
            servers.append(server)
            if index < count - 1:
                server.process.stop()
        last = pieces[-1]
        figures = [slice_figures(workload, piece) for piece in pieces]
        # Noise on a shared machine (CPU stolen by other tenants, a
        # planner that calibrated badly on one server) only ever slows a
        # slice down, so each timing is the best of the slices.
        metrics["read_mean_ms"] = min(f["read_mean_ms"] for f in figures)
        metrics["rows_per_s"] = max(f["rows_per_s"] for f in figures)
        metrics["setup_s"] = statistics.median(s.setup_s for s in servers)
        metrics["server_rss_mb"] = statistics.median(s.setup_rss_mb for s in servers)
        metrics["serve.load_rss_mb"] = statistics.median(last.rss_samples)
        metrics["serve.peak_rss_mb"] = server.process.rss_mb("VmHWM")
        steal = [piece.steal_share for piece in pieces]
        metrics["host.cpu_steal_share"] = float(np.mean(steal))
        metrics.update(server_counters(last.delta))
        metrics.update(probe_layer(probes[-1]))
        metrics["lsm.disk_bytes_per_live_byte"] = 0.0
        if isinstance(workload, LsmMixed):
            metrics["lsm.disk_bytes_per_live_byte"] = bench.lsm_restart_check(server)
        else:
            server.process.stop()
        notes.append(
            f"oracle: {bench.checked} sampled answers and {len(probes)} x "
            f"{len(workload.probe_ops())} probe requests checked"
        )
        if trace == 1:
            metrics.update(traced_layers(bench, seconds, last, probes))
            gap = metrics["obs.self_time_gap"]
            notes.append(
                f"self times: sum {metrics['obs.self_time_sum_ms']:.4f} ms vs "
                f"traced {metrics['obs.traced_ms']:.4f} ms per request "
                f"(gap {gap:.2%}, tolerance {SELF_TIME_TOLERANCE:.0%})"
            )
            bench.failures.attempted += 1
            if gap > SELF_TIME_TOLERANCE:
                bench.failures.add(
                    "per-layer self times miss the traced end-to-end time"
                )
        metrics.update(client_layer(last, bench.failures))
        if metrics["loadgen.late_p99_ms"] > LATE_LIMIT_MS:
            notes.append(
                f"warning: the writer ran {metrics['loadgen.late_p99_ms']:.0f} ms "
                "late (p99); this run's write latencies measure the backlog"
            )
        same = all(_exact(p) == _exact(probes[0]) for p in probes)
        metrics["obs.counters_repeat"] = 1.0 if same else 0.0
        notes.append(
            f"counters: identical on all {len(probes)} fresh servers" if same
            else "counters: DIFFER between fresh servers of one seed (planner "
            "flip?): "
            + "; ".join(json.dumps(_exact(p), sort_keys=True) for p in probes)
        )
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, bench.failures, notes


def traced_layers(
    bench: Bench, seconds: float, untraced: Slice, probes: List[Dict[str, float]]
) -> Dict[str, float]:
    """Make the traced run and turn it into per-layer self times."""
    traced_out = os.path.join(bench.workdir, "traced.json")
    server = bench.set_up("traced", traced_out)
    probes.append(bench.probe(server, audit=False))
    piece = bench.drive(server, seconds)
    server.process.stop()
    with open(traced_out, encoding="utf-8") as handle:
        dump = json.load(handle)
    out = layers.summarize(piece.records, dump)
    ok = [r.round_trip_ms for r in untraced.records if r.status == 200]
    out["obs.untraced_ms"] = float(np.mean(ok))
    out["obs.trace_overhead"] = out["obs.traced_ms"] / out["obs.untraced_ms"]
    out["obs.self_time_gap"] = (
        abs(out["obs.self_time_sum_ms"] - out["obs.traced_ms"]) / out["obs.traced_ms"]
    )
    return out


def _raise(signum, frame) -> None:
    raise SystemExit(f"stopped by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "error: run from the root of a repro checkout (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # Timeouts and termination unwind through run()'s cleanup, which
    # stops every server this run started.
    signal.signal(signal.SIGALRM, _raise)
    signal.signal(signal.SIGTERM, _raise)
    signal.alarm(RUN_LIMIT_SECONDS)
    try:
        metrics, failures, notes = run(
            root, args.workload, args.seed, args.seconds, args.trace
        )
    finally:
        signal.alarm(0)
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        if name in metrics:
            print(f"{name:40s} {metrics[name]:14.6f} {unit}")
    for note in notes:
        print(note)
    for reason in failures.reasons[:20]:
        print(f"FAILED: {reason}")
    print(f"attempted {failures.attempted}, failed {failures.failed}")
    chosen = END_TO_END if args.trace == 0 else PER_LAYER
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in chosen.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
