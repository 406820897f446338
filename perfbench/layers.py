"""Per-layer self time from one traced run.

Each traced request has three sources of intervals, all on the server's
monotonic clock except the first:

* the client round trip, measured by the load generator;
* the benchmark-side wrappers of ``traced_serve.py`` around the layers'
  public calls (``ServeApp.handle``, protocol, admission, cache, facade);
* the span trees the server's ``SpanCollector`` records (planner, engine
  phases, shard fan-out and calls, LSM read and write paths).

Self time is assigned by a sweep over the request's ``ServeApp.handle``
interval: every instant goes to the innermost interval covering it
(innermost = contained in the most other intervals); where parallel
siblings overlap (two shards' calls), the instant is split evenly
between them.  The transport layer gets the round trip minus the
handle interval.  The self times of one request therefore add up to
its round trip, and the per-request means add up to the traced
end-to-end time as long as every request's server record was found —
which the run checks against a stated tolerance.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Attribution label -> per-layer metric name (ms of self time per request).
SELF_TIME_METRICS: Dict[str, str] = {
    "serve.transport": "serve.transport.ms",
    "serve.protocol.decode": "serve.protocol.decode_ms",
    "serve.protocol.encode": "serve.protocol.encode_ms",
    "serve.admission.queue": "serve.admission.queue_ms",
    "serve.cache.get": "serve.cache.get_ms",
    "serve.cache.put": "serve.cache.put_ms",
    "serve.app": "serve.app.self_ms",
    "plan": "plan.ms",
    "core.engine": "core.engine.ms",
    "core.ad_block.cursor_init": "core.ad_block.cursor_init_ms",
    "core.ad_block.window_grow": "core.ad_block.window_grow_ms",
    "core.ad_block.refine": "core.ad_block.refine_ms",
    "core.ad_block.rank": "core.ad_block.rank_ms",
    "core.ad_block.finalize": "core.ad_block.finalize_ms",
    "parallel.batch_block_ad.lockstep": "parallel.batch_block_ad.lockstep_ms",
    "parallel.batch_block_ad.finalize": "parallel.batch_block_ad.finalize_ms",
    "shard.fanout": "shard.fanout_ms",
    "shard.call": "shard.call_ms",
    "core.merge": "core.merge.ms",
    "lsm.memtable_scan": "lsm.memtable_scan_ms",
    "lsm.segment_search": "lsm.segment_search_ms",
    "lsm.merge": "lsm.merge_ms",
    "lsm.wal.append": "lsm.wal.append_ms",
    "lsm.flush": "lsm.flush_ms",
}

_BLOCK_PHASES = ("cursor_init", "window_grow", "refine", "rank", "finalize")
_DIRECT = {
    "serve_handle": "serve.app",
    "shard_fanout": "shard.fanout",
    "shard_call": "shard.call",
    "batch_shard": "shard.call",
    "lockstep": "parallel.batch_block_ad.lockstep",
    "memtable_scan": "lsm.memtable_scan",
    "segment_search": "lsm.segment_search",
    "wal_append": "lsm.wal.append",
    "flush": "lsm.flush",
}


def _label(span: Dict, engine: str) -> str:
    name = span["name"]
    if name in _DIRECT:
        return _DIRECT[name]
    if name == "serve_cache":
        return f"serve.cache.{span['meta'].get('op', 'get')}"
    if name == "merge":
        return "lsm.merge" if engine == "lsm" else "core.merge"
    if name in _BLOCK_PHASES:
        if engine == "batch-block-ad" and name == "finalize":
            return "parallel.batch_block_ad.finalize"
        if engine == "block-ad":
            return f"core.ad_block.{name}"
    return "core.engine"


def _flatten(span: Dict, engine: str, out: List[Tuple[str, float, float]]) -> None:
    name = span["name"]
    if name == "round":
        return  # one epsilon round; its time belongs to window_grow
    if "/" in name:
        engine = name.split("/", 1)[0]
    if name == "plan":
        # Planner probes run whole engines; all of it is planning time.
        out.append(("plan", span["start"], span["end"]))
        return
    out.append((_label(span, engine), span["start"], span["end"]))
    for child in span["children"]:
        _flatten(child, engine, out)


def count_spans(span: Dict, name: Optional[str] = None) -> int:
    own = 1 if name is None or span["name"] == name else 0
    return own + sum(count_spans(child, name) for child in span["children"])


def _find(span: Dict, name: str, out: List[Dict]) -> None:
    if span["name"] == name:
        out.append(span)
    for child in span["children"]:
        _find(child, name, out)


def attribute(record: Dict) -> Dict[str, float]:
    """Self seconds per label for one request's server-side record."""
    intervals: List[Tuple[str, float, float]] = list(
        (layer, start, end) for layer, start, end in record["intervals"]
    )
    for root in record["spans"]:
        _flatten(root, "", intervals)
    handle = [iv for iv in intervals if iv[0] == "serve.app"]
    window_start = min(iv[1] for iv in handle)
    window_end = max(iv[2] for iv in handle)
    clipped = []
    for label, start, end in intervals:
        start, end = max(start, window_start), min(end, window_end)
        if end > start:
            clipped.append((label, start, end))

    def contains(outer: int, inner: int) -> bool:
        _, s_out, e_out = clipped[outer]
        _, s_in, e_in = clipped[inner]
        if (s_out, e_out) == (s_in, e_in):
            return outer < inner  # identical intervals nest in list order
        return s_out <= s_in and e_in <= e_out

    depth = [
        sum(1 for j in range(len(clipped)) if j != i and contains(j, i))
        for i in range(len(clipped))
    ]
    cuts = sorted({t for _, s, e in clipped for t in (s, e)})
    self_seconds: Dict[str, float] = defaultdict(float)
    for left, right in zip(cuts, cuts[1:]):
        middle = (left + right) / 2.0
        active = [
            i for i, (_, s, e) in enumerate(clipped) if s <= middle < e
        ]
        deepest = max(depth[i] for i in active)
        winners = [i for i in active if depth[i] == deepest]
        share = (right - left) / len(winners)
        for i in winners:
            self_seconds[clipped[i][0]] += share
    return dict(self_seconds)


def handle_seconds(record: Dict) -> float:
    handle = [iv for iv in record["intervals"] if iv[0] == "serve.app"]
    return max(iv[2] for iv in handle) - min(iv[1] for iv in handle)


def straggler_ratios(record: Dict) -> List[float]:
    """max/mean shard-call duration for each fan-out of one request."""
    calls: List[Dict] = []
    for root in record["spans"]:
        _find(root, "shard_call", calls)
    if len(calls) < 2:
        return []
    durations = [call["end"] - call["start"] for call in calls]
    mean = sum(durations) / len(durations)
    return [max(durations) / mean] if mean > 0 else []


def summarize(records, server: Dict) -> Dict[str, float]:
    """Per-layer means over the traced run's client ``records``.

    ``server`` is ``traced_serve.py``'s dump.  Returns the self-time
    metrics (ms per request, averaged over the requests whose server
    record was found), their sum, the traced end-to-end time (mean round
    trip over every answered request) and the span-derived counts.
    """
    requests = server["requests"]
    totals: Dict[str, float] = defaultdict(float)
    matched = 0
    spans = 0
    segment_searches = 0
    reads = 0
    stragglers: List[float] = []
    for record in records:
        found = requests.get(record.trace_id)
        if found is None or record.status != 200:
            continue
        matched += 1
        handle = handle_seconds(found)
        totals["serve.transport"] += (record.done - record.sent) - handle
        for label, seconds in attribute(found).items():
            totals[label] += seconds
        spans += sum(count_spans(root) for root in found["spans"])
        if record.kind in ("query", "frequent", "batch"):
            reads += record.rows
            segment_searches += sum(
                count_spans(root, "segment_search") for root in found["spans"]
            )
        stragglers.extend(straggler_ratios(found))
    ok = [r for r in records if r.status == 200]
    traced_ms = 1000.0 * sum(r.done - r.sent for r in ok) / max(len(ok), 1)
    out = {
        metric: 1000.0 * totals.get(label, 0.0) / max(matched, 1)
        for label, metric in SELF_TIME_METRICS.items()
    }
    out["obs.traced_ms"] = traced_ms
    out["obs.self_time_sum_ms"] = sum(out[m] for m in SELF_TIME_METRICS.values())
    out["obs.spans_per_query"] = spans / max(matched, 1)
    out["lsm.segments_per_query"] = segment_searches / max(reads, 1)
    out["shard.straggler_ratio"] = (
        sum(stragglers) / len(stragglers) if stragglers else 0.0
    )
    return out
