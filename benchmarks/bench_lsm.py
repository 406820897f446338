"""LSM store benchmark: write throughput, query latency under write load, recovery.

Builds a real :class:`repro.lsm.LsmMatchDatabase` in a temp directory
(WAL + leveled segments + background compaction) and measures:

* **write throughput** — sustained ``insert`` calls, each one WAL-logged
  before it returns;
* **query p50, idle vs under write load** — the same query stream with
  and without a concurrent writer thread mutating the store (the
  acceptance bar: loaded p50 within ``LOAD_OVER_IDLE_TARGET`` x idle,
  i.e. background flushes and compactions never stall readers beyond a
  generation swap);
* **LSM over flat** — the idle stream once more against a flat
  ``block-ad`` engine over ``db.snapshot()`` (the same live set, no
  segments, no tombstones), recorded as ``lsm_over_flat_p50`` and not
  asserted: what the segment fan-out costs over one static index;
* **recovery seconds** — wall time for ``LsmMatchDatabase.recover`` to
  replay the WAL over the segment snapshots and serve again.

Before any timing, answers are asserted bit-identical (ids *and*
differences) to a from-scratch oracle over the live set, and after
recovery the live set is asserted exactly equal to everything the dead
store acknowledged.  Results are written under the shared
``BENCH_*.json`` schema (see ``BENCH_lsm.json`` at the repository
root)::

    python benchmarks/bench_lsm.py --smoke -o BENCH_lsm.json
    python benchmarks/bench_lsm.py -o BENCH_lsm.json

``--smoke`` runs the headline configuration only; its result entry
carries the same configuration signature as the full run's, so
``regress.py`` matches smoke runs against the committed full baseline
(2 throughput keys: idle and under-write-load queries/second).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from typing import Dict, List, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from repro.core.ad_block import BlockADEngine
from repro.lsm import LsmMatchDatabase

from bench_meta import run_metadata

#: (rows, dimensionality, k, n) per configuration.
HEADLINE_CONFIG = (8_000, 8, 10, 4)
FULL_CONFIGS = [
    HEADLINE_CONFIG,
    (2_000, 6, 5, 3),
]
SMOKE_CONFIGS = [HEADLINE_CONFIG]

#: The acceptance bar: loaded query p50 <= this multiple of idle p50.
LOAD_OVER_IDLE_TARGET = 2.0

ORACLE_QUERIES = 8
IDLE_QUERIES = 80
LOAD_QUERIES = 80

#: The background writer throttles to this many mutations/second so the
#: "under load" section models sustained ingest, not a GIL-saturating
#: tight loop.
WRITER_THROTTLE_SECONDS = 0.001


def oracle(model: Dict[int, np.ndarray], query, k: int, n: int):
    scored = sorted(
        (float(np.sort(np.abs(row - query))[n - 1]), pid)
        for pid, row in model.items()
    )
    return (
        [pid for _diff, pid in scored[:k]],
        [diff for diff, _pid in scored[:k]],
    )


def _p50_ms(latencies: List[float]) -> float:
    return sorted(latencies)[len(latencies) // 2] * 1000.0


def _timed_queries(db, queries, k: int, n: int) -> Tuple[float, List[float]]:
    latencies = []
    started = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        db.k_n_match(query, k, n)
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - started, latencies


def bench_config(
    rows: int, dimensionality: int, k: int, n: int, seed: int = 42
) -> Dict:
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(rows, dimensionality))
    directory = tempfile.mkdtemp(prefix="bench-lsm-")
    try:
        db = LsmMatchDatabase(directory, dimensionality=dimensionality)

        # -- write throughput (every insert WAL-logged before returning)
        started = time.perf_counter()
        for row in data:
            db.insert(row)
        write_seconds = time.perf_counter() - started
        model = {pid: data[pid] for pid in range(rows)}
        for pid in range(0, rows, 7):
            db.delete(pid)
            del model[pid]

        # -- correctness gate: bit-identical to the oracle, before timing
        for query in rng.uniform(
            0.0, 1.0, size=(ORACLE_QUERIES, dimensionality)
        ):
            result = db.k_n_match(query, k, n)
            ids, differences = oracle(model, query, k, n)
            assert result.ids == ids, "oracle identity violated"
            assert result.differences == differences

        queries = rng.uniform(0.0, 1.0, size=(IDLE_QUERIES, dimensionality))

        # -- idle query latency, then flat block-AD over the same live set
        idle_seconds, idle_latencies = _timed_queries(db, queries, k, n)
        flat = BlockADEngine(db.snapshot()[0])
        _flat_seconds, flat_latencies = _timed_queries(flat, queries, k, n)

        # -- the same stream with a concurrent writer mutating the store
        stop = threading.Event()
        writer_ops = [0]

        def write_loop() -> None:
            mine: List[int] = []
            while not stop.is_set():
                if len(mine) < 64:
                    mine.append(
                        db.insert(rng.uniform(0.0, 1.0, dimensionality))
                    )
                else:
                    db.delete(mine.pop(0))
                writer_ops[0] += 1
                time.sleep(WRITER_THROTTLE_SECONDS)
            for pid in mine:
                db.delete(pid)

        writer = threading.Thread(target=write_loop)
        writer.start()
        try:
            load_seconds, load_latencies = _timed_queries(db, queries, k, n)
        finally:
            stop.set()
            writer.join(timeout=60)

        # quiescent again: answers must still match the oracle exactly
        check = rng.uniform(0.0, 1.0, size=dimensionality)
        ids, differences = oracle(model, check, k, n)
        result = db.k_n_match(check, k, n)
        assert result.ids == ids and result.differences == differences

        live = set(model)
        db.close()

        # -- recovery: replay the WAL over the segment snapshots
        wal_bytes = os.path.getsize(os.path.join(directory, "wal.log"))
        started = time.perf_counter()
        recovered = LsmMatchDatabase.recover(directory, auto_compact=False)
        recovery_seconds = time.perf_counter() - started
        assert set(int(p) for p in recovered.snapshot()[1]) == live, (
            "recovery must restore the exact acknowledged live set"
        )
        result = recovered.k_n_match(check, k, n)
        assert result.ids == ids and result.differences == differences
        recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    idle_p50 = _p50_ms(idle_latencies)
    flat_p50 = _p50_ms(flat_latencies)
    load_p50 = _p50_ms(load_latencies)
    return {
        "rows": rows,
        "dimensionality": dimensionality,
        "k": k,
        "n": n,
        "write": {
            "writes": rows,
            "seconds": write_seconds,
            "writes_per_second": rows / write_seconds,
        },
        "idle": {
            "queries": IDLE_QUERIES,
            "seconds": idle_seconds,
            "p50_ms": idle_p50,
            "queries_per_second": IDLE_QUERIES / idle_seconds,
        },
        "flat_idle": {"engine": "block-ad", "p50_ms": flat_p50},
        "lsm_over_flat_p50": idle_p50 / flat_p50,
        "under_write_load": {
            "queries": LOAD_QUERIES,
            "seconds": load_seconds,
            "p50_ms": load_p50,
            "queries_per_second": LOAD_QUERIES / load_seconds,
            "writer_ops": writer_ops[0],
        },
        "load_over_idle_p50": load_p50 / idle_p50,
        "recovery": {
            "wal_bytes": wal_bytes,
            "live_points": len(live),
            "seconds": recovery_seconds,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="headline configuration only"
    )
    parser.add_argument(
        "-o",
        "--output",
        type=str,
        default=None,
        help="also write the JSON report to this path",
    )
    args = parser.parse_args(argv)

    configs = SMOKE_CONFIGS if args.smoke else FULL_CONFIGS
    report = {
        "benchmark": "bench_lsm",
        "mode": "smoke" if args.smoke else "full",
        **run_metadata(backend="thread"),
        "results": [],
    }
    for rows, dimensionality, k, n in configs:
        print(
            f"config rows={rows} d={dimensionality} k={k} n={n} ...",
            flush=True,
        )
        entry = bench_config(rows, dimensionality, k, n)
        report["results"].append(entry)
        print(
            f"  writes    {entry['write']['writes_per_second']:8.0f} /s\n"
            f"  idle      p50 {entry['idle']['p50_ms']:6.2f} ms "
            f"({entry['lsm_over_flat_p50']:.2f}x flat block-ad, "
            f"{entry['flat_idle']['p50_ms']:.2f} ms)\n"
            f"  loaded    p50 {entry['under_write_load']['p50_ms']:6.2f} ms "
            f"({entry['load_over_idle_p50']:.2f}x idle, "
            f"{entry['under_write_load']['writer_ops']} writer ops)\n"
            f"  recovery  {entry['recovery']['seconds']:.3f} s "
            f"({entry['recovery']['wal_bytes']} WAL bytes)",
            flush=True,
        )
        if (rows, dimensionality, k, n) == HEADLINE_CONFIG:
            report["headline"] = {
                "config": {
                    "rows": rows,
                    "dimensionality": dimensionality,
                    "k": k,
                    "n": n,
                },
                "load_over_idle_p50": entry["load_over_idle_p50"],
                "target": LOAD_OVER_IDLE_TARGET,
                "meets_target": (
                    entry["load_over_idle_p50"] <= LOAD_OVER_IDLE_TARGET
                ),
            }
            print(
                f"  headline: {entry['load_over_idle_p50']:.2f}x loaded/idle "
                f"p50 (target <= {LOAD_OVER_IDLE_TARGET:g}x, "
                f"{'met' if report['headline']['meets_target'] else 'MISSED'})",
                flush=True,
            )

    if not args.smoke and not report["headline"]["meets_target"]:
        print(
            "error: loaded query p50 above target in a full run",
            file=sys.stderr,
        )
        return 1

    text = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
