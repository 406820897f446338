"""Run ``repro serve`` with benchmark-side timing around each layer's calls.

Usage (the benchmark starts it; ``src`` must be on ``PYTHONPATH``)::

    python perfbench/traced_serve.py OUT.json serve <repro serve args>

Before handing control to the CLI entry point this wraps, from outside,
the public calls the server makes into each layer, and records for
every POST request (keyed by the trace id the client sent):

* ``ServeApp.handle``                          -> ``serve.app``
* ``repro.serve.protocol.parse_*_request``     -> ``serve.protocol.decode``
* ``canonical_json`` / ``encode_*_result``     -> ``serve.protocol.encode``
* ``AdmissionController.admit``                -> ``serve.admission.queue``
* ``ResultCache.get`` / ``ResultCache.put``    -> ``serve.cache.get`` / ``.put``
* the facade's query and mutation methods      -> ``core.engine``

It also keeps every span tree the server's own ``SpanCollector``
records (engine phases, planner, shard fan-out, LSM read path) instead
of only the last 64, and attaches the collector to each shard's
database so the per-shard engine phases are visible too.  When the
server has drained (SIGTERM), everything is written to ``OUT.json``.
Nothing under ``src/`` is modified; the wrapping happens in this process
only.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import repro.obs as obs
from repro import cli
from repro.obs.spans import SpanCollector, span_to_dict
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.server import ServeApp

_local = threading.local()
_lock = threading.Lock()
_requests = {}      # trace id -> list of (layer, start, end)
_roots = {}         # trace id -> list of root Span (background work has none)


def _timed(layer, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        intervals = getattr(_local, "intervals", None)
        if intervals is None:
            return function(*args, **kwargs)
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            intervals.append((layer, started, time.perf_counter()))
    return wrapper


def _handle(original):
    @functools.wraps(original)
    def handle(self, method, path, body, headers=None):
        trace_id = ""
        for name, value in (headers or {}).items():
            if name.lower() == "x-repro-trace":
                trace_id = value.strip().lower()
        if method != "POST" or not trace_id:
            return original(self, method, path, body, headers)
        intervals = _local.intervals = []
        started = time.perf_counter()
        try:
            return original(self, method, path, body, headers)
        finally:
            intervals.append(("serve.app", started, time.perf_counter()))
            _local.intervals = None
            with _lock:
                _requests[trace_id] = intervals
    return handle


class _KeepAllCollector(SpanCollector):
    """The server's collector, but every finished root is kept by trace id."""

    def _publish(self, root):
        super()._publish(root)
        trace_id = root.meta.get("trace_id")
        if trace_id is not None:
            with _lock:
                _roots.setdefault(str(trace_id), []).append(root)


def _install() -> None:
    for name in (
        "parse_query_request", "parse_frequent_request", "parse_batch_request",
        "parse_insert_request", "parse_delete_request",
    ):
        wrapped = _timed("serve.protocol.decode", getattr(protocol, name))
        setattr(protocol, name, wrapped)
    for name in (
        "canonical_json", "encode_match_result", "encode_frequent_result",
        "encode_approx_result",
    ):
        wrapped = _timed("serve.protocol.encode", getattr(protocol, name))
        setattr(protocol, name, wrapped)
    AdmissionController.admit = _timed(
        "serve.admission.queue", AdmissionController.admit
    )
    ResultCache.get = _timed("serve.cache.get", ResultCache.get)
    ResultCache.put = _timed("serve.cache.put", ResultCache.put)
    ServeApp.handle = _handle(ServeApp.handle)
    original_init = ServeApp.__init__

    @functools.wraps(original_init)
    def init(self, db, *args, **kwargs):
        original_init(self, db, *args, **kwargs)
        for name in (
            "k_n_match", "frequent_k_n_match", "k_n_match_batch",
            "insert", "delete",
        ):
            method = getattr(db, name, None)
            if method is not None:
                setattr(db, name, _timed("core.engine", method))
        if self.spans is not None and hasattr(db, "shard_count"):
            for index in range(db.shard_count):
                shard = db.shard(index)
                if shard is not None:
                    shard.set_spans(self.spans)

    ServeApp.__init__ = init
    obs.SpanCollector = _KeepAllCollector


def _dump(path: str) -> None:
    with _lock:
        payload = {
            "requests": {
                trace_id: {
                    "intervals": intervals,
                    "spans": [
                        span_to_dict(root) for root in _roots.get(trace_id, [])
                    ],
                }
                for trace_id, intervals in _requests.items()
            },
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    _install()
    try:
        return cli.main(cli_args)
    finally:
        _dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
