"""The load generator: HTTP clients in closed and open loops.

Each client thread has at most one request in flight, so a run never
holds more connections than it has client threads (never more than the
two cores of the reference machine).  Every request is timed on the
client with ``perf_counter`` from just before it is written to just
after the response body is read.

A closed-loop client sends its next request only when the previous one
has completed.  An open-loop client (the writer of ``lsm-mixed``) sends
on a fixed schedule; its latency is measured from the time each request
was *due*, so a stall also counts against the requests queued behind
it, and its lateness (send time minus due time) is reported.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Trace header the server adopts (W3C traceparent layout or bare hex id).
TRACE_HEADER = "X-Repro-Trace"


class Connection:
    """HTTP/1.1 requests to the server, one TCP connection per request.

    This is what the program's own client (``repro.serve.ServeClient``,
    on ``urllib``) does.  A kept-alive connection is not used: the server
    writes headers and body in two sends, so on a warm connection each
    response waits for the client's delayed ACK (about 40 ms on Linux).
    """

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._port = port
        self._timeout = timeout

    def request(
        self, method: str, path: str, body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """``(status, body)``; status 0 when the connection failed."""
        all_headers = {"Content-Type": "application/json", "Connection": "close"}
        if headers:
            all_headers.update(headers)
        conn = http.client.HTTPConnection(
            "127.0.0.1", self._port, timeout=self._timeout
        )
        try:
            conn.request(method, path, body=body, headers=all_headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return 0, b""
        finally:
            conn.close()

    def post_json(self, path: str, payload: Dict) -> Tuple[int, Dict]:
        status, body = self.request("POST", path, json.dumps(payload).encode())
        return status, (json.loads(body) if status == 200 else {})

    def get_text(self, path: str) -> str:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return body.decode("utf-8")


@dataclass
class Op:
    """One request a workload wants sent."""

    kind: str            # "query" | "frequent" | "batch" | "insert" | "delete"
    path: str
    payload: Dict
    rows: int = 1        # query rows answered (a batch answers many)
    keep: bool = False   # keep the response body for the oracle gate


@dataclass
class Record:
    """One completed request, as the client saw it."""

    kind: str
    trace_id: str
    due: float           # when it was due (closed loop: when it was sent)
    sent: float
    done: float
    status: int
    rows: int
    op: Optional[Op] = None
    response: Optional[Dict] = None
    # lsm-mixed: acknowledged writes before sending / writes started
    # before the response, bracketing the store state a read saw.
    writes_before: int = 0
    writes_after: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def round_trip_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


@dataclass
class WriteClock:
    """Counts the open-loop writer's progress so reads can be bracketed."""

    acknowledged: int = 0
    started: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


def trace_id_for(client: int, index: int) -> str:
    """A 32-hex trace id unique per (client, request index) in a run."""
    return f"{client + 1:016x}{index + 1:016x}"


def _send(conn: Connection, op: Op, trace_id: str) -> Tuple[int, Optional[Dict]]:
    status, body = conn.request(
        "POST", op.path, json.dumps(op.payload).encode(), {TRACE_HEADER: trace_id}
    )
    if status != 200:
        return status, None
    if op.keep or op.kind == "insert":
        return status, json.loads(body)
    return status, None


def closed_loop(
    conn: Connection, client: int, ops: Iterator[Op], deadline: float,
    clock: Optional[WriteClock] = None,
    between: Optional[Callable[[], None]] = None,
) -> List[Record]:
    """Send ``ops`` back to back until ``deadline`` (perf_counter).

    ``between`` runs after every request (the RSS sampler rides on the
    first client, so the run needs no extra thread).
    """
    records: List[Record] = []
    index = 0
    while time.perf_counter() < deadline:
        if between is not None:
            between()
        op = next(ops)
        trace_id = trace_id_for(client, index)
        before = clock.acknowledged if clock is not None else 0
        sent = time.perf_counter()
        status, response = _send(conn, op, trace_id)
        done = time.perf_counter()
        after = clock.started if clock is not None else 0
        records.append(Record(
            op.kind, trace_id, sent, sent, done, status, op.rows,
            op if op.keep else None, response, before, after,
        ))
        index += 1
    return records


def open_loop(
    conn: Connection, client: int, ops: Iterator[Op], start: float,
    rate: float, count: int, clock: WriteClock,
    on_ack: Callable[[Op, Dict], None],
) -> List[Record]:
    """Send ``count`` ops at ``rate``/s from ``start``, one at a time.

    ``on_ack`` sees every acknowledged op with its response before the
    next op is generated, so generated deletes only name live ids.
    """
    records: List[Record] = []
    for index in range(count):
        due = start + index / rate
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        op = next(ops)
        trace_id = trace_id_for(client, index)
        with clock.lock:
            clock.started += 1
        sent = time.perf_counter()
        status, response = _send(conn, op, trace_id)
        done = time.perf_counter()
        if status == 200:
            on_ack(op, response)
            with clock.lock:
                clock.acknowledged += 1
        records.append(Record(
            op.kind, trace_id, due, sent, done, status, op.rows, op, response,
        ))
    return records


def run_clients(targets: List[Callable[[], List[Record]]]) -> List[Record]:
    """Run each target on its own thread; return every record."""
    results: List[List[Record]] = [[] for _ in targets]
    errors: List[BaseException] = []

    def wrap(position: int, target) -> None:
        try:
            results[position] = target()
        except Exception as error:  # noqa: BLE001 - surfaced after join
            errors.append(error)

    threads = [
        threading.Thread(target=wrap, args=(i, t), daemon=True)
        for i, t in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
        if thread.is_alive():
            raise RuntimeError("a load-generator client did not finish")
    if errors:
        raise errors[0]
    return [record for records in results for record in records]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
