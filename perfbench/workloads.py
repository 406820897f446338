"""The four served workloads: inputs from a seed, server flags, request streams.

Every input is drawn from ``numpy.random.default_rng([seed, stream])``
with a fixed stream number per purpose, so one seed always yields the
same database, the same probe queries and the same per-client request
sequences.  The server only ever sees these generated inputs.
"""

from __future__ import annotations

import os
import shutil
import threading
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import oracle
from loadgen import Connection, Op

ROWS = 50_000
DIMS = 16
K = 10
N = 8
N_RANGE = (4, 12)
#: Standard deviation of the noise added to a database row to make a query.
PERTURB = 0.01
HOT_POOL = 256
ZIPF_S = 1.1
BATCH_ROWS = 32
LSM_ROWS = 20_000
#: Open-loop writer rate of lsm-mixed, mutations per second.
WRITE_RATE = 40.0
#: Rows the store's memtable holds before it flushes (the store default).
FLUSH_ROWS = 256
#: Inserts among the lsm-mixed warm-up writes.
WARMUP_INSERTS = 3
#: Share of timed requests whose answers the oracle checks.
SAMPLE_SHARE = 0.05

# rng stream numbers
_DATA, _PROBE, _WARM, _POOL, _SAMPLE, _CLIENT, _WRITER = range(7)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _perturbed(rng: np.random.Generator, data: np.ndarray) -> List[float]:
    row = data[int(rng.integers(len(data)))]
    return (row + rng.normal(0.0, PERTURB, data.shape[1])).tolist()


def _query(query: List[float]) -> Op:
    return Op("query", "/v1/query", {"query": query, "k": K, "n": N})


def _frequent(query: List[float]) -> Op:
    return Op(
        "frequent", "/v1/frequent",
        {"query": query, "k": K, "n_range": list(N_RANGE)},
    )


def _batch(rng: np.random.Generator, data: np.ndarray) -> Op:
    queries = [_perturbed(rng, data) for _ in range(BATCH_ROWS)]
    payload = {"queries": queries, "k": K, "n": N}
    return Op("batch", "/v1/batch", payload, rows=BATCH_ROWS)


def _sampled(ops: Iterator[Op], rng: np.random.Generator, share: float) -> Iterator[Op]:
    """Mark a seeded share of ``ops`` for the oracle gate."""
    for op in ops:
        op.keep = bool(rng.random() < share)
        yield op


class Workload:
    """Base: a static 50,000 x 16 database served from a ``.npz`` file."""

    name = ""
    why = ""
    clients = 2
    server_flags: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.data = _rng(seed, _DATA).random((ROWS, DIMS))
        self.ids = np.arange(ROWS)

    # -- set-up ---------------------------------------------------------
    def build(self, workdir: str) -> List[str]:
        """Write the inputs under ``workdir``; return the serve arguments."""
        import repro
        from repro.io import save_database

        path = os.path.join(workdir, "db.npz")
        save_database(repro.MatchDatabase(self.data), path)
        return [path, *self.server_flags]

    def warmup_ops(self) -> List[Op]:
        """One request of each kind the workload sends (lazy set-up)."""
        raise NotImplementedError

    def after_warmup(self, conn: Connection) -> None:
        """Extra set-up after the warm-up (the hot pool)."""

    # -- exact counters + oracle ----------------------------------------
    def probe_ops(self) -> List[Op]:
        """A fixed, seeded request set sent one at a time on each server."""
        raise NotImplementedError

    # -- timed phase ----------------------------------------------------
    def client_ops(self, client: int) -> Iterator[Op]:
        raise NotImplementedError

    def state(self, writes: int):
        """``(data, ids)`` the oracle checks against after ``writes`` writes."""
        return self.data, self.ids

    def check(
        self, op: Op, response: Dict, writes: Tuple[int, int] = (0, 0)
    ) -> Optional[str]:
        """``None`` if ``response`` is the oracle's answer, else why not."""
        data, ids = self.state(writes[0])
        return oracle.check(data, ids, op.path, op.payload, response)


class QueryUnique(Workload):
    name = "query-unique"
    why = (
        "fresh perturbed rows, 4 query : 1 frequent, 2 closed-loop clients; "
        "the cache never hits, so engine, planner and span cost dominate"
    )
    server_flags = ("--engine", "auto")

    def warmup_ops(self) -> List[Op]:
        rng = _rng(self.seed, _WARM)
        return [
            _query(_perturbed(rng, self.data)),
            _frequent(_perturbed(rng, self.data)),
        ]

    def probe_ops(self) -> List[Op]:
        rng = _rng(self.seed, _PROBE)
        ops = [_query(_perturbed(rng, self.data)) for _ in range(16)]
        return ops + [_frequent(_perturbed(rng, self.data)) for _ in range(4)]

    def client_ops(self, client: int) -> Iterator[Op]:
        rng = _rng(self.seed, _CLIENT, client)

        def ops():
            # One request in each block of five, at a seeded position, is
            # frequent: the mix is exact, and the two clients do not fall
            # into step.
            while True:
                frequent = int(rng.integers(5))
                for position in range(5):
                    query = _perturbed(rng, self.data)
                    yield _frequent(query) if position == frequent else _query(query)

        return _sampled(ops(), _rng(self.seed, _SAMPLE, client), SAMPLE_SHARE)


class QueryHot(Workload):
    name = "query-hot"
    why = (
        "Zipf draws from a 256-query pool sent during set-up, 2 closed-loop "
        "clients; every timed request is a cache hit"
    )
    server_flags = ("--engine", "auto")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = _rng(seed, _POOL)
        self.pool = [_perturbed(rng, self.data) for _ in range(HOT_POOL)]
        weights = 1.0 / np.arange(1, HOT_POOL + 1) ** ZIPF_S
        self.cumulative = np.cumsum(weights / weights.sum())

    def warmup_ops(self) -> List[Op]:
        return [_query(self.pool[0])]

    def after_warmup(self, conn: Connection) -> None:
        """Send the rest of the pool once, split over the client threads."""
        statuses: List[int] = []

        def fill(queries: List[List[float]]) -> None:
            for query in queries:
                statuses.append(conn.post_json("/v1/query", _query(query).payload)[0])

        threads = [
            threading.Thread(target=fill, args=(self.pool[1 + i::self.clients],))
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        if len(statuses) != HOT_POOL - 1 or set(statuses) != {200}:
            raise RuntimeError("the hot pool was not fully answered")

    def probe_ops(self) -> List[Op]:
        return [_query(query) for query in self.pool[:16]]

    def client_ops(self, client: int) -> Iterator[Op]:
        rng = _rng(self.seed, _CLIENT, client)

        def ops():
            while True:
                draw = rng.random()
                index = int(np.searchsorted(self.cumulative, draw, side="right"))
                yield _query(self.pool[min(index, HOT_POOL - 1)])

        return _sampled(ops(), _rng(self.seed, _SAMPLE, client), SAMPLE_SHARE / 5)


class BatchSharded(Workload):
    name = "batch-sharded"
    why = (
        "one closed-loop client sending /v1/batch of 32 fresh rows to 2 thread "
        "shards; the only run of scatter, merge and the lock-step batch engine"
    )
    clients = 1
    server_flags = ("--shards", "2", "--engine", "auto")

    def warmup_ops(self) -> List[Op]:
        return [_batch(_rng(self.seed, _WARM), self.data)]

    def probe_ops(self) -> List[Op]:
        return [_batch(_rng(self.seed, _PROBE), self.data)]

    def client_ops(self, client: int) -> Iterator[Op]:
        rng = _rng(self.seed, _CLIENT, client)

        def ops():
            while True:
                yield _batch(rng, self.data)

        return _sampled(ops(), _rng(self.seed, _SAMPLE, client), 2 * SAMPLE_SHARE)


class LsmMixed(Workload):
    """Reads against a store that an open-loop writer mutates."""

    name = "lsm-mixed"
    why = (
        "serve --store over 20,000 preloaded rows: 1 closed-loop reader, 1 "
        "open-loop writer at 40/s (3 inserts : 1 delete); the only writes"
    )
    clients = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.data = _rng(seed, _DATA).random((LSM_ROWS, DIMS))
        self.ids = np.arange(LSM_ROWS)
        self.reset_log()

    def reset_log(self) -> None:
        """Forget acknowledged writes (a fresh store starts from the preload)."""
        #: acknowledged writes in order: ("insert", pid, coords) / ("delete", pid, None)
        self.log: List[Tuple[str, int, Optional[List[float]]]] = []
        self.live: List[int] = list(range(LSM_ROWS))
        self.writer_rng = _rng(self.seed, _WRITER)
        self.writes_sent = 0
        self._cached_state: Tuple[int, Tuple] = (-1, ())

    def build(self, workdir: str) -> List[str]:
        """Preload the store so the timed phase starts at a flush boundary.

        The bulk of the rows is flushed and compacted into one L1
        segment, then four full L0 segments are written, and the memtable
        is left so that after the warm-up inserts it is one row short of
        a flush.  Background compaction is off during the preload, so the
        layout is the same on every run: the first timed insert flushes a
        fifth L0 segment, which overflows L0 and starts a compaction.
        """
        from repro.lsm import LsmMatchDatabase

        path = os.path.join(workdir, "store")
        shutil.rmtree(path, ignore_errors=True)
        tail = 4 * FLUSH_ROWS + FLUSH_ROWS - 1 - WARMUP_INSERTS
        store = LsmMatchDatabase(path, dimensionality=DIMS, auto_compact=False)
        try:
            store.insert_many(self.data[:-tail])
            store.flush()
            store.compact()
            store.insert_many(self.data[-tail:])
        finally:
            store.close()
        self.reset_log()
        return ["--store", path]

    def warmup_ops(self) -> List[Op]:
        return [_query(_perturbed(_rng(self.seed, _WARM), self.data))] + [
            self.next_write() for _ in range(4)
        ]

    def probe_ops(self) -> List[Op]:
        rng = _rng(self.seed, _PROBE)
        return [_query(_perturbed(rng, self.data)) for _ in range(16)]

    def client_ops(self, client: int) -> Iterator[Op]:
        rng = _rng(self.seed, _CLIENT, client)

        def ops():
            while True:
                yield _query(_perturbed(rng, self.data))

        return _sampled(ops(), _rng(self.seed, _SAMPLE, client), SAMPLE_SHARE)

    # -- the writer -----------------------------------------------------
    def next_write(self) -> Op:
        """The next mutation: inserts, and every fourth a delete of a live id."""
        self.writes_sent += 1
        if self.writes_sent % 4 == 0:
            pid = self.live[int(self.writer_rng.integers(len(self.live)))]
            return Op("delete", "/v1/delete", {"pid": pid}, rows=0)
        point = self.writer_rng.random(DIMS).tolist()
        return Op("insert", "/v1/insert", {"point": point}, rows=0)

    def writer_ops(self) -> Iterator[Op]:
        while True:
            yield self.next_write()

    def acknowledge(self, op: Op, response: Dict) -> None:
        if op.kind == "insert":
            pid = int(response["pid"])
            self.log.append(("insert", pid, op.payload["point"]))
            self.live.append(pid)
        else:
            pid = op.payload["pid"]
            self.log.append(("delete", pid, None))
            self.live.remove(pid)

    def state(self, writes: int):
        """Live ``(data, ids)`` after the first ``writes`` acknowledged writes."""
        if self._cached_state[0] == writes:
            return self._cached_state[1]
        coords = {pid: row for pid, row in enumerate(self.data)}
        for op, pid, point in self.log[:writes]:
            if op == "insert":
                coords[pid] = np.asarray(point, dtype=np.float64)
            else:
                del coords[pid]
        ids = np.array(sorted(coords), dtype=np.int64)
        data = np.array([coords[pid] for pid in ids], dtype=np.float64)
        self._cached_state = (writes, (data, ids))
        return data, ids

    def check(
        self, op: Op, response: Dict, writes: Tuple[int, int] = (0, 0)
    ) -> Optional[str]:
        """A read is correct if it matches the store after some write it overlapped."""
        reason = None
        for count in range(writes[0], min(writes[1], len(self.log)) + 1):
            data, ids = self.state(count)
            reason = oracle.check(data, ids, op.path, op.payload, response)
            if reason is None:
                return None
        return reason


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (QueryUnique, QueryHot, LsmMixed, BatchSharded)
}
