"""Hypothesis stateful testing of the mutable stores, crashes included.

The state machines mirror every operation against a plain Python model
(a dict of live points) and, after each step, check a randomly
parameterised query against a from-scratch oracle.  This hunts for the
bugs example-based tests miss: interactions between buffered inserts,
tombstones on base vs buffer points, auto-compaction timing, dead-row
masks and k-th-difference caps (the ``Windowed*`` machines force every
segment through block-AD windows), ties on a coarse grid — and, for
both :class:`DynamicMatchDatabase` and
:class:`LsmMatchDatabase`, ``crash()``/``recover()`` interleaved with
the mutations: after any such interleaving the recovered store must
answer bit-identically to the oracle, with a strictly larger
``generation`` than any it handed out before the crash.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import DynamicMatchDatabase
from repro.core import segment_search
from repro.core.types import rank_by_frequency
from repro.lsm import LsmMatchDatabase

DIMS = 3

coords = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
    min_size=DIMS,
    max_size=DIMS,
)
#: points of a coarse grid, so differences tie across tiers and segments
tied_coords = st.lists(
    st.sampled_from([0.0, 0.5, 1.0]), min_size=DIMS, max_size=DIMS
)


def check_frequent(db, model, query, k_seed, n_range):
    """Frequent k-n-match answer sets and ranking against the oracle."""
    k = min(k_seed, len(model))
    n0, n1 = sorted(n_range)
    query = np.asarray(query, dtype=np.float64)
    result = db.frequent_k_n_match(query, k, (n0, n1))
    answer_sets = {}
    for n in range(n0, n1 + 1):
        scored = sorted(
            (float(np.sort(np.abs(row - query))[n - 1]), pid)
            for pid, row in model.items()
        )
        answer_sets[n] = [pid for _diff, pid in scored[:k]]
    assert result.answer_sets == answer_sets
    assert (result.ids, result.frequencies) == rank_by_frequency(answer_sets, k)


class DynamicDatabaseMachine(RuleBasedStateMachine):
    @initialize(rows=st.lists(coords, min_size=1, max_size=8))
    def setup(self, rows):
        data = np.asarray(rows, dtype=np.float64)
        # tiny thresholds so compactions happen *during* the run
        self.db = DynamicMatchDatabase(
            data, min_buffer=3, compaction_threshold=0.2
        )
        self.model = {pid: data[pid].copy() for pid in range(data.shape[0])}

    @rule(point=coords)
    def insert(self, point):
        pid = self.db.insert(np.asarray(point))
        assert pid not in self.model  # ids never reused
        self.model[pid] = np.asarray(point, dtype=np.float64)

    @precondition(lambda self: len(self.model) > 1)
    @rule(which=st.integers(0, 10**6))
    def delete(self, which):
        victims = sorted(self.model)
        victim = victims[which % len(victims)]
        self.db.delete(victim)
        del self.model[victim]

    @rule()
    def compact(self):
        self.db.compact()

    @rule(query=coords, k_seed=st.integers(1, 5), n=st.integers(1, DIMS))
    def query_matches_oracle(self, query, k_seed, n):
        k = min(k_seed, len(self.model))
        query = np.asarray(query, dtype=np.float64)
        result = self.db.k_n_match(query, k, n)
        # oracle: exact per-pid n-match differences from the model
        scored = sorted(
            (float(np.sort(np.abs(row - query))[n - 1]), pid)
            for pid, row in self.model.items()
        )
        expected = [pid for _diff, pid in scored[:k]]
        assert result.ids == expected

    @rule(point=tied_coords)
    def insert_tied(self, point):
        self.insert(point)

    @rule(
        query=tied_coords,
        k_seed=st.integers(1, 5),
        n_range=st.tuples(st.integers(1, DIMS), st.integers(1, DIMS)),
    )
    def frequent_matches_oracle(self, query, k_seed, n_range):
        check_frequent(self.db, self.model, query, k_seed, n_range)

    @invariant()
    def cardinality_matches_model(self):
        if hasattr(self, "db"):
            assert self.db.cardinality == len(self.model)

    @invariant()
    def membership_matches_model(self):
        if hasattr(self, "db"):
            for pid in list(self.model)[:5]:
                assert pid in self.db


class DynamicCrashRecoverMachine(DynamicDatabaseMachine):
    """The dynamic machine plus snapshot-based crash/recover.

    A "crash" of the in-memory store is losing the object; durability is
    whatever the caller snapshotted.  ``from_snapshot`` must rebuild the
    exact live set and resume the generation strictly past the
    snapshot's, so a serve cache keyed on (generation, query) can never
    alias a pre-crash entry.
    """

    @initialize(rows=st.lists(coords, min_size=1, max_size=8))
    def setup(self, rows):
        super().setup(rows)
        self.crashed_state = None

    @precondition(lambda self: getattr(self, "crashed_state", None) is None)
    @rule()
    def crash(self):
        rows, pids = self.db.snapshot()
        self.crashed_state = (rows, pids, self.db.generation)
        self.db = None

    @precondition(lambda self: getattr(self, "crashed_state", None) is not None)
    @rule()
    def recover(self):
        rows, pids, generation = self.crashed_state
        self.db = DynamicMatchDatabase.from_snapshot(
            rows, pids, generation=generation,
            min_buffer=3, compaction_threshold=0.2,
        )
        self.crashed_state = None
        assert self.db.generation > generation
        assert self.db.cardinality == len(self.model)
        assert set(int(p) for p in self.db.snapshot()[1]) == set(self.model)

    # While crashed there is no database to poke: gate every inherited
    # operation (and invariant) on being alive.
    def _alive(self):
        return getattr(self, "crashed_state", None) is None

    insert = precondition(_alive)(DynamicDatabaseMachine.insert)
    delete = precondition(_alive)(DynamicDatabaseMachine.delete)
    compact = precondition(_alive)(DynamicDatabaseMachine.compact)
    query_matches_oracle = precondition(_alive)(
        DynamicDatabaseMachine.query_matches_oracle
    )
    insert_tied = precondition(_alive)(DynamicDatabaseMachine.insert_tied)
    frequent_matches_oracle = precondition(_alive)(
        DynamicDatabaseMachine.frequent_matches_oracle
    )

    @invariant()
    def cardinality_matches_model(self):
        if hasattr(self, "db") and self.db is not None:
            assert self.db.cardinality == len(self.model)

    @invariant()
    def membership_matches_model(self):
        if hasattr(self, "db") and self.db is not None:
            for pid in list(self.model)[:5]:
                assert pid in self.db


class LsmCrashRecoverMachine(RuleBasedStateMachine):
    """insert/delete/query/flush/compact/crash/recover against the oracle.

    A crash abandons the store object without closing it (the WAL is
    unbuffered, so everything a returned mutation logged is durable);
    recovery replays the log and must serve the exact live set with a
    strictly larger generation.
    """

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="lsm-stateful-")
        self.db = None

    def teardown(self):
        if self.db is not None:
            self.db.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    @initialize()
    def setup(self):
        # Tiny thresholds so flushes and compactions happen mid-run.
        self.db = LsmMatchDatabase(
            self.directory,
            dimensionality=DIMS,
            memtable_flush_rows=3,
            level_fanout=2,
            generation_reserve=4,
            auto_compact=False,
        )
        self.model = {}
        self.max_generation = self.db.generation

    def _alive(self):
        return self.db is not None

    def _bump(self):
        assert self.db.generation > self.max_generation
        self.max_generation = self.db.generation

    @precondition(_alive)
    @rule(point=coords)
    def insert(self, point):
        pid = self.db.insert(np.asarray(point))
        assert pid not in self.model  # ids never reused
        self.model[pid] = np.asarray(point, dtype=np.float64)
        self._bump()

    @precondition(lambda self: self._alive() and self.model)
    @rule(which=st.integers(0, 10**6))
    def delete(self, which):
        victims = sorted(self.model)
        victim = victims[which % len(victims)]
        self.db.delete(victim)
        del self.model[victim]
        self._bump()

    @precondition(_alive)
    @rule()
    def flush(self):
        self.db.flush()

    @precondition(_alive)
    @rule()
    def compact(self):
        self.db.compact()

    @precondition(_alive)
    @rule()
    def crash(self):
        # Sudden death: no close(), no final sync.  Being in-process,
        # every write() already reached the OS (the WAL is unbuffered).
        self.db._wal._handle.close()
        self.db = None

    @precondition(lambda self: self.db is None)
    @rule()
    def recover(self):
        self.db = LsmMatchDatabase.recover(self.directory, auto_compact=False)
        # Strictly monotonic across the crash: no generation the dead
        # store handed out may ever be reused.
        assert self.db.generation > self.max_generation
        self.max_generation = self.db.generation
        assert set(int(p) for p in self.db.snapshot()[1]) == set(self.model)

    @precondition(lambda self: self._alive() and self.model)
    @rule(query=coords, k_seed=st.integers(1, 5), n=st.integers(1, DIMS))
    def query_matches_oracle(self, query, k_seed, n):
        k = min(k_seed, len(self.model))
        query = np.asarray(query, dtype=np.float64)
        result = self.db.k_n_match(query, k, n)
        scored = sorted(
            (float(np.sort(np.abs(row - query))[n - 1]), pid)
            for pid, row in self.model.items()
        )
        assert result.ids == [pid for _diff, pid in scored[:k]]
        assert result.differences == [diff for diff, _pid in scored[:k]]

    @precondition(_alive)
    @rule(point=tied_coords)
    def insert_tied(self, point):
        self.insert(point)

    @precondition(lambda self: self._alive() and self.model)
    @rule(
        query=tied_coords,
        k_seed=st.integers(1, 5),
        n_range=st.tuples(st.integers(1, DIMS), st.integers(1, DIMS)),
    )
    def frequent_matches_oracle(self, query, k_seed, n_range):
        check_frequent(self.db, self.model, query, k_seed, n_range)

    @invariant()
    def cardinality_matches_model(self):
        if self.db is not None:
            assert self.db.cardinality == len(self.model)


class _Windowed:
    """Mixin: every segment is searched through block-AD windows.

    The machines' segments are far smaller than the scan threshold, so
    without this the dead masks and caps of the windowed path would
    never meet their interleavings.
    """

    def __init__(self):
        super().__init__()
        self._scan_rows = segment_search.SCAN_ROWS
        segment_search.SCAN_ROWS = 0

    def teardown(self):
        segment_search.SCAN_ROWS = self._scan_rows
        super().teardown()


class WindowedDynamicMachine(_Windowed, DynamicCrashRecoverMachine):
    pass


class WindowedLsmMachine(_Windowed, LsmCrashRecoverMachine):
    pass


DynamicDatabaseMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestDynamicDatabaseStateful = DynamicDatabaseMachine.TestCase

DynamicCrashRecoverMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestDynamicCrashRecoverStateful = DynamicCrashRecoverMachine.TestCase

LsmCrashRecoverMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestLsmCrashRecoverStateful = LsmCrashRecoverMachine.TestCase

WindowedDynamicMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestWindowedDynamicStateful = WindowedDynamicMachine.TestCase

WindowedLsmMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestWindowedLsmStateful = WindowedLsmMachine.TestCase
