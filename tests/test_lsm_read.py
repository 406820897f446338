"""The bounded read path of the mutable stores: dead masks and caps.

``repro.core.segment_search`` answers LSM and dynamic queries in one pass:
segments largest first, each windowed with its dead-row mask and the
running k-th difference as a cap.  These tests pin the edges of those
two inputs against the naive oracle, bit for bit, for k-n-match and
frequent k-n-match, with small segments both scanned (the default) and
forced through block-AD windows.  They also gate the work a read does on
a store laid out like the benchmark's, and the fsync order that makes a
flush survive power loss.
"""

import os

import numpy as np
import pytest

from repro import DynamicMatchDatabase
from repro.core import segment_search
from repro.core.ad_block import BlockADEngine
from repro.core.types import rank_by_frequency
from repro.lsm import LsmMatchDatabase
from repro.obs import epsilon_rounds_from_stats


def oracle_sets(model, query, k, n0, n1):
    """Per-n answer (pid, difference) lists over a ``{pid: coords}`` model."""
    query = np.asarray(query, dtype=np.float64)
    sets = {}
    for n in range(n0, n1 + 1):
        scored = sorted(
            (float(np.sort(np.abs(row - query))[n - 1]), pid)
            for pid, row in model.items()
        )
        sets[n] = [(pid, diff) for diff, pid in scored[:k]]
    return sets


def assert_matches_oracle(db, model, query, k):
    """k-n-match at every n and one frequent range, against the oracle."""
    d = db.dimensionality
    expected = oracle_sets(model, query, k, 1, d)
    for n in range(1, d + 1):
        result = db.k_n_match(query, k, n)
        assert result.ids == [pid for pid, _ in expected[n]], n
        assert result.differences == [diff for _, diff in expected[n]], n
    answer_sets = {n: [pid for pid, _ in expected[n]] for n in expected}
    result = db.frequent_k_n_match(query, k, (1, d))
    assert result.answer_sets == answer_sets
    assert (result.ids, result.frequencies) == rank_by_frequency(answer_sets, k)


@pytest.fixture(params=["scanned", "windowed"])
def path(request, monkeypatch):
    """Small segments scanned (the default) or forced through windows."""
    if request.param == "windowed":
        monkeypatch.setattr(segment_search, "SCAN_ROWS", 0)
    return request.param


def lsm_store(tmp_path, d, segments, memtable=(), deletes=()):
    """A store with one flushed segment per row block, largest first.

    Returns ``(store, model)``; ``deletes`` are applied last, so they
    mark rows inside the segments (and the memtable).
    """
    db = LsmMatchDatabase(
        tmp_path / "store", dimensionality=d, memtable_flush_rows=10**6,
        auto_compact=False,
    )
    model = {}
    for block in segments:
        for coords in block:
            model[db.insert(coords)] = np.asarray(coords, dtype=np.float64)
        db.flush()
    for coords in memtable:
        model[db.insert(coords)] = np.asarray(coords, dtype=np.float64)
    for pid in deletes:
        db.delete(pid)
        del model[pid]
    return db, model


class TestLsmEdges:
    def test_segment_with_fewer_live_rows_than_k(self, tmp_path, path):
        rng = np.random.default_rng(1)
        big, small = rng.random((60, 4)), rng.random((3, 4))
        db, model = lsm_store(
            tmp_path, 4, [big, small], memtable=rng.random((2, 4)),
            deletes=[61],  # leaves the small segment 2 live rows
        )
        for query in (small[0] + 0.01, rng.random(4)):
            assert_matches_oracle(db, model, query, 5)
        db.close()

    def test_fully_dead_segment(self, tmp_path, path):
        rng = np.random.default_rng(2)
        blocks = [rng.random((40, 4)), rng.random((6, 4)), rng.random((9, 4))]
        db, model = lsm_store(tmp_path, 4, blocks, deletes=range(40, 46))
        assert len(db._segments) == 3
        for query in (blocks[1][2], rng.random(4)):
            assert_matches_oracle(db, model, query, 4)
        db.close()

    def test_zero_cap_with_ties(self, tmp_path, path):
        rng = np.random.default_rng(3)
        target = np.array([0.5, 0.25, 0.75, 0.125])
        blocks = []
        for size in (30, 12, 8):
            block = rng.random((size, 4))
            block[::4] = target  # exact copies in every segment
            blocks.append(block)
        db, model = lsm_store(
            tmp_path, 4, blocks, memtable=[target, target], deletes=[4]
        )
        copies = sum(
            1 for row in model.values() if np.array_equal(row, target)
        )
        for k in (2, copies - 1, copies, copies + 2):
            assert_matches_oracle(db, model, target, k)
        db.close()

    def test_tie_heavy_grid_across_segments(self, tmp_path, path):
        rng = np.random.default_rng(4)
        blocks = [
            rng.integers(0, 4, size=(size, 5)).astype(np.float64)
            for size in (70, 20, 20, 9)
        ]
        db, model = lsm_store(
            tmp_path, 5, blocks,
            memtable=rng.integers(0, 4, size=(6, 5)).astype(np.float64),
            deletes=[0, 5, 71, 95, 119],
        )
        for query in rng.integers(0, 4, size=(4, 5)).astype(np.float64):
            for k in (1, 7, 25):
                assert_matches_oracle(db, model, query, k)
        db.close()

    def test_k_equal_to_live_count(self, tmp_path, path):
        rng = np.random.default_rng(5)
        blocks = [rng.random((12, 3)), rng.random((5, 3))]
        db, model = lsm_store(
            tmp_path, 3, blocks, memtable=rng.random((2, 3)),
            deletes=[1, 13, 17],
        )
        assert db.cardinality == len(model)
        assert_matches_oracle(db, model, rng.random(3), len(model))
        db.close()


class TestDynamicEdges:
    def test_dead_base_rows_and_buffer(self, path):
        rng = np.random.default_rng(6)
        data = rng.integers(0, 3, size=(40, 4)).astype(np.float64)
        db = DynamicMatchDatabase(data, min_buffer=1000)
        model = {pid: row for pid, row in enumerate(data)}
        for coords in rng.integers(0, 3, size=(5, 4)).astype(np.float64):
            model[db.insert(coords)] = coords
        for pid in (0, 3, 40, 17):
            db.delete(pid)
            del model[pid]
        for query in (data[5], rng.random(4) * 3):
            for k in (1, 6, len(model)):
                assert_matches_oracle(db, model, query, k)


class TestGrowWindows:
    def test_dead_rows_never_become_candidates(self):
        rng = np.random.default_rng(7)
        data = rng.random((300, 6))
        dead = np.zeros(300, dtype=bool)
        dead[::3] = True
        engine = BlockADEngine(data)
        masks, _attrs, _rounds, capped = engine.grow_windows(
            data[:2], 5, 2, 5, dead=dead
        )
        assert not (masks & dead).any()
        assert capped == [0, 0]

    def test_whole_database_branch_excludes_dead_rows(self):
        rng = np.random.default_rng(8)
        data = rng.random((20, 3))
        dead = np.ones(20, dtype=bool)
        dead[[2, 9]] = False  # two live rows, k = 4: never satisfied
        masks, _attrs, _rounds, _capped = BlockADEngine(data).grow_windows(
            data[:1], 4, 1, 3, dead=dead
        )
        np.testing.assert_array_equal(masks[0], ~dead)

    def test_caps_close_every_level(self):
        rng = np.random.default_rng(9)
        data = rng.random((2000, 8))
        query = data[10] + 0.001
        profiles = np.sort(np.abs(data - query), axis=1)
        caps = np.sort(profiles[:, 2:5], axis=0)[3][None]  # 4th smallest
        masks, _attrs, rounds, capped = BlockADEngine(data).grow_windows(
            query[None], 10, 3, 5, caps=caps
        )
        for n, cap in zip(range(3, 6), caps[0]):
            assert masks[0][profiles[:, n - 1] <= cap].all()
        # Four points reach each cap, fewer than k: each level runs one
        # round at its cap, and the cap closes it.
        assert capped == [3] and rounds == [3]

    def test_flat_schedule_unchanged_without_inputs(self):
        rng = np.random.default_rng(10)
        data = rng.random((3000, 8))
        engine = BlockADEngine(data)
        queries = data[:5] + 0.002
        plain = engine.grow_windows(queries, 10, 4, 6)
        again = engine.grow_windows(queries, 10, 4, 6, dead=None, caps=None)
        np.testing.assert_array_equal(plain[0], again[0])
        assert plain[1:] == again[1:]
        assert plain[3] == [0] * 5


def test_read_work_gate(tmp_path):
    """Rounds per read on a benchmark-shaped store, every answer exact.

    One L1 segment holding the bulk, four full L0 segments and an almost
    full memtable (the ``lsm-mixed`` preload), then 100 deletes spread
    over all of them.  With a full top-``k + dead`` search per segment
    this layout took 13.1 epsilon rounds per read; the pass takes 1.5.
    """
    rows, d, flush_rows, k, n = 20_000, 16, 256, 10, 8
    rng = np.random.default_rng([20, 16])
    data = rng.random((rows, d))
    tail = 5 * flush_rows - 4
    db = LsmMatchDatabase(
        tmp_path / "store", dimensionality=d, auto_compact=False,
        memtable_flush_rows=flush_rows, wal_sync_interval=4096,
    )
    db.insert_many(data[:-tail])
    db.flush()
    db.compact()
    db.insert_many(data[-tail:])
    assert [s.level for s in db._segments] == [1, 0, 0, 0, 0]
    live = np.ones(rows, dtype=bool)
    for pid in rng.choice(rows, size=100, replace=False):
        db.delete(int(pid))
        live[pid] = False
    ids = np.flatnonzero(live)
    rounds = []
    for i in range(50):
        query = data[int(rng.integers(rows))] + rng.normal(0.0, 0.01, d)
        result = db.k_n_match(query, k, n)
        rounds.append(epsilon_rounds_from_stats(result.stats, d))
        diffs = np.sort(np.abs(data[ids] - query), axis=1)[:, n - 1]
        order = np.lexsort((ids, diffs))[:k]
        assert result.ids == ids[order].tolist(), i
        assert result.differences == diffs[order].tolist(), i
    db.close()
    assert np.mean(rounds) <= 7


def test_flush_fsyncs_directories_in_order(tmp_path, monkeypatch):
    """Segment rename, then its directory fsync, then the manifest write;
    the WAL swap is followed by a fsync of the store directory."""
    db = LsmMatchDatabase(
        tmp_path / "store", dimensionality=2, auto_compact=False
    )
    db.insert([0.5, 0.5])
    events = []
    directories = {}
    real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

    def record_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if os.path.isdir(path):
            directories[fd] = os.path.basename(os.fspath(path))
        return fd

    def record_fsync(fd):
        if fd in directories:
            events.append(("dir-fsync", directories[fd]))
        return real_fsync(fd)

    def record_replace(src, dst):
        events.append(("rename", os.path.basename(os.fspath(dst))))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "open", record_open)
    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    db.flush()
    monkeypatch.undo()
    db.close()

    segment = next(i for i, e in enumerate(events) if e[1].endswith(".npz"))
    assert events[segment + 1] == ("dir-fsync", "segments")
    manifest = events.index(("rename", "MANIFEST.json"))
    assert segment + 1 < manifest
    assert events[manifest + 1] == ("dir-fsync", "store")
    wal = events.index(("rename", "wal.log"))
    assert manifest < wal
    assert events[wal + 1] == ("dir-fsync", "store")
