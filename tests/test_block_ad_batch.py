"""Block-AD's native batch path against per-query block-AD and the oracle.

``block-ad`` answers a batch by growing every query's epsilon windows in
lock-step (chunks of ``BlockADEngine.DEFAULT_CHUNK`` queries) and then
refining each query on its own.  The contract: for every query of the
batch, the answer is bit-identical to a one-at-a-time ``block-ad`` call
and to the naive oracle, and its ``SearchStats`` equal the serial call's.
``batch-block-ad`` is another name for the same code and must return
the same results.

Each case runs through the flat facade and through a 2-shard facade on
both scatter backends, for k-n-match and for frequent k-n-match over
``(4, 12)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ad_block import BlockADEngine
from repro.core.engine import MatchDatabase
from repro.shard import ShardedMatchDatabase

D = 16
N = 8
N_RANGE = (4, 12)


def _perturbed(rng, data, count):
    rows = rng.choice(data.shape[0], size=count, replace=count > data.shape[0])
    return data[rows] + rng.normal(0.0, 0.01, size=(count, data.shape[1]))


def _uniform_33(rng):
    # One more query than a lock-step chunk: the second chunk has one row.
    data = rng.random((2_000, D))
    return data, _perturbed(rng, data, BlockADEngine.DEFAULT_CHUNK + 1), 10


def _empty(rng):
    return rng.random((200, D)), np.empty((0, D)), 5


def _small(rng):
    # Fewer rows than the epsilon seed sample.
    data = rng.random((300, D))
    return data, _perturbed(rng, data, 9), 10


def _k_equals_c(rng):
    data = rng.random((40, D))
    return data, _perturbed(rng, data, 5), data.shape[0]


def _tie_grid(rng):
    # Integer grid: ties at every difference, the tie-break worst case.
    data = rng.integers(0, 5, size=(800, D)).astype(np.float64)
    queries = rng.integers(0, 5, size=(12, D)).astype(np.float64)
    return data, queries, 10


CASES = {
    "uniform-33": _uniform_33,
    "empty": _empty,
    "c-below-seed-sample": _small,
    "k-equals-c": _k_equals_c,
    "tie-grid": _tie_grid,
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    rng = np.random.default_rng(sum(map(ord, request.param)))
    return CASES[request.param](rng)


@pytest.fixture(params=["flat", "thread", "process"])
def facade(request, case):
    data = case[0]
    if request.param == "flat":
        yield MatchDatabase(data)
        return
    with ShardedMatchDatabase(data, shards=2, backend=request.param) as db:
        yield db


def _assert_match(result, expected, stats=True):
    assert result.ids == expected.ids
    assert result.differences == expected.differences
    if stats:
        assert result.stats == expected.stats


def _assert_frequent(result, expected, stats=True):
    assert result.ids == expected.ids
    assert result.frequencies == expected.frequencies
    assert result.answer_sets == expected.answer_sets
    if stats:
        assert result.stats == expected.stats


def test_k_n_match_batch(case, facade):
    data, queries, k = case
    oracle = MatchDatabase(data)
    batch = facade.k_n_match_batch(queries, k, N, engine="block-ad")
    alias = facade.k_n_match_batch(queries, k, N, engine="batch-block-ad")
    assert len(batch) == len(alias) == len(queries)
    for query, result, named in zip(queries, batch, alias):
        serial = facade.k_n_match(query, k, N, engine="block-ad")
        _assert_match(result, serial)
        _assert_match(result, oracle.k_n_match(query, k, N, engine="naive"),
                      stats=False)
        _assert_match(named, result)


def test_frequent_k_n_match_batch(case, facade):
    data, queries, k = case
    oracle = MatchDatabase(data)
    batch = facade.frequent_k_n_match_batch(
        queries, k, N_RANGE, engine="block-ad", keep_answer_sets=True
    )
    alias = facade.frequent_k_n_match_batch(
        queries, k, N_RANGE, engine="batch-block-ad", keep_answer_sets=True
    )
    assert len(batch) == len(alias) == len(queries)
    for query, result, named in zip(queries, batch, alias):
        serial = facade.frequent_k_n_match(
            query, k, N_RANGE, engine="block-ad", keep_answer_sets=True
        )
        _assert_frequent(result, serial)
        expected = oracle.frequent_k_n_match(
            query, k, N_RANGE, engine="naive", keep_answer_sets=True
        )
        _assert_frequent(result, expected, stats=False)
        _assert_frequent(named, result)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_shard_epsilon_rounds_sum_the_per_query_rounds(backend):
    from repro.obs import MetricsRegistry, epsilon_rounds_from_stats

    rng = np.random.default_rng(5)
    data, queries, k = _uniform_33(rng)
    registry = MetricsRegistry()
    with ShardedMatchDatabase(
        data, shards=2, metrics=registry, backend=backend
    ) as db:
        db.k_n_match_batch(queries, k, N, engine="block-ad")
        db.frequent_k_n_match_batch(queries, k, N_RANGE, engine="block-ad")
        db.k_n_match(queries[0], k, N, engine="block-ad")
        db.k_n_match_batch(queries, k, N, engine="naive")
        expected = 0
        for index in range(db.shard_count):
            shard = db.shard(index)
            results = (
                shard.k_n_match_batch(queries, k, N, engine="block-ad")
                + shard.frequent_k_n_match_batch(
                    queries, k, N_RANGE, engine="block-ad"
                )
                + [shard.k_n_match(queries[0], k, N, engine="block-ad")]
            )
            expected += sum(
                epsilon_rounds_from_stats(result.stats, D)
                for result in results
            )
    family = registry.get("repro_shard_epsilon_rounds_total")
    assert expected > 0
    assert sum(child.value for child in family.children()) == expected
