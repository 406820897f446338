"""The block engines' epsilon schedule: work gates and honest counters.

The schedule (sample seed, level pointer, clamped growth) only decides
how much work a query does, never its answer.  Its work counters are
deterministic on seeded data, so they are gated tightly here, and the
counters the engines report must agree with what actually ran: the
rounds implied by ``binary_search_probes`` equal the ``round`` spans
recorded, on ordinary data and on every edge of the seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ad_block import BlockADEngine
from repro.core.naive import NaiveScanEngine
from repro.obs import SpanCollector, epsilon_rounds_from_stats
from repro.parallel import BatchBlockADEngine

#: Mean ``attributes_retrieved`` of the round-by-round schedule this one
#: replaced (start from the nearest attributes, grow eps by the clamped
#: deficit factor), on the workload below.
PREVIOUS_ATTRIBUTES = {"k_n_match": 102911.26, "frequent": 262342.1}


@pytest.fixture(scope="module")
def uniform_workload():
    """Uniform 50,000 x 16 data, 50 queries: data rows + N(0, 0.01)."""
    rng = np.random.default_rng(12)
    data = rng.random((50_000, 16))
    rows = rng.choice(50_000, 50, replace=False)
    queries = data[rows] + rng.normal(0.0, 0.01, (50, 16))
    return BlockADEngine(data), queries


def _mean_rounds(stats, d):
    return float(np.mean([epsilon_rounds_from_stats(s, d) for s in stats]))


def _mean_attributes(stats):
    return float(np.mean([s.attributes_retrieved for s in stats]))


class TestWorkGates:
    def test_k_n_match(self, uniform_workload):
        engine, queries = uniform_workload
        stats = [engine.k_n_match(q, 10, 8).stats for q in queries]
        assert _mean_rounds(stats, 16) <= 3
        assert _mean_attributes(stats) <= 1.1 * PREVIOUS_ATTRIBUTES["k_n_match"]

    def test_frequent(self, uniform_workload):
        engine, queries = uniform_workload
        stats = [
            engine.frequent_k_n_match(q, 10, (4, 12)).stats for q in queries
        ]
        assert _mean_rounds(stats, 16) <= 18
        assert _mean_attributes(stats) <= 1.1 * PREVIOUS_ATTRIBUTES["frequent"]


def _tie_heavy():
    rng = np.random.default_rng(5)
    data = rng.integers(0, 4, (2_000, 6)).astype(float)
    return data, data[:4] + np.array([0.0, 0.0, 0.0, 1.0])[:, None]


def _small_uniform():
    rng = np.random.default_rng(6)
    data = rng.random((300, 5))
    return data, rng.random((4, 5))


def _single_row():
    data = np.array([[0.25, 0.5, 0.75]])
    return data, np.array([[0.3, 0.5, 0.7], [0.25, 0.5, 0.75]])


def _zero_seed():
    # Half the rows equal the query, so the sample's n-match
    # differences and hence the seed are 0.
    data = np.array([[0.5, 0.5, 0.5]] * 300 + [[0.6, 0.7, 0.8]] * 300)
    return data, np.array([[0.5, 0.5, 0.5]])


#: (case name, data + queries factory, k, n, frequent n-range)
CASES = [
    ("tie_heavy", _tie_heavy, 10, 3, (1, 6)),
    ("c_below_sample", _small_uniform, 7, 3, (2, 5)),
    ("c_equals_1", _single_row, 1, 2, (1, 3)),
    ("k_equals_c", _small_uniform, 300, 4, (1, 5)),
    ("zero_seed", _zero_seed, 5, 3, (1, 3)),
    ("zero_seed_past_the_ties", _zero_seed, 350, 3, (1, 3)),
]


@pytest.mark.parametrize(
    "factory,k,n,n_range", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
class TestCountersHonest:
    def test_serial(self, factory, k, n, n_range):
        data, queries = factory()
        d = data.shape[1]
        naive = NaiveScanEngine(data)
        spans = SpanCollector()
        engine = BlockADEngine(data, spans=spans)
        for query in queries:
            for kind, argument in (
                ("k_n_match", n), ("frequent_k_n_match", n_range)
            ):
                result = getattr(engine, kind)(query, k, argument)
                root = spans.traces()[-1]
                expected = getattr(naive, kind)(query, k, argument)
                _assert_same_answer(result, expected)
                rounds = len(root.find("round"))
                assert rounds >= 1
                assert epsilon_rounds_from_stats(result.stats, d) == rounds
                assert result.stats.binary_search_probes == d + 2 * d * rounds
                (grow,) = root.find("window_grow")
                assert grow.meta["rounds"] == rounds

    def test_batch(self, factory, k, n, n_range):
        data, queries = factory()
        d = data.shape[1]
        naive = NaiveScanEngine(data)
        spans = SpanCollector()
        engine = BatchBlockADEngine(data, spans=spans)
        runs = (
            (
                engine.k_n_match_batch(queries, k, n),
                [naive.k_n_match(q, k, n) for q in queries],
            ),
            (
                engine.frequent_k_n_match_batch(
                    queries, k, n_range, keep_answer_sets=True
                ),
                [naive.frequent_k_n_match(q, k, n_range) for q in queries],
            ),
        )
        for root, (results, expected) in zip(spans.traces(), runs):
            for result, oracle in zip(results, expected):
                _assert_same_answer(result, oracle)
            per_query = [
                epsilon_rounds_from_stats(r.stats, d) for r in results
            ]
            round_spans = root.find("round")
            # Lock-step: one span per round, each naming the queries it
            # advanced, so the spans account for every query's rounds.
            assert len(round_spans) == max(per_query)
            assert sum(s.meta["queries"] for s in round_spans) == sum(per_query)
            (lockstep,) = root.find("lockstep")
            assert lockstep.meta["rounds"] == max(per_query)
            for result, rounds in zip(results, per_query):
                assert result.stats.binary_search_probes == d + 2 * d * rounds


def test_zero_seed_case_has_zero_seed():
    data, queries = _zero_seed()
    engine = BlockADEngine(data)
    for k in (5, 350):
        assert engine.seed_epsilons(queries, k, 1, 3).max() == 0.0


def test_seeds_do_not_depend_on_the_batch():
    rng = np.random.default_rng(8)
    data = rng.random((3_000, 8))
    queries = rng.random((40, 8))
    engine = BlockADEngine(data)
    together = engine.seed_epsilons(queries, 10, 2, 7)
    alone = np.vstack([engine.seed_epsilons(q[None], 10, 2, 7) for q in queries])
    assert np.array_equal(together, alone)


def _assert_same_answer(result, expected):
    assert result.ids == expected.ids
    if hasattr(expected, "differences"):
        assert result.differences == expected.differences
    else:
        assert result.frequencies == expected.frequencies
        assert result.answer_sets == expected.answer_sets
