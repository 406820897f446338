"""Batch query execution: thread-pool sharding of any engine's batch.

:class:`ParallelBatchExecutor` shards a batch across a thread pool with
work-stealing slack, aggregating per-shard
:class:`~repro.core.types.SearchStats` into a :class:`BatchStats`.  An
engine with a native batch path keeps it per shard: block-AD grows each
shard's windows in lock-step (see
:meth:`~repro.core.ad_block.BlockADEngine.k_n_match_batch`).

:class:`BatchBlockADEngine` is re-exported here for callers of the
``batch-block-ad`` name; it is :class:`~repro.core.ad_block.BlockADEngine`
under another name.  See ``docs/batching.md`` for the design discussion.
"""

from ..core.ad_block import BatchBlockADEngine
from .executor import ParallelBatchExecutor
from .stats import BatchStats

__all__ = ["BatchBlockADEngine", "BatchStats", "ParallelBatchExecutor"]
