"""Sharded, parallel study execution (shard → pool → merge).

The campaign is embarrassingly parallel at the paper's own granularity —
one cluster per (environment, size) cell (§2.9).  This package plans the
cells (:mod:`~repro.parallel.shard`), executes them across a process
pool (:mod:`~repro.parallel.pool`), and folds the results back together
deterministically (:mod:`~repro.parallel.merge`).  Seeds are derived
per-cell from keyed streams, never from call order, so any worker count
yields a byte-identical :class:`~repro.core.results.ResultStore`.

Results cross the pool zero-copy when the platform allows: workers pack
their column arrays into shared-memory blocks and ship only a small
descriptor (:mod:`~repro.parallel.transport`), falling back to plain
column pickling wherever ``/dev/shm`` isn't available.

Execution is fault-tolerant: per-shard futures retry transient failures
with deterministic backoff under a :class:`~repro.parallel.pool.RetryPolicy`,
broken pools rebuild and requeue, stragglers past their deadline are
re-dispatched, and exhausted retries degrade workers→serial — with
every run's accounting in :mod:`~repro.parallel.stats`.
"""

from repro.parallel.merge import (
    MergedStudy,
    merge_incident_logs,
    merge_shard_results,
)
from repro.parallel.pool import RetryPolicy, pmap
from repro.parallel.shard import ShardResult, StudyShard, execute_shard, plan_shards
from repro.parallel.stats import (
    CacheStats,
    ExecutionStats,
    FaultStats,
    ReuseStats,
    TransportStats,
)
from repro.parallel.transport import reap_segments, shm_available

__all__ = [
    "CacheStats",
    "ExecutionStats",
    "FaultStats",
    "MergedStudy",
    "RetryPolicy",
    "ReuseStats",
    "ShardResult",
    "StudyShard",
    "TransportStats",
    "execute_shard",
    "merge_incident_logs",
    "merge_shard_results",
    "plan_shards",
    "pmap",
    "reap_segments",
    "shm_available",
]
