"""Deterministic merge of per-shard results into one campaign.

The merge is the synchronization point of the shard-then-merge design:
shard results may arrive from any number of worker processes, but they
are folded back in *plan order* (the shard's ``index``), so the merged
dataset, incident log, spend, and cluster count are byte-identical to a
serial execution of the same plan — regardless of worker count or
completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.incidents import Incident, merge_incident_logs
from repro.core.results import ResultStore
from repro.parallel.shard import ShardResult
from repro.parallel.stats import CacheStats


@dataclass
class MergedStudy:
    """The campaign-level fold of every shard."""

    store: ResultStore = field(default_factory=ResultStore)
    incidents: dict[str, list[Incident]] = field(default_factory=dict)
    spend_by_cloud: dict[str, float] = field(default_factory=dict)
    clusters_created: int = 0
    #: per-record cache counters, summed across shards
    cache: CacheStats = field(default_factory=CacheStats)


def merge_shard_results(
    results: Iterable[ShardResult],
    *,
    incidents: dict[str, list[Incident]] | None = None,
) -> MergedStudy:
    """Fold shard results in plan order.

    ``incidents`` seeds the merged incident log — the study runner passes
    the container-build incidents recorded before sharding, so build
    incidents precede fault incidents per environment exactly as in the
    serial campaign.
    """
    merged = MergedStudy(incidents=incidents if incidents is not None else {})
    for shard in sorted(results, key=lambda r: r.index):
        # Columnar concatenation: buffers append to buffers in plan
        # order; no row objects materialize on the merge path.
        merged.store.absorb(shard.store)
        merge_incident_logs(merged.incidents, shard.env_id, shard.incidents)
        for cloud, spend in shard.spend_by_cloud.items():
            merged.spend_by_cloud[cloud] = merged.spend_by_cloud.get(cloud, 0.0) + spend
        merged.clusters_created += shard.clusters_created
        merged.cache.add(shard.cache)
    return merged
