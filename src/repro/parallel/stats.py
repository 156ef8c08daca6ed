"""Execution accounting: what a run went through, defined once.

:class:`ExecutionStats` bundles shard transport, fault recovery and
incremental reuse.  Each :class:`~repro.plan.executor.PlanExecutor` owns
one, and every report folds its executors' stats with
:meth:`ExecutionStats.add`.  :class:`CacheStats` stays outside it: the
cache level differs per report (cell records for a study world, world
summaries for an ensemble), so folding them together would sum unlike
things.  None of it feeds results: datasets are byte-identical whatever
the accounting says.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields


def _add_counters(target, other) -> None:
    """Field-wise ``target += other`` for an all-int stats dataclass."""
    for f in fields(target):
        setattr(target, f.name, getattr(target, f.name) + getattr(other, f.name))


def _counters_dict(stats) -> dict[str, int]:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


@dataclass
class CacheStats:
    """One cache's hit/miss/invalid counters and the invalid reasons."""

    hits: int = 0
    misses: int = 0
    #: malformed entries met (each re-simulated and warned about)
    invalid: int = 0
    #: reason label → count (each cache caps its own histogram at
    #: :data:`~repro.sim.cache.INVALID_REASON_CAP` labels)
    invalid_reasons: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, cache) -> "CacheStats":
        """A snapshot of a :class:`~repro.sim.cache.RunCache`'s counters."""
        return cls(cache.hits, cache.misses, cache.invalid, dict(cache.invalid_reasons))

    def add(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.invalid += other.invalid
        for label, count in other.invalid_reasons.items():
            self.invalid_reasons[label] = self.invalid_reasons.get(label, 0) + count

    def to_dict(self) -> dict[str, int]:
        """The JSON ``cache``/``world_cache`` block (reasons stay out)."""
        return {"hits": self.hits, "misses": self.misses, "invalid": self.invalid}


@dataclass
class TransportStats:
    """How shard result stores crossed back to the merging process."""

    #: shared-memory blocks attached (one per shm-transported shard)
    blocks: int = 0
    #: column-payload bytes that crossed zero-copy through those blocks
    bytes: int = 0
    #: column bytes *copied* at attach time — 0 by construction for shm
    #: (the views alias the block); the acceptance gate asserts it
    copied_bytes: int = 0
    #: ``"inline"`` (never left this process), ``"shm"``, ``"pickle"``,
    #: or ``"mixed"`` when shards disagree (e.g. shm with fallbacks)
    mode: str = "inline"

    def note(self, result) -> None:
        """Fold one shard result's transport evidence."""
        stats = result.store.transport_stats
        if stats is not None:
            self.blocks += stats.get("blocks", 0)
            self.bytes += stats.get("bytes", 0)
            self.copied_bytes += stats.get("copied_bytes", 0)
            mode = "shm"
        elif result.worker_pid not in (-1, os.getpid()):
            mode = "pickle"
        else:
            mode = "inline"
        self._fold_mode(mode)

    def add(self, other: "TransportStats") -> None:
        self.blocks += other.blocks
        self.bytes += other.bytes
        self.copied_bytes += other.copied_bytes
        self._fold_mode(other.mode)

    def _fold_mode(self, mode: str) -> None:
        if self.mode == "inline":
            self.mode = mode
        elif mode != "inline" and mode != self.mode:
            self.mode = "mixed"

    def summary(self) -> str:
        """One human line, e.g. ``shm, 12 blocks, 1.4 MB shipped``."""
        if self.blocks == 0:
            return self.mode
        per_shard = self.bytes / self.blocks
        return (
            f"{self.mode}, {self.blocks} blocks, "
            f"{_fmt_bytes(self.bytes)} shipped "
            f"({_fmt_bytes(per_shard)}/shard, "
            f"{_fmt_bytes(self.copied_bytes)} copied at merge)"
        )


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "kB", "MB"):
        if n < 1000 or unit == "MB":
            return f"{n:.0f} {unit}" if unit == "B" else f"{n:.1f} {unit}"
        n /= 1000
    return f"{n:.1f} MB"


@dataclass
class FaultStats:
    """Every recovery event the execution path survived."""

    #: transient failures re-dispatched with backoff
    retries: int = 0
    #: flights resubmitted because their pool died under them
    requeues: int = 0
    #: pool teardown/rebuild cycles
    rebuilds: int = 0
    #: per-shard deadlines that expired
    timeouts: int = 0
    #: drops down the workers→serial ladder (degrade events and final
    #: inline rungs)
    serial_hops: int = 0
    #: faults attributed to the chaos harness (:mod:`repro.chaos`)
    injected: int = 0
    #: shards re-attached from the checkpoint journal on ``--resume``
    resumed: int = 0

    add = _add_counters
    to_dict = _counters_dict

    @property
    def activity(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))


@dataclass
class ReuseStats:
    """What incremental execution reused, executed, and rejected."""

    #: cells the diff classified reusable / dirty
    planned_reusable: int = 0
    planned_dirty: int = 0
    #: cells actually attached from the cell-level cache
    attached: int = 0
    #: cells dispatched to shard execution (dirty + cold/invalid reuse)
    executed: int = 0
    #: malformed cell-summary entries met on the reuse path — each one
    #: flowed through :meth:`~repro.sim.cache.RunCache.note_invalid`
    #: and re-executed; surfaced so degradation is never silent
    invalid: int = 0

    add = _add_counters
    to_dict = _counters_dict


@dataclass
class ExecutionStats:
    """Transport, recovery and reuse accounting for one or more runs."""

    transport: TransportStats = field(default_factory=TransportStats)
    faults: FaultStats = field(default_factory=FaultStats)
    #: ``None`` unless an incremental executor contributed
    reuse: ReuseStats | None = None

    def add(self, other: "ExecutionStats") -> None:
        self.transport.add(other.transport)
        self.faults.add(other.faults)
        if other.reuse is not None:
            if self.reuse is None:
                self.reuse = ReuseStats()
            self.reuse.add(other.reuse)

    def to_dict(self) -> dict:
        """``cell_reuse`` iff incremental, ``faults`` iff recovery saw
        action.  Transport stays out: it varies with the worker count."""
        out: dict = {}
        if self.reuse is not None:
            out["cell_reuse"] = self.reuse.to_dict()
        if self.faults.activity:
            out["faults"] = self.faults.to_dict()
        return out
