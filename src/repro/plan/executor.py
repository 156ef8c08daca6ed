"""The one executor every front-end shares.

A :class:`PlanExecutor` runs any :class:`~repro.plan.ir.RunPlan` —
serially for ``workers=1``, through the :mod:`repro.parallel` process
pool otherwise — and hands results back **in plan order** regardless of
worker count or completion order.  That single ordering guarantee is
what makes every front-end's output byte-identical across worker
counts: the shards are pure functions, the pool preserves submission
order, and the merge folds per world in shard-plan order.

Shard batches stream through
:func:`~repro.parallel.pool.pmap_chunked`, so peak memory is bounded by
one chunk of shard results (plus the world currently being folded) —
an ensemble of hundreds of worlds never holds more than a window of
records at a time.

Every run takes one path, attach then dispatch: cells that can attach
from the cache do, the rest execute through the pool, and results
regroup per world in plan order.  Under ``resume=True`` every cell the
checkpoint journal (:mod:`repro.plan.journal`) proves complete
attaches; otherwise a plain run attaches nothing.

**The incremental schedule** (``incremental=True``) is baseline first,
and it lives here only:

1. the plan's own baseline worlds (:meth:`RunPlan.split_baseline`)
   execute first, attaching only journaled cells under ``resume`` —
   their cell summaries land in the cache as they run;
2. the remaining worlds are diffed (:func:`repro.plan.diff.diff_plans`)
   against those baseline worlds plus the optional ``baseline=`` plan,
   an extra diff-only baseline whose cells some earlier run cached;
   every cell the diff proves untouched attaches its folded summary,
   and the rest execute.

Worlds still come back in plan order: a baseline world the plan puts
after a non-baseline world is held until its turn, so the usual plans
(baseline injected first) hold nothing.  :attr:`stats.reuse
<repro.parallel.stats.ExecutionStats.reuse>` accounts for the diffed
worlds.

A cell whose cache entry is cold or malformed executes instead of
attaching.  Results are byte-identical to a from-scratch run either
way: attachment only ever substitutes a cached result stored under the
same content-addressed key the cell would recompute.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

from repro.core.incidents import Incident
from repro.errors import ConfigurationError
from repro.parallel.merge import MergedStudy, merge_shard_results
from repro.parallel.pool import RetryPolicy, pmap_chunked
from repro.parallel.shard import (
    ShardResult,
    StudyShard,
    attach_shard,
    execute_shard,
    shard_summary_key,
)
from repro.parallel.stats import ExecutionStats, ReuseStats
from repro.plan.ir import PlanWorld, RunPlan
from repro.plan.journal import ExecutionJournal
from repro.sim.cache import RunCache
from repro.telemetry import count as telemetry_count
from repro.telemetry import current_tracer, enabled, span


def require_cache_dir(
    cache_dir: str | None, *, incremental: bool = False, resume: bool = False
) -> None:
    """Fail fast when a mode that re-attaches cells has no cache directory.

    Both incremental reuse and resume attach cells from the cell-level
    cache (resume also reads the journal kept beside it), so neither can
    run without one.  Every runner calls this at construction.
    """
    if cache_dir is not None:
        return
    if incremental:
        raise ConfigurationError(
            "incremental execution needs a cache directory: reusable "
            "cells attach from the cell-level cache the baseline run "
            "wrote (pass cache_dir=...)"
        )
    if resume:
        raise ConfigurationError(
            "resume needs a cache directory: completed cells re-attach "
            "through the journal and caches the interrupted run wrote "
            "(pass cache_dir=...)"
        )


class PlanExecutor:
    """Executes a compiled :class:`RunPlan`, streaming worlds in order."""

    def __init__(
        self,
        plan: RunPlan,
        *,
        workers: int = 1,
        incremental: bool = False,
        baseline: RunPlan | None = None,
        retry: RetryPolicy | None = None,
        chaos: object | None = None,
        resume: bool = False,
    ):
        require_cache_dir(plan.cache_dir, incremental=incremental, resume=resume)
        self.plan = plan
        self.workers = workers
        self.incremental = incremental
        #: extra diff-only baseline for incremental runs, on top of the
        #: plan's own baseline worlds (:meth:`RunPlan.split_baseline`)
        self.baseline = baseline
        #: the diff of the non-baseline worlds (populated once the
        #: baseline worlds of an incremental run have executed)
        self.diff = None
        #: retry ladder for the pool (defaults are production-sane)
        self.retry = retry if retry is not None else RetryPolicy()
        #: fault-injection plan stamped onto every dispatched shard
        #: (:class:`repro.chaos.FaultPlan`); ``None`` = no chaos
        self.chaos = chaos
        #: re-attach cells the journal proves complete instead of
        #: executing them (:mod:`repro.plan.journal`)
        self.resume = resume
        #: what this execution went through: shard transport, recovery
        #: events (all zeros for a clean run) and, for incremental runs
        #: only, cell reuse
        self.stats = ExecutionStats(reuse=ReuseStats() if incremental else None)

    def _chunk_size(self) -> int:
        # A chunk spans several small worlds (or part of one large one);
        # only one chunk of shard results is ever alive at a time.
        counts = self.plan.world_shard_counts()
        first = counts[0][1] if counts else 0
        return max(first, max(1, self.workers) * 4, 1)

    def _transport_mode(self) -> str:
        """How shard stores cross back from workers.

        Shared-memory blocks when the pool really crosses process
        boundaries and the platform supports them; pickling through the
        pool pipe otherwise — inline execution (``workers<=1``) never
        pays the packing cost.  Results are byte-identical either way.
        """
        if self.workers <= 1:
            return "pickle"
        from repro.parallel.transport import shm_available

        return "shm" if shm_available() else "pickle"

    def _dispatchable(self, shards: Sequence[StudyShard]) -> tuple[StudyShard, ...]:
        """Shards as dispatched: trace- and transport-marked.

        The flags only tell :func:`~repro.parallel.shard.execute_shard`
        to record spans (``trace``) and how to ship the result store
        back (``transport``) — cache keys hash explicit shard fields,
        so any marking keys (and computes) identically.
        """
        traced = enabled()
        mode = self._transport_mode()
        if not traced and mode == "pickle" and self.chaos is None:
            return tuple(shards)
        return tuple(
            dataclasses.replace(
                s,
                trace=traced or s.trace,
                transport=mode,
                chaos=self.chaos if self.chaos is not None else s.chaos,
            )
            for s in shards
        )

    def _absorb_traces(self, results: list[ShardResult]) -> None:
        """Move worker span snapshots off the results into the tracer.

        The snapshot is enriched with the pool's tags (dispatch ordinal,
        measured worker wall seconds) and then dropped from the result,
        so downstream merging sees exactly what an untraced run carries.
        """
        tracer = current_tracer()
        for r in results:
            if r.trace is None:
                continue
            if tracer is not None:
                snapshot = r.trace
                if r.dispatch_ordinal >= 0:
                    snapshot["dispatch_ordinal"] = r.dispatch_ordinal
                if r.worker_seconds:
                    snapshot["worker_seconds"] = r.worker_seconds
                tracer.absorb(snapshot)
            r.trace = None

    def _journal(self) -> ExecutionJournal | None:
        """The checkpoint journal, when there is a cache to anchor it.

        Journaling is unconditional with a cache directory: it is what
        makes *this* run resumable if it dies, not a resume-mode-only
        artifact.  Without a cache there is nothing to re-attach
        through, so there is nothing worth journaling.
        """
        if self.plan.cache_dir is None:
            return None
        return ExecutionJournal(self.plan.cache_dir)

    def _journaled_results(
        self, to_run: Sequence[StudyShard], journal: ExecutionJournal | None
    ) -> Iterator[ShardResult]:
        """Execute ``to_run`` through the pool, journaling as drained.

        Each completed cell is journaled the moment its result is
        *retrieved* (the pool's per-delivery hook) — before the chunk
        it belongs to is yielded, before the caller folds it — so a
        crash mid-chunk or mid-world still banks every drained cell
        for ``--resume``.  Deliveries arrive strictly in ``to_run``
        order, so pairing them with the shard list by position is
        sound.
        """
        keys = iter(to_run)

        def bank(_result) -> None:
            if journal is not None:
                journal.record(shard_summary_key(next(keys)))

        batches = pmap_chunked(
            execute_shard,
            self._dispatchable(to_run),
            workers=self.workers,
            chunk_size=self._chunk_size(),
            policy=self.retry,
            stats=self.stats.faults,
            on_result=bank,
        )
        for batch in batches:
            yield from batch

    def _attach(
        self,
        plan: RunPlan,
        journaled: set[str],
        reusable: frozenset[int] = frozenset(),
    ) -> tuple[dict[int, ShardResult], int]:
        """Cells of ``plan`` that attach from the cache instead of executing.

        Returns the attached results by shard index and the number of
        malformed cache entries met.  The attach set is the diff's
        ``reusable`` cells plus the cells the journal proves complete
        (``journaled``, empty unless resuming).  Probes happen up front
        — the pool needs its work list before submission — so the map
        peaks at the whole attach set; each entry is a *folded* cell
        summary, tiny next to the simulation it replaces, and is popped
        as its world yields.  A cell whose cache entry is cold or
        malformed silently stays on the execute list, so reuse and
        resume degrade to re-execution, never to a hole in the tables;
        malformed entries also flow through :meth:`RunCache.note_invalid`.
        """
        attached: dict[int, ShardResult] = {}
        if not (reusable or journaled):
            return attached, 0
        cache = RunCache(plan.cache_dir)
        with span("plan.attach", reusable=len(reusable), journaled=len(journaled)):
            for shard in plan.shards:
                if shard.index in reusable or (
                    journaled and shard_summary_key(shard) in journaled
                ):
                    result = attach_shard(shard, cache)
                    if result is not None:
                        attached[shard.index] = result
        resumed = sum(1 for index in attached if index not in reusable)
        if resumed:
            self.stats.faults.resumed += resumed
            telemetry_count("fault.resumed", resumed)
        return attached, cache.invalid

    def _stream(
        self,
        plan: RunPlan,
        attached: dict[int, ShardResult],
        journal: ExecutionJournal | None,
    ) -> Iterator[tuple[PlanWorld, list[ShardResult]]]:
        """Yield (world, its shard results) for ``plan``, in plan order.

        Cells not in ``attached`` execute across the worker pool in plan
        order.  Results are regrouped by each world's shard count, so a
        world is yielded the moment its last cell returns — no barrier
        across worlds — and attached and executed cells are
        indistinguishable in the groups.  Every yielded result's
        transport is noted in :attr:`stats`.
        """
        to_run = [s for s in plan.shards if s.index not in attached]
        results = self._journaled_results(to_run, journal)
        shards = iter(plan.shards)
        for world, n_shards in plan.world_shard_counts():
            # The world span stays open across the yield, so the
            # caller's fold of this world is attributed to it.
            with span("plan.world", world=world.index, shards=n_shards):
                world_results = []
                for _ in range(n_shards):
                    shard = next(shards)
                    result = attached.pop(shard.index, None)
                    world_results.append(
                        result if result is not None else next(results)
                    )
                assert all(r.world == world.index for r in world_results)
                self._absorb_traces(world_results)
                for result in world_results:
                    self.stats.transport.note(result)
                yield world, world_results

    def _baseline_first(
        self, journal: ExecutionJournal | None, journaled: set[str]
    ) -> Iterator[tuple[PlanWorld, list[ShardResult]]]:
        """The incremental schedule (module docstring), in plan order."""
        from repro.plan.diff import diff_plans

        base, rest = self.plan.split_baseline()
        first_variant = rest.worlds[0].index if rest.worlds else None
        # baseline worlds the plan lists after a non-baseline world wait
        held: list[tuple[PlanWorld, list[ShardResult]]] = []
        attached, _ = self._attach(base, journaled)
        for world, results in self._stream(base, attached, journal):
            if first_variant is None or world.index < first_variant:
                yield world, results
            else:
                held.append((world, results))
        # Drop the loop variables: they would keep the last baseline
        # world's shard results alive while the other worlds run.
        world = results = None

        # The baseline cells are in the cache now: diff the rest against
        # them and attach every cell the diff proves untouched.
        baseline = base
        if self.baseline is not None:
            baseline = RunPlan.concat(base, self.baseline)
        with span("plan.diff"):
            self.diff = diff_plans(baseline, rest)
        attached, invalid = self._attach(rest, journaled, self.diff.reusable_indices())
        self.stats.reuse = ReuseStats(
            planned_reusable=self.diff.n_reusable,
            planned_dirty=self.diff.n_dirty,
            attached=len(attached),
            executed=rest.n_shards - len(attached),
            invalid=invalid,
        )
        for name, value in self.stats.reuse.to_dict().items():
            telemetry_count(f"plan.reuse.{name}", value)
        for world, results in self._stream(rest, attached, journal):
            while held and held[0][0].index < world.index:
                yield held.pop(0)
            yield world, results
        yield from held

    def iter_world_results(self) -> Iterator[tuple[PlanWorld, list[ShardResult]]]:
        """Yield (world, its shard results) in plan order.

        A plain (or resumed) run streams the whole plan in one pass; an
        incremental run takes the baseline-first schedule.
        """
        with span(
            "plan.run",
            shards=len(self.plan.shards),
            workers=self.workers,
            incremental=self.incremental,
        ):
            journal = self._journal()
            try:
                # resume implies a cache directory, hence a journal
                journaled = journal.completed() if self.resume else set()
                if self.incremental:
                    yield from self._baseline_first(journal, journaled)
                else:
                    attached, _ = self._attach(self.plan, journaled)
                    yield from self._stream(self.plan, attached, journal)
            finally:
                if journal is not None:
                    journal.close()

    def merged_worlds(
        self,
        *,
        seed_incidents: dict[str, list[Incident]] | None = None,
    ) -> Iterator[tuple[PlanWorld, MergedStudy]]:
        """Yield (world, deterministically merged campaign) in plan order.

        ``seed_incidents`` seeds every world's incident log with a fresh
        copy (container-build incidents precede fault incidents per
        environment, exactly as in the serial campaign).
        """
        for world, results in self.iter_world_results():
            incidents = {
                env: list(incs) for env, incs in (seed_incidents or {}).items()
            }
            with span("plan.merge", world=world.index, shards=len(results)):
                merged = merge_shard_results(results, incidents=incidents)
            # Not pinned while the caller folds and the next world runs.
            del results
            yield world, merged

    def run(
        self,
        *,
        seed_incidents: dict[str, list[Incident]] | None = None,
    ) -> list[tuple[PlanWorld, MergedStudy]]:
        """Execute the whole plan; every world merged, in plan order."""
        return list(self.merged_worlds(seed_incidents=seed_incidents))
