"""The execution engine: environment + app + scale → run record.

:class:`ExecutionEngine` performs, for each run, what the study's
orchestration did for each job:

1. resolve the environment's placement at this size (and hence the
   *effective* fabric via the topology model);
2. apply the container stack's fabric state (an untuned Azure UCX image
   carries the latency quirk; tuned images do not — the engine assumes
   the study's final, tuned containers unless told otherwise);
3. sample the hookup time (Azure's anomaly lives here);
4. run the application model;
5. apply the walltime policy (cloud runs had to finish within the
   budget-dictated window; §3.3 gives 15–20 minutes for Laghos) and
   the app's own failure modes;
6. price the run (nodes × instance cost × wall time).

Engines are deterministic given (seed, env, app, scale, iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.apps.base import AppModel, RunContext
from repro.apps.registry import app as app_lookup
from repro.cloud.catalog import effective_rate
from repro.cloud.placement import apply_placement
from repro.envs.environment import Environment, EnvironmentKind
from repro.errors import EnvironmentUnavailableError
from repro.machine.gpu import sample_ecc_settings
from repro.network.collectives import CollectiveModel
from repro.network.fabric import Fabric
from repro.network.hookup import hookup_block, hookup_stream_block, hookup_time
from repro.network.quirks import AZURE_UNTUNED_UCX
from repro.network.topology import effective_fabric
from repro.rng import co_seed, stream, stream_block
from repro.scenarios.apply import overlay_fabric
from repro.scenarios.market import draw_preemption, preemption_block
from repro.scenarios.spec import Scenario, active
from repro.sim.run_result import STATE_CODE, STATE_ORDER, RunRecord, RunState
from repro.telemetry import span
from repro.units import HOUR

#: walltime ceiling for cloud runs (15–20 min; we use the upper bound
#: minus scheduling slack)
CLOUD_WALLTIME_S = 1000.0
#: on-prem queue-slot ceiling (center jobs ran under generous limits)
ONPREM_WALLTIME_S = 4 * 3600.0

_FAILED = STATE_CODE[RunState.FAILED]
_TIMEOUT = STATE_CODE[RunState.TIMEOUT]
_COMPLETED = STATE_CODE[RunState.COMPLETED]


@dataclass(frozen=True)
class HookupCutoff:
    """Stop policy: end a group's batch with the first record whose
    hookup exceeded a threshold.

    §3.3's single-iteration rule — AKS CPU at size 256 ran once because
    hookup took 8.82 minutes — as a *value* rather than a closure, so
    the block path can apply it vectorized (:meth:`stop_index`) while
    the scalar path keeps calling it per record.
    """

    env_id: str
    scale: int
    threshold_s: float

    def __call__(self, record: RunRecord) -> bool:
        return (
            record.env_id == self.env_id
            and record.scale == self.scale
            and record.hookup_seconds > self.threshold_s
        )

    def stop_index(self, env_id: str, scale: int, hookup: np.ndarray) -> int | None:
        """Index of the first triggering record, or ``None``."""
        if env_id != self.env_id or scale != self.scale:
            return None
        idx = np.flatnonzero(hookup > self.threshold_s)
        return int(idx[0]) if idx.size else None


@dataclass
class BlockOutcome:
    """What one :meth:`ExecutionEngine.run_block` call produced."""

    #: records appended to the caller's store
    count: int
    #: wall + hookup seconds accumulated in record order (the shard
    #: clock advances by exactly this, as in the per-record path)
    total_seconds: float


@dataclass
class _BlockColumns:
    """One group's simulated iterations as parallel columns."""

    iteration: np.ndarray  # i8
    state: np.ndarray  # i1 codes
    fom: np.ndarray  # f8, NaN where the record has no FOM
    fom_none: np.ndarray  # bool
    wall: np.ndarray  # f8
    hookup: np.ndarray  # f8
    cost: np.ndarray  # f8
    failure_kind: Any  # None | str | list[str | None]
    phases: Any  # dict | list
    extra: Any  # dict | list

    def truncate(self, n: int) -> "_BlockColumns":
        """The first ``n`` iterations (an early-stop prefix)."""

        def _cut(payload):
            if isinstance(payload, list):
                return payload[:n]
            if isinstance(payload, dict):
                return {
                    k: (v[:n] if isinstance(v, np.ndarray) else _cut(v) if isinstance(v, dict) else v)
                    for k, v in payload.items()
                }
            return payload

        return _BlockColumns(
            iteration=self.iteration[:n],
            state=self.state[:n],
            fom=self.fom[:n],
            fom_none=self.fom_none[:n],
            wall=self.wall[:n],
            hookup=self.hookup[:n],
            cost=self.cost[:n],
            failure_kind=(
                self.failure_kind[:n]
                if isinstance(self.failure_kind, list)
                else self.failure_kind
            ),
            phases=_cut(self.phases),
            extra=_cut(self.extra),
        )


@dataclass(frozen=True)
class ResolvedGroup:
    """Everything iteration-independent about one (env, app, size) group.

    Placement, effective fabric, ECC-conditioned node model, walltime
    limit, and hourly rate depend only on the group coordinates (plus
    the engine's seed/scenario) — never on the iteration — so a batch
    resolves them once and every iteration reuses them.  All members
    are immutable values, safe to share across runs.
    """

    env: Environment
    model: AppModel
    scale: int
    nodes: int
    ranks: int
    node_model: Any
    fabric: Fabric
    #: memoized collective model shared by every iteration's context,
    #: so each distinct collective prices once per group
    comm: "CollectiveModel"
    #: group-scoped memo shared by every iteration's context
    #: (:meth:`~repro.apps.base.RunContext.once`)
    memo: dict
    rate: float
    walltime_limit: float
    options: dict[str, Any]


@dataclass
class ExecutionEngine:
    """Runs apps on environments deterministically."""

    seed: int = 0
    #: set False to simulate the study's *initial* Azure containers,
    #: before the UCX transport hunt of §3.1 succeeded
    azure_ucx_tuned: bool = True
    #: optional what-if overlay (:mod:`repro.scenarios`): spot pricing
    #: and preemptions, price shocks, fabric degradation.  ``None`` or
    #: an empty scenario reproduces the baseline byte for byte.
    scenario: Scenario | None = None
    #: per-cell block memo: the run/hookup stream keys name no app, so
    #: every app of one (env, size) cell re-derives identical seeded
    #: streams (and identical hookup draws) — seed once, reuse per cell
    _block_memo: dict = field(default_factory=dict, repr=False, compare=False)

    # -- fabric resolution ----------------------------------------------------

    #: cloud tenancy multiplies fabric jitter: the same interconnect shows
    #: more run-to-run variability under SR-IOV and shared switching than
    #: on a dedicated on-prem machine
    CLOUD_JITTER_MULTIPLIER = 1.5

    #: extra small-message latency on CycleCloud's tuned UCX transport
    #: (UCX_TLS=ud,shm,rc — §3.1): the unreliable-datagram path costs a
    #: little over AKS's unified `ib` transport, which is why AKS edges
    #: out CycleCloud on allreduce-bound codes (MiniFE, Figure 6)
    AZURE_VM_UD_PENALTY_US = 0.3

    def _effective_fabric(self, env: Environment, nodes: int) -> Fabric:
        # Scenario fabric degradation is a property of the counterfactual
        # world, so it applies to the base fabric before tenancy effects.
        base = overlay_fabric(env.base_fabric(), self.scenario, env.cloud)
        if env.cloud == "az" and env.kind is EnvironmentKind.VM:
            base = Fabric(
                name=base.name,
                latency_us=base.latency_us + self.AZURE_VM_UD_PENALTY_US,
                bandwidth_gbps=base.bandwidth_gbps,
                per_message_overhead_us=base.per_message_overhead_us,
                os_bypass=base.os_bypass,
                rdma=base.rdma,
                jitter_cv=base.jitter_cv,
                quirks=base.quirks,
            )
        if env.is_cloud:
            base = base.with_jitter(base.jitter_cv * self.CLOUD_JITTER_MULTIPLIER)
        if env.cloud == "az" and not self.azure_ucx_tuned:
            base = Fabric(
                name=base.name,
                latency_us=base.latency_us,
                bandwidth_gbps=base.bandwidth_gbps,
                per_message_overhead_us=base.per_message_overhead_us,
                os_bypass=base.os_bypass,
                rdma=base.rdma,
                jitter_cv=base.jitter_cv,
                quirks=base.quirks + (AZURE_UNTUNED_UCX,),
            )
        if env.kind is EnvironmentKind.ONPREM:
            return base
        placement = apply_placement(
            env.cloud,
            "k8s" if env.kind is EnvironmentKind.K8S else "vm",
            nodes,
            seed=self.seed,
        )
        return effective_fabric(base, env.cloud, placement)

    # -- context construction --------------------------------------------------

    def resolve_group(
        self,
        env: Environment,
        app: AppModel | str,
        scale: int,
        *,
        options: dict[str, Any] | None = None,
    ) -> ResolvedGroup:
        """Resolve everything iteration-independent about one group.

        Placement sampling, topology-effective fabric, ECC-conditioned
        node model, and pricing are functions of (seed, env, scale) —
        :meth:`run_block` resolves them once per (env, app, size) group
        instead of once per iteration, with identical results.
        """
        model = app_lookup(app) if isinstance(app, str) else app
        with span(
            "engine.resolve_group", env=env.env_id, app=model.name, scale=scale
        ):
            nodes = env.nodes_for(scale)
            ranks = env.ranks_for(scale)
            ecc_on = True
            if env.is_gpu:
                # The node's ECC state: Azure fleets are mixed (§3.3).
                states = sample_ecc_settings(env.cloud, nodes, seed=self.seed)
                ecc_on = bool(states.all()) if states.size else True
            itype = env.instance()
            rate = itype.cost_per_hour
            scn = active(self.scenario)
            if scn is not None:
                rate = effective_rate(itype, scn.price_multiplier(env.cloud, nodes))
            fabric = self._effective_fabric(env, nodes)
            return ResolvedGroup(
                env=env,
                model=model,
                scale=scale,
                nodes=nodes,
                ranks=ranks,
                node_model=env.node_model(ecc_on=ecc_on),
                fabric=fabric,
                comm=CollectiveModel(fabric),
                memo={},
                rate=rate,
                walltime_limit=ONPREM_WALLTIME_S if env.cloud == "p" else CLOUD_WALLTIME_S,
                options=options or {},
            )

    def _group_context(self, group: ResolvedGroup, iteration: int) -> RunContext:
        """The :class:`RunContext` for one iteration of a resolved group."""
        return RunContext(
            env=group.env,
            scale=group.scale,
            nodes=group.nodes,
            ranks=group.ranks,
            node_model=group.node_model,
            fabric=group.fabric,
            rng=stream(self.seed, "run", group.env.env_id, group.scale, iteration),
            iteration=iteration,
            options=group.options,
            comm_model=group.comm,
            group_memo=group.memo,
        )

    def context(
        self,
        env: Environment,
        scale: int,
        *,
        iteration: int = 0,
        options: dict[str, Any] | None = None,
    ) -> RunContext:
        """Build the :class:`RunContext` an app model will see."""
        nodes = env.nodes_for(scale)
        ranks = env.ranks_for(scale)
        rng = stream(self.seed, "run", env.env_id, scale, iteration)
        ecc_on = True
        if env.is_gpu:
            # The node's ECC state: Azure fleets are mixed (§3.3).
            states = sample_ecc_settings(env.cloud, nodes, seed=self.seed)
            ecc_on = bool(states.all()) if states.size else True
        return RunContext(
            env=env,
            scale=scale,
            nodes=nodes,
            ranks=ranks,
            node_model=env.node_model(ecc_on=ecc_on),
            fabric=self._effective_fabric(env, nodes),
            rng=rng,
            iteration=iteration,
            options=options or {},
        )

    # -- running ----------------------------------------------------------------

    def run(
        self,
        env: Environment,
        app: AppModel | str,
        scale: int,
        *,
        iteration: int = 0,
        options: dict[str, Any] | None = None,
    ) -> RunRecord:
        """Execute one run; never raises for in-study failure modes."""
        model = app_lookup(app) if isinstance(app, str) else app

        if not env.deployable:
            return self._skip(env, model, scale, iteration, "environment undeployable")
        if not model.supports(env.accelerator):
            reason = model.unsupported_reason.get(env.accelerator, "unsupported")
            return self._skip(env, model, scale, iteration, reason)
        return self._execute(env, model, scale, iteration, options)

    def skipped(
        self,
        env: Environment,
        app: AppModel | str,
        scale: int,
        *,
        iteration: int = 0,
        reason: str,
    ) -> RunRecord:
        """Record a run that never executed (e.g. a scenario denied quota)."""
        model = app_lookup(app) if isinstance(app, str) else app
        return self._skip(env, model, scale, iteration, reason)

    def _skip(
        self,
        env: Environment,
        model: AppModel,
        scale: int,
        iteration: int,
        reason: str,
    ) -> RunRecord:
        return RunRecord(
            env_id=env.env_id,
            app=model.name,
            scale=scale,
            nodes=env.nodes_for(scale) if env.gpus_per_node or not env.is_gpu else scale,
            iteration=iteration,
            state=RunState.SKIPPED,
            fom=None,
            fom_units=model.fom_units,
            wall_seconds=0.0,
            hookup_seconds=0.0,
            cost_usd=0.0,
            failure_kind="skipped",
            extra={"reason": reason},
        )

    def _execute(
        self,
        env: Environment,
        model: AppModel,
        scale: int,
        iteration: int,
        options: dict[str, Any] | None,
    ) -> RunRecord:
        """One iteration of one group; all per-run randomness is keyed on
        the iteration, so block and one-at-a-time execution produce
        identical records."""
        group = self.resolve_group(env, model, scale, options=options)
        ctx = self._group_context(group, iteration)
        hookup = hookup_time(
            env.cloud,
            env.is_gpu,
            group.nodes,
            environment_kind=env.kind.value,
            seed=self.seed,
            iteration=iteration,
        )
        result = model.simulate(ctx)

        limit = group.walltime_limit
        if result.failed:
            state = RunState.FAILED
            fom = None
            wall = result.wall_seconds
        elif result.wall_seconds > limit:
            state = RunState.TIMEOUT
            fom = None
            wall = limit
        else:
            state = RunState.COMPLETED
            fom = result.fom
            wall = result.wall_seconds

        failure_kind = result.failure_kind if result.failed else (
            "walltime" if state is RunState.TIMEOUT else None
        )
        extra = result.extra

        scn = active(self.scenario)
        if scn is not None:
            # Spot preemption: a reclaimed run dies partway through its
            # window; the consumed node-time still bills.  Runs that
            # already failed on their own keep their original cause.
            if (
                scn.spot is not None
                and env.is_cloud
                and env.cloud in scn.spot.clouds
                and state is not RunState.FAILED
            ):
                preempt = draw_preemption(
                    scn.spot,
                    self.seed,
                    scn.scenario_id,
                    env.env_id,
                    model.name,
                    group.scale,
                    iteration,
                    wall + hookup,
                )
                if preempt is not None:
                    state = RunState.FAILED
                    fom = None
                    wall *= preempt.at_fraction
                    failure_kind = "spot-preemption"
                    extra = dict(result.extra)
                    extra["preempted_at_fraction"] = preempt.at_fraction

        cost = group.nodes * group.rate * (wall + hookup) / HOUR
        return RunRecord(
            env_id=env.env_id,
            app=model.name,
            scale=group.scale,
            nodes=group.nodes,
            iteration=iteration,
            state=state,
            fom=fom,
            fom_units=model.fom_units,
            wall_seconds=wall,
            hookup_seconds=hookup,
            cost_usd=cost,
            phases=result.phases,
            failure_kind=failure_kind,
            extra=extra,
        )

    # -- the array-native block path -------------------------------------------

    def _simulate_columns(self, group: ResolvedGroup, iters: np.ndarray) -> _BlockColumns:
        """Simulate the given iterations of a resolved group as columns.

        The whole post-physics pipeline — hookup, walltime policy, spot
        preemption, pricing — runs as array operations with the same
        per-element arithmetic (and the same keyed draws) as
        :meth:`_execute`, so every column value is bit-identical
        to the scalar record it replaces.
        """
        env = group.env
        model = group.model
        n = len(iters)
        ctx = self._group_context(group, int(iters[0]) if n else 0)
        block = stream_block(self.seed, "run", env.env_id, group.scale, iterations=iters)
        sig = iters.tobytes()
        stream_memo = ("run", env.env_id, group.scale, sig)
        hookup_memo = (
            "hookup", env.cloud, env.is_gpu, group.nodes, env.kind.value, sig,
        )
        with span("engine.rng", env=env.env_id, iterations=n):
            seeded = self._block_memo.get(stream_memo)
            if seeded is not None:
                # A sibling app of this cell already seeded these streams.
                block.install_states(seeded)
                hookup = self._block_memo.get(hookup_memo)
            else:
                hookup = None
            if hookup is None:
                hookup_streams = hookup_stream_block(
                    env.cloud,
                    env.is_gpu,
                    group.nodes,
                    environment_kind=env.kind.value,
                    seed=self.seed,
                    iterations=iters,
                )
                if seeded is None:
                    # One vectorized seeding pass covers both stream families.
                    co_seed(block, hookup_streams)
                    self._block_memo[stream_memo] = block.seeded_states()
                hookup = hookup_block(
                    env.cloud,
                    env.is_gpu,
                    group.nodes,
                    environment_kind=env.kind.value,
                    seed=self.seed,
                    iterations=iters,
                    rng_block=hookup_streams,
                )
                self._block_memo[hookup_memo] = hookup
        with span("engine.physics", env=env.env_id, app=model.name, iterations=n):
            result = model.simulate_block(ctx, block)

        with span("engine.price", env=env.env_id, iterations=n):
            failed = result.failed if result.failed is not None else np.zeros(n, dtype=bool)
            wall = np.array(result.wall, dtype=np.float64, copy=True)
            fom = np.array(result.fom, dtype=np.float64, copy=True)
            limit = group.walltime_limit
            timeout = ~failed & (wall > limit)
            wall[timeout] = limit
            state = np.full(n, _COMPLETED, dtype=np.int8)
            state[timeout] = _TIMEOUT
            state[failed] = _FAILED
            fom_none = failed | timeout | np.isnan(fom)
            fom[fom_none] = np.nan

            app_kind = result.failure_kind
            mixed = isinstance(app_kind, list) or bool(timeout.any()) or (
                bool(failed.any()) and not bool(failed.all())
            )
            if mixed:
                base = app_kind if isinstance(app_kind, list) else [app_kind] * n
                kinds: Any = [
                    base[j] if failed[j] else ("walltime" if timeout[j] else None)
                    for j in range(n)
                ]
            else:
                kinds = app_kind if bool(failed.any()) else None
            phases = result.phases
            extra = result.extra

            scn = active(self.scenario)
            if (
                scn is not None
                and scn.spot is not None
                and env.is_cloud
                and env.cloud in scn.spot.clouds
            ):
                # Spot preemption: a reclaimed run dies partway through its
                # window; the consumed node-time still bills.  Runs that
                # already failed on their own keep their original cause.
                eligible = np.flatnonzero(state != _FAILED)
                fracs = np.full(n, np.nan)
                if eligible.size:
                    fracs[eligible] = preemption_block(
                        scn.spot,
                        self.seed,
                        scn.scenario_id,
                        env.env_id,
                        model.name,
                        group.scale,
                        iters[eligible],
                        (wall + hookup)[eligible],
                    )
                hit = np.flatnonzero(~np.isnan(fracs))
                if hit.size:
                    from repro.core.results import payload_slot

                    extra = [payload_slot(result.extra, j) for j in range(n)]
                    if not isinstance(kinds, list):
                        kinds = [
                            kinds if failed[j] else ("walltime" if timeout[j] else None)
                            for j in range(n)
                        ]
                    for j in hit:
                        slot = dict(extra[j])
                        slot["preempted_at_fraction"] = float(fracs[j])
                        extra[j] = slot
                        kinds[j] = "spot-preemption"
                    wall[hit] = wall[hit] * fracs[hit]
                    state[hit] = _FAILED
                    fom[hit] = np.nan
                    fom_none[hit] = True

            cost = (group.nodes * group.rate) * (wall + hookup) / HOUR
        return _BlockColumns(
            iteration=np.asarray(iters, dtype=np.int64),
            state=state,
            fom=fom,
            fom_none=fom_none,
            wall=wall,
            hookup=hookup,
            cost=cost,
            failure_kind=kinds,
            phases=phases,
            extra=extra,
        )

    def _column_records(self, group: ResolvedGroup, cols: _BlockColumns) -> list[RunRecord]:
        """Materialize a column block into per-run records (a generic
        stop callable needs row objects; the fast path never calls
        this)."""
        from repro.core.results import payload_slot

        env_id = group.env.env_id
        app = group.model.name
        units = group.model.fom_units
        records = []
        for j in range(len(cols.iteration)):
            records.append(
                RunRecord(
                    env_id=env_id,
                    app=app,
                    scale=group.scale,
                    nodes=group.nodes,
                    iteration=int(cols.iteration[j]),
                    state=STATE_ORDER[cols.state[j]],
                    fom=None if cols.fom_none[j] else float(cols.fom[j]),
                    fom_units=units,
                    wall_seconds=float(cols.wall[j]),
                    hookup_seconds=float(cols.hookup[j]),
                    cost_usd=float(cols.cost[j]),
                    phases=payload_slot(cols.phases, j),
                    failure_kind=payload_slot(cols.failure_kind, j),
                    extra=payload_slot(cols.extra, j),
                )
            )
        return records

    def run_block(
        self,
        env: Environment,
        app: AppModel | str,
        scale: int,
        *,
        iterations: int,
        store: "ResultStore",
        options: dict[str, Any] | None = None,
        stop: Callable[[RunRecord], bool] | None = None,
    ) -> BlockOutcome:
        """Run one (env, app, size) group entirely as array math.

        The fully vectorized hot path: per-iteration draws are gathered
        through :func:`~repro.rng.stream_block`, the app computes its
        physics as columns (:meth:`~repro.apps.base.AppModel.simulate_block`),
        pricing/walltime/preemption apply as array operations, and the
        results land in ``store`` via
        :meth:`~repro.core.results.ResultStore.append_block` — no
        per-run :class:`RunRecord` on the fast path.  Records are
        byte-identical to per-iteration :meth:`run` calls.  A
        :class:`HookupCutoff` ``stop`` applies vectorized; any other
        callable sees materialized rows in order.
        """
        model = app_lookup(app) if isinstance(app, str) else app

        if not env.deployable or not model.supports(env.accelerator):
            if not env.deployable:
                reason = "environment undeployable"
            else:
                reason = model.unsupported_reason.get(env.accelerator, "unsupported")
            count = 0
            for iteration in range(iterations):
                record = self._skip(env, model, scale, iteration, reason)
                store.add(record)
                count += 1
                if stop is not None and stop(record):
                    break
            return BlockOutcome(count=count, total_seconds=0.0)

        with span(
            "engine.run_block",
            env=env.env_id, app=model.name, scale=scale, iterations=iterations,
        ):
            group = self.resolve_group(env, model, scale, options=options)
            cols = self._simulate_columns(group, np.arange(iterations, dtype=np.int64))
            if stop is not None:
                stop_index = getattr(stop, "stop_index", None)
                if stop_index is not None:
                    k = stop_index(env.env_id, scale, cols.hookup)
                else:
                    k = next(
                        (j for j, r in enumerate(self._column_records(group, cols)) if stop(r)),
                        None,
                    )
                if k is not None:
                    cols = cols.truncate(k + 1)
            store.append_block(
                env_id=env.env_id,
                app=model.name,
                scale=group.scale,
                nodes=group.nodes,
                iteration=cols.iteration,
                state=cols.state,
                fom=cols.fom,
                fom_none=cols.fom_none,
                wall_seconds=cols.wall,
                hookup_seconds=cols.hookup,
                cost_usd=cols.cost,
                fom_units=model.fom_units,
                failure_kind=cols.failure_kind,
                phases=cols.phases,
                extra=cols.extra,
            )
            total = 0.0
            for j in range(len(cols.iteration)):
                # Accumulate in record order, like the per-record shard clock.
                total = total + (cols.wall[j] + cols.hookup[j])
            return BlockOutcome(count=len(cols.iteration), total_seconds=float(total))
