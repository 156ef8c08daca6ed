"""ResultStore.append_block ≡ N single appends, and columnar transport.

The block path writes straight into the typed buffers; these tests pin
the contract the engine relies on — a block of N behaves exactly like
the N records it describes, through every store surface (rows, CSV,
frames, merge) — plus the pickle-based shard transport that ships
column arrays instead of per-record objects.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.results import ResultStore, payload_slot
from repro.sim.run_result import STATE_CODE, RunRecord, RunState


def _record(
    i,
    *,
    env="cpu-eks-aws",
    app="lammps",
    scale=64,
    state=RunState.COMPLETED,
    fom=2.5,
    phases=None,
    extra=None,
    failure_kind=None,
):
    return RunRecord(
        env_id=env,
        app=app,
        scale=scale,
        nodes=scale,
        iteration=i,
        state=state,
        fom=fom,
        fom_units="u",
        wall_seconds=10.0 + i,
        hookup_seconds=1.5,
        cost_usd=0.25,
        phases=phases if phases is not None else {"force": 1.0 + i},
        failure_kind=failure_kind,
        extra=extra if extra is not None else {"atoms": 5},
    )


def _append_block(store, n, **overrides):
    fields = dict(
        env_id="cpu-eks-aws",
        app="lammps",
        scale=64,
        nodes=64,
        iteration=np.arange(n, dtype=np.int64),
        state=np.full(n, STATE_CODE[RunState.COMPLETED], dtype=np.int8),
        fom=np.full(n, 2.5),
        fom_none=np.zeros(n, dtype=bool),
        wall_seconds=10.0 + np.arange(n, dtype=float),
        hookup_seconds=np.full(n, 1.5),
        cost_usd=np.full(n, 0.25),
        fom_units="u",
        failure_kind=None,
        phases={"force": 1.0 + np.arange(n, dtype=float)},
        extra={"atoms": 5},
    )
    fields.update(overrides)
    store.append_block(**fields)
    return store


def test_append_block_equals_single_adds():
    n = 7
    reference = ResultStore(_record(i) for i in range(n))
    block = _append_block(ResultStore(), n)
    assert block.records == reference.records
    assert block.to_csv() == reference.to_csv()
    assert block.counts_by_state() == reference.counts_by_state()
    assert block.to_frame().cell_aggregates().rows() == (
        reference.to_frame().cell_aggregates().rows()
    )


def test_append_block_empty_and_single_iteration():
    empty = _append_block(ResultStore(), 0)
    assert len(empty) == 0 and empty.records == []
    single = _append_block(ResultStore(), 1)
    assert single.records == [_record(0)]
    # A store keeps accepting appends after any block shape.
    single.add(_record(1))
    assert len(single) == 2


def test_append_block_group_constant_payloads_are_shared():
    """Const dicts materialize by reference: equal records, O(1) objects."""
    n = 4
    store = _append_block(
        ResultStore(), n, phases={"collect": 120.0}, extra={"reason": "x"}
    )
    records = store.records
    assert all(r.phases == {"collect": 120.0} for r in records)
    assert records[0].extra is records[1].extra  # shared, not copied


def test_append_block_nested_array_templates():
    """Array leaves inside nested dicts (the OSU extra shape) index out."""
    n = 3
    lat = {1: np.array([1.0, 2.0, 3.0]), 8: np.array([4.0, 5.0, 6.0])}
    store = _append_block(
        ResultStore(), n, extra={"latency_us": lat, "mode": "H H"}
    )
    assert store.records[1].extra == {"latency_us": {1: 2.0, 8: 5.0}, "mode": "H H"}


def test_append_block_per_record_failure_kinds():
    n = 3
    store = _append_block(
        ResultStore(),
        n,
        state=np.array(
            [
                STATE_CODE[RunState.COMPLETED],
                STATE_CODE[RunState.TIMEOUT],
                STATE_CODE[RunState.FAILED],
            ],
            dtype=np.int8,
        ),
        fom=np.array([2.5, np.nan, np.nan]),
        fom_none=np.array([False, True, True]),
        failure_kind=[None, "walltime", "segfault"],
    )
    assert [r.failure_kind for r in store.records] == [None, "walltime", "segfault"]


def test_failures_match_the_row_walk():
    """The column scan finds what a walk over materialized rows finds."""
    store = ResultStore()
    store.add(_record(0, failure_kind="spot-preemption"))
    _append_block(store, 3, app="amg2023", scale=128, failure_kind="spot-preemption")
    _append_block(store, 3, failure_kind=["walltime", "spot-preemption", None])
    store.add(_record(9, app="osu", failure_kind="walltime"))
    _append_block(store, 2)
    for kind in ("spot-preemption", "walltime", "segfault"):
        assert store.failures(kind) == [
            (r.app, r.scale, r.iteration) for r in store.records if r.failure_kind == kind
        ]
    assert ResultStore().failures("spot-preemption") == []


def test_blocks_and_rows_interleave():
    store = ResultStore()
    store.add(_record(0))
    _append_block(
        store,
        2,
        iteration=np.array([1, 2]),
        wall_seconds=np.array([11.0, 12.0]),
        phases={"force": np.array([2.0, 3.0])},
    )
    store.add(_record(3))
    assert [r.iteration for r in store.records] == [0, 1, 2, 3]
    assert store.records == [_record(i) for i in range(4)]


def test_merge_preserves_block_segments():
    a = _append_block(ResultStore(), 3)
    b = ResultStore([_record(0, env="gpu-gke-g", app="osu", scale=32)])
    merged = ResultStore.merge([a, b])
    assert merged.records == a.records + b.records
    assert merged.environments() == ["cpu-eks-aws", "gpu-gke-g"]


def test_pickle_round_trip_block_store():
    store = _append_block(ResultStore(), 5)
    clone = pickle.loads(pickle.dumps(store))
    assert clone.records == store.records
    assert clone.to_csv() == store.to_csv()
    assert clone.to_frame().cell_aggregates().rows() == (
        store.to_frame().cell_aggregates().rows()
    )
    clone.add(_record(99))  # the clone is a live store
    assert len(clone) == 6


def test_pickle_round_trip_empty_and_row_stores():
    empty = pickle.loads(pickle.dumps(ResultStore()))
    assert len(empty) == 0
    empty.add(_record(0))
    assert len(empty) == 1
    rows = ResultStore([_record(i) for i in range(3)])
    assert pickle.loads(pickle.dumps(rows)).records == rows.records


def test_transport_is_columnar_not_per_record():
    """The pickled form carries column arrays, not 10k row objects."""
    n = 2000
    store = _append_block(
        ResultStore(),
        n,
        iteration=np.arange(n, dtype=np.int64),
        state=np.full(n, STATE_CODE[RunState.COMPLETED], dtype=np.int8),
        fom=np.full(n, 2.5),
        fom_none=np.zeros(n, dtype=bool),
        wall_seconds=10.0 + np.arange(n, dtype=float),
        hookup_seconds=np.full(n, 1.5),
        cost_usd=np.full(n, 0.25),
        phases={"force": 1.0 + np.arange(n, dtype=float)},
    )
    store.records  # materialize the row cache...
    payload = pickle.dumps(store)
    # ...which must never ship: the payload stays within a small factor
    # of the raw column data (≈7 numeric columns of n float64s).
    assert len(payload) < 3 * (7 * 8 * n)
    assert pickle.loads(payload).records == store.records


def test_payload_slot_shapes():
    assert payload_slot(["a", "b"], 1) == "b"
    assert payload_slot({"k": 1}, 5) == {"k": 1}
    assert payload_slot({"k": np.array([1.0, 2.0])}, 1) == {"k": 2.0}
    assert payload_slot(None, 0) is None
    assert payload_slot("walltime", 3) == "walltime"


def test_append_block_refuses_wide_ids():
    with pytest.raises(ValueError):
        _append_block(ResultStore(), 1, env_id="x" * 40)
