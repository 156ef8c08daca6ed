"""Content-addressed result cache: skip cells and worlds already done.

A full-size campaign re-executes the same (environment, size) cells
every time a table or figure is re-rendered.  Since a cell is
deterministic given its coordinates (seed, environment, size, apps,
iterations, engine options, scenario footprint), its folded result can
be cached under a content hash of exactly that key and replayed on the
next request — re-renders, incremental sweeps and resumed campaigns
then skip provisioning and simulation entirely.  Two kinds of entry
live here: one per study cell (:func:`shard_key`) and one per ensemble
replica-world summary (:func:`world_key`).

The cache is a plain directory of JSON files, one per entry, fanned out
by hash prefix so large campaigns don't produce a single huge directory.
Keys incorporate :data:`CACHE_VERSION`; bump it whenever the record
schema or the simulation semantics change so stale entries miss instead
of resurfacing.  Corrupt or unreadable entries are treated as misses —
the cache is an accelerator, never a source of truth.

Cell entries carry their run records through :func:`encode_record`,
which canonicalizes container types through JSON: a tuple in
``RunRecord.extra`` or ``phases`` (e.g. AMG's process topology) comes
back as a list, and non-JSON values come back as their ``str()``.
Every field the dataset CSV exports is preserved exactly (floats
round-trip bit-for-bit), so cached and fresh campaigns produce
identical artifacts — but code comparing whole records or relying on
``extra`` value *types* should not mix cached and fresh records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Mapping

from repro.sim.run_result import RunRecord, RunState
from repro.telemetry import count as telemetry_count

logger = logging.getLogger(__name__)

#: distinct invalid-entry reasons kept per cache before folding into
#: the ``"other"`` bucket — degradation stays diagnosable without the
#: histogram growing unboundedly on pathological inputs
INVALID_REASON_CAP = 8

#: Bump to invalidate every existing cache entry (schema/semantics change).
#: v2: keys grew a scenario digest (repro.scenarios) so what-if worlds
#: never collide with the baseline or each other.
#: v3: run- and cell-level keys embed the *per-cell overlay footprint*
#: digest (:meth:`repro.scenarios.Scenario.footprint`) instead of the
#: whole-scenario digest — a cell a scenario cannot touch keys exactly
#: like the baseline cell, which is what incremental plan execution
#: (:mod:`repro.plan.diff`) reuses.  World-level keys keep the full
#: scenario digest (a world aggregates every cell).
CACHE_VERSION = 3


#: exact types :func:`_jsonable` passes through untouched
_PLAIN = frozenset({str, int, float, bool, type(None)})


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars (and other oddballs) into JSON-native types."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def shard_key(
    *,
    seed: int,
    env_id: str,
    scale: int,
    apps: tuple[str, ...],
    iterations: int,
    engine_options: Mapping[str, Any] | None = None,
    scenario: str | None = None,
) -> str:
    """Content hash naming one whole (environment, size) study cell.

    A cell bundles every ``(seed, env, app, scale, iteration)`` run of a
    shard plus its provisioning by-products (incidents, spend, cluster
    count), all deterministic in these coordinates — so a cell-level hit
    can skip cluster bring-up as well as simulation.  ``engine_options``
    must include everything that changes the engine's output beyond the
    coordinates (e.g. ``azure_ucx_tuned``), so a changed option is a
    miss, not a stale hit.  ``scenario`` is the active scenario's
    per-cell footprint digest
    (:func:`repro.scenarios.spec.footprint_digest`), or ``None`` for the
    baseline world.
    """
    payload = json.dumps(
        {
            "v": CACHE_VERSION,
            "kind": "shard",
            "seed": seed,
            "env": env_id,
            "scale": scale,
            "apps": list(apps),
            "iterations": iterations,
            "engine": _jsonable(dict(engine_options or {})),
            "scenario": scenario,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def world_key(
    *,
    seed: int,
    env_ids: tuple[str, ...],
    apps: tuple[str, ...],
    sizes: tuple[int, ...] | None,
    iterations: int,
    engine_options: Mapping[str, Any] | None = None,
    scenario: str | None = None,
) -> str:
    """Content hash naming one whole replica-world of an ensemble.

    The second cache level (:mod:`repro.ensemble`): a world is every cell
    of one campaign at one ``(seed, scenario)`` coordinate, and its
    *folded summary* (per-cell aggregates) is tiny compared to its
    records — a hit lets a warm ensemble re-run skip shard execution,
    record decoding, and the columnar fold entirely.  ``seed`` is the
    replica's own seed (``base_seed + replica``), so replica worlds
    never collide; ``scenario`` is the full active scenario digest (a
    world aggregates every cell, so no per-cell footprint applies).
    """
    payload = json.dumps(
        {
            "v": CACHE_VERSION,
            "kind": "world",
            "seed": seed,
            "envs": list(env_ids),
            "apps": list(apps),
            "sizes": None if sizes is None else list(sizes),
            "iterations": iterations,
            "engine": _jsonable(dict(engine_options or {})),
            "scenario": scenario,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


#: :class:`RunRecord` field names in declaration order, the key order
#: of every encoded record
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(RunRecord))


def encode_record(record: RunRecord) -> dict[str, Any]:
    """A JSON-safe dict for one run record, keys in field order."""
    data = {name: getattr(record, name) for name in _RECORD_FIELDS}
    data["state"] = record.state.value
    return _jsonable(data)


def decode_record(data: dict[str, Any]) -> RunRecord:
    """Rebuild a :class:`RunRecord` from :func:`encode_record` output."""
    fields = dict(data)
    fields["state"] = RunState(fields["state"])
    return RunRecord(**fields)


class RunCache:
    """Directory-backed cache of cell and world summaries.

    Safe for concurrent writers: entries are written to a temporary file
    and atomically renamed into place, and every worker of a sharded
    study may point at the same directory.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: entries that *existed* but could not be used (corrupt JSON,
        #: schema mismatch, malformed payload); each one degrades the
        #: cache to re-simulation, so each one leaves a warning trace
        self.invalid = 0
        #: why entries were invalid: reason label → count, capped at
        #: :data:`INVALID_REASON_CAP` distinct labels (overflow folds
        #: into ``"other"``) so one corrupt directory cannot balloon it
        self.invalid_reasons: dict[str, int] = {}

    def note_invalid(self, key: str, reason: str) -> None:
        """Count one unusable entry and leave a one-line warning trace.

        The cache is an accelerator, never a source of truth — malformed
        entries always fall back to re-simulation — but silent
        degradation hides real problems (truncated writes, version
        skew), so every fallback is counted, binned by reason, and
        logged.  The histogram bins on the reason *label* (the text
        before the first ``:``), which is stable across entries while
        the exception detail varies.
        """
        self.invalid += 1
        label = reason.split(":", 1)[0].strip() or "other"
        if label not in self.invalid_reasons and len(self.invalid_reasons) >= INVALID_REASON_CAP:
            label = "other"
        self.invalid_reasons[label] = self.invalid_reasons.get(label, 0) + 1
        telemetry_count("cache.invalid")
        logger.warning(
            "cache entry %s under %s is invalid (%s); re-simulating",
            key, self.root, reason,
        )

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get_json(self, key: str, *, level: str = "cell") -> Any | None:
        """The raw JSON payload for ``key``, or ``None`` on a miss.

        ``level`` labels the telemetry counters only (``"cell"`` or
        ``"world"`` — whichever granularity the caller probes at); it
        never affects lookup or storage.
        """
        try:
            with open(self.path(key), "r", encoding="utf-8") as fh:
                text = fh.read()
            data = json.loads(text)
        except FileNotFoundError:
            self.misses += 1
            telemetry_count(f"cache.{level}.misses")
            return None
        except (OSError, ValueError) as exc:
            # The entry exists but cannot be read or parsed: a miss,
            # and a degradation worth a trace.
            self.misses += 1
            telemetry_count(f"cache.{level}.misses")
            self.note_invalid(key, f"unreadable or corrupt JSON: {exc}")
            return None
        self.hits += 1
        telemetry_count(f"cache.{level}.hits")
        telemetry_count(f"cache.{level}.hit_bytes", len(text))
        return data

    def put_json(self, key: str, data: Any, *, level: str = "cell") -> None:
        """Store a JSON payload under ``key`` (atomic, last-writer-wins)."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        text = json.dumps(data, separators=(",", ":"))
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
        telemetry_count(f"cache.{level}.puts")
        telemetry_count(f"cache.{level}.put_bytes", len(text))

    # Aliases kept only because the frozen end-to-end benchmark
    # (``perfbench/layers.py``) wraps these names when it installs its
    # layer probes; nothing else calls them.
    get = get_many = get_json
    put = put_many = put_json

    def poison(self, key: str) -> None:
        """Overwrite ``key``'s entry with undecodable bytes.

        The chaos harness's cache-corruption fault
        (:func:`repro.chaos.corrupt_after_store`): the next probe must
        degrade through :meth:`note_invalid` and re-simulate, never
        crash or silently trust the entry.  Testing hook only — nothing
        in the production path calls this.
        """
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(b"\xff\xfechaos\x00 corrupted entry")
        os.replace(tmp, path)
