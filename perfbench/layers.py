"""Per-layer attribution for the traced pass.

Three sources feed the per-layer metrics:

* benchmark-side wrappers (:class:`LayerProbes`) around the public
  functions of each ``repro`` layer.  While installed they record one
  span per call, named ``layer:<layer>.<op>``, into whatever
  :class:`repro.telemetry.Tracer` is active in the calling process, and
  bump counters for calls the program does not count itself.  Pool
  workers fork from the traced process after the wrappers are in place,
  and ``execute_shard`` gives every worker-side cell its own tracer
  whose snapshot rides back on the shard result, so calls made inside
  workers land in the merged trace too;
* the spans and counters the program already emits (``engine.*``,
  ``plan.attach``, ``pool.drain``, ``shard.execute``, ``ensemble.fold``,
  ``cache.*``, ``transport.*``, ``fault.*``, ``plan.reuse.*``);
* ``python -X importtime -c "import repro"`` in a fresh interpreter
  (:func:`import_rows`).

A layer's ``_s`` metric is self time: the duration of its spans minus
the part covered by nested spans of *other measured* layers.  Spans the
program emits that no layer claims are transparent, so their time stays
with the nearest measured ancestor.
"""

from __future__ import annotations

import functools
import re
import subprocess
import sys
from typing import Any, Callable

#: program span name -> the layer that owns its self time
PROGRAM_SPANS = {
    "plan.attach": "plan.attach",
    "shard.execute": "parallel.shard_self",
    "pool.drain": "parallel.drain_wait",
    "engine.resolve_group": "sim.resolve_group",
    "engine.rng": "rng.stream",
    "engine.physics": "apps.physics",
    "engine.price": "sim.price",
    "ensemble.fold": "ensemble.fold",
}

#: prefix of the spans the wrappers record
PREFIX = "layer:"

#: per-layer metrics: (name, unit), in the order they are printed
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cli.import.workflows_s", "s"),
    ("cli.import.apps_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("plan.compile_s", "s"),
    ("plan.diff_s", "s"),
    ("plan.attach_s", "s"),
    ("plan.cells_attached", "count"),
    ("plan.cells_executed", "count"),
    ("plan.reuse_ratio", "ratio"),
    ("cloud.provision_s", "s"),
    ("cloud.clusters", "count"),
    ("cloud.quota_denials", "count"),
    ("cloud.provision_retries", "count"),
    ("k8s.bind_s", "s"),
    ("k8s.create_s", "s"),
    ("k8s.pods_bound", "count"),
    ("k8s.fits_calls", "count"),
    ("k8s.self_share", "ratio"),
    ("parallel.shards", "count"),
    ("parallel.shard_self_s", "s"),
    ("parallel.drain_wait_s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("parallel.merge_s", "s"),
    ("parallel.transport_bytes", "bytes"),
    ("parallel.copied_bytes", "bytes"),
    ("parallel.retries", "count"),
    ("sim.run_block_s", "s"),
    ("sim.run_block_calls", "count"),
    ("sim.records", "count"),
    ("sim.resolve_group_s", "s"),
    ("sim.price_s", "s"),
    ("sim.run_s", "s"),
    ("sim.run_calls", "count"),
    ("apps.physics_s", "s"),
    ("rng.stream_s", "s"),
    ("sim.cache.get_s", "s"),
    ("sim.cache.put_s", "s"),
    ("sim.cache.hits", "count"),
    ("sim.cache.misses", "count"),
    ("sim.cache.hit_ratio", "ratio"),
    ("sim.cache.hit_bytes", "bytes"),
    ("sim.cache.put_bytes", "bytes"),
    ("sim.cache.invalid", "count"),
    ("core.export_s", "s"),
    ("ensemble.fold_s", "s"),
    ("ensemble.worlds", "count"),
    ("experiments.run_matrix_s", "s"),
    ("experiments.runs", "count"),
    ("experiments.harness_s", "s"),
    ("experiments.claims_failed", "count"),
    ("reporting.render_s", "s"),
    ("layers.self_total_s", "s"),
    ("telemetry.overhead_frac", "ratio"),
)

#: layers whose self time is reported, each as ``<layer>_s``
TIMED_LAYERS = (
    "plan.compile", "plan.diff", "plan.attach", "cloud.provision",
    "k8s.bind", "k8s.create", "parallel.shard_self", "parallel.drain_wait",
    "parallel.merge", "sim.run_block", "sim.resolve_group", "sim.price",
    "sim.run", "apps.physics", "rng.stream", "sim.cache.get",
    "sim.cache.put", "core.export", "ensemble.fold", "experiments.run_matrix",
    "experiments.harness", "reporting.render",
)


def _counter(name: str, value: float = 1) -> None:
    from repro.telemetry import count

    count(PREFIX + name, value)


class LayerProbes:
    """Wrappers on each layer's public functions, for one traced pass.

    ``install`` replaces every target with a recording wrapper — in its
    defining namespace and in every loaded ``repro`` module that imported
    it by name — and ``restore`` puts each original object back exactly.
    Use it as a context manager so the originals come back even when the
    pass raises.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []
        #: ``KubeNode.fits`` calls not yet added to a tracer: the hot
        #: admission check is counted in a plain cell (a counter call per
        #: check would double its cost) and flushed at every span exit
        self._fits = [0]

    # -- patching -------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, layer: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._spanned(raw.__func__, layer, after)))
        else:
            self._set(cls, attr, self._spanned(raw, layer, after))

    def _function(self, module_name: str, attr: str, layer: str, after=None) -> None:
        """Wrap a module-level function and every by-name import of it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._spanned(original, layer, after)
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _flush(self, tracer) -> None:
        if tracer is not None and self._fits[0]:
            tracer.count(PREFIX + "k8s.fits_calls", self._fits[0])
            self._fits[0] = 0

    def _spanned(self, fn: Callable, layer: str, after: Callable | None = None) -> Callable:
        """``fn`` recording a ``layer:<layer>`` span per call under the
        active tracer, counting typed cloud failures it raises, and
        passing its result to ``after`` (a counter hook)."""
        from repro.errors import ProvisioningError, QuotaError
        from repro.telemetry import current_tracer

        name = PREFIX + layer
        flush = self._flush

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = current_tracer()
            if tracer is None:
                return fn(*args, **kwargs)
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            except QuotaError:
                tracer.count(PREFIX + "cloud.quota_denials")
                raise
            except ProvisioningError:
                tracer.count(PREFIX + "cloud.provision_retries")
                raise
            finally:
                flush(tracer)
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self) -> "LayerProbes":
        import repro.apps.registry
        import repro.experiments  # noqa: F401  (binds run_matrix by name)
        import repro.parallel.merge  # noqa: F401
        import repro.plan.compile  # noqa: F401
        import repro.plan.diff  # noqa: F401
        import repro.reporting.report  # noqa: F401
        from repro.apps.base import AppModel
        from repro.cloud.providers import CloudProvider
        from repro.core.results import ResultStore
        from repro.k8s.cluster import KubernetesCluster
        from repro.k8s.flux_operator import FluxOperator
        from repro.k8s.objects import KubeNode
        from repro.k8s.scheduler import KubeScheduler
        from repro.reporting.tables import Table
        from repro.sim.cache import RunCache
        from repro.sim.execution import ExecutionEngine

        for fn in ("compile_study", "compile_scenarios", "compile_ensemble"):
            self._function("repro.plan.compile", fn, "plan.compile")
        self._function("repro.plan.diff", "diff_plans", "plan.diff")
        self._function("repro.parallel.merge", "merge_shard_results", "parallel.merge")
        self._function(
            "repro.experiments.base", "run_matrix", "experiments.run_matrix",
            after=lambda store: _counter("experiments.runs", len(store)),
        )
        self._function(
            "repro.experiments.registry", "run_experiment", "experiments.harness"
        )
        self._function("repro.reporting.report", "generate_report", "reporting.render")
        self._function("repro.reporting.tables", "render_table", "reporting.render")
        self._function("repro.reporting.series", "render_series", "reporting.render")
        self._method(Table, "to_markdown", "reporting.render")
        self._method(Table, "to_csv", "core.export")
        self._method(ResultStore, "to_csv", "core.export")

        self._method(CloudProvider, "request_quota", "cloud.provision")
        self._method(
            CloudProvider, "provision_cluster", "cloud.provision",
            after=lambda _cluster: _counter("cloud.clusters"),
        )
        self._method(CloudProvider, "release_cluster", "cloud.provision")

        self._method(
            KubeScheduler, "bind_all", "k8s.bind",
            after=lambda nodes: _counter("k8s.pods_bound", len(nodes)),
        )
        self._method(KubernetesCluster, "create", "k8s.create")
        self._method(FluxOperator, "create", "k8s.create")
        fits, fits_calls = KubeNode.__dict__["fits"], self._fits

        @functools.wraps(fits)
        def counted_fits(node, pod):
            fits_calls[0] += 1
            return fits(node, pod)

        self._set(KubeNode, "fits", counted_fits)

        self._method(
            ExecutionEngine, "run_block", "sim.run_block",
            after=lambda outcome: _counter("sim.records", outcome.count),
        )
        self._method(
            ExecutionEngine, "run", "sim.run", after=lambda _r: _counter("sim.records")
        )
        skipped = ExecutionEngine.__dict__["skipped"]

        @functools.wraps(skipped)
        def counted_skipped(*args, **kwargs):
            _counter("sim.records")
            return skipped(*args, **kwargs)

        self._set(ExecutionEngine, "skipped", counted_skipped)
        physics = {AppModel, *(type(model) for model in repro.apps.registry.APPS.values())}
        for cls in sorted(physics, key=lambda c: c.__qualname__):
            if "simulate" in cls.__dict__:
                self._method(cls, "simulate", "apps.physics")
        for attr in ("get", "get_many", "get_json"):
            self._method(RunCache, attr, "sim.cache.get")
        for attr in ("put", "put_many", "put_json"):
            self._method(RunCache, attr, "sim.cache.put")
        return self

    def restore(self) -> None:
        from repro.telemetry import current_tracer

        self._flush(current_tracer())
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerProbes":
        try:
            return self.install()
        except BaseException:
            self.restore()
            raise

    def __exit__(self, *exc: Any) -> bool:
        self.restore()
        return False


# -- attribution ---------------------------------------------------------------


def _layer_of(span_name: str) -> str | None:
    if span_name.startswith(PREFIX):
        return span_name[len(PREFIX):]
    return PROGRAM_SPANS.get(span_name)


def layer_self_times(doc: dict) -> dict[str, float]:
    """Seconds of self time per layer over every lane of a merged trace.

    A measured span's self time is its duration minus the durations of
    the measured spans directly beneath it (the nearest measured
    descendants); unmeasured spans in between are transparent.
    """
    totals: dict[str, float] = {}
    for lane in doc["lanes"]:
        spans = lane["spans"]
        layers = [_layer_of(s["name"]) for s in spans]
        # nearest measured ancestor per span (parents precede children)
        owner = [-1] * len(spans)
        for i, s in enumerate(spans):
            parent = s["parent"]
            if parent >= 0:
                owner[i] = parent if layers[parent] is not None else owner[parent]
        self_us = [s["dur_us"] if layers[i] is not None else 0.0 for i, s in enumerate(spans)]
        for i, s in enumerate(spans):
            if layers[i] is not None and owner[i] >= 0:
                self_us[owner[i]] -= s["dur_us"]
        for i, layer in enumerate(layers):
            if layer is not None:
                totals[layer] = totals.get(layer, 0.0) + max(self_us[i], 0.0) / 1e6
    return totals


def _span_count(doc: dict, name: str) -> int:
    return sum(1 for lane in doc["lanes"] for s in lane["spans"] if s["name"] == name)


def _worker_busy_s(doc: dict) -> float:
    return sum(
        s.get("attrs", {}).get("worker_seconds", 0.0)
        for lane in doc["lanes"][1:]
        for s in lane["spans"]
        if s["parent"] < 0
    )


def _sum_counters(counters: dict, pattern: str) -> float:
    regex = re.compile(pattern)
    return sum(v for k, v in counters.items() if regex.fullmatch(k))


def layer_metrics(doc: dict) -> dict[str, float]:
    """Every trace-derived per-layer metric of one traced pass."""
    self_s = layer_self_times(doc)
    c = doc["counters"]
    mine = lambda key: c.get(PREFIX + key, 0)  # noqa: E731
    out = {f"{layer}_s": self_s.get(layer, 0.0) for layer in TIMED_LAYERS}
    total = sum(self_s.values())
    out["layers.self_total_s"] = total
    out["k8s.self_share"] = (
        (self_s.get("k8s.bind", 0.0) + self_s.get("k8s.create", 0.0)) / total
        if total else 0.0
    )
    planned = c.get("plan.reuse.planned_reusable", 0)
    attached = c.get("plan.reuse.attached", 0)
    hits = _sum_counters(c, r"cache\.\w+\.hits")
    misses = _sum_counters(c, r"cache\.\w+\.misses")
    out.update({
        "plan.cells_attached": attached,
        "plan.cells_executed": c.get("plan.reuse.executed", 0),
        "plan.reuse_ratio": attached / planned if planned else 0.0,
        "cloud.clusters": mine("cloud.clusters"),
        "cloud.quota_denials": mine("cloud.quota_denials"),
        "cloud.provision_retries": mine("cloud.provision_retries"),
        "k8s.pods_bound": mine("k8s.pods_bound"),
        "k8s.fits_calls": mine("k8s.fits_calls"),
        "parallel.shards": _span_count(doc, "shard.execute"),
        "parallel.worker_busy_s": _worker_busy_s(doc),
        "parallel.transport_bytes": c.get("transport.bytes", 0),
        "parallel.copied_bytes": c.get("transport.copied_bytes", 0),
        "parallel.retries": c.get("fault.retries", 0),
        "sim.run_block_calls": _span_count(doc, PREFIX + "sim.run_block"),
        "sim.records": mine("sim.records"),
        "sim.run_calls": _span_count(doc, PREFIX + "sim.run"),
        "sim.cache.hits": hits,
        "sim.cache.misses": misses,
        "sim.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sim.cache.hit_bytes": _sum_counters(c, r"cache\.\w+\.(batch_)?hit_bytes"),
        "sim.cache.put_bytes": _sum_counters(c, r"cache\.\w+\.(batch_)?put_bytes"),
        "sim.cache.invalid": c.get("cache.invalid", 0),
        "ensemble.worlds": _span_count(doc, "ensemble.fold"),
        "experiments.runs": mine("experiments.runs"),
    })
    return out


# -- import attribution ----------------------------------------------------------

#: ``cli.import*`` metric -> the module whose cumulative import time it is
IMPORT_ROWS = {
    "cli.import_s": "repro",
    "cli.import.workflows_s": "repro.workflows",
    "cli.import.apps_s": "repro.apps",
    "cli.import.numpy_s": "numpy",
}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per ``IMPORT_ROWS`` module from ``-X importtime``.

    Cumulative time is attributed in import order: a module shared by
    several packages (numpy) counts under whichever imports it first.
    """
    cumulative: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].strip()
        cumulative.setdefault(module, int(fields[1]) / 1e6)
    missing = [m for m in IMPORT_ROWS.values() if m not in cumulative]
    if missing:
        raise RuntimeError(f"-X importtime never imported {missing}")
    return {metric: cumulative[module] for metric, module in IMPORT_ROWS.items()}


def import_rows(root: str, env: dict[str, str]) -> dict[str, float]:
    """``cli.import*`` rows from one fresh ``-X importtime`` interpreter."""
    import procs

    cmd = [sys.executable, "-X", "importtime", "-c", "import repro"]
    with procs.child(cmd, timeout=120, cwd=root, env=env,
                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as proc:
        _, stderr = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"-X importtime exited {proc.returncode}: {stderr[-2000:]}")
    return parse_importtime(stderr)
