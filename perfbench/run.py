"""End-to-end benchmark of the ``repro`` CLI and its public entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s`` — fresh interpreter, from exec until the workload's
  arguments are parsed, its inputs built and its plan compiled
  (median of several probes);
* ``wall_s`` — fresh ``python -m repro <command>`` process, start to exit;
* ``run_s`` — the public entry point in this process, after an untimed
  warm-up pass;
* ``peak_rss_mb`` — largest resident set of one CLI pass's processes
  (the CLI and its pool workers), from ``os.wait4``.

Passes alternate CLI and in-process until ``--seconds`` is spent;
every metric is the median over its passes.  ``--trace 1`` runs the
traced pass instead and reports the per-layer metrics
(:mod:`layers`).  Every pass's output is digested; a pass fails when it
exits non-zero or raises, when its digest differs from the reference
pass of the same run, or when a workload-specific check fails.  Failed
passes count in ``failed``/``failed_frac``; they are never dropped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Provenance,
digests and traces are written under ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench" / "out"

sys.path.insert(0, str(HERE))
import procs  # noqa: E402
from layers import PER_LAYER, LayerProbes, import_rows, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Inputs, claims_failed, make_inputs  # noqa: E402

#: end-to-end metric -> (pass kind, Pass attribute it is the median of, unit)
E2E_FIGURES = {
    "setup_s": ("setup", "seconds", "s"),
    "wall_s": ("cli", "seconds", "s"),
    "run_s": ("inproc", "seconds", "s"),
    "peak_rss_mb": ("cli", "rss_mb", "MB"),
}
#: the end-to-end metrics: (name, unit)
END_TO_END = tuple((name, unit) for name, (_kind, _attr, unit) in E2E_FIGURES.items())
#: fresh-interpreter set-up probes per run
SETUP_PROBES = 3
#: fresh-interpreter ``-X importtime`` probes per traced run
IMPORT_PROBES = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- pass accounting -------------------------------------------------------------


@dataclass
class Pass:
    kind: str
    ok: bool = True
    error: str = ""
    seconds: float | None = None
    digest: str | None = None
    rss_mb: float | None = None
    extra: dict = field(default_factory=dict)


class Tally:
    """Every pass of one run, failures included, and the reference digest
    the others must match."""

    def __init__(self) -> None:
        self.passes: list[Pass] = []
        self.reference: str | None = None

    def run(self, kind: str, body) -> Pass:
        """Run ``body(p)`` as one pass; an exception fails the pass."""
        p = Pass(kind)
        try:
            body(p)
        except Exception as exc:  # the benchmark must keep counting
            p.ok = False
            p.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        if p.ok and p.digest is not None:
            if self.reference is None:
                self.reference = p.digest
            elif p.digest != self.reference:
                p.ok = False
                p.error = f"digest {p.digest} != reference {self.reference}"
        self.passes.append(p)
        status = "ok" if p.ok else f"FAILED ({p.error})"
        secs = f"{p.seconds:.4f} s" if p.seconds is not None else "-"
        print(f"pass {len(self.passes):3d} {kind:9s} {secs:>12s}  digest={p.digest}  {status}",
              flush=True)
        return p

    @property
    def attempted(self) -> int:
        return len(self.passes)

    @property
    def failed(self) -> int:
        return sum(not p.ok for p in self.passes)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def values(self, kind: str, attr: str = "seconds") -> list[float]:
        return [getattr(p, attr) for p in self.passes if p.kind == kind and p.ok]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten passes beyond it, if any."""
    n = len(values)
    pct = int(100 * (1 - 10 / n)) if n else 0
    if pct <= 50:
        return None
    ordered = sorted(values)
    return pct, ordered[min(n - 1, int(n * pct / 100))]


# -- the passes ------------------------------------------------------------------


def setup_pass(p: Pass, name: str, argv: list[str]) -> None:
    """Fresh interpreter: exec until arguments parsed, inputs built, plan
    compiled (the probe prints ``ready`` at that instant)."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, json.dumps(argv)]
    t0 = time.perf_counter()
    with procs.child(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        with proc.stdout:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            rest = proc.stdout.read()
    code = proc.returncode
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {code}: {line}{rest}")
    p.seconds = t1 - t0


def cli_pass(p: Pass, argv: list[str], out: Path, passdir: Path) -> None:
    """Fresh ``python -m repro`` process; peak RSS over it and its
    (reaped) pool workers from ``os.wait4``."""
    log = passdir / "cli.log"
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        with procs.child(
            [sys.executable, "-m", "repro", *argv],
            cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT,
        ) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            p.seconds = time.perf_counter() - t0
            proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"repro {' '.join(argv[:2])} exited {code}:\n{tail}")
    p.rss_mb = usage.ru_maxrss / 1024.0
    p.digest = digest(out.read_bytes().decode("utf-8"))


def inproc_pass(p: Pass, w, inputs: Inputs, passdir: Path, workers: int | None = None) -> None:
    gc.collect()
    t0 = time.perf_counter()
    result = w.run(inputs, passdir, workers)
    p.seconds = time.perf_counter() - t0
    finish(p, w, result, w.export(result))


def finish(p: Pass, w, result, text: str) -> None:
    """Digest the exported text and run the workload's own checks."""
    p.digest = digest(text)
    problems = w.check(result)
    if w.name == "paper-report":
        p.extra["claims_failed"] = claims_failed(text)
    if problems:
        raise RuntimeError("; ".join(problems))


def traced_pass(p: Pass, w, inputs: Inputs, passdir: Path, trace_base: Path) -> None:
    """The in-process pass under a Tracer with the layer wrappers
    installed; export happens inside the trace so ``core.export_s`` sees
    it.  ``p.seconds`` covers the entry point only, as in ``run_s``."""
    from repro.telemetry import (
        Tracer, merge_trace, phase_rows, use_tracer, write_chrome_trace, write_trace,
    )

    gc.collect()
    tracer = Tracer()
    with LayerProbes(), use_tracer(tracer):
        t0 = time.perf_counter()
        result = w.run(inputs, passdir, None)
        p.seconds = time.perf_counter() - t0
        text = w.export(result)
    doc = merge_trace(tracer)
    write_trace(doc, f"{trace_base}.trace.json")
    write_chrome_trace(doc, f"{trace_base}.chrome.json")
    p.extra["layers"] = layer_metrics(doc)
    p.extra["phases"] = phase_rows(doc)[:12]
    finish(p, w, result, text)


# -- one run -----------------------------------------------------------------------


class Run:
    def __init__(self, name: str, seed: int, seconds: float):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.workdir = ROOT / ".perfbench" / f"run-{name}-{seed}-{os.getpid()}"
        self.inputs = make_inputs(name, seed, self.workdir)
        self.tally = Tally()
        self._n = 0

    def passdir(self) -> Path:
        self._n += 1
        path = self.workdir / f"pass-{self._n}"
        path.mkdir()
        return path

    def _in_pass(self, kind: str, fn) -> Pass:
        passdir = self.passdir()
        try:
            return self.tally.run(kind, lambda p: fn(p, passdir))
        finally:
            shutil.rmtree(passdir, ignore_errors=True)

    def setup(self) -> Pass:
        argv = self.w.argv(self.inputs, self.workdir / "setup.out", self.workdir / "setup")
        return self.tally.run("setup", lambda p: setup_pass(p, self.w.name, argv))

    def cli(self) -> Pass:
        def body(p, passdir):
            out = passdir / "out"
            cli_pass(p, self.w.argv(self.inputs, out, passdir), out, passdir)
        return self._in_pass("cli", body)

    def inproc(self, kind: str = "inproc", workers: int | None = None) -> Pass:
        return self._in_pass(kind, lambda p, d: inproc_pass(p, self.w, self.inputs, d, workers))

    def reference(self) -> Pass:
        """The untimed warm-up pass, at the single-process reference worker
        count when the workload runs on the pool; its digest is the one
        every later pass must match."""
        return self.inproc("reference", self.w.reference_workers)

    def traced(self) -> Pass:
        base = OUT / f"{self.w.name}-seed{self.seed}"
        return self._in_pass("traced", lambda p, d: traced_pass(p, self.w, self.inputs, d, base))

    def alternate(self, deadline: float, *steps) -> None:
        """Run ``steps`` in rounds while at least half of another round
        fits before ``deadline`` (at least one round)."""
        while True:
            t0 = time.perf_counter()
            for step in steps:
                step()
            if time.perf_counter() + (time.perf_counter() - t0) / 2 > deadline:
                return

    def end_to_end(self) -> dict[str, float]:
        deadline = time.perf_counter() + self.seconds
        for _ in range(SETUP_PROBES):
            self.setup()
        self.reference()
        self.alternate(deadline, self.cli, self.inproc)
        return {
            metric: median(self.tally.values(kind, attr))
            for metric, (kind, attr, _unit) in E2E_FIGURES.items()
        }

    def per_layer(self) -> dict[str, float]:
        deadline = time.perf_counter() + self.seconds
        imports: list[dict] = []

        def import_probe(p: Pass) -> None:
            t0 = time.perf_counter()
            imports.append(import_rows(str(ROOT), child_env()))
            p.seconds = time.perf_counter() - t0

        for _ in range(IMPORT_PROBES):
            self.tally.run("importtime", import_probe)
        self.reference()
        self.alternate(deadline, self.inproc, self.traced)
        traced = [p for p in self.tally.passes if p.kind == "traced" and p.ok]
        rows = {key: median([r[key] for r in imports]) for key in imports[0]} if imports else {}
        if traced:
            keys = traced[0].extra["layers"]
            rows.update({k: median([p.extra["layers"][k] for p in traced]) for k in keys})
            print("program phases (self time, last traced pass):")
            for row in traced[-1].extra["phases"]:
                print(f"  {row['phase']:32s} {row['count']:8d} spans "
                      f"{row['self_s']:10.4f} s {row['self_pct']:6.1f} %")
        untraced = median(self.tally.values("inproc"))
        rows["telemetry.overhead_frac"] = (
            median(self.tally.values("traced")) / untraced - 1 if untraced else 0.0
        )
        rows["experiments.claims_failed"] = self.claims_failed()
        return {name: rows.get(name, 0.0) for name, _unit in PER_LAYER}

    def claims_failed(self) -> int:
        counts = [p.extra["claims_failed"] for p in self.tally.passes if "claims_failed" in p.extra]
        return max(counts) if counts else 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def provenance(name: str, seed: int, tally: Tally) -> dict:
    import numpy

    import repro

    import multiprocessing

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass

    return {
        "workload": name,
        "seed": seed,
        "passes": tally.attempted,
        "repro_version": repro.__version__,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "tmp_fstype": fstype(ROOT / ".perfbench"),
        "platform": platform.platform(),
    }


def fstype(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path`` (Linux only)."""
    best, kind = "", None
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        return None
    return kind


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, seconds)
    try:
        metrics = run.per_layer() if trace else run.end_to_end()
    finally:
        run.close()
    tally = run.tally
    units = dict(PER_LAYER if trace else END_TO_END)
    prov = provenance(name, seed, tally)
    record = {
        "provenance": prov,
        "trace": trace,
        "passes": [
            {"kind": p.kind, "ok": p.ok, "error": p.error, "seconds": p.seconds,
             "digest": p.digest, "rss_mb": p.rss_mb}
            for p in tally.passes
        ],
        "failed_frac": tally.failed_frac,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "layers" if trace else "e2e"
    (OUT / f"{name}-seed{seed}.{suffix}.json").write_text(json.dumps(record, indent=2))
    with open(OUT / "digests.jsonl", "a", encoding="utf-8") as fh:
        for p in tally.passes:
            if p.digest:
                fh.write(json.dumps({"workload": name, "seed": seed, "kind": p.kind,
                                     "digest": p.digest, "ok": p.ok}) + "\n")
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    ok = Counter(p.kind for p in tally.passes if p.ok)
    print(f"{name}: {tally.attempted} passes ({', '.join(f'{k} {n}' for k, n in ok.items())} ok), "
          f"failed_frac {tally.failed_frac:.4f}")
    for metric, value in metrics.items():
        tail = tail_percentile(tally.values(*E2E_FIGURES[metric][:2])) if not trace else None
        line = f"  {metric:28s} {value:14.6g} {units[metric]}"
        print(line + (f"  (p{tail[0]} {tail[1]:.6g})" if tail else ""))
    if name == "paper-report":
        # Reported, not failed: whether every paper claim holds depends
        # on the seed (3 of seeds 0-11 miss one claim), not on the code
        # path this benchmark times.
        print(f"  paper claims not reproduced at seed {seed}: {run.claims_failed()}")
    return result_line(tally, metrics, units)


def result_line(tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> dict:
    """The JSON object printed last: failures are counted, never dropped."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; one table, one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        with procs.child(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            timeout=900, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            stdout, _ = proc.communicate()
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result))
    print(f"{'metric':28s} {'unit':6s}" + "".join(f"{name:>18s}" for name, _ in rows))
    for metric, unit in PER_LAYER if trace else END_TO_END:
        cells = "".join(f"{r['metrics'][metric]['value']:18.6g}" for _, r in rows)
        print(f"{metric:28s} {unit:6s}{cells}")
    fracs = "".join(f"{r['failed'] / r['attempted']:18.4f}" for _, r in rows)
    print(f"{'failed_frac':28s} {'ratio':6s}{fracs}")
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Temporary files of this process and every child stay in the checkout.
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    procs.become_subreaper()
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        procs.stop_own_children()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
