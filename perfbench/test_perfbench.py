"""Self-tests of the benchmark: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code(spec):
    assert 1 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in spec["end_to_end"])


def _small_sweep(inputs, passdir, _workers):
    """The incremental sweep over two environments at one size."""
    from repro.core.study import StudyConfig
    from repro.scenarios.sweep import ScenarioSweep

    config = StudyConfig(
        env_ids=("cpu-eks-aws", "cpu-aks-az", "cpu-gke-g"), apps=("amg2023", "lammps"),
        sizes=(64,), iterations=2, seed=inputs.seed,
    )
    return ScenarioSweep(
        config, workloads._load_scenarios(inputs.scenario_files[:3]),
        cache_dir=str(passdir / "cache"), incremental=True,
    ).run()


SMALL_SWEEP = dataclasses.replace(workloads.WORKLOADS["incremental-sweep"], run=_small_sweep)


def _traced(tmp_path, seed: int, name: str):
    inputs = workloads.make_inputs("incremental-sweep", seed, tmp_path / f"in-{name}")
    passdir = tmp_path / name
    passdir.mkdir()
    p = run.Pass("traced")
    run.traced_pass(p, SMALL_SWEEP, inputs, passdir, tmp_path / name)
    return inputs, p


def test_wrappers_keep_the_digest_and_restore_the_originals(tmp_path):
    inputs = workloads.make_inputs("incremental-sweep", 3, tmp_path / "in")
    (tmp_path / "plain").mkdir()
    plain = run.Pass("inproc")
    run.inproc_pass(plain, SMALL_SWEEP, inputs, tmp_path / "plain")

    probes = layers.LayerProbes()
    with probes:
        saved = list(probes._saved)
        assert saved and all(owner.__dict__[attr] is not orig for owner, attr, orig in saved)
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in saved)

    _, traced = _traced(tmp_path, 3, "traced")
    assert traced.digest == plain.digest
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in saved)
    assert (tmp_path / "traced.trace.json").is_file()
    assert (tmp_path / "traced.chrome.json").is_file()


COUNTS = (
    "k8s.fits_calls", "k8s.pods_bound", "cloud.clusters", "sim.records",
    "sim.run_block_calls", "plan.cells_attached", "plan.cells_executed",
    "sim.cache.hits", "sim.cache.misses", "parallel.shards",
)


def test_same_seed_repeats_every_count(tmp_path):
    _, first = _traced(tmp_path, 5, "a")
    _, second = _traced(tmp_path, 5, "b")
    a, b = first.extra["layers"], second.extra["layers"]
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["k8s.fits_calls"] > 0 and a["sim.records"] > 0
    assert a["plan.cells_attached"] > 0 and a["plan.cells_executed"] > 0
    assert a["sim.cache.hits"] == a["plan.cells_attached"]


def test_seed_drives_the_inputs(tmp_path):
    assert workloads.sweep_scenarios(7) == workloads.sweep_scenarios(7)
    assert workloads.sweep_scenarios(7) != workloads.sweep_scenarios(8)
    a = workloads.make_inputs("incremental-sweep", 7, tmp_path / "a")
    b = workloads.make_inputs("incremental-sweep", 8, tmp_path / "b")
    texts = lambda inputs: [Path(f).read_text() for f in inputs.scenario_files]  # noqa: E731
    assert texts(a) != texts(b)
    for w in workloads.WORKLOADS.values():
        argv = w.argv(workloads.Inputs(7, tmp_path), tmp_path / "out", tmp_path)
        assert argv[argv.index("--seed") + 1] == "7"


def test_failing_passes_are_counted_not_dropped():
    tally = run.Tally()

    def ok(p):
        p.seconds, p.digest = 1.0, "aa"

    def raises(_p):
        raise RuntimeError("forced failure")

    def wrong(p):
        p.seconds, p.digest = 1.0, "bb"

    tally.run("inproc", ok)
    tally.run("inproc", raises)
    tally.run("cli", wrong)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac == pytest.approx(2 / 3)
    assert tally.values("inproc") == [1.0] and tally.values("cli") == []
    line = run.result_line(tally, {"run_s": 1.0}, {"run_s": "s"})
    assert line == {
        "correct": False, "attempted": 3, "failed": 2,
        "metrics": {"run_s": {"value": 1.0, "unit": "s"}},
    }


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_child_waits_for_what_the_child_left_behind():
    # The child exits at once; the orphan it started must still be
    # waited for (as multiprocessing's resource tracker is).
    script = ("import subprocess, sys; "
              "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(0.5)']); "
              "print(p.pid, flush=True)")
    with procs.child([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True) as proc:
        orphan = int(proc.communicate()[0])
    assert proc.returncode == 0
    assert not _alive(orphan)


def test_own_resource_tracker_is_stopped():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    assert _alive(pid)
    procs.stop_own_children()
    assert not _alive(pid)


def test_importtime_rows_use_cumulative_microseconds():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |      15000 |   numpy",
        "import time:        80 |      20000 |   repro.apps",
        "import time:        70 |      30000 |   repro.workflows",
        "import time:        10 |     640000 | repro",
    ])
    assert layers.parse_importtime(stderr) == {
        "cli.import_s": 0.64, "cli.import.workflows_s": 0.03,
        "cli.import.apps_s": 0.02, "cli.import.numpy_s": 0.015,
    }
    with pytest.raises(RuntimeError):
        layers.parse_importtime(stderr.replace("numpy", "other"))


def test_self_time_skips_unmeasured_spans():
    span = lambda name, dur, parent: {"name": name, "dur_us": dur, "parent": parent}  # noqa: E731
    doc = {"lanes": [{"spans": [
        span("layer:k8s.bind", 100.0, -1),
        span("study.run", 60.0, 0),           # unmeasured: stays with k8s.bind
        span("engine.physics", 40.0, 1),      # measured: leaves k8s.bind
        span("layer:sim.cache.get", 10.0, 2),
    ]}]}
    assert layers.layer_self_times(doc) == pytest.approx(
        {"k8s.bind": 60e-6, "apps.physics": 30e-6, "sim.cache.get": 10e-6}
    )
