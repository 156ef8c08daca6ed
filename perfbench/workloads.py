"""The benchmark's workloads: one user-facing ``repro`` command each.

Every workload has three forms that must produce the same bytes:

* ``argv`` — the CLI command a user types (``python -m repro ...``),
  which writes its result file with ``--output``/``-o``;
* ``run`` + ``export`` — the public entry point the command calls, in
  process, and the text the command writes;
* ``setup`` — what the command does before the first cell executes:
  parse its arguments, build its inputs and compile its plan.

Inputs come only from the seed: the study seed, the ensemble base seed,
and the fabric-degradation scenarios of the incremental sweep, which are
written as JSON spec files the CLI and the in-process form both read.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: ensemble what-if grid (preset names)
ENSEMBLE_SCENARIOS = ("spot-everything", "degraded-efa", "price-war")
#: each sweep scenario degrades one of these clouds' fabric, each cloud
#: once.  All three have 16 (environment, size) cells, so every seed
#: re-executes the same number of cells; the clouds' cells differ in
#: cost (~15%), so an unbalanced draw would make the work depend on it.
SWEEP_CLOUDS = ("aws", "az", "g")


@dataclass
class Inputs:
    """One run's generated inputs."""

    seed: int
    workdir: Path
    #: sweep scenario spec files (empty for the other workloads)
    scenario_files: tuple[str, ...] = ()


def sweep_scenarios(seed: int) -> list[dict]:
    """One single-cloud fabric degradation per cloud: their order and
    latency multipliers are drawn from ``seed``."""
    rng = random.Random(seed)
    clouds = rng.sample(SWEEP_CLOUDS, len(SWEEP_CLOUDS))
    return [
        {
            "scenario_id": f"fabric-{i:02d}",
            "fabric": {
                "latency_multiplier": round(rng.uniform(1.05, 2.0), 3),
                "clouds": [cloud],
            },
        }
        for i, cloud in enumerate(clouds)
    ]


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    if workload != "incremental-sweep":
        return Inputs(seed, workdir)
    files = []
    for spec in sweep_scenarios(seed):
        path = workdir / f"{spec['scenario_id']}.json"
        path.write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
        files.append(str(path))
    return Inputs(seed, workdir, tuple(files))


# -- shared builders -------------------------------------------------------------


def _study_config(seed: int):
    from repro.apps.registry import APPS
    from repro.core.study import StudyConfig
    from repro.envs.registry import ENVIRONMENTS

    return StudyConfig(
        env_ids=tuple(ENVIRONMENTS), apps=tuple(APPS), sizes=None,
        iterations=5, seed=seed,
    )


def _ensemble_spec(seed: int):
    from repro.ensemble import EnsembleSpec
    from repro.scenarios.presets import scenario

    return EnsembleSpec(
        n_replicas=4, base_seed=seed,
        scenarios=tuple(scenario(name) for name in ENSEMBLE_SCENARIOS),
        sizes=(32,), iterations=40,
    )


def _load_scenarios(files):
    from repro.scenarios.spec import Scenario

    return [
        Scenario.from_dict(json.loads(Path(f).read_text(encoding="utf-8")))
        for f in files
    ]


def _parse(argv: list[str]):
    from repro.__main__ import build_parser

    return build_parser().parse_args(argv)


# -- the four workloads ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: repro CLI arguments: (inputs, output file, per-pass directory)
    argv: Callable[[Inputs, Path, Path], list[str]]
    #: in-process entry point: (inputs, per-pass directory, workers) -> result
    run: Callable[[Inputs, Path, int | None], Any]
    #: the text the CLI writes to its output file
    export: Callable[[Any], str]
    #: parse ``argv``, build inputs, compile the plan (no execution)
    setup: Callable[[list[str]], None]
    #: correctness problems beyond digest equality (empty when fine)
    check: Callable[[Any], list[str]] = lambda _result: []
    #: worker count of the single-process reference pass, when the
    #: workload runs on the process pool
    reference_workers: int | None = None


def _study_argv(inputs, out, _passdir):
    return ["study", "--iterations", "5", "--seed", str(inputs.seed), "--output", str(out)]


def _study_run(inputs, _passdir, _workers):
    from repro.core.study import StudyRunner

    return StudyRunner(_study_config(inputs.seed)).run()


def _study_setup(argv):
    from repro.plan import compile_study

    args = _parse(argv)
    compile_study(_study_config(args.seed))


def _ensemble_argv(inputs, out, _passdir):
    argv = ["ensemble", "run"]
    for name in ENSEMBLE_SCENARIOS:
        argv += ["--scenario", name]
    return argv + [
        "--replicas", "4", "--sizes", "32", "--iterations", "40",
        "--seed", str(inputs.seed), "--workers", "2", "--output", str(out),
    ]


def _ensemble_run(inputs, _passdir, workers):
    from repro.ensemble import EnsembleRunner

    return EnsembleRunner(_ensemble_spec(inputs.seed), workers=workers or 2).run()


def _ensemble_setup(argv):
    from repro.plan import compile_ensemble

    args = _parse(argv)
    compile_ensemble(_ensemble_spec(args.seed))


def _sweep_argv(inputs, out, passdir):
    argv = [
        "scenario", "run", "--incremental", "--cache", str(passdir / "cache"),
        "--iterations", "5", "--seed", str(inputs.seed),
    ]
    for path in inputs.scenario_files:
        argv += ["--scenario", path]
    return argv + ["--output", str(out)]


def _sweep_run(inputs, passdir, _workers):
    from repro.scenarios.sweep import ScenarioSweep

    return ScenarioSweep(
        _study_config(inputs.seed), _load_scenarios(inputs.scenario_files),
        cache_dir=str(passdir / "cache"), incremental=True,
    ).run()


def _sweep_setup(argv):
    from repro.plan import compile_scenarios

    args = _parse(argv)
    compile_scenarios(
        _study_config(args.seed), _load_scenarios(args.scenario), cache_dir=args.cache
    )


def _sweep_check(result) -> list[str]:
    reuse = result.reuse
    problems = []
    if reuse is None:
        return ["incremental sweep reported no reuse accounting"]
    if reuse.attached != reuse.planned_reusable or reuse.executed != reuse.planned_dirty:
        problems.append(f"reuse diverged from the diff: {reuse.to_dict()}")
    if reuse.invalid:
        problems.append(f"{reuse.invalid} invalid cache entries in a fresh cache")
    return problems


def _report_argv(inputs, out, _passdir):
    return ["report", "--seed", str(inputs.seed), "-o", str(out)]


def _report_run(inputs, _passdir, _workers):
    from repro.reporting.report import generate_report

    return generate_report(seed=inputs.seed)


def _report_setup(argv):
    import repro.reporting.report  # noqa: F401  (the experiment harnesses)

    _parse(argv)


_CLAIMS = re.compile(r"\*\*(\d+)/(\d+) reproduced\*\*")


def claims_failed(report_text: str) -> int:
    """Paper claims the report marks as not reproduced."""
    match = _CLAIMS.search(report_text)
    if match is None:
        raise ValueError("report has no paper-claim summary line")
    held, total = map(int, match.groups())
    return total - held


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-study",
            "full paper study to 256 nodes, serial, no cache: k8s/cloud provisioning dominates",
            _study_argv, _study_run, lambda r: r.store.to_csv(), _study_setup,
        ),
        Workload(
            "whatif-ensemble",
            "16-world what-if ensemble on 2 workers: engine, pool, shm transport and merge dominate",
            _ensemble_argv, _ensemble_run,
            lambda r: r.distribution_table().to_csv(), _ensemble_setup,
            reference_workers=1,
        ),
        Workload(
            "incremental-sweep",
            "3 single-cloud fabric scenarios, incremental on a fresh cache: cache writes then reads",
            _sweep_argv, _sweep_run, lambda r: r.delta_table().to_csv(), _sweep_setup,
            check=_sweep_check,
        ),
        Workload(
            "paper-report",
            "every figure and table via run_matrix and the scalar engine, then markdown render",
            _report_argv, _report_run, lambda text: text, _report_setup,
        ),
    )
}
