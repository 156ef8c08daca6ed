"""§3.3 Stream: Triad bandwidth, CPU (size-64 aggregate) and GPU (size 32).

Paper figures this harness reproduces (GB/s):

* CPU aggregate at 64 nodes: GKE 6800.9 ± 2402.3, Compute Engine
  6239.4 ± 2326.1, EKS 3013.2 ± 880.3, AKS 2579.5 ± 907.6;
* GPU per-GPU Triad at size 32: GKE 782.91, Compute Engine 783.3,
  AKS 748.54, on-prem B 782.52, CycleCloud 748.54.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import mean_fom
from repro.envs.registry import cpu_environments, environment, gpu_environments
from repro.experiments.base import ExperimentOutput, run_matrix
from repro.reporting.compare import Expectation
from repro.reporting.tables import Table

PAPER_CPU_AGGREGATE = {
    "cpu-gke-g": 6800.9,
    "cpu-computeengine-g": 6239.35,
    "cpu-eks-aws": 3013.23,
    "cpu-aks-az": 2579.5,
}
PAPER_GPU_TRIAD = {
    "gpu-gke-g": 782.91,
    "gpu-computeengine-g": 783.3,
    "gpu-aks-az": 748.54,
    "gpu-onprem-b": 782.52,
    "gpu-cyclecloud-az": 748.54,
}


def run(seed: int = 0, iterations: int = 5) -> ExperimentOutput:
    cpu_store = run_matrix(
        cpu_environments(), ["stream"], sizes=lambda e: (64,),
        iterations=iterations, seed=seed,
    )
    gpu_store = run_matrix(
        gpu_environments(), ["stream"], sizes=lambda e: (32,),
        iterations=iterations, seed=seed,
    )

    table = Table(
        title="Stream Triad bandwidth",
        columns=("Environment", "Config", "Measured (GB/s)", "Paper (GB/s)"),
        caption="CPU rows: aggregate across a 64-node cluster. "
        "GPU rows: per-GPU Triad at size 32.",
    )
    measured: dict[str, float] = {}
    for env in cpu_environments():
        stat = mean_fom(cpu_store, env.env_id, "stream", 64)
        if stat:
            measured[env.env_id] = stat.mean
            paper = PAPER_CPU_AGGREGATE.get(env.env_id)
            table.add(env.env_id, "CPU 64-node aggregate", f"{stat.mean:.1f}",
                      f"{paper:.1f}" if paper else "-")
    for env in gpu_environments():
        stat = mean_fom(gpu_store, env.env_id, "stream", 32)
        if stat:
            measured[env.env_id] = stat.mean
            paper = PAPER_GPU_TRIAD.get(env.env_id)
            table.add(env.env_id, "GPU per-GPU Triad", f"{stat.mean:.1f}",
                      f"{paper:.1f}" if paper else "-")

    def cpu_within_25pct() -> bool:
        return all(
            abs(measured[e] - v) / v < 0.25 for e, v in PAPER_CPU_AGGREGATE.items()
        )

    def cpu_ordering() -> bool:
        return (
            measured["cpu-gke-g"] > measured["cpu-eks-aws"] > 0
            and measured["cpu-computeengine-g"] > measured["cpu-aks-az"]
            and measured["cpu-aks-az"] < measured["cpu-eks-aws"] * 1.2
        )

    def gpu_within_5pct() -> bool:
        return all(
            abs(measured[e] - v) / v < 0.05 for e, v in PAPER_GPU_TRIAD.items()
        )

    expectations = [
        Expectation("stream", "CPU aggregates within 25% of the paper's figures",
                    cpu_within_25pct, "§3.3 Stream"),
        Expectation("stream", "Google environments lead; AKS lowest CPU aggregate",
                    cpu_ordering, "§3.3 Stream"),
        Expectation("stream", "GPU Triad within 5% of the paper's figures",
                    gpu_within_5pct, "§3.3 Stream"),
    ]
    from repro.core.results import ResultStore

    combined = ResultStore.merge((cpu_store, gpu_store))
    return ExperimentOutput(
        experiment_id="stream",
        title="Stream Triad",
        table=table,
        store=combined,
        expectations=expectations,
    )
