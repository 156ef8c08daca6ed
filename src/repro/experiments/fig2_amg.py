"""Figure 2: AMG2023 overall FOM, CPU and GPU (weak scaled).

Paper claims reproduced:

* "Cloud environments excelled for GPU runs, while on-premises had the
  highest FOMs for CPU."
* "The on-premises cluster B (GPU) produced some of the lowest FOMs
  across sizes, but cluster A (CPU) produced the largest."
* "-P 8 4 2 results in about 10% higher FOM than -P 4 4 4"
  (checked via the process-topology option at size 64 on GKE).
"""

from __future__ import annotations

from repro.core.analysis import mean_fom, rank_environments
from repro.envs.environment import GPU_SIZES
from repro.envs.registry import cpu_environments, environment, gpu_environments
from repro.experiments.base import ExperimentOutput, run_matrix, series_from_store
from repro.reporting.compare import Expectation
from repro.sim.execution import ExecutionEngine


def run(seed: int = 0, iterations: int = 5) -> ExperimentOutput:
    cpu_store = run_matrix(cpu_environments(), ["amg2023"], iterations=iterations, seed=seed)
    gpu_store = run_matrix(gpu_environments(), ["amg2023"], iterations=iterations, seed=seed)

    cpu_series = series_from_store(
        cpu_store, "amg2023", title="AMG2023 FOM (CPU)", y_label="FOM (nnz_AP/s)"
    )
    gpu_series = series_from_store(
        gpu_store, "amg2023", title="AMG2023 FOM (GPU)", y_label="FOM (nnz_AP/s)"
    )

    def onprem_a_largest() -> bool:
        return all(
            rank_environments(cpu_store, "amg2023", s)[0][0] == "cpu-onprem-a"
            for s in (32, 64, 128, 256)
        )

    def onprem_b_among_lowest() -> bool:
        # bottom half of the 6 GPU environments at every size
        for s in GPU_SIZES:
            ranked = [e for e, _ in rank_environments(gpu_store, "amg2023", s)]
            if ranked.index("gpu-onprem-b") < len(ranked) - 3:
                return False
        return True

    def gpu_beats_cpu_per_cloud() -> bool:
        # "Cloud environments excelled for GPU": at matched scale index,
        # cloud GPU FOM exceeds the same cloud's CPU FOM.
        pairs = [
            ("gpu-eks-aws", "cpu-eks-aws"),
            ("gpu-aks-az", "cpu-aks-az"),
            ("gpu-gke-g", "cpu-gke-g"),
        ]
        for gpu_env, cpu_env in pairs:
            g = mean_fom(gpu_store, gpu_env, "amg2023", 256)
            c = mean_fom(cpu_store, cpu_env, "amg2023", 256)
            if g is None or c is None or g.mean <= c.mean:
                return False
        return True

    def topology_bonus() -> bool:
        engine = ExecutionEngine(seed=seed)
        env = environment("gpu-gke-g")
        tuned = engine.run(env, "amg2023", 64, options={"process_topology": (8, 4, 2)})
        legacy = engine.run(env, "amg2023", 64, options={"process_topology": (4, 4, 4)})
        assert tuned.fom and legacy.fom
        ratio = tuned.fom / legacy.fom
        return 1.05 <= ratio <= 1.15

    expectations = [
        Expectation("fig2", "on-prem A has the largest CPU FOM at every size",
                    onprem_a_largest, "§3.3 AMG2023"),
        Expectation("fig2", "on-prem B is in the bottom half of GPU FOMs at every size",
                    onprem_b_among_lowest, "§3.3 AMG2023"),
        Expectation("fig2", "cloud GPU runs beat the same cloud's CPU runs (GPU excels)",
                    gpu_beats_cpu_per_cloud, "Figure 2"),
        Expectation("fig2", "-P 8 4 2 gives ~10% higher FOM than -P 4 4 4 on GKE size 64",
                    topology_bonus, "§3.3 AMG2023"),
    ]
    from repro.core.results import ResultStore

    combined = ResultStore.merge((cpu_store, gpu_store))
    return ExperimentOutput(
        experiment_id="fig2",
        title="AMG2023 FOM (CPU + GPU)",
        series=[cpu_series, gpu_series],
        store=combined,
        expectations=expectations,
    )
