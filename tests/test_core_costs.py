"""Cost-analysis tests (Table 4, §3.4)."""

import pytest

from repro.core.costs import amg_cost_table, cheapest_accelerator
from repro.core.results import ResultStore
from repro.envs.registry import cpu_environments, gpu_environments
from repro.experiments.base import run_matrix


@pytest.fixture(scope="module")
def amg_store():
    envs = [e for e in cpu_environments() + gpu_environments() if e.cloud != "p"]
    return run_matrix(envs, ["amg2023"], iterations=2, seed=0)


def test_cost_table_sorted_ascending(amg_store):
    rows = amg_cost_table(amg_store)
    totals = [r.total_cost for r in rows]
    assert totals == sorted(totals)


def test_gpu_cheaper_despite_pricier_instances(amg_store):
    rows = amg_cost_table(amg_store)
    assert cheapest_accelerator(rows) == "GPU"
    gpu_max_rate = max(r.cost_per_hour for r in rows if r.accelerator == "GPU")
    cpu_max_rate = max(r.cost_per_hour for r in rows if r.accelerator == "CPU")
    assert gpu_max_rate > cpu_max_rate  # pricier instances...
    cheapest = rows[0]
    assert cheapest.accelerator == "GPU"  # ...yet cheaper totals


def test_eleven_rows(amg_store):
    assert len(amg_cost_table(amg_store)) == 11


def test_empty_store():
    assert amg_cost_table(ResultStore()) == []
    assert cheapest_accelerator([]) == ""
