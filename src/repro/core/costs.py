"""Cost analysis: Table 4 (AMG2023 total cost).

Table 4 sums, per environment, the cost of all AMG2023 iterations
across sizes (nodes × instance cost × execution time).  The paper's
headline observation — *GPU runs were significantly cheaper despite the
more expensive instance type* — emerges because weak-scaled AMG
finishes each GPU run far faster than the CPU equivalent.  §3.4's
per-cloud study spend is reproduced by
:mod:`repro.experiments.study_costs` from a campaign's folded spend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import ResultStore
from repro.envs.registry import ENVIRONMENTS


@dataclass(frozen=True)
class CostRow:
    """One Table 4 row."""

    env_id: str
    display_name: str
    accelerator: str
    cost_per_hour: float
    total_cost: float


def amg_cost_table(store: ResultStore) -> list[CostRow]:
    """Table 4: AMG2023 total cost by environment, cheapest first.

    Totals sum across iterations and sizes, accounting for node count
    and instance cost — the paper's definition.
    """
    rows: list[CostRow] = []
    for env_id in store.environments():
        env = ENVIRONMENTS.get(env_id)
        if env is None:
            continue
        runs = store.query(env_id=env_id, app="amg2023")
        # Table 4 accounts for *execution time*, cluster size, and
        # instance cost (§3.4) — hookup/idle time is not part of the
        # per-app total, so strip its share of the metered cost.
        total = 0.0
        for r in runs:
            if r.total_seconds > 0:
                total += r.cost_usd * (r.wall_seconds / r.total_seconds)
        if total == 0.0 and env.cloud == "p":
            continue  # on-prem has no billing
        if not runs:
            continue
        rows.append(
            CostRow(
                env_id=env_id,
                display_name=env.display_name,
                accelerator=env.accelerator.upper(),
                cost_per_hour=env.instance().cost_per_hour,
                total_cost=total,
            )
        )
    rows.sort(key=lambda r: r.total_cost)
    return rows


def cheapest_accelerator(rows: list[CostRow]) -> str:
    """Which accelerator class produced the cheaper AMG runs overall."""
    by_acc: dict[str, list[float]] = {}
    for row in rows:
        by_acc.setdefault(row.accelerator, []).append(row.total_cost)
    means = {acc: sum(v) / len(v) for acc, v in by_acc.items() if v}
    return min(means, key=means.get) if means else ""
