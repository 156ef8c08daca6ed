"""The published artifact: one JSON document per campaign.

A :class:`CampaignReport` is the PUBLISH stage's output — everything a
reader needs to audit the decision: the spec and its digest, per-stage
accounting (worlds folded, cells attached, prune counts), the pruned
configs with the gate clauses they violated, the AB delta rows, the
Pareto frontier with config fingerprints, and the selected winner.

The document has exactly one non-deterministic section, ``profile``
(per-stage wall-clock seconds measured from the ``campaign.*``
telemetry spans).  Everything else is a pure function of the spec and
the folded statistics, so :meth:`CampaignReport.core_json` — the
document minus ``profile`` — is byte-identical for any worker count;
the determinism tests hold that property at workers 1 and 4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: report schema version; bump on shape changes
REPORT_VERSION = 1


@dataclass
class CampaignReport:
    """One campaign's published JSON document."""

    data: dict

    # -- accessors -----------------------------------------------------------

    @property
    def winner(self) -> dict | None:
        return self.data.get("winner")

    @property
    def frontier(self) -> list[dict]:
        return self.data.get("frontier", [])

    @property
    def stages(self) -> dict:
        return self.data.get("stages", {})

    def core(self) -> dict:
        """The deterministic document: everything but ``profile``."""
        return {k: v for k, v in self.data.items() if k != "profile"}

    # -- serialization -------------------------------------------------------

    def core_json(self) -> str:
        """Canonical JSON of :meth:`core` — the byte-identity surface."""
        return json.dumps(self.core(), indent=2, sort_keys=True)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        return cls(data=json.loads(text))


def build_report(
    *,
    spec,
    stage_records: list,
    pruned: list,
    candidates: list,
    ab: list[dict],
    frontier: list,
    winner,
    stage_seconds: dict[str, float],
    stats,
) -> CampaignReport:
    """Assemble the document from the stage pipeline's outputs.

    ``stage_records`` are :class:`~repro.campaigns.stages.StageRecord`
    values; ``pruned``/``candidates``/``frontier``/``winner`` are
    :class:`~repro.campaigns.frontier.Candidate` values (or ``None``).
    ``stats`` is the run's :class:`~repro.parallel.stats.ExecutionStats`;
    its recovery accounting is included only when it saw action.  Like
    timings it describes *this execution*, not the dataset — retry
    counts vary with worker scheduling — so it lives in the
    non-deterministic ``profile`` section, keeping
    :meth:`~CampaignReport.core_json` byte-identical across worker
    counts and fault patterns.
    """
    profile: dict = {"stage_seconds": stage_seconds}
    if stats.faults.activity:
        profile["faults"] = stats.faults.to_dict()
    return CampaignReport(
        data={
            "v": REPORT_VERSION,
            "campaign": spec.to_dict(),
            "digest": spec.digest(),
            "stages": {rec.name: rec.detail for rec in stage_records},
            "pruned": [c.to_dict() for c in pruned],
            "candidates": [c.to_dict() for c in candidates],
            "ab": ab,
            "frontier": [c.to_dict() for c in frontier],
            "winner": winner.to_dict() if winner is not None else None,
            "profile": profile,
        }
    )
