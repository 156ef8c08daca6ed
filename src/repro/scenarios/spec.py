"""Scenario specs: typed, declarative counterfactual overlays.

A :class:`Scenario` is a pure value describing how a what-if world
differs from the study's baseline: which clouds run on the spot market,
whose prices spiked, how much tighter quotas got, how degraded the
fabrics are, how late the bills arrive, and how flaky provisioning is.
Scenarios never *do* anything — :mod:`repro.scenarios.apply` turns them
into per-shard overlays, and :mod:`repro.scenarios.sweep` fans them
across the existing parallel campaign machinery.

Scenarios load from plain dicts (and therefore JSON) via
:meth:`Scenario.from_dict`, round-trip through :meth:`Scenario.to_dict`,
and hash to a stable :meth:`Scenario.digest` that the run cache embeds
in its keys so two worlds never share an entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.scenarios.market import SpotMarket


@dataclass(frozen=True)
class PriceShock:
    """A per-cloud multiplier on every hourly rate (demand spike, sale)."""

    #: the overlay hook this perturbation activates (incremental diffing)
    hook = "effective_rate"

    cloud: str
    multiplier: float

    def __post_init__(self) -> None:
        if self.multiplier < 0:
            raise ConfigurationError("price shock multiplier must be non-negative")

    def touches(self, cloud: str) -> bool:
        """Whether this shock can change a cell on ``cloud`` at all."""
        return self.cloud == cloud


@dataclass(frozen=True)
class QuotaSqueeze:
    """Tighter quota friction: scaled grant odds, stretched delays."""

    hook = "friction_overrides/probability_scale"

    #: multiplies each cloud's grant probability (values < 1 tighten)
    grant_probability_scale: float = 1.0
    #: multiplies the uniform grant-delay bounds
    delay_scale: float = 1.0
    #: clouds affected; ``None`` means every cloud with a quota workflow
    clouds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.grant_probability_scale < 0 or self.delay_scale < 0:
            raise ConfigurationError("quota squeeze scales must be non-negative")

    def touches(self, cloud: str) -> bool:
        # On-prem has no quota workflow (quota_friction_overrides skips
        # "p"), so a squeeze can never reach an on-prem cell.
        return cloud != "p" and (self.clouds is None or cloud in self.clouds)


@dataclass(frozen=True)
class FabricDegradation:
    """Multipliers on the LogGP parameters of affected fabrics."""

    hook = "Fabric.overlaid"

    latency_multiplier: float = 1.0
    bandwidth_multiplier: float = 1.0
    overhead_multiplier: float = 1.0
    jitter_multiplier: float = 1.0
    #: clouds affected; ``None`` means everywhere (including on-prem)
    clouds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if (
            min(
                self.latency_multiplier,
                self.bandwidth_multiplier,
                self.overhead_multiplier,
            )
            <= 0
        ):
            raise ConfigurationError("fabric degradation multipliers must be positive")
        if self.jitter_multiplier < 0:
            raise ConfigurationError("fabric jitter multiplier must be non-negative")

    def touches(self, cloud: str) -> bool:
        # ``None`` really is everywhere — degraded fabrics include the
        # on-prem interconnect (overlay_fabric has no "p" carve-out).
        return self.clouds is None or cloud in self.clouds


@dataclass(frozen=True)
class ReportingShift:
    """Different cost-reporting lags per cloud, in hours."""

    hook = "lag_overrides"

    lag_hours: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if any(hours < 0 for _, hours in self.lag_hours):
            raise ConfigurationError("reporting lag hours must be non-negative")

    def touches(self, cloud: str) -> bool:
        # Lags shift the billing meter, and only clouds have one.
        return cloud != "p" and any(c == cloud for c, _ in self.lag_hours)


@dataclass(frozen=True)
class FaultScaling:
    """Scales every registered fault's firing probability."""

    hook = "fault_scale"

    scale: float = 1.0
    #: clouds affected; ``None`` means all
    clouds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ConfigurationError("fault scale must be non-negative")

    def touches(self, cloud: str) -> bool:
        # Faults fire in the provisioner; on-prem cells never provision.
        return cloud != "p" and (self.clouds is None or cloud in self.clouds)


@dataclass(frozen=True)
class Scenario:
    """One declarative counterfactual world."""

    scenario_id: str
    description: str = ""
    price_shocks: tuple[PriceShock, ...] = ()
    spot: SpotMarket | None = None
    quota: QuotaSqueeze | None = None
    fabric: FabricDegradation | None = None
    reporting: ReportingShift | None = None
    faults: FaultScaling | None = None

    # -- classification -----------------------------------------------------

    @property
    def is_baseline(self) -> bool:
        """True when no perturbation is attached — the study as it ran."""
        return (
            not self.price_shocks
            and self.spot is None
            and self.quota is None
            and self.fabric is None
            and self.reporting is None
            and self.faults is None
        )

    # -- per-cell overlay footprint ------------------------------------------

    def footprint(self, cloud: str) -> "Scenario | None":
        """The scenario restricted to what can touch a cell on ``cloud``.

        Every perturbation type declares, via its ``touches``/``hook``
        members, which cell coordinates its overlay hook can reach — a
        fabric degradation touches the clouds it names (``None`` means
        everywhere, on-prem included), quota/fault/reporting/spot
        overlays never reach on-prem, price shocks name one cloud.  The
        footprint keeps exactly the perturbations that touch ``cloud``
        (cloud lists canonicalized to just ``cloud``) and drops the
        rest, returning ``None`` when *nothing* touches the cell — so a
        cell with an empty footprint simulates, and caches, exactly
        like the baseline.

        The incremental planner (:mod:`repro.plan.diff`) and every
        run/cell cache key (:mod:`repro.sim.cache` v3) are built on
        this: two worlds share a cell entry iff their footprints for
        that cell digest identically.
        """
        only_here = (cloud,)
        price = tuple(s for s in self.price_shocks if s.touches(cloud))
        spot = self.spot
        if spot is not None:
            spot = (
                dataclasses.replace(spot, clouds=only_here)
                if spot.touches(cloud)
                else None
            )
        quota = self.quota
        if quota is not None:
            quota = (
                dataclasses.replace(quota, clouds=only_here)
                if quota.touches(cloud)
                else None
            )
        fabric = self.fabric
        if fabric is not None:
            fabric = (
                dataclasses.replace(fabric, clouds=only_here)
                if fabric.touches(cloud)
                else None
            )
        reporting = self.reporting
        if reporting is not None:
            reporting = (
                ReportingShift(
                    lag_hours=tuple(
                        (c, h) for c, h in reporting.lag_hours if c == cloud
                    )
                )
                if reporting.touches(cloud)
                else None
            )
        faults = self.faults
        if faults is not None:
            faults = (
                dataclasses.replace(faults, clouds=only_here)
                if faults.touches(cloud)
                else None
            )
        restricted = Scenario(
            # The id stays: spot preemption draws are keyed on it, and
            # every incident a touched cell records carries it.
            scenario_id=self.scenario_id,
            price_shocks=price,
            spot=spot,
            quota=quota,
            fabric=fabric,
            reporting=reporting,
            faults=faults,
        )
        return active(restricted)

    def footprint_digest(self, cloud: str) -> str | None:
        """The cache-key digest of :meth:`footprint`; ``None`` = baseline."""
        fp = self.footprint(cloud)
        return fp.digest() if fp is not None else None

    def touched_hooks(self, cloud: str) -> tuple[str, ...]:
        """The overlay hooks this scenario activates for cells on ``cloud``."""
        hooks: list[str] = []
        for shock in self.price_shocks:
            if shock.touches(cloud) and shock.hook not in hooks:
                hooks.append(shock.hook)
        for pert in (self.spot, self.quota, self.fabric, self.reporting, self.faults):
            if pert is not None and pert.touches(cloud):
                hooks.append(pert.hook)
        return tuple(hooks)

    # -- derived parameters --------------------------------------------------

    def price_multiplier(self, cloud: str, nodes: int) -> float:
        """Combined hourly-rate multiplier for ``nodes`` on ``cloud``."""
        mult = 1.0
        for shock in self.price_shocks:
            if shock.cloud == cloud:
                mult *= shock.multiplier
        if self.spot is not None and cloud != "p" and cloud in self.spot.clouds:
            mult *= self.spot.price_multiplier(nodes)
        return mult

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe dict; inverse of :meth:`from_dict`."""
        out: dict = {"scenario_id": self.scenario_id}
        if self.description:
            out["description"] = self.description
        if self.price_shocks:
            out["price_shocks"] = [
                {"cloud": s.cloud, "multiplier": s.multiplier} for s in self.price_shocks
            ]
        if self.spot is not None:
            out["spot"] = {
                "clouds": list(self.spot.clouds),
                "base_discount": self.spot.base_discount,
                "discount_halving_nodes": self.spot.discount_halving_nodes,
                "preemptions_per_hour": self.spot.preemptions_per_hour,
            }
        if self.quota is not None:
            out["quota"] = {
                "grant_probability_scale": self.quota.grant_probability_scale,
                "delay_scale": self.quota.delay_scale,
                "clouds": None if self.quota.clouds is None else list(self.quota.clouds),
            }
        if self.fabric is not None:
            out["fabric"] = {
                "latency_multiplier": self.fabric.latency_multiplier,
                "bandwidth_multiplier": self.fabric.bandwidth_multiplier,
                "overhead_multiplier": self.fabric.overhead_multiplier,
                "jitter_multiplier": self.fabric.jitter_multiplier,
                "clouds": None if self.fabric.clouds is None else list(self.fabric.clouds),
            }
        if self.reporting is not None:
            out["reporting"] = {"lag_hours": {c: h for c, h in self.reporting.lag_hours}}
        if self.faults is not None:
            out["faults"] = {
                "scale": self.faults.scale,
                "clouds": None if self.faults.clouds is None else list(self.faults.clouds),
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Build a scenario from a plain dict (e.g. parsed JSON)."""
        if "scenario_id" not in data:
            raise ConfigurationError("scenario dict needs a 'scenario_id'")
        def _check_keys(section: str, payload: dict, allowed: tuple[str, ...]):
            unknown = set(payload) - set(allowed)
            if unknown:
                raise ConfigurationError(
                    f"unknown {section} fields: {sorted(unknown)} "
                    f"(known: {sorted(allowed)})"
                )

        _check_keys(
            "scenario",
            data,
            ("scenario_id", "description", "price_shocks", "spot",
             "quota", "fabric", "reporting", "faults"),
        )

        def _clouds(value):
            return None if value is None else tuple(value)

        spot = data.get("spot")
        quota = data.get("quota")
        fabric = data.get("fabric")
        reporting = data.get("reporting")
        faults = data.get("faults")
        spot_keys = (
            "clouds", "base_discount", "discount_halving_nodes",
            "preemptions_per_hour",
        )
        if spot is not None:
            _check_keys("spot", spot, spot_keys)
        if quota is not None:
            _check_keys(
                "quota", quota, ("grant_probability_scale", "delay_scale", "clouds")
            )
        if fabric is not None:
            _check_keys(
                "fabric", fabric,
                ("latency_multiplier", "bandwidth_multiplier",
                 "overhead_multiplier", "jitter_multiplier", "clouds"),
            )
        if reporting is not None:
            _check_keys("reporting", reporting, ("lag_hours",))
        if faults is not None:
            _check_keys("faults", faults, ("scale", "clouds"))
        for shock in data.get("price_shocks", ()):
            _check_keys("price_shock", shock, ("cloud", "multiplier"))
            if "cloud" not in shock or "multiplier" not in shock:
                raise ConfigurationError(
                    "each price_shock needs both 'cloud' and 'multiplier'"
                )
        return cls(
            scenario_id=str(data["scenario_id"]),
            description=str(data.get("description", "")),
            price_shocks=tuple(
                PriceShock(cloud=s["cloud"], multiplier=float(s["multiplier"]))
                for s in data.get("price_shocks", ())
            ),
            spot=None if spot is None else SpotMarket(
                # Only keys with a value are passed, so the dataclass
                # supplies its own defaults for the rest — including
                # ``"clouds": null``, which means "the default clouds".
                **{
                    key: tuple(spot[key]) if key == "clouds" else float(spot[key])
                    for key in spot_keys
                    if spot.get(key) is not None
                }
            ),
            quota=None if quota is None else QuotaSqueeze(
                grant_probability_scale=float(quota.get("grant_probability_scale", 1.0)),
                delay_scale=float(quota.get("delay_scale", 1.0)),
                clouds=_clouds(quota.get("clouds")),
            ),
            fabric=None if fabric is None else FabricDegradation(
                latency_multiplier=float(fabric.get("latency_multiplier", 1.0)),
                bandwidth_multiplier=float(fabric.get("bandwidth_multiplier", 1.0)),
                overhead_multiplier=float(fabric.get("overhead_multiplier", 1.0)),
                jitter_multiplier=float(fabric.get("jitter_multiplier", 1.0)),
                clouds=_clouds(fabric.get("clouds")),
            ),
            reporting=None if reporting is None else ReportingShift(
                lag_hours=tuple(
                    sorted((str(c), float(h)) for c, h in reporting["lag_hours"].items())
                ),
            ),
            faults=None if faults is None else FaultScaling(
                scale=float(faults.get("scale", 1.0)),
                clouds=_clouds(faults.get("clouds")),
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable content hash of the scenario's semantics.

        The id participates (spot preemption draws are keyed on it), the
        free-text description does not.  The run cache embeds this in
        world-level keys (cell keys embed the per-cell
        :meth:`footprint_digest`) so two worlds never share entries.
        """
        payload = self.to_dict()
        payload.pop("description", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def active(scenario: Scenario | None) -> Scenario | None:
    """Normalize a scenario: ``None`` for the baseline world.

    Everything downstream (engine, shards, cache keys) branches on
    ``active(...) is None`` so an *empty* scenario is indistinguishable
    from no scenario at all — same simulation path, same cache keys,
    byte-identical results.
    """
    if scenario is None or scenario.is_baseline:
        return None
    return scenario


def footprint_digest(scenario: Scenario | None, cloud: str) -> str | None:
    """The per-cell overlay-footprint digest every cache key embeds.

    ``None`` both for the baseline world and for a scenario that cannot
    touch cells on ``cloud`` — which is exactly what lets an untouched
    cell of a what-if world share its cell cache entry with the
    baseline (:mod:`repro.plan.diff` proves the reuse sound).
    """
    scn = active(scenario)
    return scn.footprint_digest(cloud) if scn is not None else None
