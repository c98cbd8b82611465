"""Declarative fleet specs: the YAML schema behind ``wolt serve``.

A fleet spec names the campus, pins the master seed and PLC sharing
law, and lists buildings — explicitly and/or through ``generate``
blocks that expand into numbered buildings, so a 1000-building campus
spec stays a ten-line file::

    fleet:
      name: campus-east
      seed: 2026
      plc_mode: redistribute
    buildings:
      - name: hq
        extenders: 6
        users: 14
        circuits: [a, a, a, b, b, b]
    generate:
      - prefix: b
        count: 1000
        extenders: 3
        users: 6
    telemetry:
      wifi_jitter: 0.05
      plc_jitter: 0.10
      dropout: 0.01
    health:
      flap_band: 0.5
      flap_strikes: 2
      probation_epochs: 3
      shard_timeout_s: 30.0
      retry_budget: 1
      breaker_strikes: 3
      breaker_probation_epochs: 2
    chaos:
      level: 0.3

The ``health`` block also carries the service's degraded-mode knobs
(per-shard solve deadline, worker retry budget, and the per-building
circuit breaker — see :mod:`repro.fleet.service`), and an optional
``chaos`` block declares a seeded :class:`repro.fleet.chaos.FleetFaultModel`
storm, either as a single ``level`` shorthand or with explicit rates
(``blackout_prob``/``crash_prob``/``crash_attempts``/``hang_prob``/
``hang_s``/``until_epoch``).

Everything downstream is a pure function of the spec: building
topologies come from :func:`~repro.net.topology.enterprise_floor`
seeded by ``SeedSequence(seed, spawn_key=(building, 0))`` and per-epoch
telemetry from ``spawn_key=(building, epoch, 1)``, so any epoch of any
building is reproducible in isolation (which is what makes journal
resume bit-identical — see :mod:`repro.fleet.service`).

The YAML loader (PyYAML) is imported lazily and gated: parsing raises
a clear error when the dependency is absent instead of failing at
import time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import (Any, Dict, List, Mapping, Optional, Tuple, Union,
                    get_args, get_type_hints)

import numpy as np

from ..core.problem import Scenario
from ..net.topology import enterprise_floor
from ..plc.sharing import PLC_MODES
from .chaos import FleetFaultModel

__all__ = ["BuildingSpec", "FleetSpec", "HealthSettings",
           "TelemetryModel", "build_building_scenario",
           "load_fleet_spec", "parse_fleet_spec",
           "synthesize_observation"]

#: Third element of the telemetry SeedSequence spawn key.  Topology
#: uses ``(building, 0)``, telemetry ``(building, epoch, 1)``; the
#: fleet chaos layer owns streams 2 and 3 (see ``repro.fleet.chaos``).
TELEMETRY_STREAM = 1


@dataclass(frozen=True)
class BuildingSpec:
    """One building of the fleet.

    Attributes:
        name: unique building name (directive and journal key).
        n_extenders: extender count.
        n_users: user count.
        circuits: optional per-extender powerline-circuit labels (the
            wiring side of the coupling graph in
            :mod:`repro.fleet.sharding`); ``None`` means one circuit.
    """

    name: str
    n_extenders: int
    n_users: int
    circuits: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("building name must be non-empty")
        if self.n_extenders < 1:
            raise ValueError(
                f"building {self.name!r}: extenders must be >= 1")
        if self.n_users < 1:
            raise ValueError(
                f"building {self.name!r}: users must be >= 1")
        if (self.circuits is not None
                and len(self.circuits) != self.n_extenders):
            raise ValueError(
                f"building {self.name!r}: {len(self.circuits)} circuit "
                f"labels for {self.n_extenders} extenders")


@dataclass(frozen=True)
class TelemetryModel:
    """Per-epoch telemetry drift applied to a building's true rates.

    All three knobs are dimensionless: the jitters are relative
    standard deviations of a multiplicative Gaussian factor (clipped at
    zero), ``dropout`` is the per-extender probability that a PLC
    capacity report arrives as NaN (a failed probe).
    """

    wifi_jitter: float = 0.0
    plc_jitter: float = 0.0
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.wifi_jitter < 0 or self.plc_jitter < 0:
            raise ValueError("telemetry jitters must be non-negative")
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError("dropout must be a probability in [0, 1]")


@dataclass(frozen=True)
class HealthSettings:
    """Health and degraded-mode settings for the fleet service.

    The first three are constructor arguments for each building's
    :class:`~repro.core.health.HealthMonitor`.  The rest drive the
    service's bounded-latency machinery
    (:mod:`repro.fleet.service`):

    Attributes:
        shard_timeout_s: per-shard solve deadline (seconds); a shard
            past it is reaped as a timeout failure and its users carry
            their previous association forward.  ``None`` = no
            deadline.  Only enforceable with worker processes (a hung
            in-process solve cannot be reaped); ``wolt serve
            --timeout-s`` sets it.
        retry_budget: worker-side retries of a crashed shard solve
            before it becomes an explicit failure; ``wolt serve
            --retry-budget`` sets it.
        breaker_strikes: consecutive epochs with shard
            failures/timeouts that trip a building's circuit breaker
            (the building then skips solving and carries forward
            cheaply).
        breaker_probation_epochs: epochs a tripped breaker stays open
            before the building gets a probe solve; a clean probe
            closes the breaker, a failed one re-opens it.
    """

    flap_band: float = 0.5
    flap_strikes: int = 2
    probation_epochs: int = 3
    shard_timeout_s: Optional[float] = None
    retry_budget: int = 1
    breaker_strikes: int = 3
    breaker_probation_epochs: int = 2

    def __post_init__(self) -> None:
        if not self.flap_band > 0:
            raise ValueError("flap_band must be positive")
        if (self.shard_timeout_s is not None
                and self.shard_timeout_s <= 0):
            raise ValueError("shard_timeout_s must be positive")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.breaker_strikes < 1:
            raise ValueError("breaker_strikes must be >= 1")
        if self.breaker_probation_epochs < 1:
            raise ValueError("breaker_probation_epochs must be >= 1")


#: The health settings :meth:`FleetSpec.params` leaves out of the echo.
_OPERATIONAL_KNOBS = ("shard_timeout_s", "retry_budget")


@dataclass(frozen=True)
class FleetSpec:
    """A parsed, validated fleet specification."""

    name: str
    seed: int
    plc_mode: str = "redistribute"
    buildings: Tuple[BuildingSpec, ...] = ()
    telemetry: TelemetryModel = field(default_factory=TelemetryModel)
    health: HealthSettings = field(default_factory=HealthSettings)
    chaos: Optional[FleetFaultModel] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fleet name must be non-empty")
        if self.plc_mode not in PLC_MODES:
            raise ValueError(
                f"plc_mode must be one of {PLC_MODES}, got "
                f"{self.plc_mode!r}")
        if not self.buildings:
            raise ValueError("a fleet needs at least one building")
        names = [b.name for b in self.buildings]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate building names: {dupes}")

    @property
    def n_buildings(self) -> int:
        return len(self.buildings)

    @property
    def n_users(self) -> int:
        return sum(b.n_users for b in self.buildings)

    def params(self) -> Dict[str, Any]:
        """JSON-serializable echo for checkpoint fingerprinting.

        ``shard_timeout_s`` and ``retry_budget`` are deliberately
        *not* fingerprinted: they are operational knobs (like ``wolt
        sim``'s ``--timeout-s``/``--max-retries``) whose effects are
        recorded per-epoch in the journal itself, and an operator must
        be able to resume a journal with a different deadline.  The
        breaker knobs *are* scientific — they change which epochs a
        building solves — as is a non-trivial chaos model (a trivial
        one is excluded so a zero-fault chaos run stays bit-identical
        to a clean run, journal included).
        """
        health = asdict(self.health)
        for knob in _OPERATIONAL_KNOBS:
            del health[knob]
        result: Dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "plc_mode": self.plc_mode,
            "buildings": [
                {"name": b.name, "extenders": b.n_extenders,
                 "users": b.n_users,
                 "circuits": (None if b.circuits is None
                              else list(b.circuits))}
                for b in self.buildings],
            "telemetry": asdict(self.telemetry),
            "health": health,
        }
        if self.chaos is not None and not self.chaos.trivial:
            result["chaos"] = asdict(self.chaos)
        return result

    def stream_params(self) -> Dict[str, Any]:
        """The spec subset a recorded telemetry stream is bound to.

        Telemetry is a pure function of the seed, the telemetry model,
        and each building's shape — *not* of health, breaker, chaos or
        PLC-mode settings, so a stream recorded once can legitimately
        be replayed under different operational knobs.  The stream
        header carries ``fingerprint(stream_params())``; a replay
        against a spec whose telemetry-relevant half differs is
        refused loudly (see :mod:`repro.fleet.ingest`).
        """
        params = self.params()
        return {"name": params["name"], "seed": params["seed"],
                "buildings": params["buildings"],
                "telemetry": params["telemetry"]}


def build_building_scenario(spec: FleetSpec,
                            building: int) -> Scenario:
    """The ground-truth topology of one building (pure in the spec).

    Seeded by ``SeedSequence(entropy=spec.seed,
    spawn_key=(building, 0))``, so adding, removing, or reordering
    *other* buildings never changes this one's floor.
    """
    b = spec.buildings[building]
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=spec.seed, spawn_key=(building, 0)))
    return enterprise_floor(b.n_extenders, b.n_users, rng)


def synthesize_observation(spec: FleetSpec, true: Scenario,
                           building: int,
                           epoch: int) -> Tuple[np.ndarray, np.ndarray]:
    """One epoch of raw telemetry for one building (pure in the spec).

    Returns ``(wifi_obs, plc_obs)``: the building's drifted scan
    reports and PLC capacity probes under the spec's
    :class:`TelemetryModel`, *before* any health folding — exactly
    what a device fleet would report upstream.  Dropped PLC probes are
    NaN.  Seeded by ``SeedSequence(entropy=spec.seed,
    spawn_key=(building, epoch, 1))`` so any epoch of any building is
    reproducible in isolation; ``wolt record``
    (:mod:`repro.fleet.ingest`) persists these exact arrays, which is
    what makes recorded replay bit-identical to a synthetic run.
    """
    model = spec.telemetry
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=spec.seed,
        spawn_key=(building, epoch, TELEMETRY_STREAM)))
    wifi_obs = true.wifi_rates
    if model.wifi_jitter > 0:
        noise = rng.standard_normal(true.wifi_rates.shape)
        wifi_obs = np.clip(
            true.wifi_rates * (1.0 + model.wifi_jitter * noise),
            0.0, None)
    plc_obs = true.plc_rates.astype(float, copy=True)
    if model.plc_jitter > 0:
        noise = rng.standard_normal(true.plc_rates.shape)
        plc_obs = np.clip(
            plc_obs * (1.0 + model.plc_jitter * noise), 0.0, None)
    if model.dropout > 0:
        lost = rng.random(true.n_extenders) < model.dropout
        plc_obs[lost] = np.nan
    return wifi_obs, plc_obs


# ---------------------------------------------------------------------------
# YAML parsing.


def _require_mapping(value: Any, where: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a mapping, got "
                         f"{type(value).__name__}")
    return value


def _take_int(mapping: Mapping[str, Any], key: str, where: str,
              default: Optional[int] = None) -> int:
    if key not in mapping:
        if default is None:
            raise ValueError(f"{where} is missing required key "
                             f"{key!r}")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        # bool is a subclass of int in Python, so without the explicit
        # reject a YAML `epochs: true` would silently parse as 1.
        raise ValueError(f"{where}.{key} must be an integer, got "
                         f"{value!r}")
    return value


def _take_float(mapping: Mapping[str, Any], key: str, where: str) -> float:
    value = mapping[key]
    # Same trap as _take_int: YAML `wifi_jitter: true` is a Python
    # bool, and float(True) is silently 1.0 — a 100% jitter.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}.{key} must be a number, got "
                         f"{value!r}")
    # YAML `.nan`/`.inf` are floats too, and slip past every range check
    # downstream (a NaN flap band never fires; an infinite jitter serves
    # 0 Mbps forever).
    if not math.isfinite(value):
        raise ValueError(f"{where}.{key} must be finite, got {value!r}")
    return float(value)


def _reject_unknown(mapping: Mapping[str, Any], allowed: Tuple[str, ...],
                    where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}; "
                         f"allowed: {sorted(allowed)}")


def _parse_building(raw: Any, where: str) -> BuildingSpec:
    block = _require_mapping(raw, where)
    _reject_unknown(block, ("name", "extenders", "users", "circuits"),
                    where)
    if "name" not in block:
        raise ValueError(f"{where} is missing required key 'name'")
    circuits: Optional[Tuple[str, ...]] = None
    if block.get("circuits") is not None:
        if not isinstance(block["circuits"], list):
            raise ValueError(f"{where}.circuits must be a list")
        circuits = tuple(str(c) for c in block["circuits"])
    return BuildingSpec(name=str(block["name"]),
                        n_extenders=_take_int(block, "extenders", where),
                        n_users=_take_int(block, "users", where),
                        circuits=circuits)


def _expand_generate(raw: Any, where: str) -> List[BuildingSpec]:
    block = _require_mapping(raw, where)
    _reject_unknown(block, ("prefix", "count", "extenders", "users",
                            "circuits"), where)
    prefix = str(block.get("prefix", "bldg"))
    count = _take_int(block, "count", where)
    if count < 1:
        raise ValueError(f"{where}.count must be >= 1")
    width = len(str(count - 1))
    template = _parse_building(
        {"name": "template",
         "extenders": _take_int(block, "extenders", where),
         "users": _take_int(block, "users", where),
         "circuits": block.get("circuits")}, where)
    return [BuildingSpec(name=f"{prefix}{i:0{width}d}",
                         n_extenders=template.n_extenders,
                         n_users=template.n_users,
                         circuits=template.circuits)
            for i in range(count)]


def _field_names(cls: Any) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _settings(block: Mapping[str, Any], cls: Any,
              where: str) -> Dict[str, Any]:
    """Keyword arguments for the settings dataclass ``cls``.

    The keys and their types are ``cls``'s fields.  A key left out
    keeps its field's default, and so does a ``null`` for a field that
    is not a plain integer.
    """
    hints = get_type_hints(cls)
    kwargs: Dict[str, Any] = {}
    for name in _field_names(cls):
        kind = hints[name]
        if name not in block or (block[name] is None and kind is not int):
            continue
        if int in (kind, *get_args(kind)):
            kwargs[name] = _take_int(block, name, where)
        else:
            kwargs[name] = _take_float(block, name, where)
    return kwargs


def _parse_settings(root: Mapping[str, Any], key: str, cls: Any) -> Any:
    block = _require_mapping(root.get(key, {}), key)
    _reject_unknown(block, _field_names(cls), key)
    return cls(**_settings(block, cls, key))


def _parse_chaos(raw: Any) -> Optional[FleetFaultModel]:
    if raw is None:
        return None
    block = _require_mapping(raw, "chaos")
    _reject_unknown(block, ("level",) + _field_names(FleetFaultModel),
                    "chaos")
    if "level" in block:
        extras = sorted(set(block) - {"level", "until_epoch"})
        if extras:
            raise ValueError(
                f"chaos.level is a shorthand for the explicit rates; "
                f"remove {extras} or drop 'level'")
        return FleetFaultModel.from_level(
            _take_float(block, "level", "chaos"),
            **_settings(block, FleetFaultModel, "chaos"))
    return FleetFaultModel(**_settings(block, FleetFaultModel, "chaos"))


def parse_fleet_spec(text: str) -> FleetSpec:
    """Parse and validate a YAML fleet spec from a string."""
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - dep always present
        raise RuntimeError(
            "fleet specs are YAML; install pyyaml to use "
            "repro.fleet.spec") from exc
    document = yaml.safe_load(text)
    root = _require_mapping(document, "fleet spec")
    _reject_unknown(root, ("fleet", "buildings", "generate",
                           "telemetry", "health", "chaos"),
                    "fleet spec")
    head = _require_mapping(root.get("fleet", {}), "fleet")
    _reject_unknown(head, ("name", "seed", "plc_mode"), "fleet")
    buildings: List[BuildingSpec] = []
    raw_buildings = root.get("buildings", [])
    if not isinstance(raw_buildings, list):
        raise ValueError("buildings must be a list")
    for pos, raw in enumerate(raw_buildings):
        buildings.append(_parse_building(raw, f"buildings[{pos}]"))
    raw_generate = root.get("generate", [])
    if not isinstance(raw_generate, list):
        raise ValueError("generate must be a list")
    for pos, raw in enumerate(raw_generate):
        buildings.extend(_expand_generate(raw, f"generate[{pos}]"))
    return FleetSpec(
        name=str(head.get("name", "fleet")),
        seed=_take_int(head, "seed", "fleet", default=0),
        plc_mode=str(head.get("plc_mode", "redistribute")),
        buildings=tuple(buildings),
        telemetry=_parse_settings(root, "telemetry", TelemetryModel),
        health=_parse_settings(root, "health", HealthSettings),
        chaos=_parse_chaos(root.get("chaos")))


def load_fleet_spec(path: Union[str, Path]) -> FleetSpec:
    """Load and validate a YAML fleet spec from disk."""
    return parse_fleet_spec(Path(path).read_text(encoding="utf-8"))
