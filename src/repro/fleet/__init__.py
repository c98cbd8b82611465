"""Campus layer: fleets of buildings served by one association service.

The paper's CentralController (§IV) is a per-site controller; this
package scales it to an operator's whole building fleet:

* :mod:`repro.fleet.spec` — declarative YAML fleet specs (explicit
  buildings plus ``generate`` blocks, so a 1000-building campus stays a
  ten-line file);
* :mod:`repro.fleet.sharding` — connected-component splitting of a
  building's extender set into independent PLC segments over the
  wiring/interference graph, with bit-identical scatter/gather;
* :mod:`repro.fleet.service` — :class:`~repro.fleet.service.FleetService`,
  the epoch loop behind ``wolt serve``: per-building telemetry,
  :class:`~repro.core.health.HealthMonitor` quarantine, shard solves
  dispatched through :func:`repro.sim.dispatch.dispatch_chunked`, directive
  previews (dry-run) and per-epoch JSONL journaling — plus per-shard
  deadlines, worker retry budgets and per-building circuit breakers
  (degraded, never stalled);
* :mod:`repro.fleet.chaos` — seeded fleet-level fault storms
  (telemetry blackouts, shard crashes, slow-shard hangs) behind
  ``wolt serve --chaos``;
* :mod:`repro.fleet.ingest` — the recorded-telemetry boundary:
  versioned checksummed JSONL streams (``wolt record`` / ``wolt serve
  --from``), strict per-record validation with dead-letter quarantine,
  and the :class:`~repro.fleet.ingest.TelemetrySource` seam.

Their CI acceptance gates live in ``scripts/gates/``.
"""

from .chaos import FleetFaultModel, ShardFaultPlan
from .ingest import (DeadLetterJournal, IngestError, RecordedTelemetry,
                     StreamHeaderError, StreamIntegrityError,
                     SyntheticTelemetry, TelemetryRecord,
                     TelemetrySource, read_stream, record_stream,
                     write_stream)
from .service import (BuildingEpoch, Directive, EpochReport, FleetService,
                      format_epoch)
from .sharding import Segment, split_segments
from .spec import (BuildingSpec, FleetSpec, HealthSettings,
                   TelemetryModel, load_fleet_spec, parse_fleet_spec)

__all__ = [
    "BuildingEpoch",
    "BuildingSpec",
    "DeadLetterJournal",
    "Directive",
    "EpochReport",
    "FleetFaultModel",
    "FleetService",
    "FleetSpec",
    "HealthSettings",
    "IngestError",
    "RecordedTelemetry",
    "Segment",
    "ShardFaultPlan",
    "StreamHeaderError",
    "StreamIntegrityError",
    "SyntheticTelemetry",
    "TelemetryModel",
    "TelemetryRecord",
    "TelemetrySource",
    "format_epoch",
    "load_fleet_spec",
    "parse_fleet_spec",
    "read_stream",
    "record_stream",
    "split_segments",
    "write_stream",
]
