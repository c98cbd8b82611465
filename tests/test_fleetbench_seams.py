"""fleetbench's traced layers are live on the production path.

fleetbench times a layer by rebinding the name the service calls it
through (``benchmarks/fleetbench/runpass.py:_install``).  Code that
stops calling through that name is silently timed as zero, so this
serves a tiny recorded fleet with the tracer installed and requires
every layer to fire.  Three spans must stay silent instead.
``solve.final_evaluate``: a shard solve reads only the assignment, so
``WoltResult.report`` is never evaluated on the serve path.
``guard.repair``: the service no longer repairs its decisions
(``tests/test_fleet_boundary_repair.py`` checks them directly).
``directives.evaluate``: directive scoring seeds a ``DeltaEvaluator``
instead of running a scalar ``evaluate``, so its time is in
``service.self_ms``.
"""

from __future__ import annotations

import repro.fleet.service as service_module
from benchmarks.fleetbench import runpass
from benchmarks.fleetbench.tracer import Tracer
from repro.fleet.ingest import RecordedTelemetry, write_stream
from repro.fleet.service import FleetService
from repro.fleet.spec import parse_fleet_spec

SPEC = """
fleet: {name: seams, seed: 5}
buildings:
  - {name: hq, extenders: 4, users: 8, circuits: [a, a, b, b]}
  - {name: lab, extenders: 3, users: 5}
telemetry: {wifi_jitter: 0.03, plc_jitter: 0.08}
"""


def test_every_traced_layer_fires(tmp_path):
    spec = parse_fleet_spec(SPEC)
    stream = tmp_path / "stream.jsonl"
    write_stream(stream, spec, 2)
    tracer = Tracer()
    runpass._install(tracer, serial=True)
    try:
        source = RecordedTelemetry.load(stream, spec)
        with FleetService(spec, journal=str(tmp_path / "journal.jsonl"),
                          source=source) as service:
            # Looked up after _install, so the rendering is traced too.
            service.run(2, on_epoch=service_module.format_epoch)
    finally:
        tracer.restore()
    fired = {span.name for span in tracer.spans}
    silent = {"solve.final_evaluate", "guard.repair",
              "directives.evaluate"}
    expected = (set(runpass.EPOCH_SPANS) - {"dispatch.wall"} - silent) | {
        "ingest.load"}
    assert not expected - fired, sorted(expected - fired)
    assert not silent & fired, sorted(silent & fired)
