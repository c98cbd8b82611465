"""fleetbench: absolute end-to-end and per-layer cost of a serve epoch.

See ``benchmarks/fleetbench/README.md``; run with
``PYTHONPATH=src python -m benchmarks.fleetbench``.
"""
