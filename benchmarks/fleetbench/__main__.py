"""Entry point: ``python -m benchmarks.fleetbench`` from the checkout root."""

import sys
from pathlib import Path

# The package under test lives in src/ (what PYTHONPATH=src would add).
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from benchmarks.fleetbench.cli import main  # noqa: E402

raise SystemExit(main())
