"""CI acceptance gates, one module each, run as ``python -m scripts.gates.<name>``."""
