"""Repository scripts: CI acceptance gates and integration checks."""
