"""End-to-end and per-layer benchmark of stochsg; see README.md."""
