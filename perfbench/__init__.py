"""Repository benchmark: seeded serving workloads with end-to-end and
per-layer metrics. See ``perfbench/README.md``."""
