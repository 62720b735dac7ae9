"""The repository benchmark: generated-kernel quality and the system's own
cost, end to end and layer by layer.  Run it with ``perfbench/run.py``;
see ``perfbench/README.md`` for the workloads and metrics."""
