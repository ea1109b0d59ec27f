"""Repository benchmark: workloads, layer tracing and result arithmetic.

Run it from the repository root::

    python3 perfbench/run.py --workload scenario_cold --seed 1 --seconds 15 --trace 0

See ``perfbench/layers.py`` for the layer table and what each layer
metric is predicted to move.
"""
