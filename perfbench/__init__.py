"""End-to-end benchmark of the T-Cache reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload column --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics measured with the program's
telemetry off; ``--trace 1`` installs timing spans around the public calls
into each layer (:mod:`perfbench.spans`) and prints the per-layer metrics.
``BENCHMARK.json`` at the repository root lists the workloads, the metrics
with their units and better-directions, and which layer metric should move
which end-to-end metric.
"""
