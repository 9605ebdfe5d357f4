"""Benchmark for anchorft: workloads, trace wrappers and the harness that runs them.

Run it from the repository root::

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0
"""
