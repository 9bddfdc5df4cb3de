"""Benchmark for partialner: workloads, layer probes and span arithmetic.

Run it with `python3 perfbench/run.py`; see perfbench/README.md.
"""
