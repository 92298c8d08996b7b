"""The repository benchmark: three end-to-end workloads, timed from outside
the program, with a separate traced pass for per-layer attribution.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N``
(see ``perfbench/README.md``).
"""
