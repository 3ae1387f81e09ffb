"""End-to-end benchmark of the reproduction: workloads, tracing, statistics.

Run ``python3 e2ebench/run.py --help`` from the repository root; see
``e2ebench/README.md`` for the metrics and why each workload exists.
"""
