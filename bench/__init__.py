"""Campaign benchmark: canonical workloads, noise-banded metrics, traces.

``python3 bench/run.py --help`` is the entry point; ``bench/README.md``
documents the workloads, metrics and how to compare two runs.
"""
