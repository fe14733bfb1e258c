"""Benchmark of the tracking stack; run ``python3 perfbench/run.py --help``."""
