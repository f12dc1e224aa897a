"""Benchmark of the radialheat pipeline; run it with ``python3 perfbench/run.py``."""
