"""Benchmark of the rotnoise lab; see README.md and run.py."""
