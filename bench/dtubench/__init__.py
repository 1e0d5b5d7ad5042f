"""Benchmark harness for the dtu library; see bench/README.md."""
