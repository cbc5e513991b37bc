"""Benchmark for lapdiff: workloads, reference checks and layer tracing (see README.md)."""
