"""Benchmark of the coflow simulator: workloads, checks and layer tracing."""
