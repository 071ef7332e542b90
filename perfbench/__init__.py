"""Benchmark of radiusseq: workloads, independent checks and tracing."""
