"""Benchmark for altkit: three closed-loop workloads, a reference checker and
a traced run that splits the time by package module.  See README.md."""
