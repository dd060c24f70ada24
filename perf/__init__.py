"""The repo benchmark: see perf/README.md and BENCHMARK.json."""
