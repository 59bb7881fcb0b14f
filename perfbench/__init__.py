"""Benchmark harness for entronet; see README.md."""
