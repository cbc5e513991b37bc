"""Tests of the benchmark itself."""
