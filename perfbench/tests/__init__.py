"""The benchmark's own tests: ``python -m pytest perfbench/tests``."""
