"""The repository benchmark: seeded workloads over UpKit's public entry points.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a source checkout and
prints one JSON result object as the last line of standard output.  See
``perfbench/README.md`` for the workloads, the metrics and how to read
them.
"""
