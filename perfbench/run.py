"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload http-fleet --seed 1 --seconds 16 \\
        --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` every end-to-end metric of ``BENCHMARK.json``, with
``--trace 1`` every per-layer metric (a metric the workload does not
exercise reads 0).  The full result — host and source stamps, sample
counts, failures, server exit codes and stderr — is written to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List

# Run as a script: make the checkout root importable for the package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (OUT_DIR, ROOT, SourceMissing,  # noqa: E402
                              host_stamp, json_number, require_source,
                              sanitize, source_stamp, steal_seconds,
                              write_json)

WORKLOADS = ("http-fleet", "coap-blockwise", "campaign")


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, object]:
    if workload == "campaign":
        from perfbench import campaign

        runner = campaign.run_traced if trace else campaign.run_untraced
        return runner(seed, seconds)
    from perfbench import serve_workload

    face = "http" if workload == "http-fleet" else "coap"
    runner = serve_workload.run_traced if trace \
        else serve_workload.run_untraced
    return runner(workload, face, seed, seconds)


def declared(spec: Dict[str, object], trace: bool) -> List[Dict[str, str]]:
    return spec["per_layer" if trace else "end_to_end"]  # type: ignore


def result_line(spec: Dict[str, object], result: Dict[str, object],
                trace: bool) -> Dict[str, object]:
    """The driver-facing summary: every declared metric, by name."""
    measured: Dict[str, float] = dict(result["metrics"])  # type: ignore
    attempted = int(result["attempted"])  # type: ignore
    failed = int(result["failed"])  # type: ignore
    if trace:
        measured["bench.failed_share"] = failed / max(1, attempted)
    metrics = {}
    for entry in declared(spec, trace):
        name = entry["name"]
        # Per-layer metrics of layers this workload never calls read 0.
        value = float(measured.pop(name, 0.0 if trace else math.nan))
        metrics[name] = {"value": json_number(value), "unit": entry["unit"]}
    if measured:
        raise KeyError("undeclared metrics: %s" % ", ".join(sorted(measured)))
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_source()
    except SourceMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    spec = load_spec()
    trace = bool(args.trace)
    host = host_stamp()             # before a workload pins this process
    stolen = steal_seconds()
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    line = result_line(spec, result, trace)
    document = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "host": host, "source": source_stamp(),
                "host_steal_s": {cpu: round(after - stolen.get(cpu, 0.0), 2)
                                 for cpu, after in steal_seconds().items()},
                "result": result, "summary": line}
    out = OUT_DIR / ("%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace))
    write_json(out, document)
    print("perfbench: %s seed %d trace %d on %s (%s); %d attempted, "
          "%d failed; full result in %s"
          % (args.workload, args.seed, args.trace,
             document["host"]["platform"],  # type: ignore[index]
             document["source"]["commit"]  # type: ignore[index]
             or document["source"]["source_sha256"][:12],  # type: ignore
             line["attempted"], line["failed"], out.relative_to(ROOT)))
    for failure in result.get("failures", [])[:5]:  # type: ignore
        print("perfbench: failed: %s" % failure)
    print(json.dumps(sanitize(line), sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
