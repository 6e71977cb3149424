"""Compare two sets of benchmark results, refusing to mix hosts.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are result documents written by ``run.py``
(``.perfbench_out/<workload>-seed<n>-trace0.json``) or directories of
them.  For every workload present on both sides and every end-to-end
metric, it prints both medians, the change (positive = worse) and the
metric's bound from ``BENCHMARK.json``.  Exit code 0: no metric worse
than its bound; 1: some metric is; 2: the inputs cannot be compared —
above all, results measured on different hosts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Incomparable(ValueError):
    """The two sides were not measured the same way."""


def load(path: Path) -> List[Dict[str, object]]:
    files = sorted(path.glob("*-trace0.json")) if path.is_dir() else [path]
    documents = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("trace") == 0:
            documents.append(document)
    if not documents:
        raise Incomparable("no untraced result documents in %s" % path)
    return documents


def the_host(documents: List[Dict[str, object]], side: str
             ) -> Dict[str, object]:
    hosts = {json.dumps(d["host"], sort_keys=True) for d in documents}
    if len(hosts) != 1:
        raise Incomparable("%s mixes results from %d hosts"
                           % (side, len(hosts)))
    return json.loads(hosts.pop())


def medians(documents: List[Dict[str, object]]
            ) -> Dict[str, Dict[str, float]]:
    values: Dict[str, Dict[str, List[float]]] = {}
    for document in documents:
        metrics = document["summary"]["metrics"]  # type: ignore[index]
        per = values.setdefault(str(document["workload"]), {})
        for name, entry in metrics.items():
            per.setdefault(name, []).append(float(entry["value"]))
    return {workload: {name: statistics.median(v) for name, v in m.items()}
            for workload, m in values.items()}


def compare(base: List[Dict[str, object]], new: List[Dict[str, object]],
            spec: Dict[str, object]
            ) -> Tuple[List[str], List[str]]:
    """Report lines and the regressions among them."""
    base_host, new_host = the_host(base, "BASE"), the_host(new, "NEW")
    if base_host != new_host:
        raise Incomparable("results come from different hosts: %s vs %s"
                           % (base_host, new_host))
    base_m, new_m = medians(base), medians(new)
    lines, regressions = [], []
    for workload in sorted(set(base_m) & set(new_m)):
        for entry in spec["end_to_end"]:  # type: ignore[union-attr]
            name = entry["name"]
            if name not in base_m[workload] or name not in new_m[workload]:
                continue
            old, cur = base_m[workload][name], new_m[workload][name]
            worse = (cur - old) / old if entry["better"] == "lower" \
                else (old - cur) / old
            verdict = "REGRESSION" if worse > entry["bound"] else "ok"
            line = ("%-15s %-26s %12.4f -> %12.4f %-4s worse by %+7.1f%% "
                    "(bound %.0f%%) %s" % (workload, name, old, cur,
                                           entry["unit"], worse * 100.0,
                                           entry["bound"] * 100.0, verdict))
            lines.append(line)
            if verdict != "ok":
                regressions.append(line)
    return lines, regressions


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        lines, regressions = compare(load(Path(args[0])),
                                     load(Path(args[1])), spec)
    except Incomparable as exc:
        print("perfbench compare: refused: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
