"""Shared plumbing: the source tree, seeds, host stamps, percentiles, /proc."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans, server logs and full result documents (listed in .gitignore).
OUT_DIR = ROOT / ".perfbench_out"

#: What a failed operation reads as in a latency sample.
FAILED = math.inf
#: JSON has no infinity: a failed percentile, or a reading a dead server
#: could not give, prints as the largest double.
INF_AS_JSON = sys.float_info.max


class SourceMissing(RuntimeError):
    """The program's source tree is not next to the benchmark."""


def require_source() -> None:
    """Put ``src/`` on ``sys.path``; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing("no program source at %s: run the benchmark "
                            "from the root of a source checkout" % SRC)
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def subprocess_env() -> Dict[str, str]:
    """Environment for server subprocesses: the program from ``src/``,
    the benchmark package importable, output unbuffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_CRYPTO_ENGINE", None)
    return env


def nproc() -> int:
    """CPUs this process may run on (``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def rng(workload: str, seed: int, stream: str) -> random.Random:
    """An independent, seeded random stream per (workload, seed, use)."""
    return random.Random("perfbench:%s:%d:%s" % (workload, seed, stream))


class DeviceIds:
    """Distinct 32-bit device ids drawn from a seeded stream."""

    def __init__(self, source: random.Random) -> None:
        self._rng = source
        self._seen: set = set()

    def next(self) -> int:
        while True:
            device_id = self._rng.randrange(1, 1 << 32)
            if device_id not in self._seen:
                self._seen.add(device_id)
                return device_id


# -- stamps --------------------------------------------------------------------


def host_stamp() -> Dict[str, object]:
    """The host a result was measured on; comparisons refuse to mix them."""
    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def source_stamp() -> Dict[str, Optional[str]]:
    """The commit when the checkout is a git work tree, and always a
    digest of the program source (a checkout need not be a git tree)."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def json_number(value: float) -> float:
    return value if math.isfinite(value) else INF_AS_JSON


# -- process accounting --------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of a live process, all threads."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def steal_seconds() -> Dict[str, float]:
    """Per-CPU time the hypervisor ran something else (``/proc/stat``).
    Recorded with every result: on a shared host it explains a slow run
    the program is not to blame for."""
    ticks = os.sysconf("SC_CLK_TCK")
    stolen = {}
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0].startswith("cpu") and \
                        len(fields) > 8:
                    stolen[fields[0]] = int(fields[8]) / ticks
    except OSError:
        pass
    return stolen


def self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sanitize(value: object) -> object:
    """Replace non-finite floats (failed latencies) for strict JSON."""
    if isinstance(value, float):
        return json_number(value)
    if isinstance(value, dict):
        return {key: sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    return value


def write_json(path: Path, document: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(sanitize(document), handle, indent=1, sort_keys=True,
                  allow_nan=False)
