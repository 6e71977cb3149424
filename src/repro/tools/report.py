"""Schema-versioned report artifacts shared by the CLI tools.

``bench``, ``chaos``, ``trace`` and ``fleetview`` each emit a JSON
artifact that CI
jobs and dashboards consume long after the code that wrote them has
moved on.  This module is the single place that knows how those files
are stamped and validated:

* :func:`write_report` stamps ``report_kind`` and ``schema_version``
  (from :data:`SCHEMA_VERSIONS`) before writing deterministic,
  sorted-key JSON.
* :func:`load_report` round-trips any artifact — including *legacy*
  chaos reports written before this module existed, with no stamp at
  all — and reports which kind and version it found.
* :func:`validate_data` / :func:`validate_file` check an artifact
  against the expectations of its kind, so ``cli report --validate``
  can fail CI on schema drift instead of letting a consumer discover
  it at parse time.
* :func:`host_info` builds the ``host`` block benchmark artifacts
  carry, so a baseline gate can refuse runs from another host.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

__all__ = [
    "SCHEMA_VERSIONS",
    "ReportError",
    "write_report",
    "load_report",
    "validate_data",
    "validate_file",
    "host_info",
]

#: Current schema version per report kind.  Bump a kind's version when
#: its document shape changes.  Bench artifacts validate at the current
#: version only (older ones must be regenerated); the other kinds still
#: accept their older shapes.
SCHEMA_VERSIONS: Dict[str, int] = {"bench": 6, "chaos": 4, "trace": 2,
                                   "fleetview": 1, "delta": 1}

#: Keys every bench ``server`` section (the swarm bench artifact,
#: ``BENCH_server.json``) must carry.
SERVER_SECTION_KEYS = ("sessions", "failed_sessions", "concurrency",
                       "requests", "elapsed_seconds", "req_per_s",
                       "p50_session_ms", "p99_session_ms", "endpoints",
                       "endpoint_mix", "peak_rss_kb", "image_bytes",
                       "chunk_bytes")

#: Endpoint classes a bench server section must break out —
#: the per-endpoint p50/p99 sections the ``--baseline`` gate compares.
SERVER_ENDPOINT_CLASSES = ("register", "token", "manifest", "chunk",
                           "report")


class ReportError(ValueError):
    """An artifact could not be recognised or failed validation."""


def host_info() -> Dict[str, object]:
    """The ``host`` block stamped into benchmark artifacts."""
    return {"python": sys.version.split()[0],
            "cpu_count": os.cpu_count()}


def write_report(data: Dict[str, object], path: str, kind: str) -> str:
    """Stamp ``data`` with its kind/version and write it to ``path``.

    The input dict is stamped in place (callers usually built it for
    this purpose) and written with sorted keys and a trailing newline
    so artifacts diff cleanly.
    """
    if kind not in SCHEMA_VERSIONS:
        raise ReportError("unknown report kind %r (known: %s)"
                          % (kind, ", ".join(sorted(SCHEMA_VERSIONS))))
    data["report_kind"] = kind
    data["schema_version"] = SCHEMA_VERSIONS[kind]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_report(path: str) -> Tuple[str, int, Dict[str, object]]:
    """Read an artifact; returns ``(kind, schema_version, data)``.

    Stamped files are taken at their word.  An unstamped chaos report
    is recognised by its ``calibration`` + ``results`` keys.  Anything
    else raises :class:`ReportError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ReportError("%s: top-level JSON must be an object" % path)

    kind = data.get("report_kind")
    if kind is not None:
        version = data.get("schema_version")
        if not isinstance(version, int):
            raise ReportError(
                "%s: stamped %r report has no integer schema_version"
                % (path, kind))
        return str(kind), version, data

    if "calibration" in data and "results" in data:
        return "chaos", 1, data
    raise ReportError(
        "%s: unrecognised report (no report_kind stamp and no known "
        "legacy shape)" % path)


def _require(data: Dict[str, object], keys: List[str],
             kind: str) -> List[str]:
    return ["%s report missing key %r" % (kind, key)
            for key in keys if key not in data]


def validate_data(kind: str, version: int,
                  data: Dict[str, object]) -> List[str]:
    """Return a list of human-readable problems (empty = valid)."""
    errors: List[str] = []
    current = SCHEMA_VERSIONS.get(kind)
    if current is None:
        return ["unknown report kind %r" % kind]
    if version > current:
        errors.append("%s schema_version %d is newer than this tree "
                      "understands (%d)" % (kind, version, current))
        return errors

    if kind == "bench":
        if version < current:
            return ["bench schema_version %d is older than v%d — "
                    "regenerate the artifact (cli bench or cli swarm)"
                    % (version, current)]
        # Server-only artifacts (the swarm bench, BENCH_server.json)
        # carry a `server` section and none of the in-process sections.
        if not ("server" in data and "campaign" not in data):
            errors += _require(data, ["sha256", "ecdsa_verify",
                                      "delta_generation", "campaign",
                                      "crypto_stats", "server_stats",
                                      "metrics"], kind)
            campaign = data.get("campaign")
            if isinstance(campaign, dict) \
                    and campaign.get("reports_identical") is not True:
                errors.append("bench campaign reports diverged between "
                              "engine configurations")
        if "server" in data:
            errors += _server_section_errors(data.get("server"))
    elif kind == "delta":
        errors += _require(data, ["delta_fastpath"], kind)
        fastpath = data.get("delta_fastpath")
        if isinstance(fastpath, dict):
            errors += ["delta report delta_fastpath missing key %r" % key
                       for key in ("fast", "reference", "speedup",
                                   "byte_identical", "firmware_bytes")
                       if key not in fastpath]
            if fastpath.get("byte_identical") is not True:
                errors.append("delta fast path output is not byte-identical "
                              "to the reference path")
    elif kind == "chaos":
        errors += _require(data, ["calibration", "results", "bricked"],
                           kind)
        results = data.get("results")
        if isinstance(results, list):
            bricked = sum(1 for r in results
                          if isinstance(r, dict)
                          and r.get("status") == "bricked")
            if data.get("bricked") != bricked:
                errors.append(
                    "chaos bricked count %r does not match results (%d)"
                    % (data.get("bricked"), bricked))
            if version >= 2:
                missing = sum(1 for r in results
                              if isinstance(r, dict)
                              and "black_box" not in r)
                if missing:
                    errors.append("chaos v2 report has %d results with "
                                  "no black_box post-mortem" % missing)
        if version >= 3:
            phases = data.get("interrupted_phases")
            if not isinstance(phases, dict):
                errors.append("chaos v3 report needs an "
                              "interrupted_phases phase->count object")
        if version >= 4:
            if "correlated" not in data:
                errors.append("chaos v4 report needs a 'correlated' key "
                              "(null when the correlated sweep was not "
                              "run)")
            correlated = data.get("correlated")
            if isinstance(correlated, dict):
                errors += ["chaos correlated section missing key %r" % key
                           for key in ("devices", "grid_points",
                                       "domains", "results", "bricked",
                                       "kills", "resume_identical_all",
                                       "retry_amplification", "journal")
                           if key not in correlated]
                corr_results = correlated.get("results")
                if isinstance(corr_results, list):
                    corr_bricked = sum(
                        int(r.get("bricked", 0)) for r in corr_results
                        if isinstance(r, dict))
                    if correlated.get("bricked") != corr_bricked:
                        errors.append(
                            "chaos correlated bricked count %r does not "
                            "match results (%d)"
                            % (correlated.get("bricked"), corr_bricked))
                if correlated.get("kills") and \
                        correlated.get("resume_identical_all") is not True:
                    errors.append("chaos correlated coordinator-kill "
                                  "resume reports diverged from the "
                                  "uninterrupted twins")
            elif correlated is not None:
                errors.append("chaos correlated section must be an "
                              "object or null (got %s)"
                              % type(correlated).__name__)
    elif kind == "fleetview":
        errors += _require(data, ["devices", "slo_verdict", "campaign",
                                  "telemetry"], kind)
        if data.get("slo_verdict") not in ("ok", "breached"):
            errors.append("fleetview slo_verdict must be 'ok' or "
                          "'breached' (got %r)" % data.get("slo_verdict"))
        telemetry = data.get("telemetry")
        if isinstance(telemetry, dict):
            if data.get("slo_verdict") != telemetry.get("verdict"):
                errors.append("fleetview slo_verdict disagrees with "
                              "telemetry.verdict")
            for wave in telemetry.get("waves", []):
                if not isinstance(wave, dict) or "action" not in wave:
                    errors.append("fleetview telemetry wave entries "
                                  "need an 'action'")
                    break
        campaign = data.get("campaign")
        if isinstance(campaign, dict) and isinstance(
                data.get("devices"), int):
            accounted = sum(len(campaign.get(key, []))
                            for key in ("updated", "failed", "skipped",
                                        "quarantined", "pending"))
            if accounted != data["devices"]:
                errors.append(
                    "fleetview campaign accounts for %d devices, "
                    "fleet has %d" % (accounted, data["devices"]))
    elif kind == "trace":
        # The trace artifact *is* a Chrome-trace document (Perfetto and
        # chrome://tracing ignore the extra top-level keys).  v1 wrote
        # device-plane documents (`configurations` + `metrics`); v2
        # additionally recognises *merged* device+server documents from
        # ``cli swarm --trace``, stamped with a ``join`` section naming
        # the pid lane of each plane so the trace_id join can be
        # checked.
        errors += _require(data, ["traceEvents"], kind)
        if version >= 2 and "join" in data:
            join = data.get("join")
            if not isinstance(join, dict) or not {
                    "device_pid", "server_pid"} <= set(join):
                errors.append("trace join section needs "
                              "device_pid/server_pid")
                join = None
        else:
            # Device-plane document: the v1 shape stays valid under v2.
            errors += _require(data, ["metrics", "configurations"], kind)
            join = None
        events = data.get("traceEvents")
        if isinstance(events, list):
            from ..obs.trace import containment_errors
            errors += containment_errors(events)
            if join is not None:
                errors += _trace_join_errors(events, join)
        elif events is not None:
            errors.append("trace report traceEvents must be a list")
    return errors


def _server_section_errors(server: object) -> List[str]:
    """Validate a bench ``server`` section (the swarm bench)."""
    if not isinstance(server, dict):
        return ["bench server section must be an object (got %s)"
                % type(server).__name__]
    errors = ["bench server section missing key %r" % key
              for key in SERVER_SECTION_KEYS if key not in server]
    if server.get("failed_sessions") != 0:
        errors.append(
            "bench server run had %r failed sessions — "
            "latency/throughput figures are only "
            "meaningful over a fully correct run"
            % server.get("failed_sessions"))
    endpoints = server.get("endpoints")
    if isinstance(endpoints, dict):
        for cls, entry in sorted(endpoints.items()):
            if not isinstance(entry, dict) or not {
                    "count", "p50_ms", "p99_ms"} <= set(entry):
                errors.append("bench server endpoint %r needs "
                              "count/p50_ms/p99_ms" % cls)
        # The per-endpoint gate needs every class broken out with
        # real numbers, not just whatever classes happened to be
        # present.
        for cls in SERVER_ENDPOINT_CLASSES:
            entry = endpoints.get(cls)
            if not isinstance(entry, dict):
                errors.append("bench server section must break out "
                              "endpoint %r" % cls)
                continue
            for metric in ("p50_ms", "p99_ms"):
                if not isinstance(entry.get(metric), (int, float)):
                    errors.append("bench server endpoint %r needs a "
                                  "numeric %s" % (cls, metric))
    return errors + _server_profile_errors(server)


def _server_profile_errors(server: Dict[str, object]) -> List[str]:
    """Validate the optional ``server.profile`` block (from
    ``cli swarm --profile``): a per-endpoint phase breakdown aggregated
    from server tracer spans.  Absent is fine — profiling is opt-in."""
    profile = server.get("profile")
    if profile is None:
        return []
    if not isinstance(profile, dict):
        return ["bench server profile must be an object (got %s)"
                % type(profile).__name__]
    errors: List[str] = []
    endpoints = profile.get("endpoints")
    if not isinstance(endpoints, dict):
        return ["bench server profile needs an 'endpoints' object"]
    for cls, entry in sorted(endpoints.items()):
        if not isinstance(entry, dict) or "requests" not in entry \
                or not isinstance(entry.get("phases"), dict):
            errors.append("bench server profile endpoint %r needs "
                          "requests + phases" % cls)
            continue
        for phase, stats in sorted(entry["phases"].items()):
            if not isinstance(stats, dict) or not {
                    "count", "p50_ms", "p99_ms",
                    "total_ms"} <= set(stats):
                errors.append(
                    "bench server profile phase %s.%s needs "
                    "count/p50_ms/p99_ms/total_ms" % (cls, phase))
    return errors


def _trace_join_errors(events: List[Dict[str, object]],
                       join: Dict[str, object]) -> List[str]:
    """Check that server-plane spans join device sessions by trace_id.

    A merged swarm trace carries one ``device.session`` root span per
    simulated device (``join["device_pid"]``) and one request root span
    per server-side request (``join["server_pid"]``).  Cross-process
    parentage is deliberately *not* expressed via parent_id (pids are
    separate span namespaces); the join contract is that every server
    root's ``args.trace_id`` was minted by some device session.
    """
    device_pid = join.get("device_pid")
    server_pid = join.get("server_pid")
    device_ids = set()
    server_roots = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args")
        if not isinstance(args, dict) or args.get("parent_id") is not None:
            continue  # only root spans carry the join contract
        trace_id = args.get("trace_id")
        if event.get("pid") == device_pid and trace_id is not None:
            device_ids.add(trace_id)
        elif event.get("pid") == server_pid:
            server_roots.append((event.get("name"), trace_id))
    errors = []
    if not device_ids:
        errors.append("trace join: no device-plane root spans with a "
                      "trace_id under pid %r" % device_pid)
    if not server_roots:
        errors.append("trace join: no server-plane root spans under "
                      "pid %r" % server_pid)
    orphans = sorted({str(tid) for name, tid in server_roots
                      if tid not in device_ids})
    if orphans:
        errors.append(
            "trace join: %d server root span(s) carry trace_ids minted "
            "by no device session (e.g. %s)"
            % (len(orphans), ", ".join(orphans[:3])))
    return errors


def validate_file(path: str) -> List[str]:
    """Load ``path`` and validate it; returns problems (empty = valid)."""
    try:
        kind, version, data = load_report(path)
    except (ReportError, OSError, json.JSONDecodeError) as exc:
        return [str(exc)]
    return validate_data(kind, version, data)
