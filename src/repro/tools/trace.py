"""Traced end-to-end updates: the flight recorder's host-side harness.

``upkit trace`` runs one complete update per slot configuration with
the device's :class:`~repro.obs.Tracer` enabled, then writes a single
Chrome-trace JSON artifact (open it in ``chrome://tracing`` or
Perfetto) whose extra top-level keys carry the per-configuration
metrics snapshots.  Each configuration exports under its own ``pid``
with a named process, so the A/B and static timelines sit side by side
in the viewer.

The timeline covers the full lifecycle the ISSUE names: release
generation and signing, token issuance, the per-block transfer with
retry/backoff annotations, the receive pipeline, agent verification,
and the reboot through the bootloader (slot swap / boot selection).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..obs import MetricsRegistry, merge_chrome_traces
from ..sim import Testbed
from ..workload import FirmwareGenerator
from .report import host_info, write_report

__all__ = ["run_traced_update", "run_trace", "write_trace",
           "format_summary", "DEFAULT_IMAGE_SIZE"]

DEFAULT_IMAGE_SIZE = 16 * 1024


def run_traced_update(slot_configuration: str = "a",
                      transport: str = "push",
                      image_size: int = DEFAULT_IMAGE_SIZE,
                      pid: int = 1,
                      seed: bytes = b"upkit-trace") -> Dict[str, object]:
    """One traced end-to-end update; returns a per-configuration record.

    The record holds the configuration's Chrome-trace document (under
    its own ``pid``), the device's metrics snapshot, and the outcome
    summary.  Raises ``RuntimeError`` if the update does not succeed —
    a trace of a broken update is a debugging artifact, not a report.
    """
    generator = FirmwareGenerator(seed=seed)
    base = generator.firmware(image_size, image_id=1)
    bed = Testbed.create(slot_configuration=slot_configuration,
                         initial_firmware=base)
    device = bed.device
    device.tracer.enabled = True

    new = generator.os_version_change(base, revision=2)
    with device.tracer.span("generation", category="server",
                            version=2, nbytes=len(new)):
        bed.release(new, 2)

    outcome = (bed.push_update() if transport == "push"
               else bed.pull_update())
    if not outcome.success:
        raise RuntimeError("traced update failed (%s slots, %s): %s"
                           % (slot_configuration, transport,
                              outcome.error))

    label = "config-%s/%s" % (slot_configuration, transport)
    document = device.tracer.to_chrome_trace(pid=pid, process_name=label)
    return {
        "label": label,
        "slot_configuration": slot_configuration,
        "transport": transport,
        "image_bytes": image_size,
        "pid": pid,
        "booted_version": outcome.booted_version,
        "total_seconds": round(outcome.total_seconds, 6),
        "bytes_over_air": outcome.bytes_over_air,
        "total_energy_mj": round(outcome.total_energy_mj, 6),
        "spans": len(device.tracer.spans),
        "chrome": document,
        "metrics": device.metrics.snapshot(),
    }


def run_trace(slot_configurations: tuple = ("a", "b"),
              transport: str = "push",
              image_size: int = DEFAULT_IMAGE_SIZE) -> Dict[str, object]:
    """Traced updates on every requested slot configuration, merged."""
    records: List[Dict[str, object]] = []
    for index, slots in enumerate(slot_configurations):
        records.append(run_traced_update(
            slot_configuration=slots, transport=transport,
            image_size=image_size, pid=index + 1))
    merged = merge_chrome_traces([record.pop("chrome")
                                  for record in records])
    metrics = {record["label"]: record.pop("metrics")
               for record in records}
    document: Dict[str, object] = dict(merged)
    document["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                             time.gmtime())
    document["host"] = host_info()
    document["configurations"] = records
    document["metrics"] = metrics
    return document


def write_trace(document: Dict[str, object], path: str) -> str:
    """Write a schema-stamped trace artifact (see ``tools/report.py``)."""
    return write_report(document, path, "trace")


def format_summary(document: Dict[str, object],
                   metrics_table: bool = True) -> str:
    """Human-readable digest: one line per configuration + metrics."""
    lines: List[str] = []
    for record in document["configurations"]:
        lines.append(
            "%-16s booted v%d in %8.2f s virtual, %6d B over air, "
            "%7.1f mJ, %d spans"
            % (record["label"], record["booted_version"],
               record["total_seconds"], record["bytes_over_air"],
               record["total_energy_mj"], record["spans"]))
    if metrics_table:
        formatter = MetricsRegistry()
        for label, snapshot in sorted(document["metrics"].items()):
            lines.append("")
            lines.append("-- metrics: %s " % label + "-" * 30)
            lines.append(formatter.format_table(snapshot))
    return "\n".join(lines)
