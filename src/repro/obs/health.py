"""Per-device health scores and fleet-level anomaly detection.

Single-device metrics say *what one device did*; a rollout operator
needs to know *which devices look wrong relative to the fleet*.  This
module turns one wave's worth of :class:`DeviceSample` s into:

* **anomalies** — stragglers (robust z-score on per-kilobyte transfer
  latency, so one marginal radio stands out against any fleet-wide
  baseline), retry storms (interruption counts per device and
  fleet-wide), energy-budget outliers (absolute budget and robust
  z-score), and crash loops (the same black-box post-mortem phase
  interrupted repeatedly);
* **health scores** — 0–100 per device, deductions for failure state,
  interruptions and each anomaly, so a wave table sorts worst-first.

Robust statistics throughout: median/MAD instead of mean/stddev, since
a single straggler must not drag the baseline toward itself (the
classic masking failure of plain z-scores on small fleets).  Everything
is deterministic — same samples, same report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["DeviceSample", "Anomaly", "HealthThresholds", "HealthReport",
           "interrupted_phases", "robust_zscores", "analyze_wave",
           "score_device"]

#: Scale factor making MAD consistent with the stddev of a normal
#: distribution (the conventional 0.6745 = Φ⁻¹(0.75)).
_MAD_SCALE = 0.6745


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_zscores(values: Sequence[float]) -> List[float]:
    """Modified z-scores via median/MAD (0.6745 · (x − med) / MAD).

    When the MAD degenerates to zero (most of the fleet identical — the
    common case in a deterministic simulation) the mean absolute
    deviation stands in, so a lone outlier among clones still scores;
    when *every* deviation is zero the scores are all zero.  Fewer than
    four samples yields all zeros: no robust baseline exists.
    """
    if len(values) < 4:
        return [0.0] * len(values)
    center = _median(values)
    deviations = [abs(value - center) for value in values]
    mad = _median(deviations)
    if mad == 0.0:
        mad = sum(deviations) / len(deviations)  # mean-abs fallback
    if mad == 0.0:
        return [0.0] * len(values)
    return [_MAD_SCALE * (value - center) / mad for value in values]


def interrupted_phases(device: Any) -> Dict[str, int]:
    """Interruption counts per lifecycle phase from ``device``'s black
    box post-mortem; empty for a device without a black box."""
    phases: Dict[str, int] = {}
    blackbox = getattr(device, "blackbox", None)
    if blackbox is not None:
        for interruption in blackbox.post_mortem()["interruptions"]:
            phase = interruption["phase"]
            phases[phase] = phases.get(phase, 0) + 1
    return phases


@dataclass
class DeviceSample:
    """One device's wave-level telemetry, flattened for analysis."""

    name: str
    wave: int
    state: str                      # DeviceState.value at sampling time
    update_seconds: float = 0.0
    bytes_over_air: int = 0
    energy_mj: float = 0.0
    interruptions: int = 0
    attempts: int = 1
    #: Black-box post-mortem: lifecycle phase -> interruption count.
    interrupted_phases: Dict[str, int] = field(default_factory=dict)

    @property
    def latency_per_kb(self) -> float:
        """Seconds per transferred kilobyte — the straggler axis."""
        if self.bytes_over_air <= 0:
            return 0.0
        return self.update_seconds / (self.bytes_over_air / 1024.0)

    @classmethod
    def from_record(cls, record: Any, wave: int) -> "DeviceSample":
        """Build from a :class:`~repro.fleet.campaign.DeviceRecord`.

        Reads the record's last outcome and the device's black box —
        pure reads, no virtual-clock side effects.
        """
        outcome = record.last_outcome
        return cls(
            name=record.name,
            wave=wave,
            state=record.state.value,
            update_seconds=(outcome.total_seconds if outcome else 0.0),
            bytes_over_air=(outcome.bytes_over_air if outcome else 0),
            energy_mj=(outcome.total_energy_mj if outcome else 0.0),
            interruptions=record.interruptions,
            attempts=record.attempts,
            interrupted_phases=interrupted_phases(record.device),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wave": self.wave,
            "state": self.state,
            "update_seconds": round(self.update_seconds, 6),
            "bytes_over_air": self.bytes_over_air,
            "energy_mj": round(self.energy_mj, 6),
            "interruptions": self.interruptions,
            "attempts": self.attempts,
            "latency_per_kb": round(self.latency_per_kb, 6),
            "interrupted_phases": dict(self.interrupted_phases),
        }


@dataclass(frozen=True)
class HealthThresholds:
    """Detector knobs (defaults tuned for deterministic sim fleets)."""

    #: Robust z above which a device is a transfer-latency straggler.
    straggler_z: float = 3.5
    #: Per-device interruption count that flags a retry storm.
    device_interruptions: int = 3
    #: Fleet-mean interruptions per device that flags a fleet-wide storm.
    fleet_interruptions_per_device: float = 1.0
    #: Robust z above which a device is an energy outlier.
    energy_z: float = 3.5
    #: Absolute per-update energy budget (None = relative check only).
    energy_budget_mj: Optional[float] = None
    #: Same post-mortem phase interrupted this often = crash loop.
    repeated_phase_count: int = 2


@dataclass
class Anomaly:
    """One detector finding; ``device`` is None for fleet-wide ones."""

    kind: str                  # straggler | retry-storm | energy-outlier
    #                          # | crash-loop
    device: Optional[str]
    severity: float            # z-score, count, or ratio — kind-specific
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "device": self.device,
                "severity": round(self.severity, 3), "detail": self.detail}


@dataclass
class HealthReport:
    """One wave's health verdict: scores plus anomalies."""

    wave: int
    scores: Dict[str, float] = field(default_factory=dict)
    anomalies: List[Anomaly] = field(default_factory=list)

    @property
    def flagged(self) -> List[str]:
        """Devices named by at least one anomaly, sorted."""
        return sorted({anomaly.device for anomaly in self.anomalies
                       if anomaly.device is not None})

    def anomalies_for(self, device: str) -> List[Anomaly]:
        return [anomaly for anomaly in self.anomalies
                if anomaly.device == device]

    def kinds_for(self, device: str) -> List[str]:
        return sorted({anomaly.kind
                       for anomaly in self.anomalies_for(device)})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wave": self.wave,
            "scores": {name: self.scores[name]
                       for name in sorted(self.scores)},
            "anomalies": [anomaly.to_dict()
                          for anomaly in self.anomalies],
            "flagged": self.flagged,
        }


def score_device(sample: DeviceSample,
                 anomalies: Sequence[Anomaly]) -> float:
    """0–100 health score: state first, then behaviour, then anomalies."""
    score = 100.0
    if sample.state == "failed":
        score -= 50.0
    elif sample.state == "quarantined":
        score -= 70.0
    elif sample.state in ("skipped", "pending"):
        score -= 10.0
    score -= min(30.0, 10.0 * sample.interruptions)
    score -= min(10.0, 5.0 * max(0, sample.attempts - 1))
    score -= 15.0 * len({anomaly.kind for anomaly in anomalies})
    return round(max(0.0, score), 1)


def analyze_wave(samples: Sequence[DeviceSample],
                 thresholds: Optional[HealthThresholds] = None,
                 wave: int = 0) -> HealthReport:
    """Run every detector over one wave's samples."""
    thresholds = thresholds or HealthThresholds()
    report = HealthReport(wave=wave)
    if not samples:
        return report

    # -- stragglers: robust z on per-kB transfer latency ------------------
    transferred = [sample for sample in samples
                   if sample.bytes_over_air > 0]
    latencies = [sample.latency_per_kb for sample in transferred]
    for sample, z in zip(transferred, robust_zscores(latencies)):
        if z > thresholds.straggler_z:
            report.anomalies.append(Anomaly(
                kind="straggler", device=sample.name, severity=z,
                detail="%.3f s/kB vs fleet median %.3f s/kB (z=%.1f)"
                       % (sample.latency_per_kb, _median(latencies), z)))

    # -- retry storms: per-device and fleet-wide --------------------------
    for sample in samples:
        if sample.interruptions >= thresholds.device_interruptions:
            report.anomalies.append(Anomaly(
                kind="retry-storm", device=sample.name,
                severity=float(sample.interruptions),
                detail="%d transfer interruptions over %d attempt(s)"
                       % (sample.interruptions, sample.attempts)))
    mean_interruptions = (sum(s.interruptions for s in samples)
                          / len(samples))
    if mean_interruptions >= thresholds.fleet_interruptions_per_device:
        report.anomalies.append(Anomaly(
            kind="retry-storm", device=None,
            severity=mean_interruptions,
            detail="fleet-wide storm: %.2f interruptions/device"
                   % mean_interruptions))

    # -- energy outliers: absolute budget, then robust z ------------------
    energies = [sample.energy_mj for sample in transferred]
    budget = thresholds.energy_budget_mj
    energy_z = robust_zscores(energies)
    for sample, z in zip(transferred, energy_z):
        over_budget = budget is not None and sample.energy_mj > budget
        if over_budget or z > thresholds.energy_z:
            detail = ("%.1f mJ exceeds budget %.1f mJ"
                      % (sample.energy_mj, budget) if over_budget
                      else "%.1f mJ vs fleet median %.1f mJ (z=%.1f)"
                      % (sample.energy_mj, _median(energies), z))
            report.anomalies.append(Anomaly(
                kind="energy-outlier", device=sample.name,
                severity=(sample.energy_mj if over_budget else z),
                detail=detail))

    # -- crash loops: the same phase interrupted repeatedly ---------------
    for sample in samples:
        for phase, count in sorted(sample.interrupted_phases.items()):
            if count >= thresholds.repeated_phase_count:
                report.anomalies.append(Anomaly(
                    kind="crash-loop", device=sample.name,
                    severity=float(count),
                    detail="phase %r interrupted %d times"
                           % (phase, count)))

    for sample in samples:
        report.scores[sample.name] = score_device(
            sample, report.anomalies_for(sample.name))
    return report
