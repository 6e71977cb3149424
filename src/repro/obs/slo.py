"""Declarative SLOs and SLO-driven rollout control.

The telemetry plane's control loop: an operator declares service-level
objectives for a rollout — *p95 update time under two minutes, failure
rate under 20 %, no update costs more than N millijoules* — and the
campaign enforces them per wave.  Each :class:`SLO` names a fleet
metric, a threshold, and the :class:`Action` a breach triggers:

* ``SLOW``  — halve the next wave (blast-radius control);
* ``PAUSE`` — stop rolling, leave the remaining devices pending for an
  operator decision;
* ``ABORT`` — cancel the rollout, skip the remaining devices.

:class:`FleetTelemetry` is the object a
:class:`~repro.fleet.campaign.Campaign` consumes.  It owns the
scrape-fed :class:`~repro.obs.timeseries.TimeSeriesStore`, builds
:class:`~repro.obs.health.DeviceSample` s as devices finish, and closes
each wave with a :class:`WaveVerdict`: health report, SLO breaches, the
resulting action, and the devices to quarantine (failed devices flagged
by anomaly kinds in ``quarantine_kinds`` become
``QUARANTINED`` instead of ``FAILED`` — extending PR 2's RetryPolicy
quarantine to telemetry-driven flagging).  Everything here is pure
bookkeeping on already-spent virtual time: attaching telemetry never
changes what the campaign itself does unless an SLO actually breaches.

**Failure-rate semantics** (the double-counting trap): quarantined
devices are excluded from the failure rate entirely — neither failures
nor denominators.  A device the controller just quarantined must not
*also* count as a failure in the same wave's rate, or one flagged
radio would both be sidelined *and* still push the wave toward abort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, \
    Sequence, Tuple

from .health import DeviceSample, HealthReport, HealthThresholds, \
    analyze_wave
from .timeseries import FleetScraper, TimeSeriesStore

__all__ = ["Action", "SLO", "SLOBreach", "WaveVerdict", "FleetTelemetry",
           "percentile", "fleet_metric", "FLEET_METRICS", "DEFAULT_SLOS"]


def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic linear-interpolation percentile (q in [0, 100])."""
    if not values:
        return 0.0
    if not (0.0 <= q <= 100.0):
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


class Action(enum.Enum):
    """What a breach does to the rollout, in escalating order."""

    CONTINUE = "continue"
    SLOW = "slow"
    PAUSE = "pause"
    ABORT = "abort"


_SEVERITY = {Action.CONTINUE: 0, Action.SLOW: 1, Action.PAUSE: 2,
             Action.ABORT: 3}


def _escalate(first: Action, second: Action) -> Action:
    return first if _SEVERITY[first] >= _SEVERITY[second] else second


# -- fleet metrics ------------------------------------------------------------

def _completed(samples: Sequence[DeviceSample]) -> List[DeviceSample]:
    """Samples that actually moved bytes and are not quarantined."""
    return [sample for sample in samples
            if sample.bytes_over_air > 0
            and sample.state != "quarantined"]


def _failure_rate(samples: Sequence[DeviceSample]) -> Optional[float]:
    updated = sum(1 for s in samples if s.state == "updated")
    failed = sum(1 for s in samples if s.state == "failed")
    done = updated + failed  # quarantined: in neither term, by design
    return failed / done if done else None


def _update_seconds(samples: Sequence[DeviceSample]) -> List[float]:
    return [sample.update_seconds for sample in _completed(samples)]


#: Fleet metric name -> function(samples) -> Optional[float].
FLEET_METRICS: Dict[str, Callable[[Sequence[DeviceSample]],
                                  Optional[float]]] = {
    "p50_update_seconds":
        lambda s: percentile(_update_seconds(s), 50.0)
        if _completed(s) else None,
    "p95_update_seconds":
        lambda s: percentile(_update_seconds(s), 95.0)
        if _completed(s) else None,
    "max_update_seconds":
        lambda s: max(_update_seconds(s)) if _completed(s) else None,
    "failure_rate": _failure_rate,
    "quarantine_rate":
        lambda s: (sum(1 for x in s if x.state == "quarantined")
                   / len(s)) if s else None,
    "max_energy_mj":
        lambda s: max(x.energy_mj for x in _completed(s))
        if _completed(s) else None,
    "p95_energy_mj":
        lambda s: percentile([x.energy_mj for x in _completed(s)], 95.0)
        if _completed(s) else None,
    "interruptions_per_device":
        lambda s: (sum(x.interruptions for x in s) / len(s))
        if s else None,
}


def fleet_metric(name: str,
                 samples: Sequence[DeviceSample]) -> Optional[float]:
    """Evaluate one named fleet metric (None = not measurable yet)."""
    try:
        return FLEET_METRICS[name](samples)
    except KeyError:
        raise KeyError("unknown fleet metric %r (have: %s)"
                       % (name, ", ".join(sorted(FLEET_METRICS)))) \
            from None


@dataclass(frozen=True)
class SLO:
    """One declarative objective: ``metric`` must stay <= ``threshold``.

    All fleet metrics are "lower is better" (times, rates, energy), so
    a single comparison direction suffices; ``action`` is what a breach
    does to the rollout.
    """

    name: str
    metric: str
    threshold: float
    action: Action = Action.ABORT

    def __post_init__(self) -> None:
        if self.metric not in FLEET_METRICS:
            raise ValueError("unknown fleet metric %r (have: %s)"
                             % (self.metric,
                                ", ".join(sorted(FLEET_METRICS))))
        if self.action is Action.CONTINUE:
            raise ValueError("a breach must escalate: use SLOW, PAUSE "
                             "or ABORT")

    def evaluate(self, samples: Sequence[DeviceSample],
                 wave: int) -> Optional["SLOBreach"]:
        observed = fleet_metric(self.metric, samples)
        if observed is None or observed <= self.threshold:
            return None
        return SLOBreach(name=self.name, metric=self.metric,
                         observed=observed, threshold=self.threshold,
                         wave=wave, action=self.action)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "metric": self.metric,
                "threshold": self.threshold,
                "action": self.action.value}


@dataclass
class SLOBreach:
    """One objective blown in one wave."""

    name: str
    metric: str
    observed: float
    threshold: float
    wave: int
    action: Action

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "metric": self.metric,
                "observed": round(self.observed, 6),
                "threshold": self.threshold, "wave": self.wave,
                "action": self.action.value}


#: A sane production default set: generous enough that a healthy fleet
#: passes, tight enough that a bad release trips before the main wave.
DEFAULT_SLOS: Tuple[SLO, ...] = (
    SLO("update-time-p95", "p95_update_seconds", 600.0, Action.PAUSE),
    SLO("failure-rate", "failure_rate", 0.2, Action.ABORT),
    SLO("energy-per-update", "max_energy_mj", 10_000.0, Action.SLOW),
)


@dataclass
class WaveVerdict:
    """What the telemetry plane decided about one finished wave."""

    wave: int
    action: Action
    health: HealthReport
    breaches: List[SLOBreach] = field(default_factory=list)
    #: Failed devices the campaign should re-file as quarantined.
    quarantine: List[str] = field(default_factory=list)
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def breached(self) -> bool:
        return bool(self.breaches)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wave": self.wave,
            "action": self.action.value,
            "breaches": [breach.to_dict() for breach in self.breaches],
            "quarantine": list(self.quarantine),
            "health": self.health.to_dict(),
            "metrics": {name: (round(value, 6)
                               if value is not None else None)
                        for name, value in sorted(self.metrics.items())},
        }


class FleetTelemetry:
    """The fleet telemetry plane, as one campaign-attachable object.

    Lifecycle (driven by :class:`~repro.fleet.campaign.Campaign`):

    1. the campaign calls :meth:`scrape_record` as each device
       finishes (wave order — deterministic);
    2. the campaign calls :meth:`observe_device` per merged record;
    3. the campaign calls :meth:`close_wave`, gets a
       :class:`WaveVerdict`, and applies its action/quarantine list.

    ``quarantine_kinds`` names the anomaly kinds that re-file a *failed*
    device as quarantined (default: retry storms and crash loops — a
    flaky radio or a crash-looping install is a device problem, not a
    release problem, and must not abort the fleet's rollout).
    """

    def __init__(self, slos: Sequence[SLO] = DEFAULT_SLOS,
                 thresholds: Optional[HealthThresholds] = None,
                 store: Optional[TimeSeriesStore] = None,
                 quarantine_kinds: FrozenSet[str] = frozenset(
                     {"retry-storm", "crash-loop"})) -> None:
        self.slos: Tuple[SLO, ...] = tuple(slos)
        self.thresholds = thresholds or HealthThresholds()
        self.store = store if store is not None else TimeSeriesStore()
        self.scraper = FleetScraper(self.store)
        self.quarantine_kinds = frozenset(quarantine_kinds)
        self.samples: List[DeviceSample] = []
        self.verdicts: List[WaveVerdict] = []
        #: Optional :class:`~repro.fleet.budget.RetryGovernor`: when a
        #: retry-storm anomaly fires, the affected device's fault
        #: domain (via ``domain_of``) gets its circuit breaker tripped
        #: — detection actuates instead of merely reporting.  Wired by
        #: the campaign; None keeps telemetry observation-only.
        self.governor: Optional[Any] = None
        self.domain_of: Optional[Any] = None

    # -- ingestion (campaign-driven) -----------------------------------------

    def scrape_record(self, record: Any) -> None:
        """Executor hook: scrape one finished device's registry."""
        self.scraper.scrape_device(record.name, record.device)

    def observe_device(self, record: Any, wave: int) -> DeviceSample:
        sample = DeviceSample.from_record(record, wave)
        self.samples.append(sample)
        return sample

    def observe_sample(self, sample: DeviceSample) -> DeviceSample:
        """Ingest a pre-built sample (a resumed campaign synthesizing
        journal-replayed members it never re-drove)."""
        self.samples.append(sample)
        return sample

    def close_wave(self, wave: int,
                   t: float = 0.0) -> WaveVerdict:
        """Analyze the wave, evaluate SLOs, and decide the action.

        Quarantine flagging happens *before* SLO evaluation: flagged
        failed devices are re-labelled quarantined in the samples, so
        the failure-rate metric never double-counts them (see module
        docstring).  ``t`` is the campaign's wall-clock so far, used to
        timestamp the fleet-level series.
        """
        wave_samples = [sample for sample in self.samples
                        if sample.wave == wave]
        health = analyze_wave(wave_samples, self.thresholds, wave=wave)
        if self.governor is not None:
            # Actuation: a retry-storm anomaly trips the breaker of
            # the device's fault domain (None = the fleet-wide one).
            for anomaly in health.anomalies:
                if anomaly.kind == "retry-storm":
                    domain = (self.domain_of(anomaly.device)
                              if self.domain_of is not None
                              and anomaly.device else None)
                    self.governor.note_retry_storm(domain, now=t)
        quarantine = [
            sample.name for sample in wave_samples
            if sample.state == "failed"
            and any(kind in self.quarantine_kinds
                    for kind in health.kinds_for(sample.name))
        ]
        for sample in wave_samples:
            if sample.name in quarantine:
                sample.state = "quarantined"

        breaches = []
        action = Action.CONTINUE
        for slo in self.slos:
            breach = slo.evaluate(wave_samples, wave)
            if breach is not None:
                breaches.append(breach)
                action = _escalate(action, breach.action)

        metrics = {name: fleet_metric(name, wave_samples)
                   for name in sorted(FLEET_METRICS)}
        for name, value in metrics.items():
            if value is not None:
                self.store.record("fleet.%s" % name, t, value)
        self.store.record("fleet.anomalies", t,
                          len(health.anomalies))

        verdict = WaveVerdict(wave=wave, action=action, health=health,
                              breaches=breaches, quarantine=quarantine,
                              metrics=metrics)
        self.verdicts.append(verdict)
        return verdict

    # -- reporting -----------------------------------------------------------

    @property
    def breached(self) -> bool:
        return any(verdict.breaches for verdict in self.verdicts)

    def verdict(self) -> str:
        """Overall SLO verdict for the whole campaign."""
        return "breached" if self.breached else "ok"

    def anomalies(self) -> List[Dict[str, Any]]:
        return [anomaly.to_dict()
                for verdict in self.verdicts
                for anomaly in verdict.health.anomalies]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict(),
            "slos": [slo.to_dict() for slo in self.slos],
            "waves": [verdict.to_dict() for verdict in self.verdicts],
            "anomalies": self.anomalies(),
            "samples": [sample.to_dict() for sample in self.samples],
            "timeseries": self.store.to_dict(),
        }
