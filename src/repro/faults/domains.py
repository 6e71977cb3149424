"""Correlated fault domains: fleets fail in groups, not one at a time.

PR 2's fault plans model *per-device* failure; real fleets fail in
*correlated* ways — a regional backhaul outage takes every device
behind one gateway down at once, a weather front sweeps packet loss
across regions in sequence, a power blip reboots a whole building and
the devices re-attach as a thundering herd.  The FOTA survey
(Arakadakis et al.) names correlated loss and coordinator failure as
the dominant causes of stalled rollouts; this module makes them
first-class, schedulable, reproducible workloads.

Three value objects:

* :class:`FaultDomain` — a named group of devices/links (region,
  gateway, cohort).  Membership is assignment-rule based
  (:meth:`DomainPlan.domain_of`), never stored per device.
* :class:`DomainEvent` — one correlated event on the virtual clock:
  kind (``LINK_STORM`` / ``LOSS_FRONT`` / ``HERD_REBOOT`` /
  ``COORDINATOR_CRASH``), start time, duration, severity, and a
  ``sweep`` stagger that shifts the window per domain position (the
  weather front crossing regions one after another).
* :class:`DomainPlan` — domains + events + seed.  For any domain it
  derives a deterministic per-domain RNG (so ``cli chaos --seed``
  replays exactly, satellite of PR 7) and converts the time-windowed
  events active at a given admit time into a byte-coordinate
  :class:`~repro.faults.plan.FaultPlan` every member's link replays.

**Correlation mechanics.**  All members of one domain receive the
*same* byte coordinates for one event (drawn once from the domain's
RNG), which is exactly what makes the failure correlated rather than
independent.

**Attempt granularity.**  An event applies to a device's update
attempt when its (possibly swept) window contains the attempt's admit
time.  Nothing polls the clock.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..net.link import COAP_6LOWPAN, Link, LinkProfile
from .injector import FaultInjector
from .plan import FaultKind, FaultPlan, FaultPoint

__all__ = ["FaultDomain", "DomainEvent", "DomainPlan", "derive_seed",
           "CORRELATED_KINDS"]

#: Domain-event kinds that land on member links (COORDINATOR_CRASH
#: lands on the campaign's journal instead).
CORRELATED_KINDS = (FaultKind.LINK_STORM, FaultKind.LOSS_FRONT,
                    FaultKind.HERD_REBOOT)


def derive_seed(seed: int, *parts: object) -> int:
    """Mix ``seed`` with labels into a stable derived seed.

    CRC-32 over the repr of each part, folded into the base seed — the
    one-way street from ``cli chaos --seed`` to every per-domain and
    per-attacker RNG, so two sweeps with the same seed replay
    bit-identically and different domains never share an RNG stream.
    """
    mixed = seed & 0xFFFFFFFF
    for part in parts:
        mixed = zlib.crc32(repr(part).encode("utf-8"), mixed) & 0xFFFFFFFF
    return mixed


@dataclass(frozen=True)
class FaultDomain:
    """One named failure-correlation group."""

    name: str
    #: What the grouping models: ``region`` | ``gateway`` | ``cohort``.
    kind: str = "region"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a fault domain needs a name")

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "kind": self.kind}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultDomain":
        return cls(name=str(data["name"]), kind=str(data.get("kind",
                                                             "region")))


@dataclass(frozen=True)
class DomainEvent:
    """One correlated event on the virtual clock.

    ``at``/``duration`` are virtual seconds; ``sweep`` shifts the
    window by ``sweep * position`` for the domain at ``position`` (a
    front crossing domains in order; 0 = simultaneous everywhere).
    ``severity`` scales the event: consecutive failed attempts for a
    storm, burst width share for a front, and is carried verbatim for
    a coordinator crash (the journal-append index to die at).
    """

    kind: FaultKind
    at: float = 0.0
    duration: float = 60.0
    severity: int = 1
    sweep: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CORRELATED_KINDS \
                and self.kind is not FaultKind.COORDINATOR_CRASH:
            raise ValueError("%s is not a correlated event kind"
                             % self.kind.value)
        if self.at < 0 or self.duration <= 0 or self.sweep < 0:
            raise ValueError("event window must be non-negative and "
                             "non-empty")
        if self.severity < 1:
            raise ValueError("severity must be at least 1")

    def window(self, position: int) -> Tuple[float, float]:
        """The [start, end) window as seen by domain ``position``."""
        start = self.at + self.sweep * position
        return start, start + self.duration

    def active_at(self, position: int, t: Optional[float]) -> bool:
        """Does this event hit an attempt admitted at ``t``?

        ``t=None`` means "ignore the clock" (whole-campaign events —
        what the cross-fleet-size parity tests use).
        """
        if t is None:
            return True
        start, end = self.window(position)
        return start <= t < end

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind.value, "at": self.at,
                "duration": self.duration, "severity": self.severity,
                "sweep": self.sweep}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DomainEvent":
        return cls(kind=FaultKind(data["kind"]), at=float(data["at"]),
                   duration=float(data["duration"]),
                   severity=int(data.get("severity", 1)),
                   sweep=float(data.get("sweep", 0.0)))


class DomainPlan:
    """Domains + correlated events + the seed that replays them.

    ``assignment`` maps fleet row/record index -> domain:

    * ``block`` — contiguous equal slices (devices behind one gateway
      are usually provisioned together);
    * ``hash`` — CRC-based scatter (geographic mixing).
    """

    def __init__(self, domains: List[FaultDomain],
                 events: List[DomainEvent], seed: int = 0,
                 assignment: str = "block") -> None:
        if not domains:
            raise ValueError("a domain plan needs at least one domain")
        names = [domain.name for domain in domains]
        if len(set(names)) != len(names):
            raise ValueError("duplicate domain names: %r" % names)
        if assignment not in ("block", "hash"):
            raise ValueError("assignment must be 'block' or 'hash'")
        self.domains: Tuple[FaultDomain, ...] = tuple(domains)
        self.events: Tuple[DomainEvent, ...] = tuple(events)
        self.seed = seed
        self.assignment = assignment
        self._positions = {domain.name: position
                           for position, domain in enumerate(self.domains)}

    # -- membership -----------------------------------------------------------

    def position_of(self, domain_name: str) -> int:
        try:
            return self._positions[domain_name]
        except KeyError:
            raise KeyError("unknown domain %r (have: %s)"
                           % (domain_name,
                              ", ".join(sorted(self._positions)))) \
                from None

    def domain_of(self, index: int, count: int) -> FaultDomain:
        """The domain of fleet member ``index`` of ``count``."""
        if not (0 <= index < count):
            raise ValueError("index %d outside fleet of %d"
                             % (index, count))
        if self.assignment == "block":
            position = index * len(self.domains) // count
        else:
            position = derive_seed(self.seed, "member", index) \
                % len(self.domains)
        return self.domains[position]

    def members(self, count: int) -> Dict[str, List[int]]:
        """Domain name -> member indices for a fleet of ``count``."""
        mapping: Dict[str, List[int]] = {domain.name: []
                                         for domain in self.domains}
        for index in range(count):
            mapping[self.domain_of(index, count).name].append(index)
        return mapping

    # -- per-domain fault derivation -----------------------------------------

    def domain_rng(self, domain_name: str, *parts: object) \
            -> random.Random:
        """The domain's deterministic RNG stream (optionally refined by
        extra labels, e.g. the event index)."""
        return random.Random(derive_seed(self.seed, "domain",
                                         domain_name, *parts))

    def fault_plan_for(self, position: int, transfer_bytes: int,
                       at_time: Optional[float] = None) -> FaultPlan:
        """Byte-coordinate fault plan for one domain member's attempt.

        Every member of the domain receives the *same* coordinates
        (drawn once per event from the domain's RNG) — that sameness
        is the correlation.  ``transfer_bytes`` scales byte positions
        to the actual transfer; ``at_time`` filters to events whose
        swept window covers the attempt's admit time (None = all).
        """
        if position < 0 or position >= len(self.domains):
            raise ValueError("no domain at position %d" % position)
        if transfer_bytes < 1:
            raise ValueError("transfer_bytes must be positive")
        domain = self.domains[position]
        points: List[FaultPoint] = []
        for event_index, event in enumerate(self.events):
            if event.kind not in CORRELATED_KINDS:
                continue
            if not event.active_at(position, at_time):
                continue
            rng = self.domain_rng(domain.name, "event", event_index)
            at = rng.randrange(1, max(2, transfer_bytes))
            if event.kind is FaultKind.LINK_STORM:
                points.append(FaultPoint(FaultKind.LINK_STORM, at,
                                         event.severity))
            elif event.kind is FaultKind.LOSS_FRONT:
                width = max(256, transfer_bytes // 8) \
                    * min(event.severity, 4)
                points.append(FaultPoint(FaultKind.LOSS_FRONT,
                                         min(at, max(0, transfer_bytes
                                                     - width)),
                                         width))
            else:  # HERD_REBOOT: one synchronized drop per member
                points.append(FaultPoint(FaultKind.HERD_REBOOT, at, 1))
        return FaultPlan(points=tuple(points),
                         seed=derive_seed(self.seed, "link",
                                          domain.name))

    def link_for(self, position: int, transfer_bytes: int,
                 profile: LinkProfile = COAP_6LOWPAN,
                 at_time: Optional[float] = None,
                 loss_rate: float = 0.0) -> Optional[Link]:
        """A fresh link carrying the domain's active correlated faults.

        None when no event is active — the caller keeps whatever
        healthy link it had, so domain wiring is a no-op off-storm.
        """
        plan = self.fault_plan_for(position, transfer_bytes,
                                   at_time=at_time)
        if not len(plan):
            return None
        return FaultInjector(plan).make_link(profile,
                                             loss_rate=loss_rate)

    # -- coordinator faults ---------------------------------------------------

    def coordinator_kills(self) -> List[int]:
        """Journal-append indices at which the coordinator dies
        (``COORDINATOR_CRASH`` events; severity is the index)."""
        return [event.severity for event in self.events
                if event.kind is FaultKind.COORDINATOR_CRASH]

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "assignment": self.assignment,
            "domains": [domain.to_dict() for domain in self.domains],
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DomainPlan":
        return cls(
            domains=[FaultDomain.from_dict(entry)
                     for entry in data["domains"]],  # type: ignore[index]
            events=[DomainEvent.from_dict(entry)
                    for entry in data["events"]],  # type: ignore[index]
            seed=int(data.get("seed", 0)),
            assignment=str(data.get("assignment", "block")),
        )
