"""Virtual time for the update simulation.

All durations in the evaluation are *modeled* (radio packet timing,
flash busy time, crypto latency), so the simulation advances a virtual
clock instead of sleeping.  The clock also keeps a running total of the
advances per label, which the phase-breakdown reports (Fig. 8a) are
built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["VirtualClock"]


@dataclass
class VirtualClock:
    """Monotonic virtual clock with labelled time accounting.

    Each label's total is summed in advance order starting from
    ``0.0`` — the same additions, in the same order, as summing a log
    of ``(label, seconds)`` advances afterwards, so the floats are
    identical without keeping the log.
    """

    now: float = 0.0
    _totals: Dict[str, float] = field(default_factory=dict)

    def advance(self, seconds: float, label: str = "unlabelled") -> None:
        if seconds < 0:
            raise ValueError("cannot advance time by %f" % seconds)
        self.now += seconds
        totals = self._totals
        totals[label] = totals.get(label, 0.0) + seconds

    def elapsed_by_label(self) -> Dict[str, float]:
        return dict(self._totals)

    def reset(self) -> None:
        self.now = 0.0
        self._totals.clear()
