"""Fleet layer: staged update campaigns over many simulated devices."""

from .budget import (
    BreakerPolicy,
    BreakerState,
    CAUTION_TRANSPORT_RETRY,
    CircuitBreaker,
    Decision,
    RetryBudget,
    RetryGovernor,
)
from .campaign import (
    Campaign,
    CampaignReport,
    DeviceRecord,
    DeviceState,
    RetryPolicy,
    RolloutPolicy,
    drive_attempt,
    finalize_failed,
    post_mortem_phases,
    transport_for,
)
from .journal import (
    CampaignJournal,
    CoordinatorKilled,
    JOURNAL_KINDS,
)
from .columnar import (
    ColumnarFleet,
    DeviceSpec,
    ROW_DTYPE,
)
from .scale import (
    ScaleCampaign,
    ScaleReport,
)
from .scheduler import (
    Event,
    EventScheduler,
)

__all__ = [
    "BreakerPolicy",
    "BreakerState",
    "CAUTION_TRANSPORT_RETRY",
    "Campaign",
    "CampaignJournal",
    "CampaignReport",
    "CircuitBreaker",
    "ColumnarFleet",
    "CoordinatorKilled",
    "Decision",
    "DeviceRecord",
    "DeviceSpec",
    "DeviceState",
    "Event",
    "EventScheduler",
    "JOURNAL_KINDS",
    "ROW_DTYPE",
    "RetryBudget",
    "RetryGovernor",
    "RetryPolicy",
    "RolloutPolicy",
    "ScaleCampaign",
    "ScaleReport",
    "drive_attempt",
    "finalize_failed",
    "post_mortem_phases",
    "transport_for",
]
