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
)
from .journal import (
    CampaignJournal,
    CoordinatorKilled,
    JOURNAL_KINDS,
)

__all__ = [
    "BreakerPolicy",
    "BreakerState",
    "CAUTION_TRANSPORT_RETRY",
    "Campaign",
    "CampaignJournal",
    "CampaignReport",
    "CircuitBreaker",
    "CoordinatorKilled",
    "Decision",
    "DeviceRecord",
    "DeviceState",
    "JOURNAL_KINDS",
    "RetryBudget",
    "RetryGovernor",
    "RetryPolicy",
    "RolloutPolicy",
]
