"""Observability: tracing, metrics, black boxes, and the telemetry plane.

The flight-recorder layer of the reproduction (the FOTA survey's
"campaign monitoring" requirement): :mod:`repro.obs.trace` is the one
tracer for both clocks — a device's virtual clock and the serve
plane's wall clock — with contextvars span parenting, W3C-style
traceparent propagation and Chrome-trace export;
:mod:`repro.obs.metrics` is a dependency-free counter/gauge/histogram
registry that also *surfaces* the existing bespoke stats objects, and
:mod:`repro.obs.blackbox` persists lifecycle events through simulated
flash so a chaos-sweep power cut leaves a readable post-mortem.

On top of those sit the fleet telemetry plane's modules:
:mod:`repro.obs.timeseries` (bounded virtual-clock series fed by
scrapes of each device's registry), :mod:`repro.obs.health`
(per-device health scores and fleet anomaly detectors),
:mod:`repro.obs.slo` (declarative SLOs whose breaches pause, slow or
abort a rollout) and :mod:`repro.obs.export` (OpenMetrics text and the
schema-versioned ``fleetview`` JSON artifact).
"""

from .blackbox import PHASE_OF_EVENT, BlackBox, BlackBoxRecord, \
    aggregate_post_mortems
from .export import OPENMETRICS_CONTENT_TYPE, to_openmetrics, \
    write_openmetrics
from .health import (
    Anomaly,
    DeviceSample,
    HealthReport,
    HealthThresholds,
    analyze_wave,
    robust_zscores,
    score_device,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    UPDATE_LATENCY_BUCKETS,
    bind_device,
    bind_engine,
    bind_server,
)
from .slo import (
    Action,
    DEFAULT_SLOS,
    FleetTelemetry,
    SLO,
    SLOBreach,
    WaveVerdict,
    percentile,
)
from .timeseries import FleetScraper, Point, Series, TimeSeriesStore
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    TRACEPARENT_HEADER,
    Tracer,
    containment_errors,
    format_traceparent,
    merge_chrome_traces,
    new_trace_id,
    parse_traceparent,
)

__all__ = [
    "BlackBox",
    "BlackBoxRecord",
    "PHASE_OF_EVENT",
    "aggregate_post_mortems",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "UPDATE_LATENCY_BUCKETS",
    "bind_device",
    "bind_engine",
    "bind_server",
    "Point",
    "Series",
    "TimeSeriesStore",
    "FleetScraper",
    "Anomaly",
    "DeviceSample",
    "HealthReport",
    "HealthThresholds",
    "analyze_wave",
    "robust_zscores",
    "score_device",
    "Action",
    "SLO",
    "SLOBreach",
    "WaveVerdict",
    "FleetTelemetry",
    "DEFAULT_SLOS",
    "percentile",
    "OPENMETRICS_CONTENT_TYPE",
    "to_openmetrics",
    "write_openmetrics",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "containment_errors",
    "merge_chrome_traces",
    "TRACEPARENT_HEADER",
    "format_traceparent",
    "new_trace_id",
    "parse_traceparent",
]
