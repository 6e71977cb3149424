"""The service plane: network faces over the in-process update core.

:mod:`repro.serve.service` is the protocol-agnostic brain (device
registry, single-use tokens, channels, ranged chunks, WAL-backed
campaign CRUD).  :mod:`repro.serve.routes` holds the one route table
both faces serve — method, path template, service method, success
status, offload class — and the request pipeline that runs it
(matching, argument parsing, error mapping, offload, tracing, request
accounting).  :mod:`repro.serve.httpd` and :mod:`repro.serve.coapface`
are thin HTTP/1.1 and simulated-CoAP framings over that pipeline;
:mod:`repro.serve.telemetry` is the faces' shared request-scoped
observability (access log, per-route histograms, event-loop
watchdog); :mod:`repro.serve.signing` is the off-loop signer pool
signing routes dispatch through.  See DESIGN.md "Service plane" and
"Serve-plane fast path".
"""

from .coapface import (
    CoapDatagramRelay,
    CoapDeviceClient,
    CoapFront,
    DEFAULT_BLOCK_SIZE,
)
from .httpd import HttpServer
from .service import (
    APP_ID,
    CHANNELS,
    CampaignSpec,
    DeviceFarm,
    FleetService,
    ServiceError,
)
from .signing import SignerPool, SignerPoolStats, shared_signer_pool
from .telemetry import EventLoopWatchdog, ServeTelemetry

__all__ = [
    "APP_ID",
    "CHANNELS",
    "CampaignSpec",
    "CoapDatagramRelay",
    "CoapDeviceClient",
    "CoapFront",
    "DEFAULT_BLOCK_SIZE",
    "DeviceFarm",
    "EventLoopWatchdog",
    "FleetService",
    "HttpServer",
    "ServeTelemetry",
    "ServiceError",
    "SignerPool",
    "SignerPoolStats",
    "shared_signer_pool",
]
