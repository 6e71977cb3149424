"""Which public functions a traced run wraps, layer by layer.

Layer names are the program's modules.  A span's layer is where its
*self* time is charged; the functions a layer calls into are wrapped
too, so what they cover is subtracted.  Work inside a wrapped call
that reaches no other wrapped function (for the campaign: the agent,
the flash model and the energy meter under ``run_update``) is charged
to the wrapped caller's layer.
"""

from __future__ import annotations

from typing import Dict, Optional

from .spans import SpanRecorder

#: Layers whose self time the benchmark reports, in a fixed order.
SELF_TIME_LAYERS = (
    "serve.httpd", "serve.coapface", "serve.service", "serve.signing",
    "core.server", "core.verifier", "core.bootloader", "crypto", "delta",
    "compression", "net", "fleet",
)
#: Request spans recorded from the faces' telemetry: a timing, not code.
REQUEST_LAYER = "serve.request"

TRANSPORT_SPANS = ("net.transports.push.run_update",
                   "net.transports.pull.run_update")
SERVICE_CALLS = ("register_device", "issue_token",
                 "resolve_manifest_encoded", "read_chunk", "close_token")


def _token_device(token_hex: object) -> Optional[int]:
    """The device id packed into the first four bytes of a token."""
    try:
        return int(str(token_hex)[:8], 16)
    except ValueError:
        return None


def trace_serve(recorder: SpanRecorder,
                captured: Dict[str, object]) -> None:
    """Wrap the serve plane inside a server process.

    ``captured["service"]`` receives the :class:`FleetService` once it
    seeds its channels, so the caller can read its cache statistics at
    exit.
    """
    from repro.core.server import UpdateServer
    from repro.crypto.ecdsa import PrivateKey
    from repro.serve import CoapFront, FleetService, ServeTelemetry, \
        SignerPool

    seed_channels = FleetService.seed_channels

    def capture(service, *args, **kwargs):
        captured["service"] = service
        return seed_channels(service, *args, **kwargs)

    recorder.patch(FleetService, "seed_channels", capture)
    _trace_firmware_generation(recorder)

    keys = {
        "register_device": lambda _s, body, *a, **k: (
            body.get("device_id") if isinstance(body, dict) else None),
        "issue_token": lambda _s, device_id, *a, **k: device_id,
    }
    for call in SERVICE_CALLS:
        recorder.wrap(FleetService, call, "serve.service." + call,
                      "serve.service",
                      keys.get(call, lambda _s, token, *a, **k:
                               _token_device(token)))

    dispatch = SignerPool.dispatch

    async def traced_dispatch(pool, fn, *args, tracer=None):
        # The job runs on a pool worker under a context copied at
        # submit time, so its span nests under this dispatch span; the
        # dispatch span's self time is then the queue wait plus the
        # hand-offs between the loop and the worker.
        _parent, parent_layer, _key = recorder.current()
        job_layer = parent_layer or "serve.httpd"

        def job(*job_args):
            return recorder.call("serve.signing.job", job_layer, fn,
                                 job_args, {})

        return await recorder.acall(
            "serve.signing.dispatch", "serve.signing", dispatch,
            (pool, job) + args, {"tracer": tracer})

    recorder.patch(SignerPool, "dispatch", traced_dispatch)
    recorder.wrap(SignerPool, "sign", "serve.signing.sign",
                  "serve.signing")
    recorder.wrap(PrivateKey, "sign_digest", "crypto.ecdsa.sign",
                  "crypto")
    recorder.wrap(UpdateServer, "prepare_update",
                  "core.server.prepare_update", "core.server")
    recorder.wrap(CoapFront, "handle_datagram",
                  "serve.coapface.handle_datagram", "serve.coapface",
                  lambda _f, _datagram, endpoint=b"", **k:
                  endpoint.decode("utf-8", "replace"))

    observe_request = ServeTelemetry.observe_request

    def traced_observe(telemetry, proto, route, status, nbytes,
                       duration_s, *args, **kwargs):
        # The faces time each request themselves and report it here
        # (the observation behind the /metrics route histograms): the
        # request becomes a root span ending now.
        end = recorder.now()
        recorder.record("serve.request.%s" % proto, REQUEST_LAYER,
                        end - duration_s, end, key=route, parent=0)
        return observe_request(telemetry, proto, route, status, nbytes,
                               duration_s, *args, **kwargs)

    recorder.patch(ServeTelemetry, "observe_request", traced_observe)


def device_key(transport, *args, **kwargs) -> int:
    """A transport's spans are keyed by its device's id."""
    return transport.device.profile.device_id


def trace_transports(recorder: SpanRecorder) -> None:
    """Time each device's update (all a campaign's untraced run wraps)."""
    from repro.net.transports import PullTransport, PushTransport

    for cls, name in zip((PushTransport, PullTransport), TRANSPORT_SPANS):
        recorder.wrap(cls, "run_update", name, "net", device_key)


def trace_device_plane(recorder: SpanRecorder) -> None:
    """Wrap the campaign's path: fleet, transports, server, device."""
    import repro.core.server as server_module
    from repro.compression.lzss import LzssDecoder
    from repro.core.bootloader import Bootloader
    from repro.core.server import UpdateServer
    from repro.core.verifier import Verifier
    from repro.crypto.backends import CryptoBackend
    from repro.crypto.ecdsa import PrivateKey
    from repro.delta.bspatch import StreamingPatcher
    from repro.fleet import Campaign

    _trace_firmware_generation(recorder)
    recorder.wrap(Campaign, "run", "fleet.campaign.run", "fleet")
    trace_transports(recorder)
    recorder.wrap(UpdateServer, "prepare_update",
                  "core.server.prepare_update", "core.server")
    recorder.wrap(server_module, "bsdiff_diff", "delta.bsdiff.diff",
                  "delta")
    recorder.wrap(server_module, "lzss_compress",
                  "compression.lzss.compress", "compression")
    recorder.wrap(PrivateKey, "sign_digest", "crypto.ecdsa.sign",
                  "crypto")
    recorder.wrap(Verifier, "verify_signatures",
                  "core.verifier.verify_signatures", "core.verifier")
    recorder.wrap(CryptoBackend, "verify", "crypto.backend.verify",
                  "crypto")
    recorder.wrap(LzssDecoder, "feed", "compression.lzss.decode",
                  "compression")
    recorder.wrap(StreamingPatcher, "feed", "delta.bspatch.patch",
                  "delta")
    recorder.wrap(Bootloader, "boot", "core.bootloader.boot",
                  "core.bootloader")


def _trace_firmware_generation(recorder: SpanRecorder) -> None:
    from repro.workload import FirmwareGenerator

    for method in ("firmware", "os_version_change"):
        recorder.wrap(FirmwareGenerator, method,
                      "workload.generator." + method, "workload")
