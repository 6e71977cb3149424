"""Server processes the benchmark spawns, besides the shipped ``cli serve``.

``python -m perfbench.server_main http --spans PATH``
    The shipped HTTP server (``repro.tools.cli serve --port 0``) with
    the serve-plane layers wrapped for tracing; spans and cache
    statistics are written to PATH when it is interrupted.

``python -m perfbench.server_main coap [--spans PATH]``
    A UDP socket around the public ``CoapFront.handle_datagram`` over
    the same ``FleetService`` set-up ``cli serve`` uses.  Prints
    ``perfbench coap: udp://HOST:PORT`` once it accepts datagrams.

Both run until SIGINT.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import Dict, Optional

from .common import require_source, write_json

#: Same demo release train as ``cli serve``'s defaults.
IMAGE_SIZE = 8 * 1024


class UdpCoapServer(asyncio.DatagramProtocol):
    """One task per datagram; the source address is the dedup endpoint
    (RFC 7252 §4.4), exactly as on a deployed CoAP server."""

    def __init__(self, front) -> None:
        self.front = front
        self.transport: Optional[asyncio.DatagramTransport] = None
        self._tasks: set = set()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve(data, addr))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve(self, data: bytes, addr) -> None:
        response = await self.front.handle_datagram(
            data, ("%s:%d" % addr[:2]).encode("utf-8"))
        if self.transport is not None:
            self.transport.sendto(response, addr)


def serve_coap(captured: Dict[str, object], host: str = "127.0.0.1"
               ) -> None:
    from repro.serve import CoapFront, FleetService, ServeTelemetry

    service = FleetService()
    captured["service"] = service
    service.seed_channels(image_size=IMAGE_SIZE)
    front = CoapFront(service, ServeTelemetry(service.metrics))

    async def run() -> None:
        loop = asyncio.get_running_loop()
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: UdpCoapServer(front), local_addr=(host, 0))
        try:
            port = transport.get_extra_info("sockname")[1]
            print("perfbench coap: udp://%s:%d" % (host, port),
                  flush=True)
            await asyncio.Event().wait()
        finally:
            transport.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def cache_stats(service) -> Dict[str, object]:
    """The serve-side cache counters a traced run reports."""
    if service is None:
        return {}
    return {
        "signer_pool": service.signer.stats_snapshot().to_dict(),
        "signature_cache":
            service.signer.signatures.stats_snapshot().to_dict(),
        "artifacts": service.artifacts.stats.to_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.server_main")
    parser.add_argument("face", choices=("http", "coap"))
    parser.add_argument("--spans", default=None,
                        help="trace the serve plane; write spans here")
    args = parser.parse_args(argv)
    require_source()

    from .layers import trace_serve
    from .spans import SpanRecorder

    recorder = SpanRecorder()
    captured: Dict[str, object] = {}
    if args.spans:
        trace_serve(recorder, captured)
    try:
        if args.face == "http":
            from repro.tools import cli

            return cli.main(["serve", "--port", "0",
                             "--image-size", str(IMAGE_SIZE)])
        serve_coap(captured)
        return 0
    finally:
        if args.spans:
            recorder.unwrap_all()
            write_json(Path(args.spans),
                       {"spans": recorder.to_rows(),
                        "stats": cache_stats(captured.get("service"))})


if __name__ == "__main__":
    sys.exit(main())
