"""The simulated-CoAP face: named chunks, dedup, protocol parity.

The headline test here is parity: the same device session spoken over
HTTP/1.1 and over CoAP block-wise datagrams against one shared
:class:`FleetService` must surface identical payload bytes, versions
and outcomes — the two faces are codecs over one service, and this is
where that claim is checked rather than asserted.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.net.coap import Block, CoapCode, CoapMessage, CoapOption, \
    CoapType
from repro.serve import (
    CoapDatagramRelay,
    CoapDeviceClient,
    CoapFront,
    FleetService,
    HttpServer,
)
from repro.tools.swarm import SwarmHttpClient, run_http_session

DEVICE = 0x40CC0001


def coap_service():
    service = FleetService(chunk_size=1024)
    service.seed_channels(image_size=4096)
    return service, CoapFront(service)


def test_full_session_over_datagrams():
    service, front = coap_service()
    relay = CoapDatagramRelay(front)
    client = CoapDeviceClient(relay, DEVICE, block_size=256)
    outcome = asyncio.run(client.run_session())
    assert outcome["digest_ok"] is True
    assert outcome["version"] == 2
    assert outcome["report"]["acknowledged"] is True
    assert service.device_status(DEVICE)["current_version"] == 2


@pytest.mark.parametrize("drop_every", [2, 3, 5])
def test_lossy_relay_retransmissions_are_deduplicated(drop_every):
    """Every Nth response datagram is lost; CON retransmission plus
    RFC 7252 §4.2 dedup must finish the session without ever burning
    the single-use token on a replayed POST."""
    service, front = coap_service()
    relay = CoapDatagramRelay(front, drop_every=drop_every)
    client = CoapDeviceClient(relay, DEVICE, block_size=256)
    outcome = asyncio.run(client.run_session())
    assert outcome["digest_ok"] is True
    assert relay.dropped > 0
    assert service.metrics.counter("serve.token_replays") \
        .to_value() == 0
    assert service.device_status(DEVICE)["current_version"] == 2


def test_shared_front_keeps_client_sessions_distinct():
    """Two clients behind one front emit identical deterministic
    token/MID sequences; per-endpoint dedup scope (RFC 7252 §4.4)
    must keep their sessions fully separate — without it the second
    client would be served the first client's cached responses."""
    service, front = coap_service()
    relay = CoapDatagramRelay(front)

    async def main():
        first = CoapDeviceClient(relay, DEVICE, block_size=256)
        second = CoapDeviceClient(relay, DEVICE + 1, block_size=256)
        return await first.run_session(), await second.run_session()

    one, two = asyncio.run(main())
    assert one["register"]["device_id"] == DEVICE
    assert two["register"]["device_id"] == DEVICE + 1
    assert one["token"] != two["token"]
    assert one["digest_ok"] and two["digest_ok"]
    assert service.device_status(DEVICE)["current_version"] == 2
    assert service.device_status(DEVICE + 1)["current_version"] == 2


def test_http_and_coap_sessions_are_byte_identical():
    """Protocol parity: one service, two faces, same device-visible
    bytes (acceptance criterion)."""
    async def main():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        front = CoapFront(service)
        relay = CoapDatagramRelay(front)
        async with HttpServer(service) as server:
            async with SwarmHttpClient("127.0.0.1",
                                       server.port) as http_client:
                http = await run_http_session(http_client, DEVICE,
                                              1024)
        coap = await CoapDeviceClient(relay, DEVICE + 1,
                                      block_size=256).run_session()
        return http, coap

    http, coap = asyncio.run(main())
    assert http["payload"] == coap["payload"]
    assert http["version"] == coap["version"] == 2
    assert http["digest_ok"] and coap["digest_ok"]
    for outcome in (http, coap):
        assert outcome["report"]["status"] == "updated"
        assert outcome["report"]["acknowledged"] is True
    # Envelopes bind per-token nonces, so they differ by design —
    # but both must be well-formed manifests of the same length.
    assert http["envelope"] != coap["envelope"]
    assert len(http["envelope"]) == len(coap["envelope"])


def test_errors_map_to_coap_codes_with_structured_bodies():
    service, front = coap_service()
    relay = CoapDatagramRelay(front)
    client = CoapDeviceClient(relay, DEVICE)

    async def main():
        outcome = await client.run_session()
        # Replay the burnt token: 4.03 with the same error body the
        # HTTP face serves.
        request = client._request(CoapCode.GET,
                                  "images/%s" % outcome["token"])
        request.add_option(CoapOption.BLOCK2,
                           Block(num=0, more=False, size=256).encode())
        response = CoapMessage.decode(
            await front.handle_datagram(request.encode()))
        assert response.code == CoapCode.FORBIDDEN
        error = json.loads(response.payload)["error"]
        assert error["code"] == "token-replayed"
        assert error["status"] == 403
        # Unknown route: 4.04.
        request = client._request(CoapCode.GET, "bogus/route")
        response = CoapMessage.decode(
            await front.handle_datagram(request.encode()))
        assert response.code == CoapCode.NOT_FOUND
        # Malformed datagram: 4.00, never silence.
        response = CoapMessage.decode(
            await front.handle_datagram(b"\x00"))
        assert response.code == CoapCode.BAD_REQUEST

    asyncio.run(main())


def test_dedup_cache_replays_responses_not_requests():
    """The same CON datagram twice executes the request once."""
    service, front = coap_service()
    service.register_device({"device_id": DEVICE, "channel": "stable",
                             "current_version": 1})
    request = CoapMessage(mtype=CoapType.CON, code=CoapCode.POST,
                          message_id=7, token=b"\x01\x02")
    for segment in ("devices", str(DEVICE), "token"):
        request.add_option(CoapOption.URI_PATH,
                           segment.encode("utf-8"))
    datagram = request.encode()
    first = asyncio.run(front.handle_datagram(datagram))
    second = asyncio.run(front.handle_datagram(datagram))
    assert first == second                   # cached, not re-executed
    body = json.loads(CoapMessage.decode(first).payload)
    assert body["nonce"] == 1
    # A genuinely new message ID is a new request — and loses the
    # single-open-token race as it should.
    request.message_id = 8
    response = CoapMessage.decode(
        asyncio.run(front.handle_datagram(request.encode())))
    assert response.code == CoapCode.CONFLICT
    error = json.loads(response.payload)["error"]
    assert error["code"] == "token-outstanding"


def test_back_to_back_sessions_of_one_device_get_fresh_tokens():
    """A device's second session from the same endpoint, well inside
    the front's dedup window, must not be answered from the first
    session's cached responses: clients start message IDs and tokens
    at random values (RFC 7252 §4.4, §5.3.1), so the second session
    gets its own single-use token and closes it."""
    service, front = coap_service()
    relay = CoapDatagramRelay(front)

    async def main():
        first = await CoapDeviceClient(relay, DEVICE,
                                       block_size=256).run_session()
        second = await CoapDeviceClient(relay, DEVICE,
                                        block_size=256).run_session()
        return first, second

    one, two = asyncio.run(main())
    assert one["token"] != two["token"]
    for outcome in (one, two):
        assert outcome["digest_ok"] is True
        assert outcome["report"]["acknowledged"] is True
    assert service.metrics.counter("serve.coap_dedup_hits") \
        .to_value() == 0


# -- route parity over the shared table ---------------------------------------

UNKNOWN = 0x40CC0F00
FRESH = 0x40CC0F01
LIVE = 0x40CC0F02
BURNT = 0x40CC0F03


def parity_world():
    """A service with a registered device, an open prepared token and
    a burnt token — built identically for each face."""
    service = FleetService(chunk_size=1024)
    service.seed_channels(image_size=4096)
    tokens = {}
    for device in (FRESH, LIVE, BURNT):
        service.register_device({"device_id": device,
                                 "channel": "stable",
                                 "current_version": 1})
    for device, name in ((LIVE, "live"), (BURNT, "burnt")):
        tokens[name] = service.issue_token(device, False)["token"]
        service.resolve_manifest_encoded(tokens[name])
    service.close_token(tokens["burnt"], {"status": "failed"})
    return service, tokens


def parity_cases():
    """(route, case) pairs for every route both faces expose, with the
    cases its path and method admit."""
    from repro.serve.routes import ROUTES

    for route in ROUTES:
        if not route.coap:
            continue
        cases = ["success"]
        if "{id}" in route.path:
            cases += ["unknown-device", "non-integer-id"]
        if "{token}" in route.path:
            cases.append("replayed-token")
        if route.method == "POST":
            cases.append("malformed-body")
        for case in cases:
            yield pytest.param(route, case,
                               id="%s %s: %s" % (route.method,
                                                 route.path, case))


def parity_request(route, case, tokens):
    """``(path, body bytes, expected status, expected error code)``."""
    bodies = {
        "/devices": {"device_id": UNKNOWN, "channel": "stable",
                     "current_version": 1},
        "/devices/{id}/token": {},
        "/reports/{token}": {"status": "updated"},
    }
    body = json.dumps(bodies[route.path]).encode() \
        if route.path in bodies else b""
    params = {"id": str(FRESH), "token": tokens["live"]}
    expected = (route.status, None)
    if case == "unknown-device":
        params["id"] = str(UNKNOWN)
        expected = (404, "unknown-device")
    elif case == "non-integer-id":
        params["id"] = "abc"
        expected = (400, "invalid-device-id")
    elif case == "replayed-token":
        params["token"] = tokens["burnt"]
        expected = (403, "token-replayed")
    elif case == "malformed-body":
        body = b"{not json"
        expected = (400, "invalid-body")
    return route.path.format(**params), body, expected


async def http_exchange(port, method, path, body):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"%s %s HTTP/1.1\r\nConnection: close\r\n"
                 b"Content-Length: %d\r\n\r\n%s"
                 % (method.encode(), path.encode(), len(body), body))
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _sep, payload = response.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


async def coap_exchange(front, method, path, body):
    request = CoapMessage(mtype=CoapType.CON, code=CoapCode[method],
                          message_id=1, token=b"\x01", payload=body)
    for segment in path.strip("/").split("/"):
        request.add_option(CoapOption.URI_PATH, segment.encode())
    response = CoapMessage.decode(await front.handle_datagram(
        request.encode(), b"parity"))
    code = int(response.code)
    status = (code >> 5) * 100 + (code & 0x1F)
    return (200 if status in (204, 205) else status), response


@pytest.mark.parametrize("route,case", parity_cases())
def test_routes_answer_alike_on_both_faces(route, case):
    """Same status and same ``error.code`` over HTTP and CoAP for
    every shared route; success codes follow the table (201 is
    2.01 Created, a POST's 200 is 2.04 Changed, a GET's 2.05)."""
    async def main():
        http_service, http_tokens = parity_world()
        async with HttpServer(http_service) as server:
            path, body, expected = parity_request(route, case,
                                                  http_tokens)
            http = await http_exchange(server.port, route.method,
                                       path, body)
        coap_service_, coap_tokens = parity_world()
        path, body, _expected = parity_request(route, case,
                                               coap_tokens)
        coap = await coap_exchange(CoapFront(coap_service_),
                                   route.method, path, body)
        return expected, http, coap

    (status, error_code), http, coap = asyncio.run(main())
    (http_status, http_body), (coap_status, coap_response) = http, coap
    assert http_status == coap_status == status
    if error_code is None:
        assert coap_response.code == (
            CoapCode.CREATED if status == 201 else
            CoapCode.CONTENT if route.method == "GET" else
            CoapCode.CHANGED)
        return
    assert json.loads(http_body)["error"]["code"] == error_code
    assert json.loads(coap_response.payload)["error"]["code"] \
        == error_code


def test_directory_lists_exactly_the_http_routes():
    from repro.serve.routes import ROUTES

    async def main():
        service = FleetService(chunk_size=1024)
        service.seed_channels(image_size=4096)
        async with HttpServer(service) as server:
            return await http_exchange(server.port, "GET", "/", b"")

    status, body = asyncio.run(main())
    assert status == 200
    assert sorted(json.loads(body)["endpoints"]) == sorted(
        "%s %s" % (route.method, route.path) for route in ROUTES)
