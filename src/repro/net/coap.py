"""CoAP message codec and blockwise transfer (RFC 7252 / RFC 7959).

The paper's pull approach downloads images over CoAP (Zoap, libcoap or
er-coap depending on the OS).  This module implements the wire format
those stacks speak — header, token, option delta/extended encoding,
payload marker — plus the Block2 option used for firmware-sized
resources, and a tiny resource server/client pair that runs UpKit's
pull flow over *actual messages* (see
:class:`repro.net.sessions.CoapPullSession`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CoapType",
    "CoapCode",
    "CoapOption",
    "CoapMessage",
    "CoapError",
    "Block",
    "CoapResourceServer",
    "blockwise_get",
]

VERSION = 1
PAYLOAD_MARKER = 0xFF


class CoapError(ValueError):
    """Malformed CoAP message or protocol violation."""


class CoapType(enum.IntEnum):
    """Message types (RFC 7252 §3)."""

    CON = 0
    NON = 1
    ACK = 2
    RST = 3


class CoapCode(enum.IntEnum):
    """Request methods and response codes (RFC 7252 §12.1)."""

    EMPTY = 0x00
    GET = 0x01
    POST = 0x02
    PUT = 0x03
    DELETE = 0x04
    CREATED = 0x41        # 2.01
    CONTENT = 0x45        # 2.05
    CHANGED = 0x44        # 2.04
    BAD_REQUEST = 0x80    # 4.00
    NOT_FOUND = 0x84      # 4.04
    FORBIDDEN = 0x83      # 4.03
    METHOD_NOT_ALLOWED = 0x85  # 4.05
    CONFLICT = 0x89       # 4.09 (RFC 8132; the service faces map
                          # HTTP 409 onto it)
    INTERNAL_SERVER_ERROR = 0xA0  # 5.00


class CoapOption(enum.IntEnum):
    """Option numbers this codec understands (RFC 7252/7959/7641)."""

    OBSERVE = 6
    URI_PATH = 11
    CONTENT_FORMAT = 12
    URI_QUERY = 15
    BLOCK2 = 23
    BLOCK1 = 27
    SIZE2 = 28
    #: W3C traceparent carried as a CoAP option: experimental-use
    #: number (RFC 7252 §12.2), even → elective, so a stack that does
    #: not trace silently ignores it instead of rejecting the request.
    TRACEPARENT = 65000


@dataclass(frozen=True)
class Block:
    """A Block1/Block2 option value (RFC 7959)."""

    num: int        # block number
    more: bool      # more blocks follow
    size: int       # block size in bytes (power of two, 16..1024)

    def __post_init__(self) -> None:
        if self.size not in (16, 32, 64, 128, 256, 512, 1024):
            raise CoapError("block size %d not a valid SZX" % self.size)
        if self.num < 0 or self.num >= 1 << 20:
            raise CoapError("block number out of range")

    @property
    def szx(self) -> int:
        return self.size.bit_length() - 5  # 16 -> 0 ... 1024 -> 6

    def encode(self) -> bytes:
        value = (self.num << 4) | (0x08 if self.more else 0) | self.szx
        if value == 0:
            return b""
        length = (value.bit_length() + 7) // 8
        return value.to_bytes(length, "big")

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        value = int.from_bytes(data, "big") if data else 0
        szx = value & 0x07
        if szx == 7:
            raise CoapError("reserved SZX value 7")
        return cls(num=value >> 4, more=bool(value & 0x08),
                   size=1 << (szx + 4))


@dataclass
class CoapMessage:
    """One CoAP message with encode/decode."""

    mtype: CoapType
    code: CoapCode
    message_id: int
    token: bytes = b""
    options: List[Tuple[int, bytes]] = field(default_factory=list)
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not (0 <= self.message_id < 0x10000):
            raise CoapError("message ID must fit 16 bits")
        if len(self.token) > 8:
            raise CoapError("token longer than 8 bytes")

    # -- option helpers -------------------------------------------------------

    def add_option(self, number: int, value: bytes) -> "CoapMessage":
        self.options.append((int(number), bytes(value)))
        return self

    def option(self, number: int) -> Optional[bytes]:
        for opt_number, value in self.options:
            if opt_number == number:
                return value
        return None

    def uri_path(self) -> str:
        return "/".join(
            value.decode("utf-8")
            for number, value in self.options
            if number == CoapOption.URI_PATH
        )

    def block2(self) -> Optional[Block]:
        raw = self.option(CoapOption.BLOCK2)
        return Block.decode(raw) if raw is not None else None

    # -- wire format ---------------------------------------------------------

    def encode(self) -> bytes:
        out = bytearray()
        out.append((VERSION << 6) | (self.mtype << 4) | len(self.token))
        out.append(self.code)
        out.extend(self.message_id.to_bytes(2, "big"))
        out.extend(self.token)

        previous = 0
        for number, value in sorted(self.options, key=lambda o: o[0]):
            delta = number - previous
            previous = number
            delta_nibble, delta_ext = _split_option_value(delta)
            length_nibble, length_ext = _split_option_value(len(value))
            out.append((delta_nibble << 4) | length_nibble)
            out.extend(delta_ext)
            out.extend(length_ext)
            out.extend(value)

        if self.payload:
            out.append(PAYLOAD_MARKER)
            out.extend(self.payload)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "CoapMessage":
        if len(data) < 4:
            raise CoapError("message shorter than the fixed header")
        if data[0] >> 6 != VERSION:
            raise CoapError("unsupported CoAP version %d" % (data[0] >> 6))
        mtype = CoapType((data[0] >> 4) & 0x03)
        token_length = data[0] & 0x0F
        if token_length > 8:
            raise CoapError("token length nibble > 8")
        try:
            code = CoapCode(data[1])
        except ValueError:
            raise CoapError("unknown CoAP code 0x%02X" % data[1]) from None
        message_id = int.from_bytes(data[2:4], "big")
        offset = 4
        token = data[offset:offset + token_length]
        if len(token) != token_length:
            raise CoapError("truncated token")
        offset += token_length

        options: List[Tuple[int, bytes]] = []
        number = 0
        while offset < len(data):
            if data[offset] == PAYLOAD_MARKER:
                offset += 1
                if offset == len(data):
                    raise CoapError("payload marker with empty payload")
                break
            delta_nibble = data[offset] >> 4
            length_nibble = data[offset] & 0x0F
            offset += 1
            delta, offset = _read_option_value(data, offset, delta_nibble)
            length, offset = _read_option_value(data, offset,
                                                length_nibble)
            number += delta
            value = data[offset:offset + length]
            if len(value) != length:
                raise CoapError("truncated option value")
            offset += length
            options.append((number, value))

        return cls(mtype=mtype, code=code, message_id=message_id,
                   token=token, options=options, payload=data[offset:])


def _split_option_value(value: int) -> Tuple[int, bytes]:
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    if value < 65805:
        return 14, (value - 269).to_bytes(2, "big")
    raise CoapError("option delta/length too large")


def _read_option_value(data: bytes, offset: int,
                       nibble: int) -> Tuple[int, int]:
    if nibble < 13:
        return nibble, offset
    if nibble == 13:
        if offset >= len(data):
            raise CoapError("truncated extended option byte")
        return data[offset] + 13, offset + 1
    if nibble == 14:
        if offset + 2 > len(data):
            raise CoapError("truncated extended option bytes")
        return int.from_bytes(data[offset:offset + 2], "big") + 269, \
            offset + 2
    raise CoapError("reserved option nibble 15")


class CoapResourceServer:
    """A minimal CoAP server: path → bytes, with Block2 slicing.

    Resources may be static bytes or callables (evaluated per request),
    which is how the update server exposes `/version`, `/token` and the
    per-request image resource.  Resources can also be **observed**
    (RFC 7641): a GET carrying Observe=0 registers the client, and
    :meth:`notify` produces the notification messages the server would
    push when the resource changes — how a pull device learns about a
    new firmware version without polling.
    """

    def __init__(self) -> None:
        self._resources: Dict[str, object] = {}
        self._observers: Dict[str, List[bytes]] = {}
        self._observe_seq = 0
        self._mid = 0

    def register(self, path: str, resource) -> None:
        """``resource``: bytes, or callable(query: bytes) -> bytes."""
        self._resources[path] = resource

    def unregister(self, path: str) -> None:
        self._resources.pop(path, None)
        self._observers.pop(path, None)

    # -- observe (RFC 7641) -------------------------------------------------

    def observers(self, path: str) -> List[bytes]:
        """Tokens currently observing ``path``."""
        return list(self._observers.get(path, []))

    def notify(self, path: str) -> List[bytes]:
        """Notification messages for every observer of ``path``."""
        resource = self._resources.get(path)
        if resource is None:
            return []
        body = resource(b"") if callable(resource) else bytes(resource)
        self._observe_seq += 1
        notifications = []
        for token in self._observers.get(path, []):
            message = CoapMessage(
                mtype=CoapType.NON, code=CoapCode.CONTENT,
                message_id=self._next_mid(), token=token,
                payload=body,
            )
            message.add_option(
                CoapOption.OBSERVE,
                self._observe_seq.to_bytes(3, "big").lstrip(b"\x00"))
            notifications.append(message.encode())
        return notifications

    def _next_mid(self) -> int:
        self._mid = (self._mid + 1) & 0xFFFF
        return self._mid

    def handle(self, request_bytes: bytes) -> bytes:
        """Process one encoded request, returning the encoded response."""
        request = CoapMessage.decode(request_bytes)
        if request.code != CoapCode.GET:
            return self._error(request, CoapCode.BAD_REQUEST)
        resource = self._resources.get(request.uri_path())
        if resource is None:
            return self._error(request, CoapCode.NOT_FOUND)

        query = request.option(CoapOption.URI_QUERY) or b""
        body = resource(query) if callable(resource) else bytes(resource)

        observe = request.option(CoapOption.OBSERVE)
        if observe is not None:
            registrations = self._observers.setdefault(
                request.uri_path(), [])
            if int.from_bytes(observe, "big") == 0:
                if request.token not in registrations:
                    registrations.append(request.token)
            else:  # Observe=1: deregister
                if request.token in registrations:
                    registrations.remove(request.token)

        block = request.block2() or Block(num=0, more=False, size=64)
        start = block.num * block.size
        if start > len(body):
            return self._error(request, CoapCode.BAD_REQUEST)
        chunk = body[start:start + block.size]
        more = start + block.size < len(body)

        response = CoapMessage(
            mtype=CoapType.ACK, code=CoapCode.CONTENT,
            message_id=request.message_id, token=request.token,
        )
        response.add_option(
            CoapOption.BLOCK2,
            Block(num=block.num, more=more, size=block.size).encode())
        response.add_option(CoapOption.SIZE2,
                            len(body).to_bytes(4, "big"))
        response.payload = chunk
        return response.encode()

    def _error(self, request: CoapMessage, code: CoapCode) -> bytes:
        return CoapMessage(mtype=CoapType.ACK, code=code,
                           message_id=request.message_id,
                           token=request.token).encode()


def blockwise_get(server: CoapResourceServer, path: str,
                  block_size: int = 64, query: bytes = b"",
                  on_exchange=None) -> bytes:
    """Fetch a resource with Block2 transfers; returns the full body.

    ``on_exchange(request_bytes, response_bytes)`` is invoked per
    round-trip so callers can meter radio cost.
    """
    body = bytearray()
    num = 0
    mid = 1
    token = b"\x42"
    while True:
        request = CoapMessage(mtype=CoapType.CON, code=CoapCode.GET,
                              message_id=mid, token=token)
        for segment in path.split("/"):
            request.add_option(CoapOption.URI_PATH,
                               segment.encode("utf-8"))
        if query:
            request.add_option(CoapOption.URI_QUERY, query)
        request.add_option(CoapOption.BLOCK2,
                           Block(num=num, more=False,
                                 size=block_size).encode())
        request_bytes = request.encode()
        response_bytes = server.handle(request_bytes)
        if on_exchange is not None:
            on_exchange(request_bytes, response_bytes)
        response = CoapMessage.decode(response_bytes)
        if response.code != CoapCode.CONTENT:
            raise CoapError("server answered %s for %s"
                            % (response.code.name, path))
        body.extend(response.payload)
        block = response.block2()
        if block is None or not block.more:
            return bytes(body)
        num += 1
        mid = (mid + 1) & 0xFFFF
