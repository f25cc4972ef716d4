"""The locator wire protocol: length-prefixed JSON frames.

Every message on the wire is one *frame*: a 4-byte big-endian unsigned
length followed by exactly that many bytes of UTF-8 JSON encoding one
object. The format is deliberately boring — it survives partial reads,
needs no escaping, and a sans-io decoder (:class:`FrameDecoder`) can be
property-tested without sockets.

Requests (client -> locator)::

    {"op": "locate", "name": "/fs/0001"}
    {"op": "report", "server": "s0", "latency": 0.0123, "count": 4}
    {"op": "map"}
    {"op": "admin", "action": "join",  "server": "s5", "host": ..., "port": ..., "power": 3.0}
    {"op": "admin", "action": "leave", "server": "s5"}
    {"op": "admin", "action": "kill",  "server": "s5"}

Requests (client -> file server)::

    {"op": "exec", "name": "/fs/0001", "work": 0.8}

Every request may carry an ``"id"`` (any JSON scalar); the response
echoes it verbatim, which lets one connection multiplex concurrent
requests. Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "..."}``.

Failure discipline: a malformed frame raises :class:`ProtocolError`
immediately — the decoder never blocks on garbage, never yields a
partial object, and never resynchronises silently (a desynchronized
length prefix would misparse every subsequent frame, so the connection
must be torn down).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "MAX_FRAME",
    "ProtocolError",
    "encode_frame",
    "decode_payload",
    "FrameDecoder",
    "read_frame",
    "write_frame",
    "Connections",
]

#: Hard cap on one frame's payload. Locator messages are tens to a few
#: hundred bytes; anything near this bound is a desynchronized stream
#: or an attack, and must kill the connection rather than allocate.
MAX_FRAME = 1 << 20

_LEN = struct.Struct(">I")


class ProtocolError(Exception):
    """A frame or message that violates the wire contract."""


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message as its on-the-wire frame (length prefix + JSON)."""
    if not isinstance(message, dict):
        raise ProtocolError(
            f"messages are JSON objects, got {type(message).__name__}"
        )
    payload = json.dumps(
        message, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """One frame's payload bytes back into a message object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


class FrameDecoder:
    """Incremental, sans-io frame decoder.

    Feed arbitrary byte chunks with :meth:`feed`; complete messages come
    back in order. Bytes of an incomplete frame are buffered until the
    rest arrives — the decoder never yields a partial message and never
    raises on a merely *incomplete* frame, only on an *invalid* one
    (oversized length prefix, undecodable payload). After an error the
    decoder is poisoned: the stream cannot be trusted past a bad frame,
    so every later feed re-raises.
    """

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._error: Optional[ProtocolError] = None

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every message completed by it."""
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        try:
            while True:
                if len(self._buffer) < _LEN.size:
                    return messages
                (length,) = _LEN.unpack_from(self._buffer)
                if length > self.max_frame:
                    raise ProtocolError(
                        f"frame length {length} exceeds max_frame={self.max_frame}"
                    )
                if len(self._buffer) < _LEN.size + length:
                    return messages
                payload = bytes(self._buffer[_LEN.size : _LEN.size + length])
                del self._buffer[: _LEN.size + length]
                messages.append(decode_payload(payload))
        except ProtocolError as exc:
            self._error = exc
            raise

    def feed_iter(self, data: bytes) -> Iterator[Dict[str, Any]]:
        """Iterator spelling of :meth:`feed` (tests read nicer)."""
        return iter(self.feed(data))

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    @property
    def poisoned(self) -> bool:
        """``True`` once a bad frame has been seen (stream is dead)."""
        return self._error is not None


# ---------------------------------------------------------------------- #
# asyncio stream helpers
# ---------------------------------------------------------------------- #
async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on clean EOF between frames.

    EOF in the *middle* of a frame is a :class:`ProtocolError` — the
    peer died mid-write and the partial bytes must not be mistaken for
    a clean shutdown.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed inside a frame header ({len(exc.partial)} bytes)"
        ) from None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME={MAX_FRAME}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed inside a frame body "
            f"({len(exc.partial)}/{length} bytes)"
        ) from None
    return decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
    """Write one message and drain the transport."""
    writer.write(encode_frame(message))
    await writer.drain()


class Connections:
    """The established connections of one asyncio server.

    ``asyncio.Server.close()`` only stops the listener (and on 3.11
    ``wait_closed()`` then returns at once), so a server that merely
    closes its writers on stop leaves its handler tasks pending. Loop
    teardown cancels them, and asyncio logs a ``CancelledError``
    traceback per connection from the stream protocol's done callback.
    Handlers register here for their lifetime; :meth:`sever` aborts
    every transport and joins every handler, so stop returns with no
    task of the server left behind.
    """

    def __init__(self) -> None:
        self._open: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._severed = False

    def enter(self, writer: asyncio.StreamWriter) -> bool:
        """Register the calling handler; ``False`` once severing has
        begun (the handler must close ``writer`` and return)."""
        if self._severed:
            return False
        self._open[asyncio.current_task()] = writer
        return True

    def leave(self) -> None:
        """Unregister the calling handler (call from its ``finally``)."""
        self._open.pop(asyncio.current_task(), None)

    async def sever(self) -> None:
        """Abort every connection and wait for its handler to return."""
        self._severed = True
        while self._open:
            handlers = list(self._open)
            for writer in self._open.values():
                writer.transport.abort()
            await asyncio.gather(*handlers, return_exceptions=True)
