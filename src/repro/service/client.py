"""The live client path: locate, execute, retry, redirect — on sockets.

A port of the simulator's hardened client
(:class:`repro.engine.client_path.HardenedClient`) to asyncio TCP. The
two share the :class:`~repro.engine.client_path.RequestLedger` and the
:class:`~repro.engine.client_path.RetryPolicy`, so the conservation and
classification invariants the chaos harness enforces in simulation are
checked, unchanged, against a real wire:

* every logical request re-**locates** through the locator before each
  attempt — a tuning round redirects the next retry automatically;
* a per-attempt **timeout** abandons dead servers; capped, seeded-
  jitter exponential **backoff** spaces the retries;
* the **ledger** accounts for every request:
  ``injected == completed + failed + in_flight``, always.

Connections are persistent and multiplexed: one
:class:`FramedConnection` per peer carries any number of concurrent
requests, matched to their replies by the protocol's ``id`` field —
a load generator never touches the ephemeral-port range per request.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from typing import Any, Dict, Optional, Tuple

from ..engine.client_path import RequestLedger, RetryPolicy
from .protocol import ProtocolError, read_frame, write_frame

__all__ = ["FramedConnection", "HardenedServiceClient", "DriveOutcome"]


class FramedConnection:
    """One persistent, request-id-multiplexed protocol connection.

    Concurrent callers of :meth:`request` share the socket; a reader
    task dispatches each reply to its caller by the echoed ``id``. Any
    transport or protocol failure fails *every* pending request — a
    desynchronized frame stream cannot be trusted for any of them.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "FramedConnection":
        """Connect to ``host:port`` and start the reply dispatcher."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        error: Exception = ConnectionResetError("connection closed")
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    break
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError) as exc:
            error = exc
        finally:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def request(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send ``message`` and await its reply (matched by ``id``).

        Raises :class:`ConnectionError` when the transport is gone and
        :class:`asyncio.TimeoutError` when the reply misses ``timeout``
        — in the latter case the request's slot is dropped, so a
        straggler reply is discarded instead of crossing wires.
        """
        if self._closed:
            raise ConnectionResetError("connection already closed")
        request_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        try:
            await write_frame(self._writer, {**message, "id": request_id})
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(request_id, None)

    async def close(self) -> None:
        """Tear the connection down; pending requests fail."""
        self._closed = True
        self._reader_task.cancel()
        try:
            # Joins the reader (retrieving its outcome) without
            # swallowing a cancellation of the caller itself.
            await asyncio.gather(self._reader_task, return_exceptions=True)
        finally:
            try:
                self._writer.close()
            except Exception:
                pass

    @property
    def closed(self) -> bool:
        return self._closed


class DriveOutcome:
    """What one logical request came to (the live MetadataRequest)."""

    __slots__ = ("fileset", "work", "server", "latency", "attempt_latency", "ok")

    def __init__(
        self,
        fileset: str,
        work: float,
        server: Optional[str],
        latency: float,
        attempt_latency: float,
        ok: bool,
    ) -> None:
        self.fileset = fileset
        self.work = work
        self.server = server
        self.latency = latency
        self.attempt_latency = attempt_latency
        self.ok = ok


class HardenedServiceClient(RequestLedger):
    """Drives logical requests through locator + echo servers.

    Parameters
    ----------
    locator:
        ``(host, port)`` of the :class:`~repro.service.locator.LocatorService`.
    policy:
        The shared :class:`~repro.engine.client_path.RetryPolicy`
        (defaults match the simulator's hardened path).
    rng:
        Seeded :class:`random.Random` for backoff jitter — live runs
        stay as reproducible as wall clocks allow.
    """

    def __init__(
        self,
        locator: Tuple[str, int],
        policy: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__()
        self.locator_address = locator
        self.policy = policy or RetryPolicy()
        self.rng = rng
        self._locator: Optional[FramedConnection] = None
        self._servers: Dict[str, FramedConnection] = {}

    # ------------------------------------------------------------------ #
    async def connect(self) -> None:
        """Open the locator connection (server connections open lazily)."""
        if self._locator is None or self._locator.closed:
            conn = await FramedConnection.open(*self.locator_address)
            if self._locator is None or self._locator.closed:
                self._locator = conn
            else:  # a concurrent caller connected first
                await conn.close()

    async def close(self) -> None:
        """Close every connection this client holds."""
        if self._locator is not None:
            await self._locator.close()
            self._locator = None
        for conn in list(self._servers.values()):
            await conn.close()
        self._servers.clear()

    # ------------------------------------------------------------------ #
    # thin ops (used directly by tests and the bench)
    # ------------------------------------------------------------------ #
    async def locate(self, name: str) -> Dict[str, Any]:
        """One LOCATE round trip (raises on transport failure)."""
        await self.connect()
        return await self._locator.request(
            {"op": "locate", "name": name}, timeout=self.policy.request_timeout
        )

    async def fetch_map(self) -> Dict[str, Any]:
        """One MAP round trip."""
        await self.connect()
        return await self._locator.request(
            {"op": "map"}, timeout=self.policy.request_timeout
        )

    async def admin(self, action: str, server: str, **extra) -> Dict[str, Any]:
        """One ADMIN round trip (join / leave / kill)."""
        await self.connect()
        return await self._locator.request(
            {"op": "admin", "action": action, "server": server, **extra},
            timeout=self.policy.request_timeout,
        )

    async def report(self, server: str, latency: float, count: int = 1) -> None:
        """Send one latency report; transport failures are swallowed
        (a lost report is a lost sample, not a lost request)."""
        try:
            await self.connect()
            await self._locator.request(
                {"op": "report", "server": server, "latency": latency, "count": count},
                timeout=self.policy.request_timeout,
            )
        except (ConnectionError, ProtocolError, asyncio.TimeoutError):
            pass

    # ------------------------------------------------------------------ #
    # the hardened drive loop
    # ------------------------------------------------------------------ #
    async def drive(self, name: str, work: float) -> DriveOutcome:
        """Drive one logical request to completion (or exhaustion).

        The live mirror of the simulator's ``drive_attempts``: locate,
        execute with a timeout, back off with jitter, re-locate, give
        up after ``max_attempts``. Measured latency spans the whole
        logical request — retries and backoffs included — exactly like
        the simulated hardened path charges its requests.

        Ledger discipline: the request sits in ``dispatching`` while
        locating/connecting, ``awaiting_service`` while an attempt is
        on the wire, ``backing_off`` during retry sleeps — and every
        section restores ``dispatching`` on the way out, so the
        classification invariant holds at *every* await point and a
        cancelled drive unwinds to a plain failed request.
        """
        self.ledger_inject()  # enters the ``dispatching`` bucket
        policy = self.policy
        t_start = time.monotonic()
        attempts = 0
        last_target: Optional[str] = None
        settled = False
        try:
            while attempts < policy.max_attempts:
                attempts += 1
                target = await self._locate_target(name)
                if target is None:
                    await self._backoff(attempts)
                    continue
                server, host, port = target
                if last_target is not None and server != last_target:
                    self.redirects += 1
                last_target = server
                conn = await self._server_connection(server, host, port)
                if conn is None:
                    await self._backoff(attempts)
                    continue
                self.dispatching -= 1
                self.awaiting_service += 1
                attempt_start = time.monotonic()
                try:
                    reply = await conn.request(
                        {"op": "exec", "name": name, "work": work},
                        timeout=policy.request_timeout,
                    )
                    succeeded = bool(reply.get("ok"))
                except asyncio.TimeoutError:
                    self.timeouts += 1
                    succeeded = False
                    await self._drop_server(server)
                except (ConnectionError, ProtocolError):
                    succeeded = False
                    await self._drop_server(server)
                finally:
                    self.awaiting_service -= 1
                    self.dispatching += 1
                if succeeded:
                    now = time.monotonic()
                    latency = now - t_start
                    attempt_latency = now - attempt_start
                    self.dispatching -= 1
                    settled = True
                    self.ledger_settle(latency)
                    await self.report(server, attempt_latency)
                    return DriveOutcome(name, work, server, latency, attempt_latency, True)
                await self._backoff(attempts)
            self.dispatching -= 1
            self.ledger_exhaust()
            return DriveOutcome(name, work, None, math.nan, math.nan, False)
        except asyncio.CancelledError:
            # A cancelled drive (harness shutdown) must not corrupt the
            # ledger: the backoff/exec sections restored ``dispatching``
            # on unwind, so account the request as failed and re-raise.
            if not settled:
                self.dispatching -= 1
                self.ledger_exhaust()
            raise

    async def _locate_target(self, name: str) -> Optional[Tuple[str, str, int]]:
        try:
            reply = await self.locate(name)
        except (ConnectionError, ProtocolError, asyncio.TimeoutError):
            return None
        if not reply.get("ok"):
            return None
        server, host, port = reply.get("server"), reply.get("host"), reply.get("port")
        if not isinstance(server, str) or not isinstance(port, int):
            return None
        return server, host, port

    async def _server_connection(
        self, server: str, host: str, port: int
    ) -> Optional[FramedConnection]:
        conn = self._servers.get(server)
        if conn is not None and not conn.closed:
            return conn
        try:
            conn = await FramedConnection.open(host, port)
        except OSError:
            return None
        current = self._servers.get(server)
        if current is not None and not current.closed:
            # A concurrent drive connected first. Keep one connection
            # per peer, so close() reaches every one this client opened.
            await conn.close()
            return current
        self._servers[server] = conn
        return conn

    async def _drop_server(self, server: str) -> None:
        conn = self._servers.pop(server, None)
        if conn is not None:
            await conn.close()

    async def _backoff(self, attempts: int) -> None:
        self.retries += 1
        self.dispatching -= 1
        self.backing_off += 1
        try:
            await asyncio.sleep(self.policy.backoff(attempts, self.rng))
        finally:
            self.backing_off -= 1
            self.dispatching += 1
