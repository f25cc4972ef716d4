"""Lightweight echo "file servers" with power-scaled service times.

Each :class:`EchoFileServer` is one asyncio TCP listener standing in
for a metadata server of the paper's cluster. It does no real metadata
work — an ``exec`` request sleeps ``work * time_scale / power``
seconds, the same service-time law the simulator's
:class:`~repro.cluster.server.FileServer` charges, then echoes back.
The paper's heterogeneity lives entirely in ``power``: the {1,3,5,7,9}
line-up makes the weakest server nine times slower per unit of work
than the strongest, which is exactly the imbalance the locator's
tuning loop must discover from wall-clock latencies alone.

Service is FIFO through one queue per server (``asyncio.Lock`` wakes
waiters in arrival order), so queueing delay builds up on overloaded
servers just as it does in the simulator — that queueing signal is
what the controller feeds on.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Set, Tuple

from .protocol import Connections, ProtocolError, read_frame, write_frame

__all__ = ["EchoFileServer"]


class EchoFileServer:
    """One power-scaled echo server on a loopback TCP port.

    Parameters
    ----------
    server_id:
        The id the locator's layout knows this server by.
    power:
        Relative processing power; service time is
        ``work * time_scale / power``.
    time_scale:
        Seconds of service per work unit on a power-1 server.
    host:
        Bind address (loopback by default — this is a bench harness,
        not a daemon).
    """

    def __init__(
        self,
        server_id: str,
        power: float,
        time_scale: float = 1.0,
        host: str = "127.0.0.1",
    ) -> None:
        if power <= 0:
            raise ValueError(f"power must be > 0, got {power}")
        self.server_id = server_id
        self.power = float(power)
        self.time_scale = float(time_scale)
        self.host = host
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        # One FIFO service queue, exactly like the simulator's server.
        self._service = asyncio.Lock()
        self._tasks: Set[asyncio.Task] = set()
        self._connections = Connections()
        self._killed = False
        #: Requests fully served (diagnostics; the bench cross-checks
        #: the sum against the clients' completion counters).
        self.completed = 0
        #: Total seconds spent in service sleeps.
        self.busy_time = 0.0

    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError(f"server {self.server_id!r} already started")
        self._connections = Connections()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port or 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening, drop every connection, cancel in-flight work.

        Dropping established connections matters: peers blocked on a
        reply must see the transport die (that is what drives the
        hardened client's timeout/redirect path on a kill), and
        ``Server.wait_closed`` alone only stops the *listener*. Every
        connection handler has returned when this does.
        """
        if self._server is not None:
            self._server.close()
        # Sever first: a live handler could still spawn service tasks.
        await self._connections.sever()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def kill(self) -> None:
        """Crash-stop: like :meth:`stop`, but refuse future requests.

        Mimics a server failure for the client-hardening tests — open
        connections drop mid-request, which is what drives the client's
        timeout/redirect path.
        """
        self._killed = True
        await self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound address (only valid after :meth:`start`)."""
        if self.port is None:
            raise RuntimeError(f"server {self.server_id!r} not started")
        return self.host, self.port

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # One reader loop per connection; each request is served by its
        # own task so a single connection can pipeline requests (the
        # FIFO lock still serializes actual service).
        if not self._connections.enter(writer):
            writer.close()
            return
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except (ProtocolError, ConnectionError):
                    break
                if message is None:
                    break
                task = asyncio.ensure_future(self._serve(message, writer))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            self._connections.leave()
            writer.close()

    async def _serve(self, message: dict, writer: asyncio.StreamWriter) -> None:
        reply = {"ok": True, "server": self.server_id}
        if "id" in message:
            reply["id"] = message["id"]
        op = message.get("op")
        if self._killed:
            return  # a dead server answers nothing
        if op == "exec":
            work = message.get("work")
            if not isinstance(work, (int, float)) or work < 0:
                reply = {"ok": False, "error": f"bad work {work!r}", "id": message.get("id")}
            else:
                service = float(work) * self.time_scale / self.power
                async with self._service:
                    if service > 0:
                        await asyncio.sleep(service)
                self.completed += 1
                self.busy_time += service
                reply["service"] = service
                reply["name"] = message.get("name")
        elif op == "ping":
            reply["power"] = self.power
        else:
            reply = {"ok": False, "error": f"unknown op {op!r}", "id": message.get("id")}
        try:
            await write_frame(writer, reply)
        except (ConnectionError, RuntimeError):
            pass  # peer gone; its client-side timeout handles the rest

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"<EchoFileServer {self.server_id!r} power={self.power} "
            f"port={self.port} completed={self.completed}>"
        )
