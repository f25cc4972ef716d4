"""Clean shutdown: stop() leaves no task behind and asyncio logs nothing.

A server whose stop() only closes its writers leaves its connection
handlers pending; event-loop teardown then cancels them, and asyncio
logs an ``Exception in callback ... CancelledError`` traceback per
connection (or ``Task was destroyed but it is pending!`` once the
loop is gone). These tests run repeated start/stop cycles — idle,
with connected clients, with requests in flight, with clients closed
before or never — and fail on any asyncio error log.
"""

from __future__ import annotations

import asyncio
import gc
import logging

import pytest

from repro.service.client import FramedConnection, HardenedServiceClient
from repro.service.fileserver import EchoFileServer
from repro.service.locator import LocatorService

POWERS = {"s0": 1.0, "s1": 3.0}


class _Capture(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.DEBUG)
        self.messages = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


@pytest.fixture
def asyncio_log():
    capture = _Capture()
    logger = logging.getLogger("asyncio")
    logger.addHandler(capture)
    try:
        yield capture.messages
    finally:
        logger.removeHandler(capture)


def _cycles(scenario, n=4):
    for _ in range(n):
        asyncio.run(scenario())
        gc.collect()  # "Task was destroyed but it is pending!" surfaces here


async def _stack():
    servers = [EchoFileServer(sid, p, time_scale=0.01) for sid, p in POWERS.items()]
    addresses = {s.server_id: await s.start() for s in servers}
    locator = LocatorService(POWERS, addresses, epoch_seconds=10.0, time_scale=0.01)
    await locator.start()
    return servers, locator


async def _stop(servers, locator):
    await locator.stop()
    for server in servers:
        await server.stop()
    # Nothing of the stack may outlive stop().
    assert asyncio.all_tasks() == {asyncio.current_task()}


class TestStopCycles:
    def test_idle(self, asyncio_log):
        async def scenario():
            await _stop(*await _stack())

        _cycles(scenario)
        assert asyncio_log == []

    @pytest.mark.parametrize("close_first", [True, False])
    def test_connected_clients(self, asyncio_log, close_first):
        async def scenario():
            servers, locator = await _stack()
            conns = [
                await FramedConnection.open("127.0.0.1", locator.port) for _ in range(3)
            ]
            conns += [await FramedConnection.open(*s.address) for s in servers]
            for conn in conns[:3]:
                assert (await conn.request({"op": "locate", "name": "/fs/1"}))["ok"]
            for conn in conns[3:]:
                assert (await conn.request({"op": "ping"}))["ok"]
            if close_first:
                for conn in conns:
                    await conn.close()
            await locator.stop()
            for server in servers:
                await server.stop()
            if not close_first:
                for conn in conns:
                    await conn.close()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        _cycles(scenario)
        assert asyncio_log == []

    def test_requests_in_flight(self, asyncio_log):
        async def scenario():
            servers, locator = await _stack()
            client = HardenedServiceClient(("127.0.0.1", locator.port))
            assert (await client.drive("/fs/warm", 1.0)).ok
            # Long executions still queued on the servers at stop time.
            conns = [await FramedConnection.open(*s.address) for s in servers]
            pending = [
                asyncio.ensure_future(
                    conn.request({"op": "exec", "name": "/fs/slow", "work": 500.0})
                )
                for conn in conns
            ]
            await asyncio.sleep(0.02)
            await locator.stop()
            for server in servers:
                await server.stop()
            results = await asyncio.gather(*pending, return_exceptions=True)
            assert all(isinstance(r, ConnectionError) for r in results)
            for conn in conns:
                await conn.close()
            await client.close()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        _cycles(scenario)
        assert asyncio_log == []

    def test_restart_after_stop(self, asyncio_log):
        async def scenario():
            server = EchoFileServer("s0", 1.0, time_scale=0.01)
            for _ in range(3):
                await server.start()
                conn = await FramedConnection.open(*server.address)
                assert (await conn.request({"op": "ping"}))["ok"]
                await server.stop()
                await conn.close()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        _cycles(scenario, n=2)
        assert asyncio_log == []


class TestFramedConnectionClose:
    def test_close_joins_reader(self):
        async def scenario():
            servers, locator = await _stack()
            conn = await FramedConnection.open("127.0.0.1", locator.port)
            await conn.close()
            assert conn.closed
            assert conn._reader_task.done()
            await _stop(servers, locator)

        asyncio.run(scenario())

    def test_close_does_not_swallow_caller_cancellation(self):
        async def scenario():
            servers, locator = await _stack()
            conn = await FramedConnection.open("127.0.0.1", locator.port)
            closer = asyncio.ensure_future(conn.close())
            await asyncio.sleep(0)  # closer is now joining the reader
            closer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await closer
            await conn.close()
            await _stop(servers, locator)

        asyncio.run(scenario())


class TestOneConnectionPerServer:
    def test_concurrent_drives_share_a_connection(self, asyncio_log):
        async def scenario():
            servers, locator = await _stack()
            client = HardenedServiceClient(("127.0.0.1", locator.port))
            outcomes = await asyncio.gather(
                *(client.drive(f"/fs/{i}", 0.1) for i in range(12))
            )
            assert all(o.ok for o in outcomes)
            # Every connection the client opened is reachable by close().
            conns = [
                t for t in asyncio.all_tasks()
                if "FramedConnection._read_loop" in repr(t.get_coro())
            ]
            assert len(conns) == 1 + len(client._servers)
            await client.close()
            await _stop(servers, locator)

        _cycles(scenario, n=2)
        assert asyncio_log == []
