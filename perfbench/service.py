"""The ``service-ladder`` workload: the live locator stack on loopback.

This process runs the locator and the five echo file servers (the
paper's powers {1,3,5,7,9}) on one event loop; ``loadgen.py`` runs in a
second process with one hardened client. Load is open loop with Poisson
arrivals at fixed rates:

* ``low``: 250 req/s, about the paper profile's rate;
* ``mid``: 800 req/s, about half the ceiling a 2-core shared host
  reaches in its slow periods (ceilings of 1,300 to 5,500 req/s were
  measured on one such host within an hour);
* a ladder doubling the rate above ``mid``, then bisection between the
  last step that passed and the first that failed.

A step passes when no request failed, its p99 latency is within
:data:`P99_LIMIT_MS`, and the backlog did not grow: at the end of the
arrival window no more requests were outstanding than the limit's worth
of arrivals (Little's law at the limit). Latency is timed from when
each request was due. The step's p99 is the median over blocks of 1,000
consecutive requests (``loadgen.block_p99``).

Echo-server work is scaled so that even the weakest server, given an
equal share of requests before the tuning loop moves load off it, is at
most about half busy at 5,000 req/s: the ceiling found is the
program's, not the simulated disks'.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import BenchError, OUT_DIR, l1, median
from loadgen import ErrorCounter, wrap_codec
from tracer import REQUEST_ID, Tracer

LOADGEN = Path(__file__).resolve().parent / "loadgen.py"

#: The p99 latency limit every ladder step is held to.
P99_LIMIT_MS = 100.0
LOW_RPS = 250.0
MID_RPS = 800.0
LADDER_FACTOR = 2.0
LADDER_MAX_STEPS = 5
BISECTIONS = 4
#: Seconds of echo service per work unit on a power-1 server.
TIME_SCALE = 0.0005
EPOCH_SECONDS = 0.5
#: Step lengths as shares of the run's ``--seconds``.
LOW_SHARE, MID_SHARE, LADDER_SHARE = 0.3, 0.2, 0.06
#: Stack start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Pause after a failed step so its cancelled backlog clears.
SETTLE_SECONDS = 0.5


def step_passes(step: Dict[str, object]) -> bool:
    return (
        step["failed"] == 0
        and step["p99_ms"] <= P99_LIMIT_MS
        and step["outstanding_at_window_end"] <= step["rate"] * P99_LIMIT_MS / 1000.0 + 1
    )


class Stack:
    """Echo servers + locator in this process, the load generator in another."""

    def __init__(self, seed: int, trace_path: Optional[Path]) -> None:
        self.seed = seed
        self.trace_path = trace_path
        self.servers: List[object] = []
        self.locator = None
        self.proc: Optional[asyncio.subprocess.Process] = None

    async def start(self) -> float:
        """Bring everything up; returns seconds until the client connected."""
        from repro.service import PAPER_POWERS, EchoFileServer, LocatorService

        started = time.perf_counter()
        powers = {f"s{i}": p for i, p in enumerate(PAPER_POWERS)}
        self.servers = [EchoFileServer(sid, p, time_scale=TIME_SCALE) for sid, p in powers.items()]
        addresses = {}
        for server in self.servers:
            addresses[server.server_id] = await server.start()
        self.locator = LocatorService(
            server_powers=powers,
            addresses=addresses,
            epoch_seconds=EPOCH_SECONDS,
            hash_seed=self.seed,
        )
        host, port = await self.locator.start()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            str(LOADGEN),
            host,
            str(port),
            str(self.seed),
            str(self.trace_path) if self.trace_path else "-",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 20,
        )
        ready = await self._read()
        if ready.get("event") != "ready":
            raise BenchError(f"load generator did not start: {ready}")
        return time.perf_counter() - started

    async def _read(self) -> Dict[str, object]:
        line = await self.proc.stdout.readline()
        if not line:
            raise BenchError("load generator exited early")
        return json.loads(line)

    async def _send(self, command: Dict[str, object]) -> None:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        await self.proc.stdin.drain()

    async def step(self, name: str, rate: float, duration: float) -> Dict[str, object]:
        await self._send(
            {"cmd": "step", "name": name, "rate": rate, "duration": duration,
             "drain": max(1.0, 10 * P99_LIMIT_MS / 1000.0)}
        )
        result = await self._read()
        if result.get("event") != "step":
            raise BenchError(f"load generator step failed: {result}")
        result["passed"] = step_passes(result)
        return result

    async def stop(self) -> Dict[str, object]:
        """Stop the load generator, then the servers; returns its ledger."""
        done: Dict[str, object] = {}
        try:
            if self.proc is not None and self.proc.returncode is None:
                await self._send({"cmd": "exit"})
                done = await self._read()
                if await asyncio.wait_for(self.proc.wait(), 30) != 0:
                    raise BenchError(f"load generator exited with {self.proc.returncode}")
        finally:
            if self.proc is not None and self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()
            if self.locator is not None:
                await self.locator.stop()
            for server in self.servers:
                await server.stop()
        return done


def instrument_server(tracer: Tracer) -> None:
    """Spans around the locator, codec and control calls of this process."""
    from repro.control import MultiplicativeController
    from repro.core.anu import ANUManager
    from repro.service import LocatorService

    def count_op(result, args, kwargs) -> None:
        tracer.count(f"locator.op.{args[1].get('op')}")

    def moved(result, args, kwargs) -> None:
        tracer.count("control.moved_l1", l1(result.lengths_before, result.lengths_after))

    wrap_codec(tracer)
    tracer.wrap(LocatorService, "handle", "locator.handle", after=count_op)
    traced_handle = LocatorService.handle

    def handle_with_id(self, message):
        token = REQUEST_ID.set(message.get("rid"))
        try:
            return traced_handle(self, message)
        finally:
            REQUEST_ID.reset(token)

    tracer.replace(LocatorService, "handle", handle_with_id)
    tracer.wrap(LocatorService, "close_epoch", "locator.close_epoch")
    tracer.wrap(ANUManager, "tune", "control.tune", after=moved)
    tracer.wrap(MultiplicativeController, "observe", "control.observe")


async def session(seed: int, seconds: float, tracer: Optional[Tracer]) -> Dict[str, object]:
    """One complete run: repeated start-ups, the two fixed-rate steps, the
    ladder and shutdown."""
    low_s, mid_s, ladder_s = (share * seconds for share in (LOW_SHARE, MID_SHARE, LADDER_SHARE))
    trace_path = OUT_DIR / f"service-ladder-{seed}-loadgen.trace" if tracer else None
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        stack = Stack(seed, None)
        try:
            setups.append(await stack.start())
        finally:
            await stack.stop()
    stack = Stack(seed, trace_path)
    began = time.perf_counter()
    steps: List[Dict[str, object]] = []
    try:
        setups.append(await stack.start())
        low = await stack.step("low", LOW_RPS, low_s)
        mid = await stack.step("mid", MID_RPS, mid_s)
        wall_s = time.perf_counter() - began
        steps += [low, mid]
        if not low["passed"]:
            raise BenchError(f"the low step breaks the p99 limit: {low}")
        best = mid if mid["passed"] else low
        failed_rate = None if mid["passed"] else mid["rate"]
        rate = mid["rate"]
        for k in range(LADDER_MAX_STEPS):
            if failed_rate is not None:
                break
            rate *= LADDER_FACTOR
            result = await stack.step(f"ladder{k}", rate, ladder_s)
            steps.append(result)
            if result["passed"]:
                best = result
            else:
                failed_rate = rate
                await asyncio.sleep(SETTLE_SECONDS)
        for k in range(BISECTIONS if failed_rate is not None else 0):
            rate = math.sqrt(best["rate"] * failed_rate)
            result = await stack.step(f"bisect{k}", rate, ladder_s)
            steps.append(result)
            if result["passed"]:
                best = result
            else:
                failed_rate = rate
                await asyncio.sleep(SETTLE_SECONDS)
    finally:
        done = await stack.stop()
    return {
        "setup_s": median(setups),
        "wall_s": wall_s,
        "steps": steps,
        "best": best,
        "done": done,
        "locator": stack.locator,
        "servers": stack.servers,
    }


def check(out: Dict[str, object], low_epochs: float) -> None:
    """The ledger is conserved, every request classified, and the tuning
    decisions replay exactly from the recorded report batches."""
    from repro.service import DECISION_TOLERANCE, replay_decisions

    done, steps, locator = out["done"], out["steps"], out["locator"]
    problems = []
    injected = sum(s["requests"] for s in steps)
    if not done.get("conserved") or not done.get("classified"):
        problems.append(f"client ledger not conserved/classified: {done}")
    if done.get("lost") != 0 or done.get("in_flight") != 0:
        problems.append(f"requests lost or left in flight: {done}")
    if done.get("injected") != injected or done.get("requests") != injected:
        problems.append(f"client injected {done.get('injected')} of {injected} requests")
    if done["completed"] + done["failed"] != injected:
        problems.append(f"completed + failed != injected: {done}")
    # A request cancelled at the drain deadline while sending its latency
    # report was served (the ledger says completed) but never returned
    # to its user (the step counts it failed).
    if sum(s["completed"] for s in steps) > done["completed"]:
        problems.append("the steps count more completions than the client ledger")
    if sum(s["completed"] + s["failed"] for s in steps) != injected:
        problems.append("the steps did not classify every request")
    served = sum(server.completed for server in out["servers"])
    if served < done["completed"]:
        problems.append(f"echo servers served {served} < {done['completed']} completed")
    max_l1, replayed = replay_decisions(locator.recording)
    if replayed != len(locator.recording.epochs) or replayed < low_epochs:
        problems.append(f"decision replay covered {replayed} epochs")
    if not max_l1 <= DECISION_TOLERANCE:
        problems.append(f"decision replay deviates by L1 {max_l1}")
    if problems:
        raise BenchError("; ".join(problems))


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Dict[str, object]:
    errors = ErrorCounter()
    logging.getLogger("asyncio").addHandler(errors)
    try:
        if tracer is not None:
            instrument_server(tracer)
        try:
            out = asyncio.run(session(seed, seconds, tracer))
        finally:
            if tracer is not None:
                tracer.restore()
        gc.collect()
    finally:
        logging.getLogger("asyncio").removeHandler(errors)
    check(out, low_epochs=LOW_SHARE * seconds / EPOCH_SECONDS)
    out["asyncio_errors"] = errors.records + out["done"]["asyncio_errors"]
    return out
