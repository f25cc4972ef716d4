"""The service-ladder load generator: one process, one client, open loop.

Started by ``service.py`` as its own process::

    python3 perfbench/loadgen.py HOST PORT SEED TRACE_PATH|-

It connects one :class:`repro.service.HardenedServiceClient` to the
locator, prints ``{"event": "ready"}`` and then reads one JSON command
per line on stdin:

``{"cmd": "step", "name": ..., "rate": ..., "duration": ..., "drain": ...}``
    Offer Poisson arrivals at ``rate`` per second for ``duration``
    seconds. File-set popularity and request work come from the
    program's synthetic generator. Every request is timed from when it
    was due, not from when it was sent, so a stalled generator shows as
    latency. Requests still outstanding ``drain`` seconds after the
    window closes are cancelled and counted failed. Prints one
    ``{"event": "step", ...}`` line.
``{"cmd": "exit"}``
    Close the client, then print ``{"event": "done", ...}`` with the
    client's ledger, the asyncio error-log count and the traced
    per-layer totals, and exit.

There are no thread pools: requests are tasks on this process's one
event loop.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import math
import random
import sys
import time
from typing import Dict, List, Tuple

from common import BenchError, import_program, median, percentile
from tracer import REQUEST_ID, Tracer

#: Mean work units per request; the echo servers turn work into sleep.
MEAN_WORK = 1.0
#: Requests per block of the p99 estimate (see :func:`block_p99`).
BLOCK = 1000


class ErrorCounter(logging.StreamHandler):
    """Counts asyncio error-log records and prints them to stderr."""

    def __init__(self) -> None:
        super().__init__(sys.stderr)
        self.setLevel(logging.ERROR)
        self.records = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.records += 1
        super().emit(record)


def step_jobs(seed: int, name: str, rate: float, duration: float) -> List[Tuple[float, str, float]]:
    """``(due offset, file set, work)`` for one step, from the seed alone.

    Arrival gaps are exponential (Poisson arrivals from independent
    users). The file sets and work are the synthetic generator's, in its
    arrival order, with work rescaled to a mean of :data:`MEAN_WORK`.
    """
    from repro.workloads import SyntheticConfig, generate_synthetic

    rng = random.Random(f"{seed}/{name}/arrivals")
    dues: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        dues.append(t)
        t += rng.expovariate(rate)
    if not dues:
        raise BenchError(f"step {name} drew no arrivals")
    workload = generate_synthetic(
        SyntheticConfig(
            n_filesets=50,
            duration=duration,
            target_requests=len(dues) + 50,
        ),
        seed=random.Random(f"{seed}/{name}/workload").randrange(2**31),
    )
    requests = workload.requests[: len(dues)]
    if len(requests) < len(dues):
        raise BenchError(f"step {name}: generator gave {len(requests)} < {len(dues)} requests")
    scale = MEAN_WORK * len(requests) / sum(r.work for r in requests)
    return [(due, r.fileset, r.work * scale) for due, r in zip(dues, requests)]


def block_p99(latency: List[float]) -> float:
    """p99 of each run of :data:`BLOCK` consecutive requests (by due
    time), median over the runs.

    Each block's p99 has ten samples beyond it. The median keeps one
    stall of the host, which delays every request in flight at once,
    from deciding the whole step's tail.
    """
    blocks = max(1, len(latency) // BLOCK)
    size = len(latency) / blocks
    return median(
        [percentile(latency[round(b * size):round((b + 1) * size)], 0.99) for b in range(blocks)]
    )


async def run_step(client, command: Dict[str, object], seed: int) -> Dict[str, object]:
    name = str(command["name"])
    rate = float(command["rate"])
    duration = float(command["duration"])
    drain = float(command["drain"])
    jobs = step_jobs(seed, name, rate, duration)
    n = len(jobs)
    lag = [math.nan] * n
    latency = [math.inf] * n  # a request that never completes misses every limit
    before = (client.retries, client.timeouts, client.redirects)

    async def one(i: int, due: float, fileset: str, work: float) -> None:
        REQUEST_ID.set(f"{name}.{i}")
        lag[i] = time.monotonic() - due
        outcome = await client.drive(fileset, work)
        if outcome.ok:
            latency[i] = time.monotonic() - due

    t0 = time.monotonic() + 0.02
    tasks: List[asyncio.Task] = []
    i = 0
    while i < n:
        now = time.monotonic()
        while i < n and t0 + jobs[i][0] <= now:
            due, fileset, work = jobs[i]
            tasks.append(asyncio.ensure_future(one(i, t0 + due, fileset, work)))
            i += 1
        if i < n:
            await asyncio.sleep(max(0.0, t0 + jobs[i][0] - time.monotonic()))
    window_end = t0 + duration
    await asyncio.sleep(max(0.0, window_end - time.monotonic()))
    outstanding = sum(1 for task in tasks if not task.done())
    deadline = window_end + drain
    pending = [task for task in tasks if not task.done()]
    if pending:
        _, still = await asyncio.wait(pending, timeout=max(0.0, deadline - time.monotonic()))
        for task in still:
            task.cancel()
        await asyncio.gather(*still, return_exceptions=True)
    cancelled = sum(1 for task in tasks if task.cancelled())
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            raise BenchError(f"step {name}: request raised {task.exception()!r}")
    ended = time.monotonic()
    ok = [x for x in latency if math.isfinite(x)]
    return {
        "event": "step",
        "name": name,
        "rate": rate,
        "duration": duration,
        "requests": n,
        "completed": len(ok),
        "failed": n - len(ok),
        "cancelled": cancelled,
        "outstanding_at_window_end": outstanding,
        # Failed requests count as +inf: they miss every limit.
        "p50_ms": percentile(latency, 0.50) * 1000.0,
        "p99_ms": block_p99(latency) * 1000.0,
        "lag_p99_ms": percentile([x for x in lag if math.isfinite(x)], 0.99) * 1000.0,
        "completion_rps": len(ok) / (ended - t0),
        "wall_s": ended - t0,
        "retries": client.retries - before[0],
        "timeouts": client.timeouts - before[1],
        "redirects": client.redirects - before[2],
    }


def wrap_codec(tracer: Tracer) -> None:
    """Leaf spans around the frame codec; counts frames sent."""
    from repro.service import protocol

    def count_frames(result, args, kwargs) -> None:
        tracer.count("protocol.frames")

    tracer.wrap(protocol, "encode_frame", "protocol.encode", after=count_frames, leaf=True)
    tracer.wrap(protocol, "decode_payload", "protocol.decode", leaf=True)


def instrument_client(tracer: Tracer) -> None:
    """Spans around the client and codec calls of this process."""
    from repro import workloads
    from repro.service import client as client_mod

    tracer.wrap(workloads, "generate_synthetic", "workloads.gen")
    wrap_codec(tracer)
    tracer.wrap(client_mod.FramedConnection, "request", "client.request")
    # Tag each outgoing message with its request id, so the locator's
    # spans for it carry the same id as this process's spans.
    traced_request = client_mod.FramedConnection.request

    async def request_with_id(self, message, timeout=None):
        rid = REQUEST_ID.get()
        if rid is not None:
            message = {**message, "rid": rid}
        return await traced_request(self, message, timeout)

    tracer.replace(client_mod.FramedConnection, "request", request_with_id)
    cls = client_mod.HardenedServiceClient
    tracer.wrap(cls, "drive", "client.drive")
    tracer.wrap(cls, "locate", "client.locate")
    tracer.wrap(cls, "report", "client.report")


def fixed_rate(span) -> bool:
    """Whether a span belongs to a request of the ``low`` or ``mid`` step."""
    return isinstance(span[4], str) and span[4].startswith(("low.", "mid."))


def mean_ms(spans) -> float:
    durations = [span[2] - span[1] for span in spans]
    return 1000.0 * sum(durations) / len(durations) if durations else 0.0


def client_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-layer totals of this process (the locator adds its own).

    Round trips are averaged over the ``low`` and ``mid`` steps, the
    loads the latency metrics are measured at.
    """
    stats = tracer.stats()
    names = [span[0] if span else None for span in tracer.spans]
    timed = [span for span in tracer.spans if span is not None and fixed_rate(span)]

    def total(name: str) -> float:
        return stats[name].total if name in stats else 0.0

    return {
        "client.locate_rtt_ms": mean_ms(s for s in timed if s[0] == "client.locate"),
        "client.report_rtt_ms": mean_ms(s for s in timed if s[0] == "client.report"),
        "client.exec_rtt_ms": mean_ms(
            s for s in timed
            if s[0] == "client.request" and s[3] >= 0 and names[s[3]] == "client.drive"
        ),
        "workloads.gen_s": stats["workloads.gen"].self_time if "workloads.gen" in stats else 0.0,
        "protocol.frames": tracer.counts["protocol.frames"],
        "protocol.encode_s": total("protocol.encode"),
        "protocol.decode_s": total("protocol.decode"),
        "protocol.decodes": float(stats["protocol.decode"].calls if "protocol.decode" in stats else 0),
    }


async def serve(host: str, port: int, seed: int) -> Dict[str, object]:
    from repro.service import HardenedServiceClient

    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    client = HardenedServiceClient((host, port), rng=random.Random(f"{seed}/retry-jitter"))
    injected = 0
    try:
        await client.connect()
        print(json.dumps({"event": "ready"}), flush=True)
        while True:
            line = await stdin.readline()
            if not line:
                raise BenchError("benchmark closed the command pipe")
            command = json.loads(line)
            if command["cmd"] == "exit":
                break
            result = await run_step(client, command, seed)
            injected += result["requests"]
            print(json.dumps(result), flush=True)
    finally:
        await client.close()
    return {
        "event": "done",
        "requests": injected,
        "injected": client.injected,
        "completed": client.completed,
        "failed": client.failed,
        "in_flight": client.in_flight,
        "lost": client.lost,
        "conserved": client.conserved,
        "classified": client.classified,
        "retries": client.retries,
        "timeouts": client.timeouts,
        "redirects": client.redirects,
    }


def main(argv: List[str]) -> int:
    host, port, seed, trace_path = argv[0], int(argv[1]), int(argv[2]), argv[3]
    import_program()
    errors = ErrorCounter()
    logging.getLogger("asyncio").addHandler(errors)
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        instrument_client(tracer)
    done = asyncio.run(serve(host, port, seed))
    gc.collect()  # surfaces "Task was destroyed but it is pending!" now
    done["asyncio_errors"] = errors.records
    if tracer is not None:
        tracer.restore()
        done["layers"] = client_layers(tracer)
        tracer.write(trace_path)
    print(json.dumps(done), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
