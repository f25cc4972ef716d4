"""Per-layer metrics: which program calls get spans, and what they add up to.

The table below is the full per-layer metric list, in the order
``BENCHMARK.json`` names it. A traced run reports every metric; a layer
the workload does not reach reports 0. Times are self times: a span's
duration minus that of its child spans, so time spent hashing inside a
placement counts as hashing, not placement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import BenchError, l1, metric
from loadgen import fixed_rate, mean_ms
from tracer import Tracer

__all__ = ["PER_LAYER", "instrument_sim", "sim_layers", "service_layers", "as_metrics"]

PER_LAYER: List[Tuple[str, str]] = [
    ("p99_ms.low", "ms"),
    ("p99_ms.mid", "ms"),
    ("workloads.gen_s", "s"),
    ("hashing.batch_offsets_s", "s"),
    ("hashing.digests", "count"),
    ("hashing.useful_ratio", "ratio"),
    ("vector.locate_s", "s"),
    ("vector.locate_names", "count"),
    ("vector.sort_s", "s"),
    ("vector.drain_s", "s"),
    ("vector.drained", "count"),
    ("policies.placement_s", "s"),
    ("policies.rebalance_s", "s"),
    ("policies.churn_s", "s"),
    ("policies.relocated", "count"),
    ("policies.relocate_fraction", "ratio"),
    ("policies.locate_calls", "count"),
    ("policies.locate_s", "s"),
    ("engine.build_s", "s"),
    ("engine.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim_latency_cov", "ratio"),
    ("sim_p99_latency_s", "s"),
    ("faults.injected", "count"),
    ("faults.requests_lost", "count"),
    ("failed_fraction", "ratio"),
    ("control.rounds", "count"),
    ("control.tune_s", "s"),
    ("control.moved_l1", "ratio"),
    ("protocol.frames", "count"),
    ("protocol.encode_s", "s"),
    ("protocol.decode_s", "s"),
    ("locator.handle_s", "s"),
    ("locator.locates", "count"),
    ("locator.reports", "count"),
    ("locator.epoch_close_s", "s"),
    ("locator.loop_wait_ms", "ms"),
    ("client.locate_rtt_ms", "ms"),
    ("client.exec_rtt_ms", "ms"),
    ("client.report_rtt_ms", "ms"),
    ("client.retries", "count"),
    ("client.timeouts", "count"),
    ("client.redirects", "count"),
    ("fileserver.service_ms", "ms"),
    ("fileserver.busy_s", "s"),
    ("loadgen.lag_ms", "ms"),
    ("service.asyncio_errors", "count"),
    ("trace.overhead_pct", "%"),
    ("host.speed", "ratio"),
    ("host.wall_raw_s", "s"),
]


def instrument_sim() -> Tracer:
    """Spans around the simulator layers' public calls."""
    from repro import workloads
    from repro.control import MultiplicativeController
    from repro.core.anu import ANUManager
    from repro.core.hashing import HashFamily
    from repro.core.vector import ProbeMatrix
    from repro.engine import ClusterEngine, ExperimentSpec
    from repro.engine import vector_driver
    from repro.policies import (
        ANURandomization,
        DynamicPrescient,
        SimpleRandomization,
        VectorANU,
        VirtualProcessorSystem,
    )
    from repro.policies import vector as vector_policy

    tracer = Tracer()

    def digests(result, args, kwargs) -> None:
        tracer.count("hashing.digests", len(args[1]))

    def located(result, args, kwargs) -> None:
        owner, used = result
        tracer.count("vector.locate_names", len(owner))
        # Probe offsets batched_locate actually read: one per round a
        # name needed, i.e. its probe count.
        tracer.count("hashing.inspected", int(used.sum()))

    def drained(result, args, kwargs) -> None:
        tracer.count("vector.drained", len(args[0]))

    def moved(result, args, kwargs) -> None:
        tracer.count("control.moved_l1", l1(result.lengths_before, result.lengths_after))

    for name in ("generate_synthetic", "generate_trace_shaped", "generate_scale"):
        tracer.wrap(workloads, name, "workloads.gen")
    tracer.wrap(HashFamily, "batch_offsets", "hashing.batch_offsets", after=digests)
    tracer.wrap(vector_policy, "batched_locate", "vector.locate", after=located)
    tracer.wrap(ProbeMatrix, "sorted_column", "vector.sort")
    tracer.wrap(vector_driver, "fifo_drain", "vector.drain", after=drained)
    scalar = (ANURandomization, SimpleRandomization, DynamicPrescient, VirtualProcessorSystem)
    for cls in scalar + (VectorANU,):
        tracer.wrap(cls, "initial_placement", "policies.placement")
        tracer.wrap(cls, "rebalance", "policies.rebalance")
    for cls in (ANURandomization, VectorANU):
        tracer.wrap(cls, "server_failed", "policies.churn")
        tracer.wrap(cls, "server_added", "policies.churn")
    for cls in scalar:
        tracer.wrap(cls, "locate", "policies.locate")
    # VectorANU tunes without an ANUManager: measure its region movement
    # around the whole round.
    traced_rebalance = VectorANU.rebalance

    def rebalance_moves(self, ctx):
        before = self.layout.lengths()
        moves = traced_rebalance(self, ctx)
        tracer.count("control.moved_l1", l1(before, self.layout.lengths()))
        return moves

    tracer.replace(VectorANU, "rebalance", rebalance_moves)
    tracer.wrap(ExperimentSpec, "build", "engine.build")
    tracer.wrap(ClusterEngine, "run", "engine.run")
    tracer.wrap(ClusterEngine, "run_chaos", "engine.run")
    tracer.wrap(ANUManager, "tune", "control.tune", after=moved)
    tracer.wrap(MultiplicativeController, "observe", "control.observe")
    return tracer


def _self_times(tracer: Tracer) -> Dict[str, float]:
    return {name: entry.self_time for name, entry in tracer.stats().items()}


def sim_layers(tracer: Tracer, traced: Dict[str, object]) -> Dict[str, float]:
    stats = tracer.stats()
    own = _self_times(tracer)
    counts = tracer.counts
    calls = {name: entry.calls for name, entry in stats.items()}
    digests = counts["hashing.digests"]
    return {
        "workloads.gen_s": own.get("workloads.gen", 0.0),
        "hashing.batch_offsets_s": own.get("hashing.batch_offsets", 0.0),
        "hashing.digests": digests,
        "hashing.useful_ratio": counts["hashing.inspected"] / digests if digests else 0.0,
        "vector.locate_s": own.get("vector.locate", 0.0),
        "vector.locate_names": counts["vector.locate_names"],
        "vector.sort_s": own.get("vector.sort", 0.0),
        "vector.drain_s": own.get("vector.drain", 0.0),
        "vector.drained": counts["vector.drained"],
        "policies.placement_s": own.get("policies.placement", 0.0),
        "policies.rebalance_s": own.get("policies.rebalance", 0.0),
        "policies.churn_s": own.get("policies.churn", 0.0),
        "policies.relocated": traced.get("relocated", 0),
        "policies.relocate_fraction": traced.get("relocate_fraction", 0.0),
        "policies.locate_calls": calls.get("policies.locate", 0),
        "policies.locate_s": own.get("policies.locate", 0.0),
        "engine.build_s": own.get("engine.build", 0.0),
        "engine.run_s": own.get("engine.run", 0.0),
        "sim.events": traced["events"],
        "sim.events_per_s": traced["events"] / traced["run_s"],
        "sim_latency_cov": traced["sim_latency_cov"],
        "sim_p99_latency_s": traced["sim_p99_latency_s"],
        "faults.injected": traced.get("faults_injected", 0),
        "faults.requests_lost": traced.get("requests_lost", 0),
        "control.rounds": calls.get("control.observe", 0),
        "control.tune_s": own.get("control.tune", 0.0) + own.get("control.observe", 0.0),
        "control.moved_l1": counts["control.moved_l1"],
    }


def service_layers(tracer: Tracer, out: Dict[str, object]) -> Dict[str, float]:
    """Server-side spans of this process plus the load generator's totals."""
    stats = tracer.stats()
    own = _self_times(tracer)
    client = out["done"]["layers"]
    encodes = stats["protocol.encode"].calls if "protocol.encode" in stats else 0
    decodes = stats["protocol.decode"].calls if "protocol.decode" in stats else 0
    encode_s = own.get("protocol.encode", 0.0) + client["protocol.encode_s"]
    decode_s = own.get("protocol.decode", 0.0) + client["protocol.decode_s"]
    codec_calls = encodes + decodes + client["protocol.frames"] + client["protocol.decodes"]
    handled = [s for s in tracer.spans if s and s[0] == "locator.handle" and fixed_rate(s)]
    if not handled or not codec_calls:
        raise BenchError("traced service run recorded no locator or codec spans")
    # A locate round trip is two encodes and two decodes around one
    # handler call; the rest of its round trip waited on event loops.
    loop_wait_ms = client["client.locate_rtt_ms"] - mean_ms(handled) - (
        4000.0 * (encode_s + decode_s) / codec_calls
    )
    servers = out["servers"]
    served = sum(server.completed for server in servers)
    busy = sum(server.busy_time for server in servers)
    low, mid = out["steps"][0], out["steps"][1]
    done = out["done"]
    return {
        "workloads.gen_s": client["workloads.gen_s"],
        "control.rounds": stats["control.observe"].calls if "control.observe" in stats else 0,
        "control.tune_s": own.get("control.tune", 0.0) + own.get("control.observe", 0.0),
        "control.moved_l1": tracer.counts["control.moved_l1"],
        "protocol.frames": tracer.counts["protocol.frames"] + client["protocol.frames"],
        "protocol.encode_s": encode_s,
        "protocol.decode_s": decode_s,
        "locator.handle_s": own["locator.handle"],
        "locator.locates": tracer.counts["locator.op.locate"],
        "locator.reports": tracer.counts["locator.op.report"],
        "locator.epoch_close_s": own.get("locator.close_epoch", 0.0),
        "locator.loop_wait_ms": loop_wait_ms,
        "client.locate_rtt_ms": client["client.locate_rtt_ms"],
        "client.exec_rtt_ms": client["client.exec_rtt_ms"],
        "client.report_rtt_ms": client["client.report_rtt_ms"],
        "client.retries": done["retries"],
        "client.timeouts": done["timeouts"],
        "client.redirects": done["redirects"],
        "fileserver.service_ms": 1000.0 * busy / served if served else 0.0,
        "fileserver.busy_s": busy,
        "loadgen.lag_ms": max(low["lag_p99_ms"], mid["lag_p99_ms"]),
        "service.asyncio_errors": out["asyncio_errors"],
    }


def as_metrics(
    values: Dict[str, float], latency: Dict[str, float], attempted: int, failed: int
) -> Dict[str, dict]:
    """Every per-layer metric with its unit; layers not reached are 0.

    The tail latencies come from the untraced part of the traced run.
    """
    values = dict(values)
    values["p99_ms.low"] = latency["p99_ms.low"]
    values["p99_ms.mid"] = latency["p99_ms.mid"]
    values["failed_fraction"] = failed / attempted
    unknown = set(values) - {name for name, _ in PER_LAYER}
    if unknown:
        raise BenchError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: metric(float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}
