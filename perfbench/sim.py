"""The simulator workloads: ``paper-scalar`` and ``scale-churn``.

``paper-scalar``
    The paper's four-system comparison (simple, ANU, prescient, virtual
    processors) at full size on the section 5.1 synthetic workload
    (about 66,400 requests over 200 simulated minutes) and the
    trace-shaped workload (about 112,590 requests over one hour): the
    per-event scalar engine that reproduces Figures 4-6.
``scale-churn``
    Vector ANU on 1000 servers, 200k file sets and 4M requests with the
    chaos-scale fault script (40 faults, eight of each kind): probe
    hashing at placement, then drain, tuning and crash-driven
    relocation.

One *pass* generates the inputs from the seed, builds every engine
(initial placement included) and runs it; its wall time is those three
steps, not the output checks that follow. While it runs it samples the
host's speed once a second (``hostspeed.py``), and every time a pass
reports is a measured time scaled by the speed factor around it; the
measured wall time is kept as ``raw_wall_s``. A run makes passes until its time
is used up, and at least two, so that the result digests of two passes
at one seed can be compared.

``run.py`` imports this module only after putting the checkout's
``src/`` on the path.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import numpy as np

from repro import workloads
from repro.cluster.cache import CacheConfig
from repro.core.hashing import HashFamily
from repro.engine import (
    ChaosConfig,
    ClusterConfig,
    ExperimentSpec,
    Observer,
    RelocationApplied,
    SimulationBuilder,
    VectorChaosFaultLayer,
    VectorizedClientPath,
)
from repro.experiments.cache import result_fingerprint
from repro.faults import FaultKind, FaultSchedule, chaos_fingerprint, random_schedule
from repro.metrics.consistency import consistency_report
from repro.policies import (
    ANURandomization,
    DynamicPrescient,
    SimpleRandomization,
    VectorANU,
    VirtualProcessorSystem,
)

from common import BenchError, median
from hostspeed import HostClock, Lap

PAPER_POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}
PAPER_SYSTEMS = ("simple", "anu", "prescient", "virtual")
TUNING_INTERVAL = 120.0

SCALE_SERVERS = 1000
SCALE_FILESETS = 200_000
SCALE_REQUESTS = 4_000_000
SCALE_DURATION = 1200.0
SCALE_FAULT_RATE = 0.05
#: Faults of each kind per scale-churn pass: the chaos-scale script's
#: expected count at :data:`SCALE_FAULT_RATE` (42 over the 840 s fault
#: window), fixed instead of Poisson-drawn.
SCALE_FAULTS_PER_KIND = 8


class RelocationClock(Observer):
    """Wall-clock time of each re-placement of the catalog after a
    server crashed (``fail``) or came back (``recover``), as the policy
    timed it.

    Vector policies time every re-resolution of their catalog and the
    engine publishes it as ``RelocationApplied``, one per crash or
    recovery (and one per tuning round, whose cost depends on how far
    the round moved the map and so on the seed's load history).
    """

    subscriptions = {RelocationApplied: "on_relocation"}

    def __init__(self, host: HostClock) -> None:
        self.host = host
        self.laps: Dict[str, List[Lap]] = {"fail": [], "recover": []}

    def on_relocation(self, event) -> None:
        if event.kind in self.laps:
            self.laps[event.kind].append(self.host.timed_by_program(event.seconds))


def _paper_policy(system: str):
    ids = list(PAPER_POWERS)
    # The hash family is fixed infrastructure, as in the figure harness.
    family = HashFamily(seed=0)
    if system == "simple":
        return SimpleRandomization(ids, hash_family=family)
    if system == "anu":
        return ANURandomization(ids, hash_family=family)
    if system == "prescient":
        return DynamicPrescient(ids, tuning_interval=TUNING_INTERVAL)
    return VirtualProcessorSystem(
        ids, v=5.0, hash_family=family, tuning_interval=TUNING_INTERVAL
    )


def _fault_script(seed: int, servers: List[int], chaos: ChaosConfig) -> FaultSchedule:
    """The chaos-scale fault script with a fixed number of each kind.

    ``random_schedule`` draws a Poisson number of faults of random
    kinds; each crash and its recovery cost the run about a third of a
    second, so the drawn count alone moved a pass's wall time by 20% from seed to
    seed. This keeps :data:`SCALE_FAULTS_PER_KIND` of each kind, picked
    at random from a schedule drawn at four times the rate: the seed
    still sets when, where and how long faults strike.
    """
    # Outages outlive the detection bound, so every crash is detected.
    drawn = random_schedule(
        seed=seed,
        duration=SCALE_DURATION,
        server_ids=servers,
        fault_rate=4 * SCALE_FAULT_RATE,
        min_outage=max(30.0, 3.0 * chaos.detection_latency_bound),
    )
    rng = np.random.default_rng(seed)
    kept = []
    for kind in FaultKind.ALL:
        events = [e for e in drawn if e.kind == kind]
        if len(events) < SCALE_FAULTS_PER_KIND:
            raise BenchError(f"seed {seed} drew only {len(events)} {kind} faults")
        picked = rng.choice(len(events), size=SCALE_FAULTS_PER_KIND, replace=False)
        kept += [events[i] for i in picked]
    return FaultSchedule(events=tuple(kept))


def _p99(latencies: np.ndarray) -> float:
    """Nearest-rank p99 (as :func:`common.percentile`) of a large array."""
    return float(np.quantile(latencies, 0.99, method="inverted_cdf"))


def _latency_quality(result) -> Dict[str, float]:
    """The paper's consistency metric and the p99 of simulated latency."""
    return {"cov": consistency_report(result).cov, "p99_s": _p99(result.all_latencies)}


def paper_pass(seed: int, host: HostClock) -> Dict[str, object]:
    """One pass of the four-system comparison on both workloads."""
    began = host.mark()
    capacity = sum(PAPER_POWERS.values())
    inputs = {
        "low": workloads.generate_synthetic(
            workloads.SyntheticConfig(total_capacity=capacity), seed=seed
        ),
        "mid": workloads.generate_trace_shaped(
            workloads.TraceConfig(total_capacity=capacity), seed=seed
        ),
    }
    setup = [host.lap(began)]
    config = ClusterConfig(server_powers=dict(PAPER_POWERS), tuning_interval=TUNING_INTERVAL)
    runs: Dict[str, Dict[str, List[Lap]]] = {"low": {}, "mid": {}}
    fingerprints: Dict[str, str] = {}
    quality: Dict[str, Dict[str, float]] = {}
    events = submitted = failed = 0.0
    for load, workload in inputs.items():
        for system in PAPER_SYSTEMS:
            t = host.mark()
            engine = SimulationBuilder(workload.fork(), _paper_policy(system), config).build()
            setup.append(host.lap(t))
            t = host.mark()
            result = engine.run()
            runs[load][system] = [host.lap(t)]
            fingerprints[f"{load}/{system}"] = result_fingerprint(result)
            if result.submitted != len(workload.requests):
                raise BenchError(
                    f"{system} on {load}: {result.submitted} of "
                    f"{len(workload.requests)} requests submitted"
                )
            submitted += result.submitted
            failed += engine.record.requests_dropped + engine.record.requests_failed
            events += result.events_processed
            if load == "low" and system in ("simple", "anu"):
                quality[system] = _latency_quality(result)
    # The paper's result: ANU is more consistent than simple
    # randomization and has the far lower tail.
    anu, simple = quality["anu"], quality["simple"]
    if not (anu["cov"] < simple["cov"] and anu["p99_s"] < simple["p99_s"]):
        raise BenchError(f"ANU no longer beats simple randomization: {quality}")
    return {
        "setup": setup,
        "run": [lap for systems in runs.values() for times in systems.values() for lap in times],
        "submitted": submitted,
        "failed": failed,
        "events": events,
        "steps": runs,
        "fingerprints": fingerprints,
        "sim_latency_cov": anu["cov"],
        "sim_p99_latency_s": anu["p99_s"],
    }


def scale_pass(seed: int, host: HostClock) -> Dict[str, object]:
    """One vector ANU chaos run at 1000 servers."""
    began = host.mark()
    powers = {i: PAPER_POWERS[i % 5] for i in range(SCALE_SERVERS)}
    workload = workloads.generate_scale(
        workloads.ScaleConfig(
            n_filesets=SCALE_FILESETS,
            target_requests=SCALE_REQUESTS,
            duration=SCALE_DURATION,
            total_capacity=sum(powers.values()),
        ),
        seed=seed,
    )
    setup = [host.lap(began)]
    began = host.mark()
    chaos = ChaosConfig(seed=seed)
    schedule = _fault_script(seed, list(powers), chaos)
    config = ClusterConfig(
        server_powers=powers,
        tuning_interval=TUNING_INTERVAL,
        cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
        supply_knowledge=False,
    )
    policy = VectorANU(list(powers), hash_family=HashFamily(seed=0), emit_moves=False)
    clock = RelocationClock(host)
    engine = ExperimentSpec(
        workload=workload,
        policy=policy,
        config=config,
        client_path=VectorizedClientPath(),
        faults=VectorChaosFaultLayer(schedule=schedule, chaos=chaos),
        observers=(clock,),
    ).build()
    setup.append(host.lap(began))
    began = host.mark()
    result = engine.run_chaos()
    run = host.lap(began)
    problems = []
    if result.requests_lost != 0:
        problems.append(f"{result.requests_lost} requests lost")
    if result.invariant_violations != 0:
        problems.append(f"{result.invariant_violations} invariant violations")
    if result.faults_injected == 0:
        problems.append("no fault was injected")
    if result.requests_injected != SCALE_REQUESTS:
        problems.append(f"{result.requests_injected} of {SCALE_REQUESTS} requests injected")
    if problems:
        raise BenchError("scale-churn: " + "; ".join(problems))
    base = result.base
    means = [t.mean for t in base.server_tally.values() if t.count > 0]
    mean = sum(means) / len(means)
    cov = (sum((m - mean) ** 2 for m in means) / len(means)) ** 0.5 / mean
    return {
        "setup": setup,
        "run": [run],
        "submitted": result.requests_injected,
        "failed": result.requests_failed,
        "events": base.events_processed,
        "steps": {"low": {"anu": clock.laps["recover"]}, "mid": {"anu": clock.laps["fail"]}},
        "fingerprints": {"anu": chaos_fingerprint(result)},
        "sim_latency_cov": cov,
        "sim_p99_latency_s": _p99(base.all_latencies),
        "faults_injected": result.faults_injected,
        "requests_lost": result.requests_lost,
        "relocated": getattr(policy, "relocated_total", 0),
        "relocate_fraction": getattr(policy, "relocate_fraction", 0.0),
    }


def _scaled(host: HostClock, out: Dict[str, object]) -> Dict[str, object]:
    """Add up a pass's laps, each scaled by its host speed factor;
    ``raw_wall_s`` is the measured wall time (net of sampling)."""
    setup, run = out.pop("setup"), out.pop("run")
    out["setup_s"] = sum(host.scaled(lap) for lap in setup)
    out["run_s"] = sum(host.scaled(lap) for lap in run)
    out["wall_s"] = out["setup_s"] + out["run_s"]
    out["raw_wall_s"] = sum(lap.seconds for lap in setup + run)
    out["host_speed"] = host.factor()
    out["steps"] = {
        load: {system: [host.scaled(lap) for lap in laps] for system, laps in systems.items()}
        for load, systems in out["steps"].items()
    }
    return out


PASSES = {"paper-scalar": paper_pass, "scale-churn": scale_pass}


def one_pass(workload: str, seed: int, sampling: bool = True) -> Dict[str, object]:
    """One pass of ``workload``, its times scaled to the host's speed.

    Without ``sampling`` the host is sampled only before and after the
    pass, so that no kernel run lands inside a traced span.
    """
    with HostClock() if sampling else HostClock(interval=None) as host:
        out = PASSES[workload](seed, host)
    return _scaled(host, out)


def run_passes(workload: str, seed: int, seconds: float, minimum: int) -> List[Dict[str, object]]:
    """Passes until ``seconds`` are used (at least ``minimum``); checks
    that every pass at this seed gives the same result digests."""
    passes: List[Dict[str, object]] = []
    began = time.perf_counter()
    while len(passes) < minimum or (
        time.perf_counter() - began + median([p["raw_wall_s"] for p in passes]) <= seconds
    ):
        passes.append(one_pass(workload, seed))
        gc.collect()
        if passes[-1]["fingerprints"] != passes[0]["fingerprints"]:
            raise BenchError(
                f"{workload}: result digests differ between passes at seed {seed}"
            )
    return passes
