"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-scalar --seed 1 --seconds 50 --trace 0

Workloads (see ``sim.py`` and ``service.py`` for what each runs):

``paper-scalar``
    the four-system comparison on the paper's two workloads (scalar
    engine, ``repro.sim``, scalar policies, control loop);
``scale-churn``
    vector ANU at 1000 servers under crashes (probe hashing, vector
    kernels, relocation, faults);
``service-ladder``
    the live locator service on loopback under open-loop load
    (protocol, locator, client, echo servers).

``BENCHMARK.json`` lists only the two simulator workloads.
``service-ladder`` is run by hand: on a shared 2-core host its
latencies and capacity follow the other tenants. In three sets of ten
runs on such a host, capacity read 320 to 4,350 req/s and the p50s
spread 0.3 to 1.0 of their median between runs, whether taken over
the whole step, as the lowest over 500-request blocks, or as the better
of two halves 20 s apart (variants tried and not kept); scaling by the
calibration kernel of ``hostspeed.py`` still left 0.37 and 0.39 over
five runs.

Every workload reports every end-to-end metric:

``setup_s``
    median set-up time. Simulator: workload generation plus engine
    build with initial placement, per pass. Service: from stack start
    until the load generator's client is connected, over three
    start-ups.
``wall_s``
    the whole run a user waits for, set-up included. Simulator:
    generation, build and run of one pass (median over passes), not the
    output checks. Service: start-up plus the ``low`` and ``mid`` steps.
``capacity_rps``
    requests completed per second, from measured completions.
    Simulator: simulated requests per wall-clock second of a pass.
    Service: the completion rate of the highest ladder step that meets
    the p99 limit with no failures and no growing backlog.
``p50_ms.low``, ``p50_ms.mid``
    median latency of two kinds of work a user waits on.
    ``service-ladder``: live request latency, timed from when each
    request was due, at the fixed rates of the ``low`` (250 req/s) and
    ``mid`` (800 req/s) steps. ``paper-scalar``: wall-clock time of
    one system's simulation run (each system's median over the passes,
    averaged over the four systems), ``low`` on the synthetic workload
    (about 5.5 requests per simulated second) and ``mid`` on the
    trace-shaped one (about 31). ``scale-churn``: wall-clock time of
    one re-placement of the catalog, as the policy times it, ``low``
    after a server came back and ``mid`` after one crashed.

On the simulator workloads every time is scaled to a reference host
speed (``hostspeed.py``): the benchmark samples a fixed calibration
kernel once a second and multiplies each measured step by the kernel's
nominal time over its time around that step, so that a shared host's
drifting speed does not read as a change of the program.

``p99_ms.low`` and ``p99_ms.mid`` are printed too (on ``paper-scalar``,
with a few runs per system, each system's p99 is its slowest run), but
only as per-layer metrics: on a shared 2-core host their run-to-run spread
(0.4 to 0.9 of the median on the live service) is wider than any bound
the benchmark may set.

``--trace 1`` makes a separate run that records spans around the calls
into each layer (``layers.py``) and prints the per-layer metrics
instead, including ``trace.overhead_pct``: the traced pass or session
against an untraced one in the same run, which also supplies the p99
tails, and, on the simulators, ``host.speed`` and ``host.wall_raw_s``:
that untraced pass's mean speed factor and its measured wall time. The
traced pass samples the host only before and after, so no kernel run
lands inside a span. Spans are written under ``.perfbench_out/`` when
the run ends.

Every run checks the program's outputs (result digests repeat at one
seed, no request lost, the paper's ANU-over-simple result, the live
ledger conserved and the tuning decisions replayed exactly). A failed
check prints the reason on stderr and exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from common import OUT_DIR, BenchError, import_program, metric, median, percentile
from tracer import Tracer

WORKLOADS = ("paper-scalar", "scale-churn", "service-ladder")


def sim_latency(passes) -> dict:
    """Step times of the passes in ms: each system's percentile over all
    passes, averaged over the systems.

    The systems' step times differ by up to 2x, so a percentile of the
    pooled samples would fall between their clusters and jump with any
    shift of one of them.
    """
    out = {}
    for load in ("low", "mid"):
        systems = passes[0]["steps"][load]
        pooled = [[x for p in passes for x in p["steps"][load][s]] for s in systems]
        for q, name in ((0.50, "p50_ms"), (0.99, "p99_ms")):
            out[f"{name}.{load}"] = 1000.0 * sum(percentile(x, q) for x in pooled) / len(pooled)
    return out


def service_latency(out) -> dict:
    low, mid = out["steps"][0], out["steps"][1]
    return {
        "p50_ms.low": low["p50_ms"],
        "p99_ms.low": low["p99_ms"],
        "p50_ms.mid": mid["p50_ms"],
        "p99_ms.mid": mid["p99_ms"],
    }


def end_to_end(setup_s: float, wall_s: float, capacity_rps: float, latency: dict) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "capacity_rps": metric(capacity_rps, "1/s"),
        "p50_ms.low": metric(latency["p50_ms.low"], "ms"),
        "p50_ms.mid": metric(latency["p50_ms.mid"], "ms"),
    }


def run_sim(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, tail latencies, attempted, failed)."""
    import layers
    import sim

    if not trace:
        passes = sim.run_passes(workload, seed, seconds, minimum=2)
        print(f"{workload:>14} {'host speed / raw wall_s':<28} "
              + ", ".join(f"{p['host_speed']:.3f} / {p['raw_wall_s']:.2f}" for p in passes))
        latency = sim_latency(passes)
        metrics = end_to_end(
            median([p["setup_s"] for p in passes]),
            median([p["wall_s"] for p in passes]),
            median([p["submitted"] / p["wall_s"] for p in passes]),
            latency,
        )
        return metrics, latency, sum(p["submitted"] for p in passes), sum(p["failed"] for p in passes)
    # Traced: one untraced pass, then one traced pass at the same seed.
    plain = sim.run_passes(workload, seed, 0.0, minimum=1)[0]
    tracer = layers.instrument_sim()
    try:
        traced = sim.one_pass(workload, seed, sampling=False)
    finally:
        tracer.restore()
    if traced["fingerprints"] != plain["fingerprints"]:
        raise BenchError(f"{workload}: tracing changed the result digests")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{workload}-{seed}.trace")
    latency = sim_latency([plain])
    per_layer = layers.sim_layers(tracer, traced)
    per_layer["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
    per_layer["host.speed"] = plain["host_speed"]
    per_layer["host.wall_raw_s"] = plain["raw_wall_s"]
    return per_layer, latency, traced["submitted"], traced["failed"]


def run_service(seed: int, seconds: float, trace: bool):
    """Returns (metrics, tail latencies, attempted, failed)."""
    import layers
    import service

    plain = service.run(seed, seconds, None)
    low, mid = plain["steps"][0], plain["steps"][1]
    latency = service_latency(plain)
    attempted, failed = low["requests"] + mid["requests"], low["failed"] + mid["failed"]
    if not trace:
        metrics = end_to_end(
            plain["setup_s"], plain["wall_s"], plain["best"]["completion_rps"], latency
        )
        return metrics, latency, attempted, failed
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    traced = service.run(seed, seconds, tracer)
    tracer.write(OUT_DIR / f"service-ladder-{seed}.trace")
    per_layer = layers.service_layers(tracer, traced)
    per_layer["trace.overhead_pct"] = 100.0 * (
        plain["best"]["completion_rps"] / traced["best"]["completion_rps"] - 1.0
    )
    return per_layer, latency, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    try:
        import_program()
        if args.workload == "service-ladder":
            metrics, latency, attempted, failed = run_service(
                args.seed, args.seconds, bool(args.trace)
            )
        else:
            metrics, latency, attempted, failed = run_sim(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
        if args.trace:
            import layers

            metrics = layers.as_metrics(metrics, latency, attempted, failed)
    except Exception:  # report any failure as a failed run, never as a number
        traceback.print_exc()
        print(f"perfbench: {args.workload} seed {args.seed}: run failed", file=sys.stderr)
        return 1
    for name, entry in metrics.items():
        print(f"{args.workload:>14} {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:  # the tails are per-layer metrics: too noisy to bound
        for name in ("p99_ms.low", "p99_ms.mid"):
            print(f"{args.workload:>14} {name:<28} {latency[name]:>14.6g} ms")
    print(f"{args.workload:>14} {'failed/attempted':<28} {int(failed):>6} / {int(attempted)} "
          f"({time.perf_counter() - began:.1f} s)")
    print(json.dumps({"correct": True, "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
