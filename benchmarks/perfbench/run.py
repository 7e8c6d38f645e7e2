"""The repository benchmark: closed-loop workloads, end to end and by layer.

Run from the repository root::

    python3 benchmarks/perfbench/run.py --workload tile-stream --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``tile-stream``, ``fullchip-lt`` and
``opc-incremental``.  One run builds its inputs from ``--seed``, sets the
engine up several times (``setup_s`` is the median), runs the timed closed
loop for ``--seconds`` (finishing the current input cycle), checks every
output, writes a full record under ``records/`` next to this file and
prints one JSON object as its last line of output::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the time untraced and half with span wrappers
installed around each layer's public entry points (``layers.py``) and
reports the per-layer metrics.  The exit code is 0 when every check passed,
1 on a wrong answer, 2 when the run could not start (no ``src/repro`` next
to the benchmark, or a ``REPRO_*`` variable set for a field the workload
pins).  ``compare.py`` diffs two sets of records.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def timed_phase(workload, seconds: float, start_index: int, tracer=None) -> dict:
    """Closed loop until ``seconds`` have passed and the input cycle is complete."""
    samples = []
    index = start_index
    area = 0.0
    call = workload.call if tracer is None else tracer.wrap(workload.call, "call")
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if index > start_index and (index - start_index) % workload.cycle == 0 and elapsed >= seconds:
            break
        if tracer is not None:
            tracer.call_id = index
        t0 = time.perf_counter()
        try:
            output = call(index)
        # repro: ok(EXC001, the closed loop's failure boundary: a call that raises counts as failed and its error is kept in the record)
        except Exception as exc:
            latency = time.perf_counter() - t0
            workload.observe_failure(index)
            samples.append({"index": index, "ok": False, "ms": latency * 1e3,
                            "error": f"{type(exc).__name__}: {exc}"[:300]})
            index += 1
            continue
        latency = time.perf_counter() - t0
        ok, call_area, iterations = workload.observe(index, output)
        if ok:
            area += call_area
        samples.append({"index": index, "ok": ok, "ms": latency * 1e3, "iterations": iterations})
        index += 1
    wall = time.perf_counter() - begin
    return {"wall_s": wall, "area_um2": area, "samples": samples, "next_index": index}


def end_to_end(phase: dict) -> dict:
    """The timing metrics of one phase, over its succeeded calls."""
    ok = [s for s in phase["samples"] if s["ok"]]
    latencies = [s["ms"] for s in ok]
    return {
        "um2_per_s": phase["area_um2"] / phase["wall_s"],
        "call_p50_ms": _percentile(latencies, 50),
        "call_p90_ms": _percentile(latencies, 90),
        "opc_iter_ms": _percentile([s["ms"] / s["iterations"] for s in ok], 50),
    }


def measure(workload, seed: int, seconds: float, trace: bool, record: dict):
    """Prepare, set up, run and check one workload.

    Returns ``(metrics, samples, spans)`` and fills ``record`` with what the
    run saw; ``peak_rss_mb`` is added by the caller once the engine is closed.
    """
    import host
    import layers
    from workloads import fused_op_cost

    start = time.perf_counter()
    workload.prepare(seed)
    record["prepare_s"] = time.perf_counter() - start

    setup_times = []
    for repeat in range(workload.SETUP_REPEATS):
        if repeat:
            # Release the previous engine (and its reference cycles) so the
            # set-ups do not stack up in peak_rss_mb.
            workload.close()
            gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.warm()
    record["warm_s"] = time.perf_counter() - start
    config = workload.config()
    record["setup_times_s"] = setup_times
    record["pinned"] = workload.pinned()
    record["config"] = config.to_dict()
    record["config_sources"] = {name: config.source_of(name) for name in config.sources}
    record["blas_libraries"] = host.blas_libraries()

    spans = []
    if trace:
        untraced = timed_phase(workload, seconds / 2, 0)
        tracer = layers.install(workload)
        try:
            traced = timed_phase(workload, seconds / 2, untraced["next_index"], tracer)
        finally:
            tracer.uninstall()
        threads = {"parent": host.thread_count(), "workers": host.worker_threads()}
        indices = [s["index"] for s in traced["samples"]]
        graph = workload.graph()
        cost = fused_op_cost(graph) if graph is not None else (0.0, 0.0)
        metrics = layers.metrics(tracer, workload, traced, indices, threads, cost)
        metrics["trace.overhead_ratio"] = (
            end_to_end(untraced)["um2_per_s"] / end_to_end(traced)["um2_per_s"]
        )
        phases = [untraced, traced]
        spans = tracer.to_records()
    else:
        phase = timed_phase(workload, seconds, 0)
        threads = {"parent": host.thread_count(), "workers": host.worker_threads()}
        metrics = end_to_end(phase)
        phases = [phase]
    record["threads"] = threads

    miou, epe = workload.quality()
    record["quality"] = {"miou": miou, "opc_epe_nm": epe}
    if miou < workload.MIOU_FLOOR:
        workload.problems.append(f"miou {miou:.4f} below the floor {workload.MIOU_FLOOR}")
    if not trace:
        metrics.update(miou=miou, opc_epe_nm=epe, setup_s=statistics.median(setup_times))
    return metrics, [s for p in phases for s in p["samples"]], spans


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "records",
                        help="directory for the run record (default: records/ next to this file)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no src/repro under {ROOT}; run from a full checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))

    import host
    from workloads import WORKLOADS, pinned_env_conflicts

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT)
    conflicts = pinned_env_conflicts(workload.pinned())
    if conflicts:
        _fail("refusing to run: " + "; ".join(conflicts))

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host.fingerprint(ROOT, args.seed)}
    try:
        metrics, samples, spans = measure(workload, args.seed, args.seconds, bool(args.trace), record)
    finally:
        workload.close()
    # Pool workers are joined by now, so RUSAGE_CHILDREN covers them.  The
    # resource tracker is reaped only afterwards: its pre-exec fork would
    # otherwise count as the largest child.
    record["peak_rss_mb"] = host.peak_rss_mb()
    host.stop_resource_tracker()
    if not args.trace:
        metrics["peak_rss_mb"] = record["peak_rss_mb"]
    if set(metrics) != set(units):
        _fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    problems = workload.problems
    correct = not problems
    record.update(correct=correct, problems=problems[:50], attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, samples=samples, metrics=metrics)
    args.out.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans:
        (args.out / f"{name}-spans.json").write_text(json.dumps(spans))

    for key, value in metrics.items():
        print(f"{workload.name:16s} {key:48s} {value:14.6g} {units[key]}")
    print(f"{workload.name:16s} {'fail_ratio':48s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
