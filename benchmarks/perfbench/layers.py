"""Per-layer spans and metrics of the traced run.

:func:`install` wraps the public entry points of every measured layer for
the traced phase only, from this file:

=============  ==============================================================
Layer          Wrapped entry points (span name)
=============  ==============================================================
engine         ``InferencePipeline.plan`` / ``execute`` (``engine.*``)
executors      ``ModelExecutor.run_batch/run_gp/run_reconstruction``,
               ``SimulatorExecutor.run_batch/run_aerial`` (``executors.*``)
nn             every fused op's ``apply`` of the compiled graph run in this
               process (``nn.<chain>.<op>``) and the global-perception
               module's ``forward`` (``nn.global_perception``)
tiling         ``extract_tiles`` / ``stitch_cores`` as the engine calls them
parallel       ``WorkerPoolExecutor.run_*`` (``parallel.call``)
streaming      ``create_segment`` as the ring and the per-call path call it
litho          ``LithoSimulator.aerial``
opc            ``OPCEngine.correct``, ``measure_layout_epe`` and
               ``build_mask`` as the engine calls them, and
               ``InferencePipeline.predict_patched``
=============  ==============================================================

:func:`metrics` turns the spans into the per-layer metrics.  Time metrics
(``_ms``) and work counts are per workload call of the traced phase, so runs
of different lengths compare; ``engine.calls`` is the traced phase's call
count.  ``nn.unfused.self_ms`` is the self time of the model-executor spans:
the forward's unfused remainder plus executor glue.  Layers a workload does
not run report 0.
"""

from __future__ import annotations

from repro.litho.simulator import LithoSimulator
from repro.opc import engine as opc_engine
from repro.opc.engine import OPCEngine
from repro.pipeline import engine as pipeline_engine
from repro.pipeline import parallel, streaming
from repro.pipeline.engine import InferencePipeline
from repro.pipeline.executors import ModelExecutor, SimulatorExecutor
from repro.pipeline.parallel import WorkerPoolExecutor

from tracing import Tracer

__all__ = ["install", "metrics"]

#: Fused chains of the compiled DOINN (label, op count): 22 ops in all.
NN_CHAINS = (
    ("LocalPerception._stage1", 3),
    ("LocalPerception._stage2", 3),
    ("LocalPerception._stage3", 3),
    ("ImageReconstruction._up1", 3),
    ("ImageReconstruction._up2", 3),
    ("ImageReconstruction._up3", 3),
    ("ImageReconstruction._refine_tail", 4),
)
NN_OPS = tuple(f"nn.{label}.{i}" for label, count in NN_CHAINS for i in range(count))
EXECUTOR_METHODS = ("run_batch", "run_gp", "run_reconstruction", "run_aerial")


def _batch(args) -> int:
    return args[1].shape[0]


def install(workload) -> Tracer:
    """Wrap every layer entry point; the caller must ``uninstall()``."""
    tracer = Tracer()
    patch = tracer.patch
    patch(InferencePipeline, "plan", "engine.plan")
    patch(InferencePipeline, "execute", "engine.execute")
    patch(InferencePipeline, "predict_patched", "opc.predict_patched")
    for method in ("run_batch", "run_gp", "run_reconstruction"):
        patch(ModelExecutor, method, f"executors.{method}", _batch, tag="nn.unfused")
    for method in ("run_batch", "run_aerial"):
        patch(SimulatorExecutor, method, f"executors.{method}", _batch)
    for method in EXECUTOR_METHODS:
        patch(WorkerPoolExecutor, method, "parallel.call", _batch)
    patch(pipeline_engine, "extract_tiles", "tiling.extract")
    patch(pipeline_engine, "stitch_cores", "tiling.stitch")
    patch(streaming, "create_segment", "streaming.create_segment")
    patch(parallel, "create_segment", "streaming.create_segment")
    patch(LithoSimulator, "aerial", "litho.aerial", lambda args: args[1].size)
    patch(OPCEngine, "correct", "opc.correct")
    patch(opc_engine, "measure_layout_epe", "opc.epe")
    patch(opc_engine, "build_mask", "opc.build_mask")
    graph = workload.graph()
    if graph is not None:
        for chain in graph.chains:
            for index, op in enumerate(chain.ops):
                patch(op, "apply", f"nn.{chain.label}.{index}")
        patch(graph.module.global_perception, "forward", "nn.global_perception")
    return tracer


def metrics(tracer: Tracer, workload, phase: dict, indices, threads: dict, cost) -> dict:
    """Per-layer metrics of one traced phase (see the module docstring)."""
    summary = tracer.summarize()
    calls = max(len(indices), 1)

    def per_call(table, name: str) -> float:
        return table.get(name, 0) / calls

    def ms(table, name: str) -> float:
        return table.get(name, 0.0) * 1e3 / calls

    out = {
        "engine.calls": float(summary.count.get("engine.plan", 0)),
        "engine.plan_ms": ms(summary.total, "engine.plan"),
        "engine.execute_self_ms": ms(summary.self_time, "engine.execute"),
    }
    for method in EXECUTOR_METHODS:
        out[f"executors.{method}_ms"] = ms(summary.total, f"executors.{method}")
        out[f"executors.{method}.items"] = per_call(summary.items, f"executors.{method}")
    for op in NN_OPS:
        out[f"{op}.self_ms"] = ms(summary.self_time, op)
    out["nn.global_perception.self_ms"] = ms(summary.self_time, "nn.global_perception")
    out["nn.unfused.self_ms"] = ms(summary.tagged_self, "nn.unfused")
    out["nn.gflop_per_tile"], out["nn.mb_moved_per_tile"] = cost
    out["tiling.extract_ms"] = ms(summary.total, "tiling.extract")
    out["tiling.stitch_ms"] = ms(summary.total, "tiling.stitch")
    out["parallel.calls"] = per_call(summary.count, "parallel.call")
    out["parallel.items"] = per_call(summary.items, "parallel.call")
    # Self time: the parent's wait on the pool, without the in-process
    # fallbacks (single-item calls, output-spec probes) nested inside.
    out["parallel.call_ms"] = ms(summary.self_time, "parallel.call")
    out["parallel.worker_threads_max"] = float(
        max((n for n in threads["workers"].values() if n is not None), default=0)
    )
    out["streaming.segments_created"] = per_call(summary.count, "streaming.create_segment")
    out["streaming.segments_live"] = float(len(streaming.live_segment_names()))
    for key in ("chunks_retried", "workers_respawned", "degraded_runs"):
        out[f"supervision.{key}"] = 0.0
    for key in ("tiles_simulated", "tiles_skipped", "full_refreshes", "patched_calls", "clean_calls", "skip_ratio"):
        out[f"cache.{key}"] = 0.0
    out.update(workload.layer_counters(indices))
    out["litho.aerial_calls"] = per_call(summary.count, "litho.aerial")
    out["litho.aerial_ms"] = ms(summary.total, "litho.aerial")
    out["litho.aerial_mpx"] = per_call(summary.items, "litho.aerial") / 1e6
    out["opc.epe_ms"] = ms(summary.total, "opc.epe")
    out["opc.build_mask_ms"] = ms(summary.total, "opc.build_mask")
    out["opc.predict_patched_ms"] = ms(summary.total, "opc.predict_patched")
    out["opc.correct_self_ms"] = ms(summary.self_time, "opc.correct")
    out["trace.coverage"] = summary.leaf_seconds / phase["wall_s"]
    return out
