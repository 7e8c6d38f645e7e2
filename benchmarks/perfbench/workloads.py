"""The benchmark's three closed-loop workloads.

Each workload is one client that sends its next call when the previous one
returns.  All inputs come from the ``--seed``; the engine is configured
through :class:`repro.pipeline.ExecutionConfig`, pinning every field the
workload relies on and leaving the rest at the shipped defaults.

``tile-stream``
    ``InferencePipeline.plan`` + ``execute`` (exactly ``run``) on 8 native
    64x64 tiles at 16 nm/px, drawn in seed-shuffled passes over a pool of 384
    distinct iccad2013-style metal tiles (generator + rule-based retarget +
    SRAFs).  Compiled trained iccad2013 DOINN, float64 lane,
    ``batch_size=4``, serial.
``fullchip-lt``
    One stitched (paper §3.2) prediction of a dense via layout cropped from
    one 512x512 px canvas.  A cycle of 8 calls holds six fixed on-grid
    shapes, whose sides cover every multiple of 64 px from 192 to 448, and
    two off-grid shapes whose sides are odd multiples of 32 px drawn from the
    seed.  Shapes and order are fixed so that seeds do not change the amount
    of work or the memory peak.  The on-grid latencies fall in five clusters
    (the two middle shapes are transposes), so the median sits in the middle
    of the transposed pair's cluster and the 90th percentile inside the
    largest shape's, never in a gap between clusters.  The shapes are kept
    small so that a 25 s run holds about 100 succeeded calls (84-108 on a
    busy 2-core host), which leaves about ten above the 90th percentile.
    The on-grid crops are fixed windows of a fixed canvas (generated from
    ``CANVAS_SEED``): the contour error of so little content depends on
    where it is cut, and seed-drawn canvases or crop offsets spread
    ``opc_epe_nm`` by 11-26% across seeds.  Compiled trained ispd2019 DOINN, ``tile_size=64``,
    ``num_workers=2``; streaming, ``shard_tiles`` and the BLAS cap stay at
    their defaults.  The engine refuses off-grid sizes today; those calls
    count as failed, never as wrong.
``opc-incremental``
    One ``OPCEngine.correct`` of a seed-generated dense 4096 nm via layout
    at 8 nm/px (512 px, 225 patch windows): golden
    ``LithoSimulator(pixel_size=8, num_kernels=10, kernel_support=31)``,
    24 iterations, ``freeze_after=2``, incremental, serial.  The calls cycle
    over three seed-generated layouts, so the median and the 90th percentile
    each sit inside one layout's cluster of latencies.

Golden labels, serial/full reference results and input generation are built
in :meth:`Workload.prepare`, outside both ``setup_s`` and the timed phase.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro import knobs
from repro.core.registry import create_model
from repro.layout.design_rules import rules_for
from repro.layout.generators import generate_large_layout, generate_layout
from repro.layout.geometry import Layout, Rect
from repro.layout.rasterize import rasterize
from repro.litho.simulator import LithoSimulator
from repro.metrics.segmentation import mean_iou
from repro.nn import Tensor, no_grad
from repro.nn.fusion import FusedConvTranspose
from repro.nn.serialization import load_state
from repro.opc.engine import OPCConfig, OPCEngine, rule_based_retarget
from repro.opc.epe import measure_layout_epe
from repro.opc.fragments import fragment_layout
from repro.opc.sraf import insert_srafs
from repro.pipeline import ExecutionConfig, InferencePipeline

__all__ = ["WORKLOADS", "Workload", "pinned_env_conflicts"]

#: Dataset-generation constants of the trained models (the experiment
#: harness's ``DENSITY_SCALE`` / ``RETARGET_BIAS``, low-resolution grid).
LOW_RES_NM = 16.0
NATIVE_TILE = 64
DENSITY = 1.2
RETARGET_BIAS_NM = 12.0
#: EPE measurement settings (the OPC engine's defaults, in pixels).
MAX_FRAGMENT = 32
EPE_SEARCH = 24


def _um2(pixels: int, pixel_nm: float) -> float:
    return pixels * (pixel_nm * 1e-3) ** 2


def _golden(pixel_nm: float) -> LithoSimulator:
    return LithoSimulator(pixel_size=pixel_nm, num_kernels=10, kernel_support=31)


def _load_doinn(root: Path, benchmark: str):
    matches = sorted((root / "artifacts").glob(f"model-doinn-{benchmark}-L-*.npz"))
    if len(matches) != 1:
        raise FileNotFoundError(
            f"expected one trained DOINN for {benchmark} under artifacts/, found {len(matches)}"
        )
    model = create_model("doinn", image_size=NATIVE_TILE)
    model.load_state_dict(load_state(matches[0]))
    return model


def _mask_of(layout: Layout, pixel_nm: float, size: int) -> np.ndarray:
    """Rule-based retarget + SRAFs, rasterized: how the datasets build masks."""
    corrected = rule_based_retarget(layout, bias=RETARGET_BIAS_NM)
    mask_layout = Layout(
        bounds=layout.bounds, shapes=list(corrected.shapes) + list(insert_srafs(layout))
    )
    return rasterize(mask_layout, pixel_size=pixel_nm, image_size=size)


def _epe_diffs(prediction, golden, layout: Layout, pixel_nm: float) -> np.ndarray:
    """|EPE(prediction) - EPE(golden)| in nm at every fragment of ``layout``."""
    shapes = fragment_layout(layout, pixel_nm, MAX_FRAGMENT)
    ours = measure_layout_epe(prediction, shapes, pixel_nm, EPE_SEARCH).values
    theirs = measure_layout_epe(golden, shapes, pixel_nm, EPE_SEARCH).values
    return np.abs(ours - theirs) * pixel_nm


def pinned_env_conflicts(pinned) -> list[str]:
    """``REPRO_*`` variables that are set and feed a field the workload pins."""
    return [
        f"{knob.name} is set but feeds the pinned ExecutionConfig field "
        f"{knob.field.split('.')[0]!r}"
        for knob in knobs.all_knobs()
        if knob.field and knob.field.split(".")[0] in pinned and knobs.get_raw(knob.name) is not None
    ]


def fused_op_cost(graph, tile: int = NATIVE_TILE) -> tuple[float, float]:
    """Computed GFLOP and MB moved per tile by the fused ops of ``graph``.

    Runs one ``tile x tile`` zero tile through the graph while recording each
    fused op's input and output shape.  FLOPs count multiply-adds of the
    convolution GEMMs; bytes count input, unpadded output and weights once.
    These are computed from shapes, not measured; the Fourier unit and the
    other unfused ops are not included.
    """
    flops = 0.0
    nbytes = 0.0
    originals = []
    for chain in graph.chains:
        for op in chain.ops:
            def record(buf, *args, _op=op, _apply=op.apply, **kwargs):
                nonlocal flops, nbytes
                out_shape = _op.output_shape(buf.shape, 0)
                n = buf.shape[0]
                if isinstance(_op, FusedConvTranspose):
                    spatial = buf.shape[2] * buf.shape[3]
                else:
                    spatial = out_shape[2] * out_shape[3]
                flops += 2.0 * _op.weight.size * spatial * n
                item = _op.weight.dtype.itemsize
                nbytes += (buf.size + int(np.prod(out_shape)) + _op.weight.size * n) * item
                return _apply(buf, *args, **kwargs)

            originals.append(op)
            op.apply = record
    try:
        with no_grad():
            graph(Tensor(np.zeros((1, 1, tile, tile))))
    finally:
        for op in originals:
            del op.apply
    return flops / 1e9, nbytes / 1e6


def _model_graph(pipeline: InferencePipeline):
    executor = pipeline.executor
    return getattr(executor, "inner", executor).model


class Workload:
    """One workload: inputs, engine set-up, one call, and its checks."""

    name = ""
    #: Calls per input cycle; the timed phase only ends on a cycle boundary.
    cycle = 1
    #: A run whose miou falls below this fails its output check.
    MIOU_FLOOR = 0.5
    #: Set-ups per run; ``setup_s`` is their median.
    SETUP_REPEATS = 5

    def __init__(self, root: Path) -> None:
        self.root = root
        self.problems: list[str] = []

    # Pinned ExecutionConfig fields (subclasses fill in values).
    def pinned(self) -> dict:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the engine and complete one warm-up call (timed as setup_s)."""
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed pass over the input cycle so per-geometry caches are filled."""

    def call(self, index: int):
        raise NotImplementedError

    def observe(self, index: int, output) -> tuple[bool, float, int]:
        """Check one call's output; return (succeeded, area in µm², iterations)."""
        raise NotImplementedError

    def observe_failure(self, index: int) -> None:
        """Note a call that raised (a failure, not a wrong answer)."""

    def quality(self) -> tuple[float, float]:
        """(miou, opc_epe_nm) over the succeeded calls."""
        raise NotImplementedError

    def config(self) -> ExecutionConfig:
        """The resolved execution config of the engine being measured."""
        raise NotImplementedError

    def graph(self):
        """The compiled model graph run in this process, if any."""
        return None

    def layer_counters(self, indices) -> dict:
        """Layer counters read off public results, per call of ``indices``."""
        return {}

    def close(self) -> None:
        raise NotImplementedError


class TileStream(Workload):
    name = "tile-stream"
    MIOU_FLOOR = 0.85
    pipeline = None
    POOL = 384
    TILES_PER_CALL = 8

    def pinned(self) -> dict:
        return {
            "compile": True,
            "backend": "float64",
            "batch_size": 4,
            "num_workers": 0,
            "tile_size": NATIVE_TILE,
            "result_cache": False,
        }

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        rules = rules_for("iccad2013")
        self.layouts = [
            generate_layout(rules, rng, tile_size=NATIVE_TILE * LOW_RES_NM, density_scale=DENSITY)
            for _ in range(self.POOL)
        ]
        self.masks = np.stack([_mask_of(lay, LOW_RES_NM, NATIVE_TILE) for lay in self.layouts])
        simulator = _golden(LOW_RES_NM)
        self.golden = np.stack([simulator.resist_image(mask) for mask in self.masks])
        self.draws = np.random.default_rng([seed, 2])
        self.order = np.empty(0, dtype=np.int64)
        self.first = [None] * self.POOL
        self.seen = np.zeros(self.POOL, dtype=np.int64)
        self._pending = None

    def setup(self) -> None:
        model = _load_doinn(self.root, "iccad2013")
        self.pipeline = InferencePipeline(model, config=ExecutionConfig(**self.pinned()))
        warm = self.masks[: self.TILES_PER_CALL]
        self.pipeline.execute(self.pipeline.plan(warm), warm)

    def call(self, index: int):
        # Calls walk seed-shuffled passes over the pool, so every tile is
        # predicted once per pass and the quality metrics do not depend on
        # how many calls fit in the run.
        start = index * self.TILES_PER_CALL
        while self.order.size < start + self.TILES_PER_CALL:
            self.order = np.concatenate([self.order, self.draws.permutation(self.POOL)])
        picks = self.order[start : start + self.TILES_PER_CALL]
        self._pending = picks
        masks = self.masks[picks]
        return self.pipeline.execute(self.pipeline.plan(masks), masks)

    def observe(self, index: int, output) -> tuple[bool, float, int]:
        outputs = output.outputs[:, 0]
        if not np.all(np.isfinite(outputs)):
            return False, 0.0, 1
        for pick, out in zip(self._pending, outputs):
            if self.first[pick] is None:
                self.first[pick] = out.copy()
            elif not np.array_equal(self.first[pick], out):
                self.problems.append(f"tile {pick}: repeated input gave a different output")
            self.seen[pick] += 1
        return True, _um2(outputs.size, LOW_RES_NM), 1

    def quality(self) -> tuple[float, float]:
        """Over the distinct tiles predicted (repeats are bit-identical)."""
        picks = np.flatnonzero(self.seen)
        miou = float(np.mean([mean_iou(self.first[i], self.golden[i]) for i in picks]))
        errors = np.concatenate(
            [_epe_diffs(self.first[i], self.golden[i], self.layouts[i], LOW_RES_NM) for i in picks]
        )
        return miou, float(errors.mean())

    def config(self) -> ExecutionConfig:
        return self.pipeline.config

    def graph(self):
        return _model_graph(self.pipeline)

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()


class FullChip(Workload):
    name = "fullchip-lt"
    MIOU_FLOOR = 0.85
    pipeline = None
    cycle = 8
    CANVAS = 512
    CANVAS_SEED = 2019
    #: (height, width, row offset, column offset) of the on-grid crops, on
    #: the 64 px cell grid the canvas was generated on, so the via grid sits
    #: where it sat in the training tiles.  ``None`` marks an off-grid call.
    DECK = (
        (192, 192, 0, 0),
        (192, 320, 320, 0),
        None,
        (448, 256, 64, 192),
        (256, 192, 64, 320),
        (320, 192, 192, 192),
        None,
        (384, 192, 128, 0),
    )
    OFF_GRID_SIDES = (160, 224, 288, 352, 416, 480)

    def pinned(self) -> dict:
        return {
            "compile": True,
            "backend": "float64",
            "tile_size": NATIVE_TILE,
            "num_workers": 2,
            "optical_diameter_pixels": _golden(LOW_RES_NM).optical_diameter_pixels,
            "result_cache": False,
        }

    def prepare(self, seed: int) -> None:
        rules = dataclasses.replace(rules_for("ispd2019"), tile_size=NATIVE_TILE * LOW_RES_NM)
        cells = self.CANVAS // NATIVE_TILE
        canvas = generate_large_layout(
            rules, np.random.default_rng(self.CANVAS_SEED), scale=cells, density_scale=DENSITY * 1.2
        )
        rng = np.random.default_rng([seed, 3])
        canvas_mask = _mask_of(canvas, LOW_RES_NM, self.CANVAS)
        crops = [
            crop if crop else (*(int(side) for side in rng.choice(self.OFF_GRID_SIDES, 2)), 0, 0)
            for crop in self.DECK
        ]
        simulator = _golden(LOW_RES_NM)
        self.deck = []
        for h, w, r0, c0 in crops:
            window = Rect(c0 * LOW_RES_NM, r0 * LOW_RES_NM, (c0 + w) * LOW_RES_NM, (r0 + h) * LOW_RES_NM)
            mask = np.ascontiguousarray(canvas_mask[r0 : r0 + h, c0 : c0 + w])
            self.deck.append(
                {
                    "shape": (h, w),
                    "mask": mask,
                    "layout": canvas.clipped(window),
                    "golden": simulator.resist_image(mask),
                }
            )
        # One serial reference of every deck mask (None where the engine refuses).
        model = _load_doinn(self.root, "ispd2019")
        serial = ExecutionConfig(**self.pinned()).merged(num_workers=0)
        with InferencePipeline(model, config=serial) as reference:
            for entry in self.deck:
                mask = entry["mask"]
                try:
                    entry["serial"] = reference.execute(reference.plan(mask), mask).outputs
                except ValueError:
                    entry["serial"] = None
        self.succeeded = np.zeros(len(self.deck), dtype=np.int64)
        self.stats = {}

    def setup(self) -> None:
        model = _load_doinn(self.root, "ispd2019")
        self.pipeline = InferencePipeline(model, config=ExecutionConfig(**self.pinned()))
        warm = next(e["mask"] for e in self.deck if e["serial"] is not None)
        self.pipeline.execute(self.pipeline.plan(warm), warm)

    def warm(self) -> None:
        for entry in self.deck:
            if entry["serial"] is not None:
                mask = entry["mask"]
                self.pipeline.execute(self.pipeline.plan(mask), mask)

    def call(self, index: int):
        mask = self.deck[index % self.cycle]["mask"]
        return self.pipeline.execute(self.pipeline.plan(mask), mask)

    def observe(self, index: int, output) -> tuple[bool, float, int]:
        slot = index % self.cycle
        entry = self.deck[slot]
        self.stats[index] = output.stats
        if entry["serial"] is None:
            self.problems.append(f"{entry['shape']}: pooled run succeeded where serial refused")
        elif not np.array_equal(entry["serial"], output.outputs):
            self.problems.append(f"{entry['shape']}: pooled output differs from serial")
        if output.stats.degraded_runs:
            self.problems.append(f"{entry['shape']}: pooled dispatch degraded to in-process")
        if not np.all(np.isfinite(output.outputs)):
            return False, 0.0, 1
        self.succeeded[slot] += 1
        h, w = entry["shape"]
        return True, _um2(h * w, LOW_RES_NM), 1

    def observe_failure(self, index: int) -> None:
        entry = self.deck[index % self.cycle]
        if entry["serial"] is not None:
            self.problems.append(f"{entry['shape']}: pooled run raised where serial succeeded")

    def quality(self) -> tuple[float, float]:
        """Over the distinct masks predicted (pooled == serial is checked per call)."""
        done = [e for e, seen in zip(self.deck, self.succeeded) if seen and e["serial"] is not None]
        miou = float(np.mean([mean_iou(e["serial"][0, 0], e["golden"]) for e in done]))
        errors = np.concatenate(
            [_epe_diffs(e["serial"][0, 0], e["golden"], e["layout"], LOW_RES_NM) for e in done]
        )
        return miou, float(errors.mean())

    def config(self) -> ExecutionConfig:
        return self.pipeline.config

    def graph(self):
        return _model_graph(self.pipeline)

    def layer_counters(self, indices) -> dict:
        stats = [self.stats[i] for i in indices if i in self.stats]
        return {
            f"supervision.{key}": sum(getattr(s, key) for s in stats) / len(indices)
            for key in ("chunks_retried", "workers_respawned", "degraded_runs")
        }

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()


class OPCIncremental(Workload):
    name = "opc-incremental"
    MIOU_FLOOR = 0.75
    engine = None
    SETUP_REPEATS = 3
    PIXEL_NM = 8.0
    SIZE_NM = 4096.0
    LAYOUTS = 3
    cycle = LAYOUTS

    def pinned(self) -> dict:
        return {"num_workers": 0, "incremental": True, "result_cache": False}

    def _engine(self, **overrides) -> OPCEngine:
        execution = ExecutionConfig(**self.pinned()).merged(**overrides)
        config = OPCConfig(iterations=24, freeze_after=2, execution=execution)
        return OPCEngine(_golden(self.PIXEL_NM), config)

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        rules = rules_for("ispd2019")
        self.layouts = [
            generate_layout(rules, rng, tile_size=self.SIZE_NM, density_scale=DENSITY * 1.2)
            for _ in range(self.LAYOUTS + 1)
        ]
        self.warm_layout = self.layouts.pop()
        with self._engine(incremental=False) as full:
            self.reference = full.correct(self.layouts[0])
        self.first = {}      # layout slot -> first OPCResult
        self.counters = {}   # call index -> IncrementalCounters

    def setup(self) -> None:
        self.engine = self._engine()
        self.engine.correct(self.warm_layout)

    def call(self, index: int):
        return self.engine.correct(self.layouts[index % self.LAYOUTS])

    def observe(self, index: int, output) -> tuple[bool, float, int]:
        if index % self.LAYOUTS == 0:
            ref = self.reference
            same = np.array_equal(ref.final_mask, output.final_mask) and len(
                ref.epe_history
            ) == len(output.epe_history)
            same = same and all(
                np.array_equal(a.values, b.values) and a.frozen_fragments == b.frozen_fragments
                for a, b in zip(ref.epe_history, output.epe_history)
            )
            if not same:
                self.problems.append("incremental correction differs from the full reference")
        if not np.all(np.isfinite(output.final_mask)):
            return False, 0.0, output.iterations
        slot = index % self.LAYOUTS
        first = self.first.setdefault(slot, output)
        if not np.array_equal(first.final_mask, output.final_mask):
            self.problems.append(f"layout {slot}: repeated correction gave a different mask")
        self.counters[index] = output.counters
        return True, self.SIZE_NM**2 * 1e-6, output.iterations

    def quality(self) -> tuple[float, float]:
        """Final masks re-simulated by the golden simulator, per distinct layout.

        miou compares the print with the drawn target; the EPE is measured at
        every fragment of the drawn target, frozen or not.
        """
        simulator = self.engine.simulator
        ious, errors = [], []
        for slot, result in self.first.items():
            printed = simulator.resist_image(result.final_mask)
            ious.append(mean_iou(printed, result.target))
            shapes = fragment_layout(self.layouts[slot], self.PIXEL_NM, MAX_FRAGMENT)
            stats = measure_layout_epe(printed, shapes, self.PIXEL_NM, EPE_SEARCH)
            errors.append(np.abs(stats.values) * self.PIXEL_NM)
        return float(np.mean(ious)), float(np.concatenate(errors).mean())

    def config(self) -> ExecutionConfig:
        return self.engine.pipeline.config

    def layer_counters(self, indices) -> dict:
        keys = ("tiles_simulated", "tiles_skipped", "full_refreshes", "patched_calls", "clean_calls")
        counters = [self.counters[i] for i in indices if i in self.counters]
        totals = {key: sum(getattr(c, key) for c in counters) for key in keys}
        side = int(self.SIZE_NM / self.PIXEL_NM)
        windows = self.engine.pipeline.incremental_state((side, side)).n_tiles
        visits = totals["tiles_simulated"] + totals["tiles_skipped"] + totals["full_refreshes"] * windows
        out = {f"cache.{key}": value / len(indices) for key, value in totals.items()}
        out["cache.skip_ratio"] = totals["tiles_skipped"] / visits if visits else 0.0
        return out

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


WORKLOADS = {cls.name: cls for cls in (TileStream, FullChip, OPCIncremental)}
