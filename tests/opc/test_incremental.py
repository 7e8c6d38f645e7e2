"""Equivalence suite for incremental OPC re-simulation.

The central invariant: the incremental loop (dirty-tile tracking + patched
aerial re-simulation + fragment->tile candidate index) is an *execution plan*,
not a different algorithm — ``correct()`` with ``incremental=True`` must
produce the same ``final_mask``, the same EPE trajectory and the same mask
history as the always-full-simulation loop, bit for bit, across layouts,
SRAF settings and fragment freezing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout import ISPD2019_RULES, Layout, Rect, generate_layout, generate_via_layout
from repro.layout.tiling import tile_grid
from repro.litho import LithoSimulator
from repro.opc import (
    FragmentTileIndex,
    OPCConfig,
    OPCEngine,
    build_mask,
    fragment_footprint,
    fragment_layout,
)
from repro.pipeline import INCREMENTAL_ENV, ExecutionConfig


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=8.0, num_kernels=10, kernel_support=31)


def via_layout(seed: int = 3, size_nm: float = 1024.0) -> Layout:
    return generate_via_layout(
        ISPD2019_RULES, np.random.default_rng(seed), tile_size=size_nm, density_scale=1.5
    )


def assert_runs_equal(incremental, full):
    assert np.array_equal(incremental.final_mask, full.final_mask)
    assert np.array_equal(incremental.target, full.target)
    assert incremental.mask_history == full.mask_history
    assert len(incremental.epe_history) == len(full.epe_history)
    for mine, theirs in zip(incremental.epe_history, full.epe_history):
        assert np.array_equal(mine.values, theirs.values)
        assert mine.frozen_fragments == theirs.frozen_fragments


def opc_config(incremental: bool, **kwargs) -> OPCConfig:
    return OPCConfig(execution=ExecutionConfig(incremental=incremental), **kwargs)


def correct_both(simulator, layout_seed: int, **config_kwargs):
    results = []
    for incremental in (True, False):
        engine = OPCEngine(simulator, opc_config(incremental, **config_kwargs))
        results.append(engine.correct(via_layout(layout_seed)))
    return results


# --------------------------------------------------------------------- #
# Incremental == full, bit for bit
# --------------------------------------------------------------------- #
def test_incremental_matches_full(simulator):
    inc, full = correct_both(simulator, layout_seed=3, iterations=8)
    assert_runs_equal(inc, full)
    assert full.counters is None and full.dirty_history == []
    assert inc.counters is not None


def test_incremental_matches_full_with_freezing(simulator):
    inc, full = correct_both(
        simulator, layout_seed=3, iterations=10, freeze_after=2
    )
    assert_runs_equal(inc, full)
    assert inc.epe_history[-1].frozen_fragments > 0


def test_incremental_matches_full_without_srafs(simulator):
    inc, full = correct_both(simulator, layout_seed=5, iterations=6, use_srafs=False)
    assert_runs_equal(inc, full)


def test_incremental_single_tile_image(simulator):
    """64 px images have no valid sub-window: degenerate skip-if-unchanged."""
    for incremental in (True, False):
        engine = OPCEngine(simulator, opc_config(incremental, iterations=4))
        result = engine.correct(via_layout(seed=7, size_nm=512.0))
        if incremental:
            inc = result
            assert inc.counters.tiles_skipped == 0 or inc.counters.clean_calls > 0
        else:
            full = result
    assert_runs_equal(inc, full)


# --------------------------------------------------------------------- #
# Work ledger
# --------------------------------------------------------------------- #
def test_counters_account_for_every_iteration(simulator):
    iterations = 8
    engine = OPCEngine(simulator, opc_config(True, iterations=iterations))
    result = engine.correct(via_layout(3))
    counters = result.counters
    assert (
        counters.full_refreshes + counters.patched_calls + counters.clean_calls
        == iterations
    )
    assert len(result.dirty_history) == iterations
    n_tiles = 9  # 128 px / 64 px half-overlap grid
    assert result.dirty_history[0] == n_tiles  # first call is a full refresh
    assert sum(result.dirty_history) == counters.tile_equivalents(n_tiles)


def test_freezing_collapses_the_dirty_set(simulator):
    """With freeze_after, converged fragments stop dirtying their windows."""
    iterations = 16
    engine = OPCEngine(simulator, opc_config(True, iterations=iterations, freeze_after=2))
    result = engine.correct(via_layout(3))
    n_tiles = 9
    spent = result.counters.tile_equivalents(n_tiles)
    assert spent < iterations * n_tiles
    # The tail of the run costs less than the head.
    head = sum(result.dirty_history[: iterations // 2])
    tail = sum(result.dirty_history[iterations // 2 :])
    assert tail < head


def test_incremental_env_flag_disables(simulator, monkeypatch):
    monkeypatch.setenv(INCREMENTAL_ENV, "0")
    result = OPCEngine(simulator, OPCConfig(iterations=2)).correct(via_layout(3))
    assert result.counters is None and result.dirty_history == []


def test_resolve_incremental_knob(monkeypatch):
    def resolved(incremental=None):
        return ExecutionConfig(incremental=incremental).resolve().incremental

    monkeypatch.delenv(INCREMENTAL_ENV, raising=False)
    assert resolved() is True
    assert resolved(False) is False
    monkeypatch.setenv(INCREMENTAL_ENV, "off")
    assert resolved() is False
    assert resolved(True) is True
    monkeypatch.setenv(INCREMENTAL_ENV, "sometimes")
    with pytest.raises(ValueError):
        resolved()


# --------------------------------------------------------------------- #
# Fragment -> tile candidate index soundness
# --------------------------------------------------------------------- #
def test_fragment_footprint_bounds_every_offset():
    layout = via_layout(3)
    shapes = fragment_layout(layout, pixel_size=8.0)
    image_size = 128
    base = build_mask(shapes, image_size)
    fragment = shapes[0].fragments[0]
    row0, col0, row1, col1 = fragment_footprint(fragment, max_offset=12.0)
    for offset in (-12.0, -3.2, 2.0, 11.7, 12.0):
        fragment.offset = offset
        diff = build_mask(shapes, image_size) != base
        rows, cols = np.nonzero(diff)
        if rows.size:
            assert rows.min() >= row0 and rows.max() < row1
            assert cols.min() >= col0 and cols.max() < col1
    fragment.offset = 0.0


def test_tile_index_candidates_cover_changed_pixels():
    layout = via_layout(3)
    image_size = 128
    shapes = fragment_layout(layout, pixel_size=8.0)
    specs = tile_grid((image_size, image_size), 64)
    index = FragmentTileIndex(shapes, specs, image_size, max_offset=12.0)

    base = build_mask(shapes, image_size)
    moved = []
    rng = np.random.default_rng(17)
    for si in range(min(3, len(shapes))):
        fi = int(rng.integers(len(shapes[si].fragments)))
        shapes[si].fragments[fi].offset = float(rng.integers(-4, 5))
        moved.append((si, fi))
    perturbed = build_mask(shapes, image_size)

    candidates = index.tiles_for(moved)
    covered = np.zeros((image_size, image_size), dtype=bool)
    for ti in candidates:
        s = specs[ti]
        covered[s.y0 : s.y0 + s.size, s.x0 : s.x0 + s.size] = True
    diff = base != perturbed
    # Every changed pixel lies inside a candidate window: windows outside the
    # candidate set are safe to trust as unchanged.
    assert np.all(covered[diff])


def _tiles_brute_force(fragment, specs, image_size, max_offset):
    """Reference scan: every spec tested against the clipped footprint."""
    row0, col0, row1, col1 = fragment_footprint(fragment, max_offset)
    row0, col0 = max(row0, 0), max(col0, 0)
    row1, col1 = min(row1, image_size), min(col1, image_size)
    return tuple(
        ti
        for ti, s in enumerate(specs)
        if row0 < s.y0 + s.size and row1 > s.y0 and col0 < s.x0 + s.size and col1 > s.x0
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tile_size", [64, 128])
def test_tile_index_matches_brute_force_scan(seed, tile_size):
    """On the opc-incremental workload's 512 px via layouts the arithmetic
    row/column window ranges equal a scan over every spec, per fragment."""
    rng = np.random.default_rng([seed, 4])
    layout = generate_layout(ISPD2019_RULES, rng, tile_size=4096.0, density_scale=1.44)
    shapes = fragment_layout(layout, pixel_size=8.0)
    specs = tile_grid((512, 512), tile_size)
    index = FragmentTileIndex(shapes, specs, 512, max_offset=12.0)
    for si, shape in enumerate(shapes):
        for fi, fragment in enumerate(shape.fragments):
            assert index.tiles_for([(si, fi)]) == list(
                _tiles_brute_force(fragment, specs, 512, 12.0)
            )


@pytest.mark.parametrize("tile_size", [16, 32, 64])
@pytest.mark.parametrize("max_offset", [0.0, 3.0, 12.0])
def test_tile_index_matches_brute_force_at_window_edges(tile_size, max_offset):
    """Footprints ending on, just before and just past every window edge
    (rectangles at every pixel phase of the stride, some off the image)."""
    rng = np.random.default_rng(tile_size)
    layout = Layout(bounds=Rect(0, 0, 1024, 1024))
    for _ in range(60):
        row, col = (int(v) for v in rng.integers(-4, 132, size=2))
        layout.add(Rect(8 * col, 8 * row, 8 * (col + int(rng.integers(1, 9))), 8 * (row + 3)))
    shapes = fragment_layout(layout, pixel_size=8.0, max_fragment_length=4)
    specs = tile_grid((128, 128), tile_size)
    index = FragmentTileIndex(shapes, specs, 128, max_offset=max_offset)
    for si, shape in enumerate(shapes):
        for fi, fragment in enumerate(shape.fragments):
            assert index.tiles_for([(si, fi)]) == list(
                _tiles_brute_force(fragment, specs, 128, max_offset)
            )


def test_tile_index_empty_move_set():
    layout = via_layout(3)
    shapes = fragment_layout(layout, pixel_size=8.0)
    specs = tile_grid((128, 128), 64)
    index = FragmentTileIndex(shapes, specs, 128, max_offset=12.0)
    assert index.tiles_for([]) == []
    assert index.tiles_for([(10_000, 0)]) == []  # unknown ids are ignored


# --------------------------------------------------------------------- #
# Freeze semantics
# --------------------------------------------------------------------- #
def test_freezing_shrinks_the_measurement(simulator):
    engine = OPCEngine(simulator, OPCConfig(iterations=12, freeze_after=2))
    result = engine.correct(via_layout(3))
    frozen = [stats.frozen_fragments for stats in result.epe_history]
    assert frozen[0] == 0
    assert frozen[-1] > 0
    assert all(b >= a for a, b in zip(frozen, frozen[1:]))  # freezing is final
    total = frozen[-1] + result.epe_history[-1].values.size
    assert result.epe_history[0].values.size == total  # skipped, not dropped


def test_freeze_off_by_default(simulator):
    result = OPCEngine(simulator, OPCConfig(iterations=4)).correct(via_layout(3))
    assert all(stats.frozen_fragments == 0 for stats in result.epe_history)
