"""Backend-parametrized pipeline equivalence (PR 8 tentpole).

One suite, every lane, every execution plan.  The per-lane contracts:

* ``float64`` — the default; converting to it is a no-op numerically, so
  every plan is *bit*-identical to the unconverted compiled pipeline.
* ``float32`` — folded weights narrowed at compile time; equivalence to the
  float64 pipeline holds at the calibrated lane tolerance.  Still computed
  per sample, so it keeps partition invariance (pooled == serial, bitwise).
* ``blas`` — micro-batch GEMMs stacked into one threaded BLAS call.  The
  stacking reassociates the reduction, so this lane is tolerance-equal to
  float64 and deliberately NOT partition invariant: pooled-vs-serial pins
  are ``allclose``, never ``array_equal``.
* ``fft`` — FFT-domain large-kernel deconvolution, float64, computed per
  sample: tolerance-equal to the default lane and partition invariant.

Whatever the lane, the executor hands float64 back to the stitching layer,
so pipeline outputs are always float64.

This file intentionally never reads ``REPRO_BACKEND`` implicitly: every
pipeline pins its lane explicitly, so the suite passes unchanged under the
CI backend matrix.  Env resolution itself is tested with monkeypatch below.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
import pytest

from repro.litho import LithoSimulator
from repro.nn import compile_model
from repro.nn import backends
from repro.nn.backends import (
    BACKEND_ENV,
    BLAS_THREADS_ENV,
    available_backends,
    get_backend,
    get_blas_threads,
    resolve_backend,
    set_blas_threads,
)
from repro.pipeline import (
    ExecutionConfig,
    InferencePipeline,
    ModelExecutor,
    WorkerPoolExecutor,
    as_executor,
)
from repro.pipeline.executors import Executor

LANES = ["float64", "float32", "blas", "fft"]

#: max |delta| vs the float64 compiled pipeline; resist outputs live in
#: [0, 1], so absolute bounds are meaningful.  float32 is calibrated from
#: the pinned reference run (measured ~3e-7 native, ~3e-7 stitched); blas
#: and fft only reassociate float64 summations (measured ~3e-15).
LANE_ATOL = {"float64": 0.0, "float32": 2.0e-5, "blas": 1.0e-12, "fft": 1.0e-12}

#: Lanes whose pooled/sharded plans are bit-identical to serial.
PARTITION_INVARIANT = {"float64", "float32", "fft"}


@pytest.fixture(scope="module")
def model(tiny_model_factory):
    return tiny_model_factory("doinn")


def _random_masks(n: int, size: int, seed: int = 17) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) > 0.8).astype(float)


def _assert_lane_close(actual, expected, lane, err_msg=""):
    if LANE_ATOL[lane] == 0.0:
        np.testing.assert_array_equal(actual, expected, err_msg=err_msg)
    else:
        np.testing.assert_allclose(
            actual, expected, rtol=0, atol=LANE_ATOL[lane], err_msg=err_msg
        )


# --------------------------------------------------------------------- #
# Registry and resolution
# --------------------------------------------------------------------- #
def test_registry_exposes_the_four_lanes():
    assert set(LANES) <= set(available_backends())
    assert get_backend("blas").stacked_gemm and not get_backend("blas").fft_deconv
    assert get_backend("fft").fft_deconv and not get_backend("fft").stacked_gemm
    assert get_backend("float32").dtype == np.dtype(np.float32)


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend().name == "float64"
    monkeypatch.setenv(BACKEND_ENV, "fft")
    assert resolve_backend().name == "fft"
    assert resolve_backend("blas").name == "blas"  # explicit beats env
    monkeypatch.setenv(BACKEND_ENV, "quantum")
    with pytest.raises(ValueError, match=BACKEND_ENV):
        resolve_backend()


def test_pipeline_resolves_backend_from_env(model, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "float32")
    pipeline = InferencePipeline(model, config=ExecutionConfig(compile=True))
    assert pipeline.backend is not None and pipeline.backend.name == "float32"
    # Explicit argument wins over the environment.
    pinned = InferencePipeline(model, config=ExecutionConfig(compile=True, backend="fft"))
    assert pinned.backend.name == "fft"
    # Uncompiled pipelines ignore the env lane (no fused path to convert).
    assert InferencePipeline(model).backend.name == "float64"


def test_preconverted_graph_lane_wins_over_env(model, monkeypatch):
    """A graph already converted to a lane keeps it: the env var must not
    silently re-convert an engine the caller prepared deliberately."""
    graph = compile_model(model, backend="fft")
    monkeypatch.setenv(BACKEND_ENV, "float32")
    executor = ModelExecutor(graph)
    assert executor.backend.name == "fft"


# --------------------------------------------------------------------- #
# Error contracts
# --------------------------------------------------------------------- #
def test_backend_requires_compiled_path(model):
    with pytest.raises(ValueError, match="compile=True"):
        ModelExecutor(model, backend="float32")
    with pytest.raises(ValueError, match="compile=True"):
        InferencePipeline(model, config=ExecutionConfig(backend="float32"))
    # The default lane is the uncompiled path's native behaviour: allowed.
    assert ModelExecutor(model, backend="float64").backend.name == "float64"


def test_backend_rejects_simulator_engines():
    simulator = LithoSimulator(pixel_size=16.0, num_kernels=6, kernel_support=31)
    with pytest.raises(ValueError, match="golden simulator"):
        as_executor(simulator, backend="float32")
    with pytest.raises(ValueError, match="golden simulator"):
        InferencePipeline(simulator, config=ExecutionConfig(backend="float32"))


# --------------------------------------------------------------------- #
# Native and stitched plans, zoo-wide
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("lane", LANES)
def test_backend_native_plan_matches_float64(zoo_model, lane):
    name, model = zoo_model
    masks = _random_masks(4, 32)
    reference = InferencePipeline(
        model,
        config=ExecutionConfig(batch_size=2, compile=True, backend="float64"),
    )
    pipeline = InferencePipeline(
        model,
        config=ExecutionConfig(batch_size=2, compile=True, backend=lane),
    )
    assert pipeline.backend.name == lane
    out = pipeline.predict(masks)
    assert out.dtype == np.float64  # the executor boundary re-widens every lane
    _assert_lane_close(out, reference.predict(masks), lane, err_msg=f"{name}/{lane}")


@pytest.mark.parametrize("lane", LANES)
def test_backend_stitched_plan_matches_float64(model, lane):
    masks = _random_masks(2, 64, seed=5)
    base = ExecutionConfig(tile_size=32, batch_size=4, optical_diameter_pixels=8, compile=True)
    reference = InferencePipeline(model, config=base.merged(backend="float64"))
    pipeline = InferencePipeline(model, config=base.merged(backend=lane))
    assert pipeline.run(masks).stats.mode == "stitched"
    _assert_lane_close(
        pipeline.predict(masks, stitch=True),
        reference.predict(masks, stitch=True),
        lane,
        err_msg=f"stitched/{lane}",
    )


# --------------------------------------------------------------------- #
# Worker pool and sharded stitching per lane
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("lane", LANES)
def test_backend_pooled_matches_serial(model, lane):
    masks = _random_masks(6, 32, seed=13)
    serial = InferencePipeline(
        model,
        config=ExecutionConfig(batch_size=2, compile=True, backend=lane),
    )
    reference = serial.predict(masks)
    with InferencePipeline(
        model,
        config=ExecutionConfig(batch_size=2, num_workers=2, compile=True, backend=lane),
    ) as pooled:
        assert pooled.backend.name == lane
        out = pooled.predict(masks)
    if lane in PARTITION_INVARIANT:
        np.testing.assert_array_equal(out, reference, err_msg=lane)
    else:
        # blas stacks per-dispatch micro-batches: shard boundaries change the
        # GEMM shapes, so pooled results are tolerance-equal, not bitwise.
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12, err_msg=lane)


@pytest.mark.parametrize("lane", LANES)
def test_backend_sharded_stitched_matches_serial(model, lane):
    masks = _random_masks(2, 64, seed=9)
    base = ExecutionConfig(tile_size=32, batch_size=4, optical_diameter_pixels=8, compile=True)
    serial = InferencePipeline(model, config=base.merged(backend=lane))
    reference = serial.predict(masks, stitch=True)
    with InferencePipeline(model, config=base.merged(num_workers=2, backend=lane)) as pooled:
        out = pooled.predict(masks, stitch=True)
    if lane in PARTITION_INVARIANT:
        np.testing.assert_array_equal(out, reference, err_msg=lane)
    else:
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12, err_msg=lane)


# --------------------------------------------------------------------- #
# Incremental (patched) plan per lane
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("lane", LANES)
def test_backend_patched_plan_matches_stitched(model, lane):
    pipeline = InferencePipeline(
        model,
        config=ExecutionConfig(
            tile_size=32, batch_size=8, optical_diameter_pixels=8, compile=True, backend=lane
        ),
    )
    state = pipeline.incremental_state((64, 64))
    assert state.mode == "gp"
    mask = _random_masks(1, 64)[0]
    for step in range(3):
        patched = pipeline.predict_patched(mask, state)
        stitched = pipeline.predict(mask, stitch=True)
        if lane in PARTITION_INVARIANT:
            np.testing.assert_array_equal(patched, stitched, err_msg=f"{lane}/{step}")
        else:
            # Patching re-runs GP on the dirty subset only: smaller stacked
            # GEMMs, different rounding — tolerance-equal within the lane.
            np.testing.assert_allclose(
                patched, stitched, rtol=0, atol=1e-12, err_msg=f"{lane}/{step}"
            )
        mask = mask.copy()
        mask[2 * step, 3 * step] = 1.0 - mask[2 * step, 3 * step]
    assert state.counters.patched_calls >= 1


# --------------------------------------------------------------------- #
# BLAS thread cap (its precedence rows live in tests/pipeline/test_config.py)
# --------------------------------------------------------------------- #
_NUMPY_LIBS = os.path.realpath(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs"))
_NUMPY_OPENBLAS = sorted(glob.glob(os.path.join(_NUMPY_LIBS, "*openblas*")))
needs_numpy_openblas = pytest.mark.skipif(
    not _NUMPY_OPENBLAS, reason="numpy does not bundle OpenBLAS under numpy.libs"
)


def _numpy_blas_threads() -> int:
    """Thread count of numpy's own OpenBLAS, read without the shim."""
    lib = ctypes.CDLL(_NUMPY_OPENBLAS[0])
    getter = backends._find_symbol(lib, backends._GET_SYMBOLS)
    getter.restype = ctypes.c_int
    return int(getter())


class _BlasThreadProbe(Executor):
    """Reports numpy's BLAS thread count in the process that runs it."""

    name = "blas-thread-probe"

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        return np.full((batch.shape[0], 1), float(_numpy_blas_threads()))


@needs_numpy_openblas
def test_blas_shim_binds_numpys_openblas():
    import scipy.linalg  # noqa: F401  maps scipy's own OpenBLAS copy too

    lib = backends._blas_library()
    assert lib is not None
    assert os.path.dirname(os.path.realpath(lib._name)) == _NUMPY_LIBS


def _resolved_blas_threads(blas_threads=None, num_workers=0) -> int:
    config = ExecutionConfig(num_workers=num_workers, blas_threads=blas_threads)
    return config.resolve().blas_threads


def test_resolve_blas_threads_precedence(monkeypatch):
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    assert _resolved_blas_threads(None, num_workers=0) == 0   # serial: hands off
    assert _resolved_blas_threads(None, num_workers=4) == 1   # pooled: 1/worker
    assert _resolved_blas_threads(2, num_workers=4) == 2      # explicit wins
    monkeypatch.setenv(BLAS_THREADS_ENV, "3")
    assert _resolved_blas_threads(None, num_workers=4) == 3
    assert _resolved_blas_threads(1, num_workers=4) == 1
    monkeypatch.setenv(BLAS_THREADS_ENV, "many")
    with pytest.raises(ValueError, match=BLAS_THREADS_ENV):
        _resolved_blas_threads(None, num_workers=0)


def test_parallel_config_carries_blas_threads(monkeypatch):
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    assert _resolved_blas_threads(num_workers=2) == 1
    assert _resolved_blas_threads(num_workers=0) == 0
    assert _resolved_blas_threads(2, num_workers=2) == 2
    with pytest.raises(ValueError, match="blas_threads"):
        _resolved_blas_threads(-1)


@needs_numpy_openblas
def test_pooled_worker_reports_the_blas_cap(monkeypatch):
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    before = get_blas_threads()
    set_blas_threads(3)
    try:
        assert _numpy_blas_threads() == 3  # the shim reaches numpy's library
        for cap in (1, 2):
            config = ExecutionConfig(num_workers=2, blas_threads=cap)
            with WorkerPoolExecutor(_BlasThreadProbe(), config=config) as executor:
                seen = executor.run_batch(np.zeros((5, 1, 4, 4)))
            # Item 0 is the in-process spec probe; the rest ran in workers.
            assert seen[0, 0] == 3  # the parent keeps its own setting
            assert set(seen[1:, 0]) == {cap}
    finally:
        set_blas_threads(before)


def test_pooled_pipeline_caps_worker_blas_threads(model, monkeypatch):
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    with InferencePipeline(
        model,
        config=ExecutionConfig(num_workers=2, compile=True, backend="blas"),
    ) as pooled:
        assert pooled.executor.blas_threads == 1
        # The capped pool still computes the right answer.
        masks = _random_masks(2, 32)
        serial = InferencePipeline(model, config=ExecutionConfig(compile=True, backend="blas"))
        np.testing.assert_allclose(
            pooled.predict(masks), serial.predict(masks), rtol=0, atol=1e-12
        )
