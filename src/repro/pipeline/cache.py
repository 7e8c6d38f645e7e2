"""Content-hash caches for exact-repeat reuse and incremental re-simulation.

Two caching layers make OPC iteration cost proportional to the *perturbed*
area instead of the mask area:

* :class:`MaskResultCache` — a bounded (byte-budget) LRU in front of
  :meth:`repro.pipeline.InferencePipeline.run`, keyed by the content hash of
  each input mask *plus the pipeline's compute identity* (engine name,
  compute-backend lane and lane dtype — see :mod:`repro.nn.backends`), so a
  cache shared between, say, a ``float32``-lane pipeline and a ``float64``
  one can never serve an entry produced under a different numeric contract.
  Exact repeats — dataset rebuilds, convergence re-checks, the final
  ``build_mask`` after an OPC loop, the Figure 8 golden snapshot sims — are
  answered from the cache without touching the executor.  Off by default;
  enable per pipeline (``ExecutionConfig(result_cache=True)`` / a byte
  budget) or fleet-wide with ``REPRO_RESULT_CACHE``.
* :class:`IncrementalState` — the dirty-tile ledger of the patched
  re-simulation plan (:meth:`~repro.pipeline.InferencePipeline.predict_patched`).
  The mask is viewed through the half-overlapping :class:`~repro.layout.tiling.TileSpec`
  grid of paper §3.2; per-tile content hashes identify which tile windows
  changed since the previous call, only those windows are re-simulated, and
  their *ownership regions* (the disjoint partition of the image induced by
  the scan-order core stitch of :func:`~repro.layout.tiling.stitch_cores`)
  are written back into a cached full-image map.

Exactness of the patched plan
-----------------------------
The golden simulator's aerial image is a linear convolution with kernels of
finite support ``s`` (:mod:`repro.litho.hopkins` zero-pads every FFT to
``next_fast_len(n + s - 1)``), so an output pixel depends only on mask pixels
within the influence radius ``r = (s - 1) // 2``.  A tile window of size ``T``
therefore reproduces the whole-mask aerial exactly on its core region more
than ``r`` pixels from any interior window edge.  With the core margin fixed
at ``T // 4`` (the largest value for which the half-overlapping grid's cores
partition the image) and ``T >= 4r``, patching the dirty windows' ownership
regions is *exact* up to floating-point summation order; the resist threshold
comparison is pointwise, so patched resist images match whole-mask
re-simulation (pinned by the equivalence suites in
``tests/pipeline/test_cache.py`` / ``tests/opc/test_incremental.py``).

For model engines the patched plan re-runs global perception on the dirty
tile windows only and splices their pooled cores into a cached stitched GP
map — the same tiles, margin and ownership the stitched plan would use — then
runs the translation-invariant reconstruction on the full mask, so the result
is bit-identical to ``predict(stitch=True)`` by construction.

Hybrid cost model
-----------------
Windowed FFTs are smaller but there are many of them: re-simulating all nine
windows of a 128 px mask costs ~3x one whole-mask FFT.  ``IncrementalState``
therefore carries per-call cost estimates and the pipeline falls back to one
native whole-image refresh whenever the dirty set is large (or on the first
call), so the incremental plan is never materially slower than the plain one.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..layout.tiling import TileSpec

__all__ = [
    "RESULT_CACHE_ENV",
    "DEFAULT_CACHE_BUDGET_BYTES",
    "MaskResultCache",
    "IncrementalCounters",
    "IncrementalState",
    "choose_patch_tile",
    "hash_array",
    "ownership_slices",
]

#: Environment leg of ``ExecutionConfig.result_cache``: off / on / an integer
#: byte budget (parsed in :mod:`repro.pipeline.config`).
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"

#: Byte budget used when the cache is enabled without an explicit size.
DEFAULT_CACHE_BUDGET_BYTES = 256 * 1024 * 1024


def hash_array(array: np.ndarray) -> bytes:
    """Content hash of an array (shape + dtype + bytes, C-order)."""
    array = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((array.shape, array.dtype.str)).encode())
    digest.update(array)
    return digest.digest()


class MaskResultCache:
    """Bounded content-hash -> prediction LRU with a byte-size budget.

    Values are stored (and returned) as copies, so cached results can never
    alias arrays the caller mutates.  Inserting a value larger than the whole
    budget is a silent no-op rather than an eviction storm.
    """

    def __init__(self, budget_bytes: int = DEFAULT_CACHE_BUDGET_BYTES) -> None:
        if budget_bytes <= 0:
            raise ValueError("MaskResultCache needs a positive byte budget")
        self.budget_bytes = int(budget_bytes)
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes currently held by cached values."""
        return self._nbytes

    def get(self, key: bytes) -> np.ndarray | None:
        """Look a key up (counting hit/miss) and refresh its LRU position."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value.copy()

    def put(self, key: bytes, value: np.ndarray) -> None:
        """Insert a value, evicting least-recently-used entries over budget."""
        nbytes = value.nbytes
        if nbytes > self.budget_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._nbytes -= old.nbytes
        self._entries[key] = value.copy()
        self._nbytes += nbytes
        while self._nbytes > self.budget_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._nbytes -= evicted.nbytes

    def clear(self) -> None:
        self._entries.clear()
        self._nbytes = 0


@dataclass
class IncrementalCounters:
    """Work ledger of an incremental re-simulation session."""

    full_refreshes: int = 0       # native whole-image simulations (incl. first call)
    patched_calls: int = 0        # calls served by dirty-window patching
    clean_calls: int = 0          # calls where no tile changed (develop-only)
    tiles_simulated: int = 0      # tile windows actually re-simulated
    tiles_skipped: int = 0        # tile windows skipped as clean on patched calls

    def tile_equivalents(self, n_tiles: int) -> int:
        """Total work in units of tile simulations (full refresh = ``n_tiles``)."""
        return self.tiles_simulated + self.full_refreshes * n_tiles


def choose_patch_tile(image_size: int, influence_radius: int) -> int:
    """Smallest patch window ``T`` with exactly-partitioning cores.

    A window's core margin is ``T // 4`` (the largest margin for which the
    half-overlapping grid's cores tile the image under the scan-order
    semantics of :func:`~repro.layout.tiling.stitch_cores`); exact windowed
    convolution needs that margin to cover the optical influence radius, so
    ``T >= 4 * influence_radius``.  ``T`` must also divide the image size and
    be even (half-overlap stride).  When no proper divisor qualifies, the
    whole image is one window — the patched plan then degenerates to
    skip-if-unchanged, which is still exact.
    """
    for size in range(max(4 * influence_radius, 2), image_size):
        if size % 2 == 0 and image_size % size == 0:
            return size
    return image_size


def ownership_slices(
    specs: list[TileSpec], shape: tuple[int, int], margin: int
) -> list[tuple[tuple[slice, slice], tuple[slice, slice]]]:
    """Disjoint per-tile ownership regions equal to the scan-order core stitch.

    Returns ``(tile_local, output)`` slice pairs such that writing
    ``output[out] = tile[local]`` for *any subset* of tiles yields exactly the
    pixels :func:`~repro.layout.tiling.stitch_cores` would assign to those
    tiles.  ``stitch_cores`` writes cores in scan order (later tiles win), and
    its core boundaries are separable per axis, so ownership along each axis
    is: the first tile owns from the image border, every tile owns up to
    ``stride + margin`` into itself (where the next tile's core takes over),
    and the last tile owns to the opposite border.  This partition matches the
    scan-order overwrite exactly iff ``margin <= size // 4``, which the
    callers guarantee (:func:`choose_patch_tile`).
    """
    h, w = shape
    if not specs:
        return []
    size = specs[0].size
    if margin > size // 4 and len(specs) > 1:
        raise ValueError(
            f"ownership regions need margin <= tile_size // 4 "
            f"(got margin {margin} for tile size {size})"
        )
    n_rows = max(s.row for s in specs) + 1
    n_cols = max(s.col for s in specs) + 1
    stride = size // 2

    def axis_own(index: int, count: int) -> tuple[int, int]:
        lo = 0 if index == 0 else margin
        hi = size if index == count - 1 else stride + margin
        return lo, hi

    out: list[tuple[tuple[slice, slice], tuple[slice, slice]]] = []
    for spec in specs:
        y_lo, y_hi = axis_own(spec.row, n_rows)
        x_lo, x_hi = axis_own(spec.col, n_cols)
        local = (slice(y_lo, y_hi), slice(x_lo, x_hi))
        output = (
            slice(spec.y0 + y_lo, spec.y0 + y_hi),
            slice(spec.x0 + x_lo, spec.x0 + x_hi),
        )
        out.append((local, output))
    return out


def _fft_cost(size: int, support: int) -> float:
    """Relative cost of one zero-padded 2-D FFT convolution at this size."""
    n = size + support - 1
    return float(n * n) * max(np.log2(n), 1.0)


@dataclass
class IncrementalState:
    """Dirty-tile ledger + cached full-image map for patched re-simulation.

    Built by :meth:`repro.pipeline.InferencePipeline.incremental_state` and
    threaded through successive :meth:`~repro.pipeline.InferencePipeline.predict_patched`
    calls.  ``mode`` is ``"aerial"`` (simulator engines: the cached map is the
    full-image aerial intensity) or ``"gp"`` (stitchable models: the cached
    map is the stitched pooled global-perception features).
    """

    mode: str
    shape: tuple[int, int]
    tile_size: int
    specs: list[TileSpec]
    margin: int                           # core margin at the cached-map resolution
    pool: int = 1                         # map resolution divisor (1 for aerial)
    support: int = 1                      # kernel support (aerial cost model)
    hashes: list[bytes] | None = None
    cached_map: np.ndarray | None = None
    counters: IncrementalCounters = field(default_factory=IncrementalCounters)
    last_stats: object | None = None      # PipelineStats of the latest patched call
    _pending: dict[int, bytes] = field(default_factory=dict, repr=False)

    @property
    def n_tiles(self) -> int:
        return len(self.specs)

    def pooled_specs(self) -> list[TileSpec]:
        pool = self.pool
        return [
            TileSpec(row=s.row, col=s.col, y0=s.y0 // pool, x0=s.x0 // pool, size=s.size // pool)
            for s in self.specs
        ]

    def ownership(self) -> list[tuple[tuple[slice, slice], tuple[slice, slice]]]:
        h, w = self.shape
        return ownership_slices(self.pooled_specs(), (h // self.pool, w // self.pool), self.margin)

    def window_hashes(self, mask: np.ndarray, indices: list[int]) -> list[bytes]:
        """Content hashes of the given tile windows of ``mask``."""
        t = self.tile_size
        return [
            hash_array(mask[s.y0 : s.y0 + t, s.x0 : s.x0 + t])
            for s in (self.specs[i] for i in indices)
        ]

    def dirty_windows(self, mask: np.ndarray, candidates: list[int] | None) -> list[int]:
        """Tile indices whose window content changed since the last call.

        ``candidates`` (from the fragment->tile index) bounds the windows that
        need re-hashing; windows outside it are trusted to be unchanged.
        ``None`` checks every window; with no recorded hashes yet, every
        window is dirty.  The fresh hashes are kept for :meth:`record`, so
        each window is hashed at most once per call.
        """
        self._pending = {}
        if self.hashes is None:
            return list(range(self.n_tiles))
        indices = sorted(set(candidates)) if candidates is not None else list(range(self.n_tiles))
        fresh = self.window_hashes(mask, indices)
        self._pending = dict(zip(indices, fresh))
        return [i for i, digest in zip(indices, fresh) if digest != self.hashes[i]]

    def prefer_native(self, dirty_count: int) -> bool:
        """Hybrid cost model: is a native whole-image refresh cheaper?

        Only meaningful for ``"aerial"`` mode, where the native path is one
        big zero-padded FFT and the patched path is ``dirty_count`` small
        ones.  The GP patched plan has no native equivalent of the stitched
        result, so it always patches.
        """
        if self.mode != "aerial" or self.n_tiles == 1:
            return dirty_count >= self.n_tiles
        native = _fft_cost(max(self.shape), self.support)
        window = _fft_cost(self.tile_size, self.support)
        return dirty_count * window >= native

    def record(self, mask: np.ndarray, dirty: list[int] | None = None) -> None:
        """Update the per-tile hash ledger after simulating ``mask``.

        Reuses the hashes :meth:`dirty_windows` already computed this call
        (``_pending``); windows that were never candidates kept their content,
        so their stored hashes are still valid.  Only the very first call —
        no ledger yet — hashes every window.
        """
        if self.hashes is None:
            self.hashes = self.window_hashes(mask, list(range(self.n_tiles)))
        else:
            updates = self._pending if dirty is None else {i: self._pending[i] for i in dirty}
            for i, digest in updates.items():
                self.hashes[i] = digest
        self._pending = {}
