"""Edge fragmentation for edge-based OPC.

Every target rectangle is decomposed into edge *fragments*: sub-segments of
its four edges, each carrying a movable offset (in pixels, positive = outward
from the shape).  The OPC engine measures the edge placement error at each
fragment's control point and moves the fragment to compensate — the classical
edge-based OPC formulation used by the flows that produced the paper's
training data (MOSAIC, Calibre).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..layout.geometry import Layout, Rect
from ..layout.tiling import TileSpec

__all__ = [
    "EdgeFragment",
    "FragmentedShape",
    "FragmentTileIndex",
    "fragment_layout",
    "fragment_footprint",
    "build_mask",
]

# Edge identifiers: which side of the rectangle the fragment belongs to.
LEFT, RIGHT, BOTTOM, TOP = "left", "right", "bottom", "top"


@dataclass
class EdgeFragment:
    """A movable fragment of one rectangle edge (pixel coordinates).

    ``span`` is the (start, end) pixel range along the edge direction;
    ``position`` is the fixed pixel coordinate of the drawn edge;
    ``offset`` is the current OPC correction in pixels (positive = outward).
    """

    side: str
    span: tuple[int, int]
    position: int
    offset: float = 0.0
    last_step: float = 0.0
    #: Converged-and-frozen flag (``OPCConfig.freeze_after``): a frozen
    #: fragment is skipped by EPE measurement and never moves again.
    frozen: bool = False
    #: Consecutive iterations with |EPE| inside the freeze tolerance.
    stable_iters: int = 0

    @property
    def control_point(self) -> tuple[int, int]:
        """(row, col) of the control point at the fragment midpoint on the drawn edge."""
        mid = (self.span[0] + self.span[1]) // 2
        if self.side in (LEFT, RIGHT):
            return (mid, self.position)
        return (self.position, mid)

    @property
    def outward_normal(self) -> tuple[int, int]:
        """(drow, dcol) unit step pointing out of the shape."""
        return {
            LEFT: (0, -1),
            RIGHT: (0, 1),
            BOTTOM: (-1, 0),
            TOP: (1, 0),
        }[self.side]


@dataclass
class FragmentedShape:
    """A target rectangle together with its movable edge fragments."""

    rect_pixels: tuple[int, int, int, int]   # (row0, col0, row1, col1), exclusive end
    fragments: list[EdgeFragment] = field(default_factory=list)


def _fragment_spans(start: int, end: int, max_length: int) -> list[tuple[int, int]]:
    """Split ``[start, end)`` into spans no longer than ``max_length``."""
    length = end - start
    if length <= 0:
        return []
    n = max(1, int(np.ceil(length / max_length)))
    edges = np.linspace(start, end, n + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def fragment_layout(
    layout: Layout, pixel_size: float, max_fragment_length: int = 32
) -> list[FragmentedShape]:
    """Fragment every rectangle of a layout into movable edges (pixel space)."""
    shapes: list[FragmentedShape] = []
    for rect in layout.shapes:
        col0 = int(round(rect.x0 / pixel_size))
        col1 = int(round(rect.x1 / pixel_size))
        row0 = int(round(rect.y0 / pixel_size))
        row1 = int(round(rect.y1 / pixel_size))
        if col1 <= col0 or row1 <= row0:
            continue
        fragments: list[EdgeFragment] = []
        for span in _fragment_spans(row0, row1, max_fragment_length):
            fragments.append(EdgeFragment(LEFT, span, col0))
            fragments.append(EdgeFragment(RIGHT, span, col1 - 1))
        for span in _fragment_spans(col0, col1, max_fragment_length):
            fragments.append(EdgeFragment(BOTTOM, span, row0))
            fragments.append(EdgeFragment(TOP, span, row1 - 1))
        shapes.append(FragmentedShape((row0, col0, row1, col1), fragments))
    return shapes


def fragment_footprint(
    fragment: EdgeFragment, max_offset: float
) -> tuple[int, int, int, int]:
    """Conservative pixel bound of everything a fragment can ever paint.

    Returns ``(row0, col0, row1, col1)`` (exclusive ends, unclipped): the
    fragment's span along its edge crossed with ``position +- reach`` across
    it, where ``reach`` covers the largest grow/trim strip any legal offset
    (``|offset| <= max_offset``) can produce in :func:`build_mask`.  Static
    per fragment — offsets move the painted strip only *within* this bound,
    which is what makes the fragment->tile index buildable once per OPC run.
    """
    reach = math.ceil(max_offset) + 1
    lo, hi = fragment.span
    if fragment.side in (LEFT, RIGHT):
        return (lo, fragment.position - reach, hi, fragment.position + reach + 1)
    return (fragment.position - reach, lo, fragment.position + reach + 1, hi)


class FragmentTileIndex:
    """Static fragment -> tile-window index for dirty-tile candidates.

    Maps every ``(shape_index, fragment_index)`` to the tile windows of the
    half-overlapping grid its :func:`fragment_footprint` intersects.  After an
    OPC move step, the union over the *moved* fragments is a sound candidate
    set for the dirty windows: a pixel outside every moved fragment's
    footprint is painted identically by :func:`build_mask`, so windows
    outside the union cannot have changed.  The engine still content-hashes
    the candidates, so an over-approximation costs hashing, never correctness.

    ``specs`` is the row-major half-overlapping grid of
    :func:`~repro.layout.tiling.tile_grid` (stride ``size // 2``), so the
    windows a footprint meets are a row range times a column range computed
    arithmetically, not by scanning every spec per fragment.
    """

    def __init__(
        self,
        shapes: list[FragmentedShape],
        specs: list[TileSpec],
        image_size: int,
        max_offset: float,
    ) -> None:
        self._tiles: dict[tuple[int, int], tuple[int, ...]] = {}
        size = specs[0].size
        stride = size // 2
        n_rows, n_cols = specs[-1].row + 1, specs[-1].col + 1
        if len(specs) != n_rows * n_cols:
            raise ValueError("FragmentTileIndex needs the full row-major tile_grid")

        def window_range(lo: int, hi: int, count: int) -> range:
            # Windows k with k*stride < hi and k*stride + size > lo.
            return range(max((lo - size) // stride + 1, 0), min((hi - 1) // stride + 1, count))

        for si, shape in enumerate(shapes):
            for fi, fragment in enumerate(shape.fragments):
                row0, col0, row1, col1 = fragment_footprint(fragment, max_offset)
                row0, col0 = max(row0, 0), max(col0, 0)
                row1, col1 = min(row1, image_size), min(col1, image_size)
                cols = window_range(col0, col1, n_cols)
                self._tiles[(si, fi)] = tuple(
                    r * n_cols + c for r in window_range(row0, row1, n_rows) for c in cols
                )

    def tiles_for(self, moved: list[tuple[int, int]]) -> list[int]:
        """Sorted union of candidate tile indices for the moved fragments."""
        out: set[int] = set()
        for key in moved:
            out.update(self._tiles.get(key, ()))
        return sorted(out)


def build_mask(
    shapes: list[FragmentedShape],
    image_size: int,
    extra_rects: list[tuple[int, int, int, int]] | None = None,
) -> np.ndarray:
    """Rasterize fragmented shapes (with their current offsets) into a mask image.

    The drawn rectangle is filled first; each fragment then grows (positive
    offset) or trims (negative offset) a strip along its edge span.
    ``extra_rects`` (row0, col0, row1, col1) are painted afterwards — used for
    SRAF bars, which are not OPC-corrected.
    """
    mask = np.zeros((image_size, image_size), dtype=np.float64)
    for shape in shapes:
        row0, col0, row1, col1 = shape.rect_pixels
        mask[max(row0, 0) : min(row1, image_size), max(col0, 0) : min(col1, image_size)] = 1.0

    # Apply fragment growth, then trims (trims win where they overlap growth of
    # the same shape, matching how OPC biases are resolved on manufacturing grids).
    for grow in (True, False):
        for shape in shapes:
            row0, col0, row1, col1 = shape.rect_pixels
            for fragment in shape.fragments:
                offset = int(round(fragment.offset))
                if offset == 0 or (offset > 0) != grow:
                    continue
                lo, hi = fragment.span
                lo, hi = max(lo, 0), min(hi, image_size)
                if hi <= lo:
                    continue
                value = 1.0 if grow else 0.0
                magnitude = abs(offset)
                if fragment.side == LEFT:
                    a = col0 - magnitude if grow else col0
                    b = col0 if grow else col0 + magnitude
                    mask[lo:hi, max(a, 0) : min(b, image_size)] = value
                elif fragment.side == RIGHT:
                    a = col1 if grow else col1 - magnitude
                    b = col1 + magnitude if grow else col1
                    mask[lo:hi, max(a, 0) : min(b, image_size)] = value
                elif fragment.side == BOTTOM:
                    a = row0 - magnitude if grow else row0
                    b = row0 if grow else row0 + magnitude
                    mask[max(a, 0) : min(b, image_size), lo:hi] = value
                elif fragment.side == TOP:
                    a = row1 if grow else row1 - magnitude
                    b = row1 + magnitude if grow else row1
                    mask[max(a, 0) : min(b, image_size), lo:hi] = value

    if extra_rects:
        for row0, col0, row1, col1 in extra_rects:
            mask[max(row0, 0) : min(row1, image_size), max(col0, 0) : min(col1, image_size)] = 1.0
    return mask
