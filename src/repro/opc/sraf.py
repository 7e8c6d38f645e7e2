"""Rule-based sub-resolution assist feature (SRAF) insertion.

SRAFs are narrow bars placed next to isolated feature edges.  They are below
the resolution limit, so they do not print themselves, but they change the
diffraction environment of the main feature and improve its process window.
The paper's benchmark masks contain SRAFs (DAMO splits them into a dedicated
colour channel); this module adds them with simple distance rules so the
synthetic datasets exercise the same mask content.
"""

from __future__ import annotations

import math

from ..layout.geometry import Layout, Rect

__all__ = ["insert_srafs", "sraf_rects_pixels"]

#: Edge length (nm) of the uniform grid buckets the clearance check indexes
#: shapes and accepted bars by: a few via pitches, so a query touches a
#: handful of buckets holding a handful of rectangles each.
_GRID_CELL_NM = 256.0


class _RectGrid:
    """Uniform grid bucket index of rectangles for intersection queries.

    Every rectangle is filed under each cell its closed extent touches.  Two
    intersecting rectangles share an interior point, whose cell lies in both
    extents, so :meth:`intersects_any` scans a superset of the intersecting
    rectangles and returns exactly what an all-pairs scan would.
    """

    def __init__(self, rects=()) -> None:
        self._cells: dict[tuple[int, int], list[Rect]] = {}
        for rect in rects:
            self.add(rect)

    @staticmethod
    def _cells_of(rect: Rect):
        cx0, cx1 = math.floor(rect.x0 / _GRID_CELL_NM), math.floor(rect.x1 / _GRID_CELL_NM)
        cy0, cy1 = math.floor(rect.y0 / _GRID_CELL_NM), math.floor(rect.y1 / _GRID_CELL_NM)
        return [(cx, cy) for cx in range(cx0, cx1 + 1) for cy in range(cy0, cy1 + 1)]

    def add(self, rect: Rect) -> None:
        for cell in self._cells_of(rect):
            self._cells.setdefault(cell, []).append(rect)

    def intersects_any(self, rect: Rect) -> bool:
        for cell in self._cells_of(rect):
            if any(rect.intersects(other) for other in self._cells.get(cell, ())):
                return True
        return False


def insert_srafs(
    layout: Layout,
    sraf_width: float = 24.0,
    sraf_distance: float = 90.0,
    sraf_length_margin: float = 10.0,
    min_clearance: float = 40.0,
) -> list[Rect]:
    """Compute SRAF bars for a layout (in layout/nm coordinates).

    A bar is placed parallel to each edge of each shape at ``sraf_distance``
    from the edge, provided the bar does not come closer than
    ``min_clearance`` to any other shape and stays inside the layout bounds.
    Bars are also kept ``min_clearance`` apart from each other; the check
    runs against a grid bucket index of the shapes and accepted bars, so it
    costs per candidate what the neighbourhood holds, not the whole layout.
    """
    srafs: list[Rect] = []
    occupied = _RectGrid(layout.shapes)
    for rect in layout.shapes:
        length_x = rect.width - 2.0 * sraf_length_margin
        length_y = rect.height - 2.0 * sraf_length_margin
        candidates = []
        if length_x > sraf_width:
            x0 = rect.x0 + sraf_length_margin
            x1 = rect.x1 - sraf_length_margin
            candidates.append(Rect(x0, rect.y0 - sraf_distance - sraf_width, x1, rect.y0 - sraf_distance))
            candidates.append(Rect(x0, rect.y1 + sraf_distance, x1, rect.y1 + sraf_distance + sraf_width))
        if length_y > sraf_width:
            y0 = rect.y0 + sraf_length_margin
            y1 = rect.y1 - sraf_length_margin
            candidates.append(Rect(rect.x0 - sraf_distance - sraf_width, y0, rect.x0 - sraf_distance, y1))
            candidates.append(Rect(rect.x1 + sraf_distance, y0, rect.x1 + sraf_distance + sraf_width, y1))

        for candidate in candidates:
            if not layout.bounds.contains_rect(candidate):
                continue
            if occupied.intersects_any(candidate.expanded(min_clearance)):
                continue
            srafs.append(candidate)
            occupied.add(candidate)
    return srafs


def sraf_rects_pixels(srafs: list[Rect], pixel_size: float) -> list[tuple[int, int, int, int]]:
    """Convert SRAF rectangles to integer pixel boxes (row0, col0, row1, col1)."""
    boxes = []
    for rect in srafs:
        col0 = int(round(rect.x0 / pixel_size))
        col1 = max(col0 + 1, int(round(rect.x1 / pixel_size)))
        row0 = int(round(rect.y0 / pixel_size))
        row1 = max(row0 + 1, int(round(rect.y1 / pixel_size)))
        boxes.append((row0, col0, row1, col1))
    return boxes
