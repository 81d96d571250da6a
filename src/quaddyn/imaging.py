"""Deterministic raster output: binary portable pixmaps plus simple palettes.

Images are assembled as uint8 arrays of shape (height, width, 3) and
serialized as P6.  Nothing here is precision-sensitive; rendering choices
(palette, scale) are cosmetic and frozen so repeated runs byte-match.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

from .dynamics import BORDERLINE, FAR, NEAR
from .errors import InvariantError

# row v is the color of cell value v
_PALETTE = np.zeros((3, 3), dtype=np.uint8)
_PALETTE[FAR] = (245, 245, 245)
_PALETTE[NEAR] = (24, 32, 96)
_PALETTE[BORDERLINE] = (252, 180, 60)


def ppm_bytes(rgb: np.ndarray) -> bytes:
    """Serialize an rgb uint8 array as a binary P6 pixmap."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise InvariantError("expected an array of shape (h, w, 3)")
    data = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w = data.shape[:2]
    # one copy: join reads the array's buffer directly
    return b"".join((b"P6\n%d %d\n255\n" % (w, h), data))


def classification_image(cells: np.ndarray) -> np.ndarray:
    """Map a renderer cell grid to colors, upper rows first.

    Expects rows indexed by imaginary part increasing upward (the renderer
    convention), so the output is flipped into image order.
    """
    return _PALETTE[cells[::-1]]


def cover_strip_image(arcs) -> np.ndarray:
    """Render circle arcs as dark bands on a 720x36 horizontal [0,1) strip."""
    width, height = 720, 36
    row = np.zeros(width, dtype=bool)
    for arc in arcs:
        lo = float(arc.lo % 1)
        hi = lo + float(arc.width)
        first = int(np.floor(lo * width))
        last = int(np.ceil(hi * width))
        for idx in range(first, last + 1):
            row[idx % width] = True
    rgb = np.full((height, width, 3), 245, dtype=np.uint8)
    rgb[:, row] = (24, 32, 96)
    return rgb


# largest domain_image side; omega at this size takes 1.2 s and 257 MB of
# peak RSS on a 2-vCPU Xeon (13 bytes per pixel: the rgb array and its copies)
MAX_DOMAIN_RES = 4096


def domain_image(dom, depth: int, resolution: int = 384) -> np.ndarray:
    """Raster the carved-square domain on [-1.2, 1.2]^2 by exact membership.

    Pixel centers are exact rationals, so the picture reflects the true
    depth-limited classification; undecided pixels get the borderline color.
    Each row is filled run by run from its point location; a run's last
    column is found by bisecting the sorted centers at the run's end.
    """
    from .combdomain import PointLocation, _runs

    if not 16 <= resolution <= MAX_DOMAIN_RES:
        raise InvariantError(f"resolution must lie in 16..{MAX_DOMAIN_RES}")
    step = Fraction(12, 5 * resolution)
    centers = [(i + Fraction(1, 2)) * step - Fraction(6, 5) for i in range(resolution)]
    codes = {
        PointLocation.INSIDE: FAR,
        PointLocation.OUTSIDE: NEAR,
        PointLocation.UNDECIDED: BORDERLINE,
    }
    cells = np.empty((resolution, resolution), dtype=np.int8)
    for iy, y in enumerate(centers):
        start = 0
        for end, closed, location in _runs(dom, depth, y):
            stop = (bisect_right if closed else bisect_left)(centers, end)
            cells[iy, start:stop] = codes[location]
            start = stop
    return classification_image(cells)
