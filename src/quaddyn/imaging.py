"""Deterministic raster output: binary portable pixmaps plus simple palettes.

Images are assembled as uint8 arrays of shape (height, width, 3) and
serialized as P6.  Nothing here is precision-sensitive; rendering choices
(palette, scale) are cosmetic and frozen so repeated runs byte-match.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .dynamics import BORDERLINE, FAR, NEAR
from .errors import InvariantError

_PALETTE = {
    FAR: (245, 245, 245),
    NEAR: (24, 32, 96),
    BORDERLINE: (252, 180, 60),
}


def ppm_bytes(rgb: np.ndarray) -> bytes:
    """Serialize an rgb uint8 array as a binary P6 pixmap."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise InvariantError("expected an array of shape (h, w, 3)")
    data = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w = data.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + data.tobytes()


def classification_image(cells: np.ndarray) -> np.ndarray:
    """Map a renderer cell grid to colors, upper rows first.

    Expects rows indexed by imaginary part increasing upward (the renderer
    convention), so the output is flipped into image order.
    """
    rgb = np.zeros(cells.shape + (3,), dtype=np.uint8)
    for value, color in _PALETTE.items():
        rgb[cells == value] = color
    return rgb[::-1]


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


def domain_image(dom, depth: int, resolution: int = 384) -> np.ndarray:
    """Raster the carved-square domain on [-1.2, 1.2]^2 by exact membership.

    Pixel centers are exact rationals, so the picture reflects the true
    depth-limited classification; undecided pixels get the borderline color.
    """
    from .combdomain import PointLocation, in_domain

    if resolution < 16:
        raise InvariantError("resolution too small")
    span = Fraction(12, 5)
    lo = -span / 2
    cells = np.zeros((resolution, resolution), dtype=np.int8)
    codes = {
        PointLocation.INSIDE: FAR,
        PointLocation.OUTSIDE: NEAR,
        PointLocation.UNDECIDED: BORDERLINE,
    }
    for iy in range(resolution):
        y = lo + span * Fraction(2 * iy + 1, 2 * resolution)
        for ix in range(resolution):
            x = lo + span * Fraction(2 * ix + 1, 2 * resolution)
            cells[iy, ix] = codes[in_domain(dom, depth, (x, y))]
    return classification_image(cells)
