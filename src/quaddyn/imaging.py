"""Deterministic raster output: binary portable pixmaps plus simple palettes.

The exact images are P6 bytes joined from runs of one colour, and the
renderer's cells map to an rgb uint8 array for ppm_bytes.  The colours are
cosmetic and frozen, so repeated runs byte-match.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import InvariantError

# the colours of the renderer's FAR, NEAR and BORDERLINE cells
_LIGHT, _DARK, _AMBER = bytes((245, 245, 245)), bytes((24, 32, 96)), bytes((252, 180, 60))
_HEADER = b"P6\n%d %d\n255\n"  # % (width, height)


def _rgb_view(ppm: bytes, width: int, height: int):
    """Read-only (height, width, 3) uint8 view of a P6 pixmap's pixels."""
    import numpy as np

    return np.frombuffer(ppm, dtype=np.uint8)[-3 * width * height :].reshape(height, width, 3)


def ppm_bytes(rgb) -> bytes:
    """Serialize an rgb uint8 array as a binary P6 pixmap."""
    import numpy as np

    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise InvariantError("expected an array of shape (h, w, 3)")
    data = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w = data.shape[:2]
    # one copy: join reads the array's buffer directly
    return b"".join((_HEADER % (w, h), data))


def classification_image(cells):
    """Map a renderer cell grid, whose rows go up in imaginary part, to
    colors in image order, upper rows first."""
    import numpy as np

    from .dynamics import BORDERLINE, FAR, NEAR

    palette = np.empty((3, 3), dtype=np.uint8)  # row v is the color of cell value v
    palette[[FAR, NEAR, BORDERLINE]] = [list(_LIGHT), list(_DARK), list(_AMBER)]
    return palette[cells[::-1]]


def cover_strip_ppm(arcs, one: int) -> bytes:
    """Circle arcs [lo/one, hi/one], given as integer numerator pairs, as dark
    bands on a 720x36 horizontal [0,1) strip, as P6.

    Integer true division rounds correctly, so a/one is the float that
    float(Fraction(a, one)) gives.
    """
    width, height = 720, 36
    row = bytearray(_LIGHT * width)
    for lo, hi in arcs:
        start = lo % one / one
        stop = start + (hi - lo) / one
        for idx in range(math.floor(start * width), math.ceil(stop * width) + 1):
            col = 3 * (idx % width)
            row[col : col + 3] = _DARK
    return _HEADER % (width, height) + bytes(row) * height


def cover_strip_image(arcs, one: int):
    """cover_strip_ppm as a read-only (36, 720, 3) uint8 array."""
    return _rgb_view(cover_strip_ppm(arcs, one), 720, 36)


# largest domain_ppm side; its cost is in the README's ceiling table
MAX_DOMAIN_RES = 4096


def domain_ppm(dom, depth: int, resolution: int = 384) -> bytes:
    """Raster the carved-square domain on [-1.2, 1.2]^2 by exact membership.

    Pixel centers are exact rationals, so the picture reflects the true
    depth-limited classification; undecided pixels get the borderline color.
    Each row joins its runs of one colour, each ended by bisecting the sorted
    centers, and rows with equal runs share one bytes object.  Rows are
    located bottom up, so an error names the lowest slab that fails.
    """
    from .combdomain import PointLocation, _runs

    if not 16 <= resolution <= MAX_DOMAIN_RES:
        raise InvariantError(f"resolution must lie in 16..{MAX_DOMAIN_RES}")
    step = Fraction(12, 5 * resolution)
    centers = [(i + Fraction(1, 2)) * step - Fraction(6, 5) for i in range(resolution)]
    colors = dict(zip(PointLocation, (_LIGHT, _DARK, _AMBER)))  # inside, outside, undecided
    rows, shared = [], {}
    for y in centers:
        runs = tuple(_runs(dom, depth, y))
        if runs not in shared:
            start, parts = 0, []
            for end, closed, location in runs:
                stop = (bisect_right if closed else bisect_left)(centers, end)
                parts.append(colors[location] * (stop - start))
                start = stop
            shared[runs] = b"".join(parts)
        rows.append(shared[runs])
    return b"".join([_HEADER % (resolution, resolution), *reversed(rows)])


def domain_image(dom, depth: int, resolution: int = 384):
    """domain_ppm as a read-only (resolution, resolution, 3) uint8 array."""
    return _rgb_view(domain_ppm(dom, depth, resolution), resolution, resolution)
