import math
from fractions import Fraction

import numpy as np
import pytest

from quaddyn.cantor import CircleInterval, _cover_arcs, cover
from quaddyn.cfrac import CFExpansion, parse_cf_text
from quaddyn.combdomain import OmegaDomain, toy_sequences
from quaddyn.dynamics import BORDERLINE, FAR, NEAR
from quaddyn.errors import InvariantError
from quaddyn.imaging import (
    MAX_DOMAIN_RES,
    classification_image,
    cover_strip_image,
    cover_strip_ppm,
    domain_image,
    domain_ppm,
    ppm_bytes,
)


def test_ppm_header_and_payload():
    rgb = np.zeros((2, 3, 3), dtype=np.uint8)
    data = ppm_bytes(rgb)
    assert data.startswith(b"P6\n3 2\n255\n")
    assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


def test_ppm_rejects_wrong_shape():
    with pytest.raises(InvariantError):
        ppm_bytes(np.zeros((4, 4), dtype=np.uint8))


def test_classification_image_flips_rows():
    cells = np.array([[FAR, NEAR], [BORDERLINE, FAR]], dtype=np.int8)
    rgb = classification_image(cells)
    assert rgb.shape == (2, 2, 3)
    # Bottom data row must land on the last image row.
    assert tuple(rgb[1, 0]) == tuple(classification_image(cells[:1])[0, 0])


def _masked_ppm(cells):
    """The former image path, kept as the oracle: one mask per palette
    color into a zeroed array, a flipped view, and header + tobytes()."""
    colors = {FAR: (245, 245, 245), NEAR: (24, 32, 96), BORDERLINE: (252, 180, 60)}
    rgb = np.zeros(cells.shape + (3,), dtype=np.uint8)
    for value, color in colors.items():
        rgb[cells == value] = color
    data = np.ascontiguousarray(rgb[::-1])
    return b"P6\n%d %d\n255\n" % (cells.shape[1], cells.shape[0]) + data.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (2, 7), (10, 10), (33, 5), (640, 640)])
def test_classification_ppm_matches_masked_oracle(shape):
    cells = np.random.default_rng(shape[0]).integers(0, 3, size=shape).astype(np.int8)
    assert ppm_bytes(classification_image(cells)) == _masked_ppm(cells)


def test_cover_strip_marks_arcs():
    rgb = cover_strip_image([(0, 1)], 4)  # the arc [0, 1/4]
    assert rgb.shape == (36, 720, 3)
    left = rgb[18, 18]
    right = rgb[18, 630]
    assert not np.array_equal(left, right)


def _oracle_cover_strip(arcs):
    """The former numpy strip, kept as the oracle: a bool row of touched
    columns, then an rgb fill of the whole strip."""
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


@pytest.mark.parametrize(
    "cf",
    [CFExpansion((), (1,)), CFExpansion((), (2,)), parse_cf_text("1,2:rep=3"),
     parse_cf_text("3:rep=1,2")],
    ids=["golden", "silver", "1,2:rep=3", "3:rep=1,2"],
)
def test_cover_strip_matches_oracle(cf):
    for depth in range(21):
        want = ppm_bytes(_oracle_cover_strip(cover(cf, depth).arcs))
        assert cover_strip_ppm(*_cover_arcs(cf, depth)) == want, depth


def test_cover_strip_wrapping_arc_matches_oracle():
    # one arc past 1 and one whose start rounds to the float 1.0
    for arcs in (
        [CircleInterval(Fraction(9, 10), Fraction(13, 10))],
        [CircleInterval(Fraction(2**60 - 1, 2**60), Fraction(2**60 + 5, 2**60))],
    ):
        one = math.lcm(*(x.denominator for arc in arcs for x in (arc.lo, arc.hi)))
        numerators = [(int(arc.lo * one), int(arc.hi * one)) for arc in arcs]
        assert cover_strip_ppm(numerators, one) == ppm_bytes(_oracle_cover_strip(arcs))


def test_array_images_are_read_only_views_of_their_bytes():
    arcs, one = _cover_arcs(CFExpansion((), (1,)), 6)
    dom = OmegaDomain(*toy_sequences())
    for rgb, data in (
        (cover_strip_image(arcs, one), cover_strip_ppm(arcs, one)),
        (domain_image(dom, 3, 40), domain_ppm(dom, 3, 40)),
    ):
        assert not rgb.flags.writeable
        assert ppm_bytes(rgb) == data
        with pytest.raises(ValueError):
            rgb[0, 0, 0] = 0


def test_domain_image_deterministic():
    dom = OmegaDomain(*toy_sequences())
    a = domain_image(dom, 2, resolution=48)
    b = domain_image(dom, 2, resolution=48)
    assert a.shape == (48, 48, 3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("res", [15, MAX_DOMAIN_RES + 1, 200000])
def test_domain_image_resolution_bounds(res):
    with pytest.raises(InvariantError, match="resolution must lie in 16.."):
        domain_image(OmegaDomain(*toy_sequences()), 2, resolution=res)
