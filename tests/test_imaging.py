from fractions import Fraction

import numpy as np
import pytest

from quaddyn.cantor import CircleInterval
from quaddyn.combdomain import OmegaDomain, toy_sequences
from quaddyn.dynamics import BORDERLINE, FAR, NEAR
from quaddyn.errors import InvariantError
from quaddyn.imaging import (
    MAX_DOMAIN_RES,
    classification_image,
    cover_strip_image,
    domain_image,
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
    arcs = [CircleInterval(Fraction(0), Fraction(1, 4))]
    rgb = cover_strip_image(arcs)
    assert rgb.shape == (36, 720, 3)
    left = rgb[18, 18]
    right = rgb[18, 630]
    assert not np.array_equal(left, right)


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
