import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spwood.errors import InvalidInputError
from spwood.geometry import (
    Gaussian2D,
    HorizontalBox,
    OrientedBox,
    bhattacharyya,
    box_corners,
    box_rows,
    flip_box,
    gwd_squared,
    hbox_of,
    normalize_angle,
    rbox_to_gaussian,
    rotate_box,
    rotation_matrix,
)

finite = st.floats(-1e3, 1e3, allow_nan=False)
extent = st.floats(0.1, 200.0, allow_nan=False)
angle = st.floats(-10.0, 10.0, allow_nan=False)

boxes = st.builds(OrientedBox, cx=finite, cy=finite, w=extent, h=extent, theta=angle)


def numeric_bhattacharyya(a: Gaussian2D, b: Gaussian2D, half_width=10.0, step=0.02):
    """Independent oracle: -ln of the grid-integrated overlap coefficient."""
    grid = np.arange(-half_width, half_width, step)
    xs, ys = np.meshgrid(grid, grid)
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)

    def pdf(g):
        inv = np.linalg.inv(g.cov)
        d = pts - g.mean
        quad = np.einsum("ni,ij,nj->n", d, inv, d)
        norm = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(g.cov)))
        return norm * np.exp(-0.5 * quad)

    coefficient = np.sum(np.sqrt(pdf(a) * pdf(b))) * step * step
    return -math.log(coefficient)


def test_angle_normalization_range():
    for theta in (0.0, 1.2, math.pi / 2, -math.pi / 2, 3.5, -9.1):
        n = normalize_angle(theta)
        assert -math.pi / 2 <= n < math.pi / 2
        # same oriented line: difference is a multiple of pi
        assert abs((theta - n) % math.pi) < 1e-9 or abs((theta - n) % math.pi - math.pi) < 1e-9


def test_rbox_to_gaussian_axis_aligned_square():
    g = rbox_to_gaussian(OrientedBox(0, 0, 2, 2, 0))
    assert np.allclose(g.mean, [0, 0])
    assert np.allclose(g.cov, np.eye(2))


def test_rbox_to_gaussian_diagonal():
    g = rbox_to_gaussian(OrientedBox(0, 0, 4, 2, 0))
    assert np.allclose(g.cov, np.diag([4.0, 1.0]))


def test_rbox_to_gaussian_quarter_turn_swaps_axes():
    g = rbox_to_gaussian(OrientedBox(0, 0, 4, 2, math.pi / 2))
    assert np.allclose(g.cov, np.diag([1.0, 4.0]), atol=1e-12)


def test_degenerate_box_rejected():
    with pytest.raises(InvalidInputError):
        OrientedBox(0, 0, 0.0, 2, 0)
    with pytest.raises(InvalidInputError):
        OrientedBox(0, 0, 2, -1.0, 0)


@given(boxes)
def test_gaussian_covariance_spd(box):
    g = rbox_to_gaussian(box)
    assert np.allclose(g.cov, g.cov.T)
    assert np.linalg.eigvalsh(g.cov).min() > -1e-9


def test_bhattacharyya_identical_is_zero():
    a = rbox_to_gaussian(OrientedBox(3, -1, 4, 2, 0.7))
    assert bhattacharyya(a, a) == pytest.approx(0.0, abs=1e-12)


def test_bhattacharyya_translated_unit():
    a = Gaussian2D([0, 0], np.eye(2))
    b = Gaussian2D([2, 0], np.eye(2))
    assert bhattacharyya(a, b) == pytest.approx(0.5, abs=1e-12)


def test_bhattacharyya_isotropic_scale_matches_integration():
    a = Gaussian2D([0, 0], np.eye(2))
    b = Gaussian2D([0, 0], 4.0 * np.eye(2))
    value = bhattacharyya(a, b)
    # closed form: both axes contribute (1/2) ln(2.5 / 2)
    assert value == pytest.approx(math.log(1.25), abs=1e-12)
    assert value == pytest.approx(numeric_bhattacharyya(a, b), abs=1e-4)


@given(boxes, boxes)
@example(OrientedBox(0, 0, 200, 0.1, 0.3), OrientedBox(5, 1, 150, 0.2, 0.31))
@settings(max_examples=50)
def test_bhattacharyya_symmetric(b1, b2):
    a, b = rbox_to_gaussian(b1), rbox_to_gaussian(b2)
    assert bhattacharyya(a, b) == bhattacharyya(b, a)


def test_bhattacharyya_floors_near_singular_covariance():
    thin = Gaussian2D([0, 0], np.diag([4.0, 1e-20]))
    floored = Gaussian2D([0, 0], np.diag([4.0, 1e-12]))
    other = Gaussian2D([1, 0.5], np.diag([1.0, 2.0]))
    assert bhattacharyya(thin, other) == pytest.approx(bhattacharyya(floored, other), rel=1e-12)


def test_gwd_identical_is_zero():
    a = rbox_to_gaussian(OrientedBox(1, 2, 3, 4, 0.3))
    assert gwd_squared(a, a) == pytest.approx(0.0, abs=1e-9)


def test_gwd_diagonal_scale():
    a = Gaussian2D([0, 0], np.diag([1.0, 1.0]))
    b = Gaussian2D([0, 0], np.diag([4.0, 1.0]))
    assert gwd_squared(a, b) == pytest.approx(1.0, abs=1e-9)


def test_gwd_pure_translation():
    a = Gaussian2D([0, 0], np.diag([2.0, 3.0]))
    b = Gaussian2D([3, 4], np.diag([2.0, 3.0]))
    assert gwd_squared(a, b) == pytest.approx(25.0, abs=1e-9)


@given(boxes, boxes)
@settings(max_examples=50)
def test_gwd_symmetric_and_separating(b1, b2):
    a, b = rbox_to_gaussian(b1), rbox_to_gaussian(b2)
    d_ab, d_ba = gwd_squared(a, b), gwd_squared(b, a)
    assert d_ab == pytest.approx(d_ba, abs=1e-9 * max(1.0, d_ab))
    same = np.allclose(a.mean, b.mean, atol=1e-12) and np.allclose(
        a.cov, b.cov, atol=1e-12
    )
    if not same and (
        np.abs(a.mean - b.mean).max() > 1e-3 or np.abs(a.cov - b.cov).max() > 1e-3
    ):
        assert d_ab > 0.0


def test_gwd_exactly_symmetric_on_thin_boxes():
    # thin boxes make the square-root terms cancellation-prone
    a = rbox_to_gaussian(OrientedBox(0, 0, 77, 0.125, 0.25))
    b = rbox_to_gaussian(OrientedBox(0, 0, 78, 0.125, 3.5))
    assert gwd_squared(a, b) == gwd_squared(b, a)


def test_flip_examples():
    assert flip_box(OrientedBox(0, 0, 2, 1, 0.0), 100).theta == 0.0
    assert flip_box(OrientedBox(0, 0, 2, 1, 0.3), 100).theta == pytest.approx(-0.3)
    assert flip_box(OrientedBox(5, 10, 2, 1, 0.0), 100).cy == pytest.approx(90.0)


@given(boxes, st.floats(10.0, 500.0))
def test_flip_is_involution(box, height):
    back = flip_box(flip_box(box, height), height)
    assert back.cx == pytest.approx(box.cx)
    assert back.cy == pytest.approx(box.cy, abs=1e-9)
    assert back.theta == pytest.approx(box.theta, abs=1e-9)


def test_rotate_examples():
    box = OrientedBox(1, 0, 2, 1, 0.0)
    assert rotate_box(box, 0.0, (0, 0)) == box
    assert rotate_box(box, math.pi / 4, (1, 0)).theta == pytest.approx(math.pi / 4)
    turned = rotate_box(box, math.pi / 2, (0, 0))
    assert (turned.cx, turned.cy) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))


@given(boxes, st.floats(-3.0, 3.0), st.tuples(finite, finite))
@settings(max_examples=50)
def test_rotate_inverse(box, r, center):
    back = rotate_box(rotate_box(box, r, center), -r, center)
    assert back.cx == pytest.approx(box.cx, abs=1e-6)
    assert back.cy == pytest.approx(box.cy, abs=1e-6)
    assert back.theta == pytest.approx(box.theta, abs=1e-9)


@given(boxes, st.floats(-3.0, 3.0))
@settings(max_examples=50)
def test_gaussian_rotation_equivariance(box, r):
    rotated = rotate_box(box, r, (0.0, 0.0))
    rot = rotation_matrix(r)
    expected = rot @ rbox_to_gaussian(box).cov @ rot.T
    assert np.allclose(rbox_to_gaussian(rotated).cov, expected, atol=1e-9)


def test_hbox_examples():
    assert hbox_of(OrientedBox(0, 0, 2, 2, 0)) == HorizontalBox(-1, -1, 1, 1)
    s = math.sqrt(2.0)
    tilted = hbox_of(OrientedBox(0, 0, 2, 2, math.pi / 4))
    assert tilted.xmin == pytest.approx(-s)
    assert tilted.ymax == pytest.approx(s)
    assert hbox_of(OrientedBox(5, 5, 4, 2, 0)) == HorizontalBox(3, 4, 7, 6)


@given(boxes)
def test_corners_enclosed_by_hbox(box):
    hb = hbox_of(box)
    for x, y in box_corners(box):
        assert hb.xmin - 1e-9 <= x <= hb.xmax + 1e-9
        assert hb.ymin - 1e-9 <= y <= hb.ymax + 1e-9


def test_gaussian_validation():
    with pytest.raises(InvalidInputError):
        Gaussian2D([0, 0], [[1, 0.5], [0.0, 1]])  # asymmetric
    with pytest.raises(InvalidInputError):
        Gaussian2D([0, 0], [[1, 0], [0, -1]])  # not PD


@given(st.lists(st.tuples(finite, finite, extent, extent, st.floats(-50.0, 50.0, allow_nan=False)),
                min_size=1, max_size=12))
@example([(0.0, 0.0, 1.0, 1.0, t) for t in (-0.0, math.pi / 2, -math.pi / 2, math.pi, 1e-17, -1e-17,
                                             math.nextafter(-math.pi / 2, -math.inf))])
@settings(max_examples=80)
def test_box_rows_match_oriented_box_bit_for_bit(rows):
    got = box_rows(np.array(rows).reshape(1, -1, 5))[0]
    want = np.array([[b.cx, b.cy, b.w, b.h, b.theta] for b in (OrientedBox(*r) for r in rows)])
    assert got.tobytes() == want.tobytes()


def test_box_rows_raise_what_oriented_box_raises():
    rows = np.ones((2, 3, 5))
    for bad in ((1.0, 1.0, 0.0, 1.0, 0.0), (1.0, math.nan, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, -1.0, math.inf)):
        rows[1, 2] = bad
        with pytest.raises(InvalidInputError) as exc:
            box_rows(rows)
        with pytest.raises(InvalidInputError) as ref:
            OrientedBox(*bad)
        assert str(exc.value) == str(ref.value)
    with pytest.raises(InvalidInputError, match="shape"):
        box_rows(np.ones(5))
