import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spwood.dataset import WeakKind, weaken_corners
from spwood.errors import InvalidInputError
from spwood.geometry import (
    OrientedBox,
    bhattacharyya_boxes,
    box_rows,
    corners_of_boxes,
    gwd_squared,
    normalize_angle,
)

finite = st.floats(-1e3, 1e3, allow_nan=False)
extent = st.floats(0.1, 200.0, allow_nan=False)
angle = st.floats(-10.0, 10.0, allow_nan=False)

boxes = st.builds(OrientedBox, cx=finite, cy=finite, w=extent, h=extent, theta=angle)
rows = st.tuples(finite, finite, extent, extent, angle)
thin_rows = st.tuples(finite, finite, st.floats(1.0, 300.0), st.floats(1e-3, 3.0), angle)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def covariance(row):
    """The covariance R(theta) diag((w/2)^2, (h/2)^2) R(theta)^T of a box's
    Gaussian model."""
    r = rotation(row[4])
    return r @ np.diag([(row[2] / 2.0) ** 2, (row[3] / 2.0) ** 2]) @ r.T


def rotate(row, r, center):
    """The box row turned by r radians about ``center``."""
    cx, cy = rotation(r) @ (np.array(row[:2]) - center) + center
    return (cx, cy, row[2], row[3], row[4] + r)


def flip(row, height):
    """The box row mirrored about the midline of an image ``height`` tall."""
    cx, cy, w, h, theta = row
    return (cx, height - cy, w, h, -theta)


def bhattacharyya(p, q):
    return float(bhattacharyya_boxes(np.array([p], dtype=float), np.array([q], dtype=float))[0][0])


def gwd(p, q):
    return float(gwd_squared(np.array([p], dtype=float), np.array([q], dtype=float))[0])


def numeric_bhattacharyya(p, q, half_width=10.0, step=0.02):
    """Independent oracle: -ln of the grid-integrated overlap coefficient."""
    grid = np.arange(-half_width, half_width, step)
    xs, ys = np.meshgrid(grid, grid)
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)

    def pdf(row):
        cov = covariance(row)
        inv = np.linalg.inv(cov)
        d = pts - np.array(row[:2])
        quad = np.einsum("ni,ij,nj->n", d, inv, d)
        norm = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
        return norm * np.exp(-0.5 * quad)

    coefficient = np.sum(np.sqrt(pdf(p) * pdf(q))) * step * step
    return -math.log(coefficient)


def test_angle_normalization_range():
    # the last angle sums with pi/2 to a tiny negative, whose remainder
    # rounds up to the period
    edge = math.nextafter(-math.pi / 2, -math.inf)
    for theta in (0.0, 1.2, math.pi / 2, -math.pi / 2, 3.5, -9.1, edge):
        n = normalize_angle(theta)
        assert type(n) is float
        assert -math.pi / 2 <= n < math.pi / 2
        # same oriented line: difference is a multiple of pi
        assert abs((theta - n) % math.pi) < 1e-9 or abs((theta - n) % math.pi - math.pi) < 1e-9
    assert OrientedBox(0, 0, 1, 1, edge).theta == -math.pi / 2
    wrapped = normalize_angle(np.array([edge, math.pi / 2, -0.0, 3.5, -9.1]))
    assert ((-math.pi / 2 <= wrapped) & (wrapped < math.pi / 2)).all()
    assert wrapped.tolist() == [normalize_angle(t) for t in (edge, math.pi / 2, -0.0, 3.5, -9.1)]


@given(st.floats(-1e6, 1e6, allow_nan=False))
@example(math.nextafter(-math.pi / 2, -math.inf))
@example(math.nextafter(math.pi / 2, -math.inf))
def test_angle_normalization_is_idempotent(theta):
    once = normalize_angle(theta)
    assert normalize_angle(once) == once


def test_rbox_to_gaussian_axis_aligned_square():
    # (0, 0, 2, 2, theta) models N(0, I) whatever its angle
    unit = (0, 0, 2, 2, 0)
    for theta in (0.4, math.pi / 4, -1.3):
        assert gwd(unit, (0, 0, 2, 2, theta)) == pytest.approx(0.0, abs=1e-12)
        assert bhattacharyya(unit, (0, 0, 2, 2, theta)) == pytest.approx(0.0, abs=1e-12)
    # against N(d, I): W2^2 = |d|^2 and B = |d|^2 / 8
    assert gwd(unit, (3, 4, 2, 2, 0.5)) == pytest.approx(25.0, rel=1e-12)
    assert bhattacharyya(unit, (3, 4, 2, 2, 0.5)) == pytest.approx(25.0 / 8.0, rel=1e-12)


def test_rbox_to_gaussian_diagonal():
    # (0, 0, 4, 2, 0) models N(0, diag(4, 1))
    box = (0, 0, 4, 2, 0)
    assert gwd(box, (0, 0, 2, 2, 0)) == pytest.approx(1.0, abs=1e-12)
    assert gwd(box, (0, 0, 2, 4, 0)) == pytest.approx(2.0, abs=1e-12)
    # averaged covariance diag(2.5, 1): B = 1/2 ln(2.5 / sqrt(4 * 1))
    assert bhattacharyya(box, (0, 0, 2, 2, 0)) == pytest.approx(0.5 * math.log(1.25), abs=1e-12)


def test_rbox_to_gaussian_quarter_turn_swaps_axes():
    turned, upright = (0, 0, 4, 2, math.pi / 2), (0, 0, 2, 4, 0)
    assert gwd(turned, upright) == pytest.approx(0.0, abs=1e-12)
    assert bhattacharyya(turned, upright) == pytest.approx(0.0, abs=1e-12)
    assert gwd(turned, (0, 0, 4, 2, 0)) == pytest.approx(2.0, abs=1e-12)


def test_degenerate_box_rejected():
    with pytest.raises(InvalidInputError):
        OrientedBox(0, 0, 0.0, 2, 0)
    with pytest.raises(InvalidInputError):
        OrientedBox(0, 0, 2, -1.0, 0)


@given(rows)
def test_gaussian_covariance_spd(row):
    # a singular model would make bhattacharyya_boxes raise
    assert bhattacharyya(row, row) == pytest.approx(0.0, abs=1e-12)
    assert gwd(row, row) == 0.0


def test_bhattacharyya_identical_is_zero():
    a = (3, -1, 4, 2, 0.7)
    assert bhattacharyya(a, a) == pytest.approx(0.0, abs=1e-12)


def test_bhattacharyya_translated_unit():
    assert bhattacharyya((0, 0, 2, 2, 0), (2, 0, 2, 2, 0)) == pytest.approx(0.5, abs=1e-12)


def test_bhattacharyya_isotropic_scale_matches_integration():
    a, b = (0, 0, 2, 2, 0), (0, 0, 4, 4, 0)
    value = bhattacharyya(a, b)
    # closed form: both axes contribute (1/2) ln(2.5 / 2)
    assert value == pytest.approx(math.log(1.25), abs=1e-12)
    assert value == pytest.approx(numeric_bhattacharyya(a, b), abs=1e-4)


@given(rows, rows)
@example((0, 0, 200, 0.1, 0.3), (5, 1, 150, 0.2, 0.31))
@settings(max_examples=50)
def test_bhattacharyya_symmetric(b1, b2):
    assert bhattacharyya(b1, b2) == bhattacharyya(b2, b1)


def test_gwd_identical_is_zero():
    a = (1, 2, 3, 4, 0.3)
    assert gwd(a, a) == 0.0


def test_gwd_diagonal_scale():
    # diag(1, 1) against diag(4, 1)
    assert gwd((0, 0, 2, 2, 0), (0, 0, 4, 2, 0)) == pytest.approx(1.0, abs=1e-9)


def test_gwd_pure_translation():
    # diag(2, 3) against itself, moved by (3, 4)
    w, h = 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(3.0)
    assert gwd((0, 0, w, h, 0), (3, 4, w, h, 0)) == pytest.approx(25.0, abs=1e-9)


@given(rows, rows)
@settings(max_examples=50)
def test_gwd_symmetric_and_separating(b1, b2):
    d_ab = gwd(b1, b2)
    assert d_ab == gwd(b2, b1)
    mean_gap = np.abs(np.subtract(b1[:2], b2[:2])).max()
    cov_gap = np.abs(covariance(b1) - covariance(b2)).max()
    if mean_gap > 1e-3 or cov_gap > 1e-3:
        assert d_ab > 0.0


@given(thin_rows, thin_rows)
@example((0, 0, 77, 0.125, 0.25), (0, 0, 78, 0.125, 3.5))
@settings(max_examples=50)
def test_gwd_exactly_symmetric_on_thin_boxes(b1, b2):
    # thin boxes make the square-root terms cancellation-prone
    assert gwd(b1, b2) == gwd(b2, b1)


def mp_gwd(mp, p, q):
    """W2^2 at mpmath precision from the full covariances, and the scale
    |d|^2 + Tr Sp + Tr Sq it is measured against."""
    covs = []
    for _, _, w, h, t in (p, q):
        c, s = mp.cos(t), mp.sin(t)
        a, b = (w / 2) ** 2, (h / 2) ** 2
        covs.append((a * c * c + b * s * s, (a - b) * c * s, a * s * s + b * c * c))
    (pxx, pxy, pyy), (qxx, qxy, qyy) = covs
    dist = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    trace = pxx + pyy + qxx + qyy
    tr_pq = pxx * qxx + 2 * pxy * qxy + pyy * qyy
    det_pq = (pxx * pyy - pxy * pxy) * (qxx * qyy - qxy * qxy)
    return dist + trace - 2 * mp.sqrt(tr_pq + 2 * mp.sqrt(det_pq)), dist + trace


def test_gwd_matches_mpmath_on_thin_near_parallel_boxes():
    """DOTA-like bridges side by side: w in [1, 300], h log-uniform in
    [1e-3, 3], the two angles of a pair within 0.01 rad of one shared
    direction, half of the pairs co-centred. Each value agrees with the
    50-digit full-covariance formula to 1e-14 (|d|^2 + Tr Sp + Tr Sq)."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    m = 400
    direction = rng.uniform(-math.pi / 2, math.pi / 2, m)

    def draw():
        return np.column_stack([
            rng.uniform(-5, 5, m), rng.uniform(-5, 5, m), rng.uniform(1.0, 300.0, m),
            np.exp(rng.uniform(math.log(1e-3), math.log(3.0), m)), direction + rng.uniform(-0.01, 0.01, m),
        ])

    p, q = draw(), draw()
    q[: m // 2, :2] = p[: m // 2, :2]
    got = gwd_squared(p, q)
    with mp.workdps(50):
        for k in range(m):
            want, scale = mp_gwd(mp, [mp.mpf(v) for v in p[k]], [mp.mpf(v) for v in q[k]])
            assert abs(mp.mpf(got[k]) - want) <= 1e-14 * scale


def test_flip_examples():
    # a flip mirrors both boxes, so it keeps both distances
    p, q = (0, 0, 2, 1, 0.3), (5, 10, 4, 1.5, -0.8)
    assert gwd(flip(p, 100), flip(q, 100)) == pytest.approx(gwd(p, q), rel=1e-12)
    assert bhattacharyya(flip(p, 100), flip(q, 100)) == pytest.approx(bhattacharyya(p, q), rel=1e-12)
    # it negates the angle: an axis-aligned box is its own mirror image, a tilted one is not
    assert gwd(flip((5, 10, 2, 1, 0.0), 20), (5, 10, 2, 1, 0.0)) == 0.0
    assert gwd(flip((5, 10, 2, 1, 0.3), 20), (5, 10, 2, 1, 0.3)) > 0.1


def test_rotate_examples():
    box = (1, 0, 2, 1, 0.0)
    # a quarter turn about the origin moves the center to (0, 1) and swaps the axes
    assert gwd(rotate(box, math.pi / 2, (0, 0)), (0, 1, 1, 2, 0)) == pytest.approx(0.0, abs=1e-12)
    # turning about its own center only tilts it
    assert gwd(rotate(box, math.pi / 4, (1, 0)), (1, 0, 2, 1, math.pi / 4)) == 0.0


@given(rows, rows, st.floats(-3.0, 3.0), st.tuples(finite, finite))
@settings(max_examples=50)
def test_gaussian_rotation_equivariance(b1, b2, r, center):
    # both distances are unchanged when both boxes turn about one point
    r1, r2 = rotate(b1, r, center), rotate(b2, r, center)
    scale = np.sum(np.square(np.subtract(b1[:2], b2[:2]))) + np.trace(covariance(b1) + covariance(b2))
    assert gwd(r1, r2) == pytest.approx(gwd(b1, b2), rel=1e-9, abs=1e-12 * scale)
    assert bhattacharyya(r1, r2) == pytest.approx(bhattacharyya(b1, b2), rel=1e-9, abs=1e-9)


def test_hbox_examples():
    s = math.sqrt(2.0)
    hboxes = weaken_corners(
        corners_of_boxes([(0, 0, 2, 2, 0), (0, 0, 2, 2, math.pi / 4), (5, 5, 4, 2, 0)]), WeakKind.HBOX
    )
    assert hboxes[0].tolist() == [-1, -1, 1, 1]
    assert hboxes[1].tolist() == pytest.approx([-s, -s, s, s])
    assert hboxes[2].tolist() == [3, 4, 7, 6]


@given(boxes)
def test_corners_enclosed_by_hbox(box):
    corners = corners_of_boxes([box.cx, box.cy, box.w, box.h, box.theta])
    xmin, ymin, xmax, ymax = weaken_corners(corners, WeakKind.HBOX)[0]
    for x, y in corners[0]:
        assert xmin - 1e-9 <= x <= xmax + 1e-9
        assert ymin - 1e-9 <= y <= ymax + 1e-9


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
