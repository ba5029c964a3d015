import heapq
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spwood.errors import InvalidInputError
from spwood.layout import (
    _snap_seeds,
    gradient_magnitude,
    read_pgm,
    scale_targets,
    voronoi_partition,
    watershed_segment,
    write_pgm,
)

DATA = Path(__file__).parent / "data"


def brute_force_nearest(seeds, width, height):
    """Pure-python oracle: per pixel, scan all (x, y) seeds, keep the first
    best. Squares are products, as numpy's ** 2 computes them."""
    out = np.zeros((height, width), dtype=int)
    for y in range(height):
        for x in range(width):
            best, best_d = 0, float("inf")
            for k, (sx, sy) in enumerate(seeds):
                d = (x - sx) * (x - sx) + (y - sy) * (y - sy)
                if d < best_d:
                    best, best_d = k, d
            out[y, x] = best
    return out


def reference_flood(grad, cell, seed):
    """Two-marker flood of one cell with a (gradient, row-major index, push
    order) tuple heap; markers are the rounded seed pixel and the rest of
    the cell boundary, whose neighbors are pushed seed first. The seed is
    an (x, y) pair."""
    height, width = grad.shape
    padded = np.pad(cell, 1)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    boundary = cell & ~interior
    sx, sy = (int(round(v)) for v in seed)
    labels = np.zeros(grad.shape, dtype=np.uint8)
    boundary[sy, sx] = False
    labels[boundary] = 2
    labels[sy, sx] = 1
    heap, counter = [], 0

    def push_neighbors(x, y, label):
        nonlocal counter
        for nx, ny in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
            if not (0 <= nx < width and 0 <= ny < height):
                continue
            if cell[ny, nx] and not labels[ny, nx]:
                entry = (grad[ny, nx], ny * width + nx, counter, nx, ny, label)
                heapq.heappush(heap, entry)
                counter += 1

    push_neighbors(sx, sy, 1)
    for y, x in zip(*np.nonzero(boundary)):
        push_neighbors(x, y, 2)
    while heap:
        *_, x, y, label = heapq.heappop(heap)
        if not labels[y, x]:
            labels[y, x] = label
            push_neighbors(x, y, label)
    return labels == 1


_FG, _BG, _FENCE = 1, 2, 3


def queue_flood(intensity, points):
    """The heap flood that watershed_segment replaced, kept as the oracle
    for its label image: one heapq push and pop per pixel, keyed by
    (gradient rank, row-major index), each pixel queued once, in the cells
    of the (n, 2) float array of seeds."""
    h, w = intensity.shape
    cell_id = voronoi_partition(points, w, h)
    # All cells flood in one frame padded by a fence pixel on each side, so
    # neighbor lookups need no bounds checks. Padding keeps row-major order,
    # so the priority rank(gradient) * size + index sorts pixels exactly as
    # the key (gradient, row-major index).
    stride, size = w + 2, (h + 2) * (w + 2)
    rank = np.unique(gradient_magnitude(intensity), return_inverse=True)[1]
    index = np.arange(size).reshape(h + 2, stride)
    prio = (np.pad(rank.reshape(h, w), 1) * size + index).ravel()
    cell = np.pad(cell_id, 1, constant_values=-1)
    inner = cell[1:-1, 1:-1]
    boundary = (
        (cell[:-2, 1:-1] != inner)
        | (cell[2:, 1:-1] != inner)
        | (cell[1:-1, :-2] != inner)
        | (cell[1:-1, 2:] != inner)
    )
    label = np.pad(boundary * np.uint8(_BG), 1, constant_values=_FENCE)
    rows, cols = _snap_seeds(cell_id, points)
    label[rows + 1, cols + 1] = _FG
    label, cell = label.ravel(), cell.ravel()
    # Markers go cell by cell in seed order: the seed pixel, then the cell's
    # boundary pixels in row-major order. Each pixel is queued once, by the
    # first marker or flooded pixel to reach it, which fixes its label.
    marked = np.flatnonzero((label == _FG) | (label == _BG))
    markers = marked[np.lexsort((label[marked], cell[marked]))].tolist()
    cell_v, prio_v, label_v = memoryview(cell), memoryview(prio), memoryview(label)
    heap: list[int] = []
    push, pop = heapq.heappush, heapq.heappop

    def popped():
        while heap:
            yield pop(heap) % size

    for i in itertools.chain(markers, popped()):
        c, lab = cell_v[i], label_v[i]
        for j in (i - stride, i - 1, i + 1, i + stride):
            if not label_v[j] and cell_v[j] == c:
                label_v[j] = lab
                push(heap, prio_v[j])
    fg = label.reshape(h + 2, stride)[1:-1, 1:-1] == _FG
    return np.where(fg, cell_id, np.int32(-1)).astype(np.int32)


def assert_same_masks(image, points):
    labels = watershed_segment(image, points)
    expected = queue_flood(image, points)
    assert labels.dtype == expected.dtype and labels.tobytes() == expected.tobytes()


def scale_target_from_mask(mask, theta):
    """The per-mask target computation that scale_targets replaced, kept as
    its oracle: one np.nonzero scan of one full-size mask. Returns
    [w_t, h_t], [0.0, 0.0] for an empty mask."""
    ys, xs = np.nonzero(np.asarray(mask, dtype=bool))
    if xs.size == 0:
        return [0.0, 0.0]
    cx, cy = xs.mean(), ys.mean()
    c, s = math.cos(-theta), math.sin(-theta)
    u = (xs - cx) * c - (ys - cy) * s
    v = (xs - cx) * s + (ys - cy) * c
    return [float(u.max() - u.min() + 1.0), float(v.max() - v.min() + 1.0)]


def rectangle_scene(rng, side, grid, n):
    """A raster benchmark scene: n non-overlapping rotated rectangles on a
    noisy background, one per chosen grid cell, quantised to 8 bits as a
    PGM round trip leaves them. Returns the intensity and the centres."""
    cell = side / grid
    jitter = 0.08 * cell
    radius = cell / 2 - jitter - 3.0
    chosen = rng.choice(grid * grid, size=n, replace=False)
    centres = np.stack([chosen % grid, chosen // grid], axis=1) * cell + cell / 2
    centres = centres + rng.uniform(-jitter, jitter, (n, 2))
    aspect = rng.uniform(0.35, 0.9, n)
    w = 2 * radius * rng.uniform(0.75, 1.0, n) / np.sqrt(1 + aspect**2)
    h = aspect * w
    theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
    ys, xs = np.mgrid[0:side, 0:side].astype(float)
    image = np.full((side, side), 0.25)
    c, s = math.cos(theta), math.sin(theta)
    for (cx, cy), wk, hk in zip(centres, w, h):
        dx, dy = xs - cx, ys - cy
        inside = (np.abs(c * dx + s * dy) <= wk / 2) & (np.abs(-s * dx + c * dy) <= hk / 2)
        image[inside] = 0.75
    image = np.clip(image + rng.normal(0.0, 0.02, image.shape), 0.0, 1.0)
    return np.rint(image * 255) / 255, centres


def nearest_own_pixel(cell_id, k, seed):
    """Brute force: the pixel of cell k nearest the (x, y) seed, lowest
    row-major index on ties; None for an empty cell."""
    ys, xs = np.nonzero(cell_id == k)
    if xs.size == 0:
        return None
    d2 = (xs - seed[0]) ** 2 + (ys - seed[1]) ** 2
    i = int(np.argmin(d2))  # nonzero is row-major, argmin keeps the first
    return ys[i], xs[i]


def rasterize_rect(width, height, cx, cy, w, h, theta):
    ys, xs = np.mgrid[0:height, 0:width]
    c, s = math.cos(-theta), math.sin(-theta)
    u = (xs - cx) * c - (ys - cy) * s
    v = (xs - cx) * s + (ys - cy) * c
    return (np.abs(u) <= w / 2.0) & (np.abs(v) <= h / 2.0)


# --- voronoi ------------------------------------------------------------------


def test_single_seed_owns_everything():
    cell_id = voronoi_partition(np.array([[3.0, 4.0]]), 8, 8)
    assert cell_id.shape == (8, 8) and cell_id.dtype == np.int32
    assert np.all(cell_id == 0)


def test_two_seed_column_split():
    cell_id = voronoi_partition(np.array([[2.0, 5.0], [7.0, 5.0]]), 10, 10)
    assert np.all(cell_id[:, :5] == 0)
    assert np.all(cell_id[:, 5:] == 1)


def test_tie_breaks_to_lowest_index():
    # pixels at x=3 are equidistant from seeds at x=2 and x=4
    cell_id = voronoi_partition(np.array([[4.0, 0.0], [2.0, 0.0]]), 7, 1)
    assert cell_id[0, 3] == 0


def test_errors():
    for points in ([], np.zeros((0, 2)), np.zeros(0)):
        with pytest.raises(InvalidInputError, match="^need at least one seed$"):
            voronoi_partition(points, 4, 4)
    # integer input still prints as floats, as a points file's seeds do
    with pytest.raises(InvalidInputError, match=r"^seed 1 at \(48\.0, 10\.0\) outside 48 x 48 image$"):
        voronoi_partition(np.array([[1, 1], [48, 10]]), 48, 48)


@pytest.mark.parametrize("points, shape", [
    (np.zeros(4), "(4,)"), (np.zeros((3, 3)), "(3, 3)"), (np.zeros((2, 2, 2)), "(2, 2, 2)"), ([[1, 2, 3]], "(1, 3)"),
])
def test_points_must_be_n_by_2(points, shape):
    with pytest.raises(InvalidInputError, match=rf"^points must have shape \(n, 2\), got {re.escape(shape)}$"):
        voronoi_partition(points, 4, 4)
    with pytest.raises(InvalidInputError, match=r"^points must have shape"):
        watershed_segment(np.full((4, 4), 0.5), points)


def clamped(limit):
    """A coordinate moved into [0, limit - 1], so inside a side of `limit`."""
    return lambda v: min(max(v, 0.0), limit - 1.0)


@st.composite
def voronoi_scenes(draw):
    """An image size and up to 30 seeds in it: any float or quarter-pixel
    lattice values (half-integers tie exactly on bisectors), a cluster
    within a pixel of the first seed, and duplicates."""
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    seeds = draw(st.lists(st.tuples(coordinates(width), coordinates(height)), min_size=1, max_size=20))
    x0, y0 = seeds[0]
    offset = st.integers(-4, 4).map(lambda v: v / 4.0)
    near = st.tuples(offset.map(lambda d: x0 + d).map(clamped(width)),
                     offset.map(lambda d: y0 + d).map(clamped(height)))
    seeds += draw(st.lists(near, max_size=6))
    seeds += draw(st.lists(st.sampled_from(seeds), max_size=4))
    return width, height, seeds


@given(voronoi_scenes())
@example((7, 1, [(4.0, 0.0), (2.0, 0.0), (3.5, 0.5), (2.5, 0.5), (2.0, 0.0)]))
@example((5, 5, [(1.5, 1.5), (2.5, 2.5), (2.5, 1.5), (1.5, 2.5), (2.0, 2.0), (2.0, 2.0)]))
@settings(max_examples=60, deadline=None)
def test_matches_brute_force_oracle(scene):
    width, height, seeds = scene
    cell_id = voronoi_partition(np.array(seeds), width, height)
    assert np.array_equal(cell_id, brute_force_nearest(seeds, width, height))


def test_partition_is_complete_and_seed_pixels_labeled():
    rng = np.random.default_rng(0)
    positions = set()
    while len(positions) < 7:
        positions.add((int(rng.integers(0, 30)), int(rng.integers(0, 20))))
    seeds = sorted(positions)
    cell_id = voronoi_partition(np.array(seeds, dtype=float), 30, 20)
    assert cell_id.min() >= 0 and cell_id.max() < len(seeds)
    for k, (x, y) in enumerate(seeds):
        assert cell_id[y, x] == k


# --- watershed ----------------------------------------------------------------


def test_uniform_image_golden_mask():
    image = np.full((21, 21), 0.5)
    mask = watershed_segment(image, np.array([[10.0, 10.0]])) == 0
    golden = np.array(
        [[ch == "#" for ch in line] for line in (DATA / "uniform_mask_21.txt").read_text().splitlines()]
    )
    assert np.array_equal(mask, golden)


def test_bright_rectangle_recovered():
    img = np.zeros((40, 40))
    img[15:25, 10:30] = 1.0
    mask = watershed_segment(img, np.array([[20.0, 20.0]])) == 0
    rect = img.astype(bool)
    assert (mask & rect).sum() >= 0.9 * rect.sum()
    assert mask.sum() <= 1.1 * rect.sum()


def test_seed_always_in_own_mask():
    rng = np.random.default_rng(5)
    img = rng.random((25, 30))
    seeds = [(4, 4), (20, 10), (12, 20)]
    labels = watershed_segment(img, np.array(seeds, dtype=float))
    for k, (x, y) in enumerate(seeds):
        assert labels[y, x] == k


def test_masks_disjoint_and_confined():
    rng = np.random.default_rng(9)
    img = rng.random((32, 32))
    points = rng.integers(0, 32, (5, 2)).astype(float)
    cell_id = voronoi_partition(points, 32, 32)
    labels = watershed_segment(img, points)
    assert labels.shape == (32, 32) and labels.dtype == np.int32
    owned = labels >= 0
    assert np.array_equal(labels[owned], cell_id[owned])
    for k, seed in enumerate(points.tolist()):
        snapped = nearest_own_pixel(cell_id, k, seed)
        assert snapped is None or labels[snapped] == k


def oracle_scene(rng, kind):
    width, height = (int(v) for v in rng.integers(2, 40, 2))
    n = 3 if kind == "thin" else int(rng.integers(1, 10))
    pixels = list(zip(rng.integers(width, size=n), rng.integers(height, size=n)))
    if kind == "thin":  # one-pixel-wide column cells along a row
        xs = rng.choice(width, size=min(width, 8), replace=False)
        pixels = [(x, height // 2) for x in xs] + pixels
    pixels = list(dict.fromkeys((int(x), int(y)) for x, y in pixels))
    # within 0.2 px of distinct pixels, so rounding reaches the seed's own cell
    xy = np.array(pixels) + rng.uniform(-0.2, 0.2, (len(pixels), 2))
    points = np.clip(xy, 0.0, [width - 1, height - 1])
    if kind == "uniform":
        img = np.full((height, width), 0.5)
    elif kind == "coarse":  # three levels: many gradient values tie
        img = rng.integers(0, 3, (height, width)) / 2.0
    else:
        img = rng.random((height, width))
    return img, points


@pytest.mark.parametrize("seed, kind", enumerate(["random", "thin", "uniform", "coarse"]))
def test_masks_match_reference_flood(seed, kind):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        image, points = oracle_scene(rng, kind)
        grad = gradient_magnitude(image)
        cell_id = voronoi_partition(points, image.shape[1], image.shape[0])
        labels = watershed_segment(image, points)
        for k, seed in enumerate(points.tolist()):
            expected = reference_flood(grad, cell_id == k, seed)
            assert (labels == k).tobytes() == expected.tobytes()


def coordinates(limit):
    # quarter-pixel lattice values (ties, near and duplicate seeds) or any float
    return st.one_of(
        st.integers(0, 4 * limit - 1).map(lambda v: v / 4.0),
        st.floats(0.0, limit, exclude_max=True),
    )


IMAGES = {
    "random": lambda rng, shape: rng.random(shape),
    "uniform": lambda rng, shape: np.full(shape, 0.5),
    "coarse": lambda rng, shape: rng.integers(0, 3, shape) / 2.0,  # three levels
    "quantised": lambda rng, shape: rng.integers(0, 256, shape) / 255.0,
}


@st.composite
def seeded_scenes(draw):
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    points = st.tuples(coordinates(width), coordinates(height))
    seeds = draw(st.lists(points, min_size=1, max_size=8))
    seeds += draw(st.lists(st.sampled_from(seeds), max_size=2))  # duplicates
    make = IMAGES[draw(st.sampled_from(sorted(IMAGES)))]
    image = make(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), (height, width))
    return width, height, np.array(seeds), image


@given(seeded_scenes())
@example((6, 5, np.array([[1.5, 2.0], [2.0, 2.0]]), np.full((5, 6), 0.5)))
@example((6, 5, np.array([[2.0, 2.0], [2.0, 2.0]]), np.full((5, 6), 0.5)))
@settings(max_examples=150, deadline=None)
def test_non_integer_seeds_confined_disjoint_and_seeded(scene):
    width, height, points, image = scene
    cell_id = voronoi_partition(points, width, height)
    labels = watershed_segment(image, points)
    owned = labels >= 0
    assert np.array_equal(labels[owned], cell_id[owned])
    targets = scale_targets(labels, len(points), 0.0)
    for k, seed in enumerate(points.tolist()):
        snapped = nearest_own_pixel(cell_id, k, seed)
        if snapped is None:
            assert not (labels == k).any()
            assert targets[k].tolist() == [0.0, 0.0]
        else:
            assert labels[snapped] == k
            assert targets[k, 0] >= 1.0 and targets[k, 1] >= 1.0


@given(seeded_scenes())
@settings(max_examples=300, deadline=None)
def test_masks_match_queue_flood(scene):
    width, height, points, image = scene
    assert_same_masks(image, points)


BENCHMARK_SCENES = [(320, 5, 24, 0), (160, 8, 60, 1), (160, 8, 60, 2)]


@pytest.mark.parametrize("side, grid, n, seed", BENCHMARK_SCENES)
def test_masks_match_queue_flood_on_benchmark_scenes(side, grid, n, seed):
    intensity, centres = rectangle_scene(np.random.default_rng(seed), side, grid, n)
    assert_same_masks(intensity, centres)


def assert_targets_match_per_mask(labels, n, theta):
    want = [scale_target_from_mask(labels == k, theta) for k in range(n)]
    targets = scale_targets(labels, n, theta)
    assert targets.shape == (n, 2) and targets.dtype == np.float64
    assert targets.tolist() == want  # == on floats: bit for bit


@pytest.mark.parametrize("side, grid, n, seed", BENCHMARK_SCENES)
def test_targets_match_per_mask_on_benchmark_scenes(side, grid, n, seed):
    rng = np.random.default_rng(seed)
    intensity, centres = rectangle_scene(rng, side, grid, n)
    labels = watershed_segment(intensity, centres)
    for theta in (0.0, *rng.uniform(-math.pi / 2, math.pi / 2, 3).tolist()):
        assert_targets_match_per_mask(labels, n, theta)


@given(seeded_scenes(), st.floats(-math.pi / 2, math.pi / 2))
@settings(max_examples=150, deadline=None)
def test_targets_match_per_mask(scene, theta):
    """Duplicate seeds label no pixel, so their targets are the empty,
    invalid one."""
    width, height, points, image = scene
    labels = watershed_segment(image, points)
    assert_targets_match_per_mask(labels, len(points), theta)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, -1e-12, 1.0 + 1e-12])
def test_raster_image_rejects_intensities_outside_unit_range(bad):
    image = np.full((3, 4), 0.5)
    image[1, 2] = bad
    points = np.array([[1.0, 1.0]])
    with pytest.raises(InvalidInputError, match=r"^intensity values must lie in \[0, 1\]$"):
        watershed_segment(image, points)
    image[1, 2], image[0, 0] = 1.0, 0.0  # the bounds themselves are in range
    assert watershed_segment(image, points).shape == (3, 4)


def test_voronoi_memory_is_linear_in_pixels():
    rng = np.random.default_rng(3)
    points = rng.uniform(0, 512, (100, 2))
    tracemalloc.start()
    try:
        voronoi_partition(points, 512, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # an (n_seeds, H, W) distance stack needs about 210 MB


def test_watershed_memory_of_the_whole_call():
    """The Voronoi partition included: watershed_segment computes it."""
    rng = np.random.default_rng(3)
    points = rng.uniform(0, 512, (100, 2))
    image = rng.random((512, 512))
    tracemalloc.start()
    try:
        labels = watershed_segment(image, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.shape == (512, 512)
    assert peak < 20e6  # 100 full-size bool masks took 26.2 MB on their own


def test_gradient_magnitude_step_edge():
    img = np.zeros((5, 7))
    img[:, 4:] = 1.0
    g = gradient_magnitude(img)
    assert g[2, 3] == pytest.approx(0.5)
    assert g[2, 4] == pytest.approx(0.5)
    assert g[2, 1] == 0.0


# --- scale targets -------------------------------------------------------------


def test_axis_aligned_extents():
    mask = np.zeros((30, 40), dtype=bool)
    mask[10:20, 5:25] = True  # 20 wide, 10 tall
    assert scale_targets(np.where(mask, 0, -1), 1, 0.0)[0] == pytest.approx([20.0, 10.0])
    assert scale_targets(np.where(mask, 0, -1), 1, math.pi / 2)[0] == pytest.approx([10.0, 20.0])


def test_rotated_rectangle_recovery():
    theta = math.radians(30.0)
    mask = rasterize_rect(50, 50, 25, 25, 20, 10, theta)
    w_t, h_t = scale_targets(np.where(mask, 0, -1), 1, theta)[0]
    assert abs(w_t - 20.0) <= 2.0
    assert abs(h_t - 10.0) <= 2.0


def test_empty_mask_flagged_invalid():
    """An empty mask's row is (0, 0); a non-empty one's extents are at
    least 1, so w_t > 0 marks a valid target."""
    labels = np.full((5, 5), -1)
    labels[2, 3] = 1
    assert scale_targets(labels, 2, 0.3).tolist() == [[0.0, 0.0], [1.0, 1.0]]


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_scale_targets_reject_non_finite_theta(theta):
    labels = np.zeros((3, 3), dtype=np.int32)
    with pytest.raises(InvalidInputError, match=rf"^theta must be finite, got {theta}$"):
        scale_targets(labels, 1, theta)


@given(st.sampled_from([0.0, math.pi / 6, math.pi / 4, math.pi / 3]))
@settings(max_examples=8, deadline=None)
def test_target_equivariance_under_rotation(r):
    base_theta = math.radians(10.0)
    w, h = 24.0, 12.0
    m1 = rasterize_rect(70, 70, 35, 35, w, h, base_theta)
    m2 = rasterize_rect(70, 70, 35, 35, w, h, base_theta + r)
    t1 = scale_targets(np.where(m1, 0, -1), 1, base_theta)[0]
    t2 = scale_targets(np.where(m2, 0, -1), 1, base_theta + r)[0]
    assert np.all(np.abs(t1 - t2) <= 2.0)


# --- raster IO -----------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arr = np.round(rng.random((9, 13)) * 255) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(path, arr)
    back = read_pgm(path)
    assert isinstance(back, np.ndarray) and back.dtype == np.float64 and back.shape == (9, 13)
    assert np.allclose(back, arr, atol=1 / 255.0 + 1e-12)


def test_pgm_mask_round_trip(tmp_path):
    mask = np.zeros((6, 6), dtype=bool)
    mask[2:4, 1:5] = True
    path = tmp_path / "mask.pgm"
    write_pgm(path, mask)
    back = read_pgm(path)
    assert np.array_equal(back > 0.5, mask)

