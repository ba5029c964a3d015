import heapq
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spwood.errors import InvalidInputError
from spwood.geometry import PointAnnotation
from spwood.layout import (
    ScaleTarget,
    VoronoiLabelMap,
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
    """Pure-python oracle: per pixel, scan all seeds, keep the first best."""
    out = np.zeros((height, width), dtype=int)
    for y in range(height):
        for x in range(width):
            best, best_d = 0, float("inf")
            for k, s in enumerate(seeds):
                d = (x - s.x) ** 2 + (y - s.y) ** 2
                if d < best_d:
                    best, best_d = k, d
            out[y, x] = best
    return out


def reference_flood(grad, cell, seed):
    """Two-marker flood of one cell with a (gradient, row-major index, push
    order) tuple heap; markers are the rounded seed pixel and the rest of
    the cell boundary, whose neighbors are pushed seed first."""
    height, width = grad.shape
    padded = np.pad(cell, 1)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    boundary = cell & ~interior
    sx, sy = int(round(seed.x)), int(round(seed.y))
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


def queue_flood(intensity, cells):
    """The heap flood that watershed_segment replaced, kept as the oracle
    for its label image: one heapq push and pop per pixel, keyed by
    (gradient rank, row-major index), each pixel queued once."""
    h, w = cells.cell_id.shape
    # All cells flood in one frame padded by a fence pixel on each side, so
    # neighbor lookups need no bounds checks. Padding keeps row-major order,
    # so the priority rank(gradient) * size + index sorts pixels exactly as
    # the key (gradient, row-major index).
    stride, size = w + 2, (h + 2) * (w + 2)
    rank = np.unique(gradient_magnitude(intensity), return_inverse=True)[1]
    index = np.arange(size).reshape(h + 2, stride)
    prio = (np.pad(rank.reshape(h, w), 1) * size + index).ravel()
    cell = np.pad(cells.cell_id, 1, constant_values=-1)
    inner = cell[1:-1, 1:-1]
    boundary = (
        (cell[:-2, 1:-1] != inner)
        | (cell[2:, 1:-1] != inner)
        | (cell[1:-1, :-2] != inner)
        | (cell[1:-1, 2:] != inner)
    )
    label = np.pad(boundary * np.uint8(_BG), 1, constant_values=_FENCE)
    rows, cols = _snap_seeds(cells)
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
    return np.where(fg, cells.cell_id, np.int32(-1)).astype(np.int32)


def assert_same_masks(image, cells):
    labels = watershed_segment(image, cells)
    expected = queue_flood(image, cells)
    assert labels.dtype == expected.dtype and labels.tobytes() == expected.tobytes()


def scale_target_from_mask(mask, theta):
    """The per-mask target computation that scale_targets replaced, kept as
    its oracle: one np.nonzero scan of one full-size mask."""
    ys, xs = np.nonzero(np.asarray(mask, dtype=bool))
    if xs.size == 0:
        return ScaleTarget(0.0, 0.0, False)
    cx, cy = xs.mean(), ys.mean()
    c, s = math.cos(-theta), math.sin(-theta)
    u = (xs - cx) * c - (ys - cy) * s
    v = (xs - cx) * s + (ys - cy) * c
    return ScaleTarget(
        float(u.max() - u.min() + 1.0), float(v.max() - v.min() + 1.0), True
    )


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
    """Brute force: the pixel of cell k nearest the seed, lowest row-major
    index on ties; None for an empty cell."""
    ys, xs = np.nonzero(cell_id == k)
    if xs.size == 0:
        return None
    d2 = (xs - seed.x) ** 2 + (ys - seed.y) ** 2
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
    vm = voronoi_partition([PointAnnotation(3, 4)], 8, 8)
    assert np.all(vm.cell_id == 0)


def test_two_seed_column_split():
    vm = voronoi_partition([PointAnnotation(2, 5), PointAnnotation(7, 5)], 10, 10)
    assert np.all(vm.cell_id[:, :5] == 0)
    assert np.all(vm.cell_id[:, 5:] == 1)


def test_tie_breaks_to_lowest_index():
    # pixels at x=3 are equidistant from seeds at x=2 and x=4
    vm = voronoi_partition([PointAnnotation(4, 0), PointAnnotation(2, 0)], 7, 1)
    assert vm.cell_id[0, 3] == 0


def test_errors():
    with pytest.raises(InvalidInputError):
        voronoi_partition([], 4, 4)
    with pytest.raises(InvalidInputError):
        voronoi_partition([PointAnnotation(9, 0)], 4, 4)


@given(
    st.integers(2, 24),
    st.integers(2, 24),
    st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_matches_brute_force_oracle(width, height, raw_seeds):
    seeds = [
        PointAnnotation(min(x, width - 1), min(y, height - 1)) for x, y in raw_seeds
    ]
    vm = voronoi_partition(seeds, width, height)
    assert np.array_equal(vm.cell_id, brute_force_nearest(seeds, width, height))


def test_partition_is_complete_and_seed_pixels_labeled():
    rng = np.random.default_rng(0)
    positions = set()
    while len(positions) < 7:
        positions.add((int(rng.integers(0, 30)), int(rng.integers(0, 20))))
    seeds = [PointAnnotation(x, y) for x, y in sorted(positions)]
    vm = voronoi_partition(seeds, 30, 20)
    assert vm.cell_id.min() >= 0 and vm.cell_id.max() < len(seeds)
    for k, s in enumerate(seeds):
        assert vm.cell_id[int(s.y), int(s.x)] == k


# --- watershed ----------------------------------------------------------------


def test_uniform_image_golden_mask():
    image = np.full((21, 21), 0.5)
    cells = voronoi_partition([PointAnnotation(10, 10)], 21, 21)
    mask = watershed_segment(image, cells) == 0
    golden = np.array(
        [[ch == "#" for ch in line] for line in (DATA / "uniform_mask_21.txt").read_text().splitlines()]
    )
    assert np.array_equal(mask, golden)


def test_bright_rectangle_recovered():
    img = np.zeros((40, 40))
    img[15:25, 10:30] = 1.0
    cells = voronoi_partition([PointAnnotation(20, 20)], 40, 40)
    mask = watershed_segment(img, cells) == 0
    rect = img.astype(bool)
    assert (mask & rect).sum() >= 0.9 * rect.sum()
    assert mask.sum() <= 1.1 * rect.sum()


def test_seed_always_in_own_mask():
    rng = np.random.default_rng(5)
    img = rng.random((25, 30))
    seeds = [PointAnnotation(4, 4), PointAnnotation(20, 10), PointAnnotation(12, 20)]
    cells = voronoi_partition(seeds, 30, 25)
    labels = watershed_segment(img, cells)
    for k, s in enumerate(seeds):
        assert labels[int(s.y), int(s.x)] == k


def test_masks_disjoint_and_confined():
    rng = np.random.default_rng(9)
    img = rng.random((32, 32))
    seeds = [
        PointAnnotation(int(rng.integers(0, 32)), int(rng.integers(0, 32)))
        for _ in range(5)
    ]
    cells = voronoi_partition(seeds, 32, 32)
    labels = watershed_segment(img, cells)
    assert labels.shape == (32, 32) and labels.dtype == np.int32
    owned = labels >= 0
    assert np.array_equal(labels[owned], cells.cell_id[owned])
    for k, seed in enumerate(seeds):
        snapped = nearest_own_pixel(cells.cell_id, k, seed)
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
    xy = np.clip(xy, 0.0, [width - 1, height - 1])
    seeds = [PointAnnotation(x, y) for x, y in xy.tolist()]
    if kind == "uniform":
        img = np.full((height, width), 0.5)
    elif kind == "coarse":  # three levels: many gradient values tie
        img = rng.integers(0, 3, (height, width)) / 2.0
    else:
        img = rng.random((height, width))
    return img, voronoi_partition(seeds, width, height)


@pytest.mark.parametrize("seed, kind", enumerate(["random", "thin", "uniform", "coarse"]))
def test_masks_match_reference_flood(seed, kind):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        image, cells = oracle_scene(rng, kind)
        grad = gradient_magnitude(image)
        labels = watershed_segment(image, cells)
        for k, seed in enumerate(cells.seeds):
            expected = reference_flood(grad, cells.cell_id == k, seed)
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
    points = st.builds(PointAnnotation, coordinates(width), coordinates(height))
    seeds = draw(st.lists(points, min_size=1, max_size=8))
    seeds += draw(st.lists(st.sampled_from(seeds), max_size=2))  # duplicates
    make = IMAGES[draw(st.sampled_from(sorted(IMAGES)))]
    image = make(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), (height, width))
    return width, height, seeds, image


@given(seeded_scenes())
@example((6, 5, [PointAnnotation(1.5, 2), PointAnnotation(2, 2)], np.full((5, 6), 0.5)))
@example((6, 5, [PointAnnotation(2, 2), PointAnnotation(2, 2)], np.full((5, 6), 0.5)))
@settings(max_examples=150, deadline=None)
def test_non_integer_seeds_confined_disjoint_and_seeded(scene):
    width, height, seeds, image = scene
    cells = voronoi_partition(seeds, width, height)
    labels = watershed_segment(image, cells)
    owned = labels >= 0
    assert np.array_equal(labels[owned], cells.cell_id[owned])
    targets = scale_targets(labels, len(seeds), 0.0)
    for k, seed in enumerate(seeds):
        snapped = nearest_own_pixel(cells.cell_id, k, seed)
        if snapped is None:
            assert not (labels == k).any()
            assert not targets[k].valid
        else:
            assert labels[snapped] == k


@given(seeded_scenes())
@settings(max_examples=300, deadline=None)
def test_masks_match_queue_flood(scene):
    width, height, seeds, image = scene
    assert_same_masks(image, voronoi_partition(seeds, width, height))


BENCHMARK_SCENES = [(320, 5, 24, 0), (160, 8, 60, 1), (160, 8, 60, 2)]


@pytest.mark.parametrize("side, grid, n, seed", BENCHMARK_SCENES)
def test_masks_match_queue_flood_on_benchmark_scenes(side, grid, n, seed):
    intensity, centres = rectangle_scene(np.random.default_rng(seed), side, grid, n)
    seeds = [PointAnnotation(x, y) for x, y in centres.tolist()]
    assert_same_masks(intensity, voronoi_partition(seeds, side, side))


def assert_targets_match_per_mask(labels, n, theta):
    want = [scale_target_from_mask(labels == k, theta) for k in range(n)]
    assert scale_targets(labels, n, theta) == want  # == on floats: bit for bit


@pytest.mark.parametrize("side, grid, n, seed", BENCHMARK_SCENES)
def test_targets_match_per_mask_on_benchmark_scenes(side, grid, n, seed):
    rng = np.random.default_rng(seed)
    intensity, centres = rectangle_scene(rng, side, grid, n)
    seeds = [PointAnnotation(x, y) for x, y in centres.tolist()]
    labels = watershed_segment(intensity, voronoi_partition(seeds, side, side))
    for theta in (0.0, *rng.uniform(-math.pi / 2, math.pi / 2, 3).tolist()):
        assert_targets_match_per_mask(labels, n, theta)


@given(seeded_scenes(), st.floats(-math.pi / 2, math.pi / 2))
@settings(max_examples=150, deadline=None)
def test_targets_match_per_mask(scene, theta):
    """Duplicate seeds label no pixel, so their targets are the empty,
    invalid one."""
    width, height, seeds, image = scene
    labels = watershed_segment(image, voronoi_partition(seeds, width, height))
    assert_targets_match_per_mask(labels, len(seeds), theta)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, -1e-12, 1.0 + 1e-12])
def test_raster_image_rejects_intensities_outside_unit_range(bad):
    image = np.full((3, 4), 0.5)
    image[1, 2] = bad
    cells = voronoi_partition([PointAnnotation(1, 1)], 4, 3)
    with pytest.raises(InvalidInputError, match=r"^intensity values must lie in \[0, 1\]$"):
        watershed_segment(image, cells)
    image[1, 2], image[0, 0] = 1.0, 0.0  # the bounds themselves are in range
    assert watershed_segment(image, cells).shape == (3, 4)


def test_voronoi_memory_is_linear_in_pixels():
    rng = np.random.default_rng(3)
    seeds = [PointAnnotation(x, y) for x, y in rng.uniform(0, 512, (100, 2)).tolist()]
    tracemalloc.start()
    try:
        voronoi_partition(seeds, 512, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # an (n_seeds, H, W) distance stack needs about 210 MB


def test_watershed_memory_of_the_whole_call():
    rng = np.random.default_rng(3)
    seeds = [PointAnnotation(x, y) for x, y in rng.uniform(0, 512, (100, 2)).tolist()]
    cells = voronoi_partition(seeds, 512, 512)
    image = rng.random((512, 512))
    tracemalloc.start()
    try:
        labels = watershed_segment(image, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.shape == (512, 512)
    assert peak < 20e6  # 100 full-size bool masks took 26.2 MB on their own


def test_dimension_mismatch_rejected():
    image = np.zeros((4, 6))
    cells = voronoi_partition([PointAnnotation(1, 1)], 5, 3)
    with pytest.raises(InvalidInputError, match=r"^image 6 x 4 does not match partition 5 x 3$"):
        watershed_segment(image, cells)


def test_label_map_must_be_two_dimensional():
    with pytest.raises(InvalidInputError, match=r"^cell_id must be 2-D, got shape \(4,\)$"):
        VoronoiLabelMap(np.zeros(4, dtype=np.int32), (PointAnnotation(1, 0),))


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
    t0 = scale_targets(np.where(mask, 0, -1), 1, 0.0)[0]
    assert (t0.w_t, t0.h_t) == (pytest.approx(20.0), pytest.approx(10.0))
    t90 = scale_targets(np.where(mask, 0, -1), 1, math.pi / 2)[0]
    assert (t90.w_t, t90.h_t) == (pytest.approx(10.0), pytest.approx(20.0))


def test_rotated_rectangle_recovery():
    theta = math.radians(30.0)
    mask = rasterize_rect(50, 50, 25, 25, 20, 10, theta)
    t = scale_targets(np.where(mask, 0, -1), 1, theta)[0]
    assert t.valid
    assert abs(t.w_t - 20.0) <= 2.0
    assert abs(t.h_t - 10.0) <= 2.0


def test_empty_mask_flagged_invalid():
    t = scale_targets(np.full((5, 5), -1), 1, 0.3)[0]
    assert not t.valid


@given(st.sampled_from([0.0, math.pi / 6, math.pi / 4, math.pi / 3]))
@settings(max_examples=8, deadline=None)
def test_target_equivariance_under_rotation(r):
    base_theta = math.radians(10.0)
    w, h = 24.0, 12.0
    m1 = rasterize_rect(70, 70, 35, 35, w, h, base_theta)
    m2 = rasterize_rect(70, 70, 35, 35, w, h, base_theta + r)
    t1 = scale_targets(np.where(m1, 0, -1), 1, base_theta)[0]
    t2 = scale_targets(np.where(m2, 0, -1), 1, base_theta + r)[0]
    assert abs(t1.w_t - t2.w_t) <= 2.0
    assert abs(t1.h_t - t2.h_t) <= 2.0


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

