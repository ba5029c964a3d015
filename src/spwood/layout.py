"""Voronoi partitioning and watershed segmentation for scale targets.

Point annotations carve the image into nearest-seed cells; inside each
cell a two-marker watershed (seed pixel vs. cell boundary) floods the
gradient-magnitude surface to recover a foreground mask, whose rotated
extents become the width/height regression targets.

The flood is a priority flood (Vincent & Soille, 1991) keyed by (gradient
at the pixel, row-major pixel index), so results are bit-reproducible:
ascending gradient first, ties swept in row-major order. A pixel is queued
once and takes the label of the first flood to reach it.
Pixel (x, y) sits at lattice coordinates (x, y); distances are measured
from these lattice points.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import PointAnnotation


@dataclass(frozen=True)
class RasterImage:
    """Grayscale image with intensities in [0, 1], stored (height, width)."""

    width: int
    height: int
    intensity: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.intensity, dtype=float)
        if arr.shape != (self.height, self.width):
            raise InvalidInputError(
                f"intensity shape {arr.shape} does not match "
                f"{self.height} x {self.width}"
            )
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise InvalidInputError("intensity values must lie in [0, 1]")
        object.__setattr__(self, "intensity", arr)

    @classmethod
    def from_array(cls, arr) -> "RasterImage":
        arr = np.asarray(arr, dtype=float)
        return cls(width=arr.shape[1], height=arr.shape[0], intensity=arr)


@dataclass(frozen=True)
class VoronoiLabelMap:
    """Per-pixel nearest-seed labels plus the seeds that produced them."""

    width: int
    height: int
    cell_id: np.ndarray
    seeds: tuple[PointAnnotation, ...]

    def __post_init__(self):
        grid = np.asarray(self.cell_id)
        if grid.shape != (self.height, self.width):
            raise InvalidInputError("cell_id shape does not match dimensions")
        if grid.size and (grid.min() < 0 or grid.max() >= len(self.seeds)):
            raise InvalidInputError("cell_id references a missing seed")
        object.__setattr__(self, "cell_id", grid)
        object.__setattr__(self, "seeds", tuple(self.seeds))


@dataclass(frozen=True)
class ScaleTarget:
    """Extent targets measured from a mask; invalid when the mask is empty."""

    w_t: float
    h_t: float
    valid: bool


def voronoi_partition(
    seeds: list[PointAnnotation], width: int, height: int
) -> VoronoiLabelMap:
    """Assign every pixel to its nearest seed (squared Euclidean distance
    on lattice coordinates); ties go to the lowest seed index."""
    if not seeds:
        raise InvalidInputError("need at least one seed")
    for k, s in enumerate(seeds):
        if not (0 <= s.x < width and 0 <= s.y < height):
            raise InvalidInputError(
                f"seed {k} at ({s.x}, {s.y}) outside {width} x {height} image"
            )
    xs = np.arange(width, dtype=float)
    ys = np.arange(height, dtype=float)
    # Running argmin: a later seed takes a pixel only when strictly closer,
    # so ties stay with the lowest index.
    best = np.full((height, width), np.inf)
    labels = np.zeros((height, width), dtype=np.int32)
    for k, s in enumerate(seeds):
        d2 = (xs[None, :] - s.x) ** 2 + (ys[:, None] - s.y) ** 2
        closer = d2 < best
        np.copyto(labels, k, where=closer)
        np.minimum(best, d2, out=best)
    return VoronoiLabelMap(width, height, labels, tuple(seeds))


def gradient_magnitude(intensity: np.ndarray) -> np.ndarray:
    """Central-difference gradient magnitude with replicated edges."""
    padded = np.pad(intensity, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    return np.hypot(gx, gy)


_FG, _BG, _FENCE = 1, 2, 3


def watershed_segment(
    image: RasterImage, cells: VoronoiLabelMap
) -> list[np.ndarray]:
    """Flood each Voronoi cell from its seed against its boundary.

    The seed marker is the pixel of the seed's own cell nearest to the
    seed (ties to the lowest row-major index); the background marker is
    the rest of the cell's boundary.

    Parameters
    ----------
    image : RasterImage
        Intensity surface; the flood runs on its gradient magnitude.
    cells : VoronoiLabelMap
        Partition whose dimensions must match the image.

    Returns
    -------
    list of (H, W) bool arrays
        One foreground mask per seed. Each mask is confined to its cell
        and contains its snapped seed pixel; masks are pairwise disjoint.
        A seed whose cell is empty (a duplicate seed) gets an empty mask.
    """
    if (image.width, image.height) != (cells.width, cells.height):
        raise InvalidInputError(
            f"image {image.width} x {image.height} does not match "
            f"partition {cells.width} x {cells.height}"
        )
    h, w = cells.height, cells.width
    # All cells flood in one frame padded by a fence pixel on each side, so
    # neighbor lookups need no bounds checks. Padding keeps row-major order,
    # so the priority rank(gradient) * size + index sorts pixels exactly as
    # the key (gradient, row-major index).
    stride, size = w + 2, (h + 2) * (w + 2)
    rank = np.unique(gradient_magnitude(image.intensity), return_inverse=True)[1]
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
    owner = np.where(fg, cells.cell_id, -1)
    return [owner == k for k in range(len(cells.seeds))]


def _snap_seeds(cells: VoronoiLabelMap) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the pixel nearest each seed within its own cell
    (ties to the lowest row-major index); seeds with empty cells are left out."""
    sx, sy = np.array([(s.x, s.y) for s in cells.seeds], dtype=float).T
    lab = cells.cell_id.ravel()
    ys, xs = np.divmod(np.arange(lab.size), cells.width)
    d2 = (xs - sx[lab]) ** 2 + (ys - sy[lab]) ** 2
    best = np.full(len(sx), np.inf)
    np.minimum.at(best, lab, d2)
    hits = np.flatnonzero(d2 == best[lab])
    first = np.unique(lab[hits], return_index=True)[1]
    return np.divmod(hits[first], cells.width)


def scale_target_from_mask(mask: np.ndarray, theta: float) -> ScaleTarget:
    """Extent of a mask along the axes of a frame rotated by theta.

    The mask's pixel coordinates are rotated by -theta about their
    centroid; the target extents are (max - min + 1) along each rotated
    axis. An empty mask yields an invalid target.
    """
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


def read_pgm(path) -> RasterImage:
    """Read a binary (P5) 8-bit PGM, scaling values to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    # header: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.compile(rb"\s*(#[^\n]*\n|\S+)").match(data, pos)
        if m is None:
            raise InvalidInputError(f"truncated PGM header in {path}")
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    if tokens[0] != b"P5":
        raise InvalidInputError(f"not a binary PGM (magic {tokens[0]!r})")
    width, height, maxval = (int(t) for t in tokens[1:])
    if not 0 < maxval <= 255:
        raise InvalidInputError(f"unsupported PGM maxval {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos + 1)
    if pixels.size != width * height:
        raise InvalidInputError(f"PGM payload too short in {path}")
    intensity = pixels.reshape(height, width).astype(float) / maxval
    return RasterImage(width, height, intensity)


def write_pgm(path, array: np.ndarray) -> None:
    """Write an array as binary PGM; floats in [0, 1] scale to 0..255,
    boolean masks map to 0/255."""
    arr = np.asarray(array)
    if arr.dtype == bool:
        data = np.where(arr, 255, 0).astype(np.uint8)
    else:
        data = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())
