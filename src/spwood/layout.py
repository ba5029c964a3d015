"""Voronoi partitioning and watershed segmentation for scale targets.

Point annotations carve the image into nearest-seed cells; inside each
cell a two-marker watershed (seed pixel vs. cell boundary) floods the
gradient-magnitude surface to recover a foreground mask, whose rotated
extents become the width/height regression targets.

The masks are those of a queue-once priority flood (Vincent & Soille,
1991) keyed by (gradient at the pixel, row-major pixel index). Markers go
first, cell by cell in seed order, the seed pixel before the boundary;
then pixels pop in ascending key order. A pixel is queued once and takes
the label of the first marker or popped pixel to reach it, so results are
bit-reproducible.

The flood runs in whole-array passes, with no per-pixel queue (the
minimum-spanning-forest view of marker flooding, Cousty et al., 2009). A
free pixel pops at its level: the least, over paths from a marker, of the
largest key on the path. Borůvka hooking finds these bottleneck levels in
a logarithmic number of passes. The pixel whose own key is a pixel's level
is its pass pixel, and the pixel takes its label. A pass pixel takes the
label of its first marker neighbour, else that of its neighbour of lowest
level, which pops before its other neighbours.

Pixel (x, y) sits at lattice coordinates (x, y); distances are measured
from these lattice points.
"""

from __future__ import annotations

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
        if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both tests
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


def watershed_segment(
    image: RasterImage, cells: VoronoiLabelMap
) -> list[np.ndarray]:
    """Flood each Voronoi cell from its seed against its boundary.

    The seed marker is the pixel of the seed's own cell nearest to the
    seed (ties to the lowest row-major index); the background marker is
    the rest of the cell's boundary. The masks are those of the queue-once
    flood in the module docstring, found in whole-array passes: each free
    pixel's flood level by Borůvka hooking (`_flood_levels`), then its
    label from its pass pixel (`_pass_labels`).

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
    owner = np.where(_foreground(image, cells), cells.cell_id, -1)
    return [owner == k for k in range(len(cells.seeds))]


def _foreground(image: RasterImage, cells: VoronoiLabelMap) -> np.ndarray:
    """The pixels that the flood labels with their cell's seed."""
    rank = _flood_ranks(gradient_magnitude(image.intensity))
    seed = np.zeros(rank.shape, dtype=bool)
    seed[_snap_seeds(cells)] = True
    # Markers: the seed pixels and every pixel with a 4-neighbour in another
    # cell or outside the image. So the free pixels are interior, and all
    # their neighbours lie in their own cell.
    cell = np.pad(cells.cell_id, 1, constant_values=-1)
    marker = seed.copy()
    for view in _neighbours(cell):
        marker |= view != cells.cell_id
    del cell
    level = _flood_levels(rank, marker)
    return _pass_labels(rank, level, seed)


def _neighbours(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the up, left, right and down neighbours of a[1:-1, 1:-1]."""
    return a[:-2, 1:-1], a[1:-1, :-2], a[1:-1, 2:], a[2:, 1:-1]


def _jump(pointer: np.ndarray) -> np.ndarray:
    """Follow every pointer to the fixed point at the end of its chain."""
    while True:
        after = pointer[pointer]
        if np.array_equal(after, pointer):
            return pointer
        pointer = after


def _flood_ranks(grad: np.ndarray) -> np.ndarray:
    """Each pixel's place (int32) in the flood order, the key (gradient,
    row-major index)."""
    size = grad.size
    key = np.unique(grad, return_inverse=True)[1].ravel() * size
    key += np.arange(size)
    key.sort()
    np.remainder(key, size, out=key)  # row-major indices in flood order
    rank = np.empty(size, dtype=np.int32)
    rank[key] = np.arange(size, dtype=np.int32)
    return rank.reshape(grad.shape)


def _flood_levels(rank: np.ndarray, marker: np.ndarray) -> np.ndarray:
    """The level (a rank) at which the flood pops each free pixel; -1 on
    markers.

    The level is a bottleneck distance: the least, over paths from a
    marker, of the largest rank on the path, the marker left out. Borůvka's
    algorithm finds it on the graph of 4-adjacent free pixels, whose edges
    are ordered by the key (larger rank, smaller rank), with all markers as
    one source node. Each node hooks along its least edge; the hook trees
    contract into the next level's nodes, and a tree that reaches the
    source is settled. A node's level is the larger of its hook's weight
    (the edge's larger rank) and its next-level node's level.
    """
    h, w = rank.shape
    size = h * w
    # Level 0 by grid shifts: a free pixel's least edge goes to its lowest
    # neighbour, or to the source when a neighbour is a marker.
    keyed = np.where(marker, np.int32(-1), rank)
    low = np.full((h, w), -1, dtype=np.int32)
    step = np.zeros((h, w), dtype=np.int32)
    lo, st = low[1:-1, 1:-1], step[1:-1, 1:-1]
    up, left, right, down = _neighbours(keyed)
    np.minimum(np.minimum(up, left), np.minimum(right, down), out=lo)
    st[...] = w
    for view, offset in ((right, 1), (left, -1), (up, -w)):
        np.copyto(st, offset, where=view == lo)  # free ranks are unique
    del keyed
    hook = np.arange(size + 1, dtype=np.int32)  # node `size` is the source
    hook[:size] += step.ravel()
    hook[:size][marker.ravel() | (low.ravel() < 0)] = size
    del step
    node = _contract(hook)
    del hook
    weight = np.maximum(low, rank, out=low).ravel()  # of each pixel's hook
    # Later levels work on the edges between different level-1 nodes. A
    # row-wrapping pair (v, v + 1) joins two border pixels, both markers.
    rows = np.flatnonzero(node[: size - 1] != node[1:size])
    columns = np.flatnonzero(node[: size - w] != node[w:size])
    u = np.concatenate((rows, columns)).astype(np.int32)
    v = np.concatenate((rows + 1, columns + w)).astype(np.int32)
    del rows, columns
    ranks = rank.ravel()
    key = np.maximum(ranks[u], ranks[v]).astype(np.int64)
    key *= size
    key += np.minimum(ranks[u], ranks[v])
    u, v = node[u], node[v]
    levels = []
    count = int(node[-1])
    while count:
        least = np.full(count + 1, np.iinfo(np.int64).max)
        np.minimum.at(least, u, key)
        np.minimum.at(least, v, key)
        hooked = np.full(count + 1, count, dtype=np.int32)
        won = key == least[u]
        hooked[u[won]] = v[won]
        won = key == least[v]
        hooked[v[won]] = u[won]
        hooked[count] = count
        up = _contract(hooked)
        levels.append(((least[:count] // size).astype(np.int32), up))
        u, v = up[u], up[v]
        keep = u != v
        u, v, key = u[keep], v[keep], key[keep]
        count = int(up[-1])
    above = np.full(1, -1, dtype=np.int32)  # the top level: the source alone
    for weights, up in reversed(levels):
        above = np.append(np.maximum(weights, above[up[:-1]]), np.int32(-1))
    level = np.maximum(weight, above[node[:size]])
    level[marker.ravel()] = -1
    return level.reshape(h, w)


def _contract(hook: np.ndarray) -> np.ndarray:
    """Each node's next-level node once the nodes hook as `hook` says.

    The last node is the source and hooks to itself. Returns, per node, its
    hook tree's place among the trees that miss the source, or their count
    (the next level's source) for the trees that reach it.
    """
    node = np.arange(hook.size, dtype=np.int32)
    # Both nodes of a mutual pair chose the edge between them; the lower
    # one becomes the root.
    np.copyto(hook, node, where=(hook[hook] == node) & (node < hook))
    root = _jump(hook)
    roots = np.flatnonzero(root[:-1] == node[:-1])
    up = np.full(hook.size, roots.size, dtype=np.int32)
    up[roots] = np.arange(roots.size, dtype=np.int32)
    return up[root]


def _pass_labels(rank: np.ndarray, level: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Foreground pixels of the flood, given the levels of `_flood_levels`.

    A free pixel takes the label of its pass pixel, the one whose rank is
    its level. A pass pixel takes the label of the neighbour that reached
    it first: a marker when it has one, the seed pixel before the boundary,
    else its neighbour of lowest level, which is popped before the others.
    Pointer jumping through the pass pixels resolves the chains.
    """
    h, w = rank.shape
    size = h * w
    fg_end, bg_end = size, size + 1
    low = np.full((h, w), size, dtype=np.int32)
    touch = np.zeros((h, w), dtype=bool)
    lo, to = low[1:-1, 1:-1], touch[1:-1, 1:-1]
    for lv, sv in zip(_neighbours(level), _neighbours(seed)):
        np.minimum(lo, lv, out=lo)
        to |= sv
    passes = np.flatnonzero(level == rank)
    first = low.ravel()[passes]  # -1 where a marker is a neighbour
    ends = np.where(touch.ravel()[passes], fg_end, bg_end)
    label = np.arange(size + 2, dtype=np.int32)  # indexed by rank
    label[rank.ravel()[passes]] = np.where(first >= 0, first, ends)
    end = _jump(label)
    return seed | ((level >= 0) & (end[level] == fg_end))


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


_PGM_TOKEN = re.compile(rb"\s*(#[^\n]*\n|\S+)")


def read_pgm(path) -> RasterImage:
    """Read a binary (P5) 8-bit PGM, scaling values to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    # header: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = _PGM_TOKEN.match(data, pos)
        if m is None:
            raise InvalidInputError(f"truncated PGM header in {path}")
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    if tokens[0] != b"P5":
        raise InvalidInputError(f"not a binary PGM (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:]):
        raise InvalidInputError(f"bad PGM size or maxval in {path}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if not 0 < maxval <= 255:
        raise InvalidInputError(f"unsupported PGM maxval {maxval}")
    # one whitespace byte ends the header
    if len(data) - (pos + 1) < width * height:
        raise InvalidInputError(f"PGM payload too short in {path}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos + 1)
    intensity = pixels.reshape(height, width).astype(float) / maxval
    return RasterImage(width, height, intensity)


def write_pgm(path, array: np.ndarray) -> None:
    """Write an array as binary PGM; floats in [0, 1] scale to 0..255,
    boolean masks map to 0/255."""
    arr = np.asarray(array)
    if arr.dtype == bool:
        data = arr * np.uint8(255)
    else:
        data = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())
