"""Voronoi partitioning and watershed segmentation for scale targets.

The seeds are an (n, 2) float array of (x, y) points and the image an
(H, W) float array in [0, 1]. The seeds carve the image into
nearest-seed cells (`voronoi_partition`, an (H, W) int32 array); inside
each, `watershed_segment` floods a two-marker watershed (seed pixel vs.
cell boundary) over the gradient-magnitude surface to recover a
foreground mask. The masks are held in one (H, W) int32 label image, and
`scale_targets` turns each mask's rotated extents into a row (w_t, h_t)
of an (n, 2) float64 array, (0, 0) for an empty mask.

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

import numpy as np

from .errors import InvalidInputError


def voronoi_partition(points, width: int, height: int) -> np.ndarray:
    """The (height, width) int32 array of each pixel's nearest seed among
    the (n, 2) float array of (x, y) seeds (squared Euclidean distance on
    lattice coordinates); ties go to the lowest seed index."""
    points = np.asarray(points, dtype=float)
    if not points.size:
        raise InvalidInputError("need at least one seed")
    if points.shape != (len(points), 2):
        raise InvalidInputError(f"points must have shape (n, 2), got {points.shape}")
    seeds = points.tolist()
    for k, (x, y) in enumerate(seeds):
        if not (0 <= x < width and 0 <= y < height):
            raise InvalidInputError(f"seed {k} at ({x}, {y}) outside {width} x {height} image")
    xs = np.arange(width, dtype=float)
    ys = np.arange(height, dtype=float)
    # Running argmin: a later seed takes a pixel only when strictly closer,
    # so ties stay with the lowest index.
    best = np.full((height, width), np.inf)
    labels = np.zeros((height, width), dtype=np.int32)
    for k, (x, y) in enumerate(seeds):
        d2 = (xs[None, :] - x) ** 2 + (ys[:, None] - y) ** 2
        closer = d2 < best
        np.copyto(labels, k, where=closer)
        np.minimum(best, d2, out=best)
    return labels


def gradient_magnitude(intensity: np.ndarray) -> np.ndarray:
    """Central-difference gradient magnitude with replicated edges."""
    padded = np.pad(intensity, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    return np.hypot(gx, gy)


def watershed_segment(intensity: np.ndarray, points) -> np.ndarray:
    """Flood each seed's Voronoi cell (`voronoi_partition`) from the seed
    against the cell's boundary.

    The seed marker is the pixel of the seed's own cell nearest to the
    seed (ties to the lowest row-major index); the background marker is
    the rest of the cell's boundary. The masks are those of the queue-once
    flood in the module docstring, found in whole-array passes: each free
    pixel's flood level by Borůvka hooking (`_flood_levels`), then its
    label from its pass pixel (`_pass_labels`).

    Parameters
    ----------
    intensity : (H, W) float array
        Intensities in [0, 1]; the flood runs on their gradient magnitude.
    points : (n, 2) float array
        The (x, y) seeds, each inside the image.

    Returns
    -------
    (H, W) int32 array
        The label image: k on seed k's foreground mask, -1 on background.
        Each mask is confined to its cell and contains its snapped seed
        pixel. A seed whose cell is empty (a duplicate seed) labels no
        pixel.
    """
    intensity = np.asarray(intensity, dtype=float)
    if not ((intensity >= 0.0) & (intensity <= 1.0)).all():  # NaN fails both tests
        raise InvalidInputError("intensity values must lie in [0, 1]")
    points = np.asarray(points, dtype=float)
    cell_id = voronoi_partition(points, intensity.shape[1], intensity.shape[0])
    rank = _flood_ranks(gradient_magnitude(intensity))
    seed = np.zeros(rank.shape, dtype=bool)
    seed[_snap_seeds(cell_id, points)] = True
    # Markers: the seed pixels and every pixel with a 4-neighbour in another
    # cell or outside the image. So the free pixels are interior, and all
    # their neighbours lie in their own cell.
    cell = np.pad(cell_id, 1, constant_values=-1)
    marker = seed.copy()
    for view in _neighbours(cell):
        marker |= view != cell_id
    del cell
    level = _flood_levels(rank, marker)
    foreground = _pass_labels(rank, level, seed)
    return np.where(foreground, cell_id, -1).astype(np.int32, copy=False)


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
    order = np.argsort(grad, axis=None, kind="stable")  # row-major indices in flood order
    rank = np.empty(grad.size, dtype=np.int32)
    rank[order] = np.arange(grad.size, dtype=np.int32)
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


def _snap_seeds(cell_id: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the pixel nearest each seed of the (n, 2) float
    array within its own cell of `cell_id` (ties to the lowest row-major
    index); seeds with empty cells are left out."""
    sx, sy = points.T
    width = cell_id.shape[1]
    lab = cell_id.ravel()
    ys, xs = np.divmod(np.arange(lab.size), width)
    d2 = (xs - sx[lab]) ** 2 + (ys - sy[lab]) ** 2
    best = np.full(len(sx), np.inf)
    np.minimum.at(best, lab, d2)
    hits = np.flatnonzero(d2 == best[lab])
    first = np.unique(lab[hits], return_index=True)[1]
    return np.divmod(hits[first], width)


def scale_targets(labels: np.ndarray, n: int, theta: float) -> np.ndarray:
    """The (n, 2) float64 array of the extents (w_t, h_t) of the masks of
    seeds 0..n-1 in a label image (see watershed_segment) along the axes
    of a frame rotated by theta.

    Each mask's pixel coordinates are rotated by -theta about their
    centroid; the target extents are (max - min + 1) along each rotated
    axis, so at least 1. An empty mask's row is (0, 0): w_t > 0 marks a
    valid target.
    """
    if not math.isfinite(theta):
        raise InvalidInputError(f"theta must be finite, got {theta}")
    flat = np.flatnonzero(labels >= 0)
    owner = labels.ravel()[flat]
    # A stable sort keeps each mask's pixels in row-major order, so each
    # target is computed from the arrays np.nonzero(labels == k) gives.
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(n + 1))
    ys, xs = np.divmod(flat[order], labels.shape[1])
    c, s = math.cos(-theta), math.sin(-theta)
    targets = np.zeros((n, 2))
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo == hi:
            continue
        x, y = xs[lo:hi], ys[lo:hi]
        cx, cy = x.mean(), y.mean()
        u = (x - cx) * c - (y - cy) * s
        v = (x - cx) * s + (y - cy) * c
        targets[k] = u.max() - u.min() + 1.0, v.max() - v.min() + 1.0
    return targets


_PGM_TOKEN = re.compile(rb"\s*(#[^\n]*\n|\S+)")


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM as an (H, W) float array scaled to [0, 1]."""
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
    if pixels.max(initial=0) > maxval:
        raise InvalidInputError(f"PGM pixel value {pixels.max()} above maxval {maxval} in {path}")
    return pixels.reshape(height, width).astype(float) / maxval


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
