"""raster: Voronoi cells and watershed scale targets through the command line.

Each job writes a fresh scene set (untimed) and runs ``spwood watershed``
on every scene. A scene holds non-overlapping rotated rectangles of known
size on a noisy background, with one seed point at each rectangle centre.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from common import TIMED_JOB, WARM_UP, close, require, rng_for, run_cli

# (side in pixels, grid cells per side, rectangles): one large sparse scene
# and two small dense ones per job. The counts are fixed, so every job does
# the same amount of work whatever the seed.
SCENES = ((320, 5, 24), (160, 8, 60), (160, 8, 60))
WARM_SCENES = ((64, 3, 8),)
BACKGROUND, FOREGROUND, NOISE = 0.25, 0.75, 0.02
# Share of planted (w, h) that the recovered targets must match within
# max(10%, 2 px), over a whole run.
RECOVERY_FLOOR = 0.98


def make_scene(rng: np.random.Generator, side: int, grid: int, n: int, path: Path):
    """Write scene.pgm and points.txt; return seeds (n, 2), sizes (n, 2), theta."""
    cell = side / grid
    jitter = 0.08 * cell
    # Centres are at least cell - 2 * jitter apart, so a rectangle inside
    # this radius keeps 3 px of background to the edge of its Voronoi cell.
    radius = cell / 2 - jitter - 3.0
    chosen = rng.choice(grid * grid, size=n, replace=False)
    centres = np.stack([chosen % grid, chosen // grid], axis=1) * cell + cell / 2
    centres = centres + rng.uniform(-jitter, jitter, (n, 2))
    aspect = rng.uniform(0.35, 0.9, n)
    w = 2 * radius * rng.uniform(0.75, 1.0, n) / np.sqrt(1 + aspect**2)
    h = aspect * w
    theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
    ys, xs = np.mgrid[0:side, 0:side].astype(float)
    image = np.full((side, side), BACKGROUND)
    c, s = math.cos(theta), math.sin(theta)
    for (cx, cy), wk, hk in zip(centres, w, h):
        x0, x1 = int(max(cx - radius - 1, 0)), int(min(cx + radius + 2, side))
        y0, y1 = int(max(cy - radius - 1, 0)), int(min(cy + radius + 2, side))
        dx, dy = xs[y0:y1, x0:x1] - cx, ys[y0:y1, x0:x1] - cy
        inside = (np.abs(c * dx + s * dy) <= wk / 2) & (np.abs(-s * dx + c * dy) <= hk / 2)
        image[y0:y1, x0:x1][inside] = FOREGROUND
    image = np.clip(image + rng.normal(0.0, NOISE, image.shape), 0.0, 1.0)
    path.mkdir(parents=True)
    pixels = np.rint(image * 255).astype(np.uint8)
    (path / "scene.pgm").write_bytes(f"P5\n{side} {side}\n255\n".encode() + pixels.tobytes())
    (path / "points.txt").write_text(
        "".join(f"{x!r} {y!r} obj\n" for x, y in centres.tolist())
    )
    return centres, np.stack([w, h], axis=1), theta


def read_pgm(path) -> np.ndarray:
    """The benchmark's own binary-PGM reader: uint8 array (height, width)."""
    data = Path(path).read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while data[pos : pos + 1].isspace():
            pos += 1
        end = pos
        while not data[end : end + 1].isspace():
            end += 1
        tokens.append(data[pos:end])
        pos = end
    require(tokens[0] == b"P5", f"{path}: not a binary PGM")
    width, height = int(tokens[1]), int(tokens[2])
    return np.frombuffer(data, np.uint8, width * height, pos + 1).reshape(height, width)


def nearest_seed(seeds: np.ndarray, side: int) -> np.ndarray:
    """Brute-force nearest seed per pixel; ties go to the lowest index."""
    ys, xs = np.mgrid[0:side, 0:side].astype(float)
    best = np.full((side, side), np.inf)
    label = np.zeros((side, side), dtype=np.int64)
    for k, (x, y) in enumerate(seeds):
        d = (xs - x) ** 2 + (ys - y) ** 2
        closer = d < best
        best[closer] = d[closer]
        label[closer] = k
    return label


def extents(mask: np.ndarray, theta: float) -> tuple[float, float]:
    ys, xs = np.nonzero(mask)
    u = (xs - xs.mean()) * math.cos(theta) + (ys - ys.mean()) * math.sin(theta)
    v = -(xs - xs.mean()) * math.sin(theta) + (ys - ys.mean()) * math.cos(theta)
    return float(u.max() - u.min() + 1), float(v.max() - v.min() + 1)


class Workload:
    def __init__(self, spwood, seed: int, root: Path):
        self.cli = spwood.cli
        self.seed = seed
        self.root = root
        self.recovered = 0
        self.planted = 0

    def warm_up(self) -> None:
        job = self._job(rng_for(self.seed, WARM_UP), self.root / "warm", WARM_SCENES)
        self.run(job)

    def _job(self, rng, path: Path, scenes):
        job = []
        for i, (side, grid, n) in enumerate(scenes):
            scene = path / f"scene{i}"
            seeds, sizes, theta = make_scene(rng, side, grid, n, scene)
            argv = ["watershed", "--image", str(scene / "scene.pgm"),
                    "--points", str(scene / "points.txt"),
                    "--out-dir", str(path / "out" / f"scene{i}"),
                    # one token: argparse takes "-5.8e-05" for an option
                    f"--theta={theta!r}"]
            job.append((argv, seeds, sizes, theta))
        return job

    def prepare(self, j: int):
        return self._job(rng_for(self.seed, TIMED_JOB, j), self.root / f"job{j}", SCENES)

    def run(self, job):
        return [run_cli(self.cli, argv) for argv, *_ in job]

    def check(self, job, results) -> tuple[int, int, int]:
        targets = 0
        for (argv, seeds, sizes, theta), (code, text) in zip(job, results):
            require(code == 0, f"spwood watershed exited {code}: {text[-500:]}")
            out = Path(argv[argv.index("--out-dir") + 1])
            targets += self._check_scene(out, seeds, sizes, theta)
        return len(job), 0, targets

    def _check_scene(self, out: Path, seeds, sizes, theta) -> int:
        side = read_pgm(out / "mask_000.pgm").shape[0]
        cells = nearest_seed(seeds, side)
        owner = np.full((side, side), -1)
        rows = [r.split(",") for r in (out / "targets.csv").read_text().splitlines()
                if not r.startswith("#")][1:]
        require(len(rows) == len(seeds), f"{out}: {len(rows)} targets for {len(seeds)} seeds")
        for k, ((sx, sy), (w, h), row) in enumerate(zip(seeds, sizes, rows)):
            raw = read_pgm(out / f"mask_{k:03d}.pgm")
            require(np.isin(raw, (0, 255)).all(), f"{out}: mask {k} is not binary")
            mask = raw == 255
            require(not (mask & (owner >= 0)).any(), f"{out}: mask {k} overlaps another mask")
            owner[mask] = k
            require((cells[mask] == k).all(), f"{out}: mask {k} leaves its Voronoi cell")
            require(mask[int(math.floor(sy + 0.5)), int(math.floor(sx + 0.5))],
                    f"{out}: mask {k} misses its seed pixel")
            w_t, h_t, valid = float(row[4]), float(row[5]), row[6] == "1"
            require(valid == bool(mask.any()), f"{out}: target {k} valid={row[6]} disagrees with mask")
            if valid:
                ew, eh = extents(mask, theta)
                require(close(w_t, ew, 1e-8) and close(h_t, eh, 1e-8),
                        f"{out}: target {k} ({w_t}, {h_t}) is not the mask extent ({ew}, {eh})")
            self.planted += 1
            self.recovered += (abs(w_t - w) <= max(0.1 * w, 2.0)) and (abs(h_t - h) <= max(0.1 * h, 2.0))
        return len(seeds)

    def finish(self) -> None:
        rate = self.recovered / max(self.planted, 1)
        require(rate >= RECOVERY_FLOOR, f"recovered {rate:.3f} of planted sizes, floor {RECOVERY_FLOOR}")
