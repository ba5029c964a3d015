"""corpus: DOTA-style annotation tooling through the command line.

Set-up writes a directory of annotation files. Each job runs five
``spwood`` commands over it with a fresh ``--seed`` and checks every
output against the benchmark's own counts of the generated corpus.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import numpy as np

from common import SETUP, TIMED_JOB, WARM_UP, require, rng_for, run_cli, seed_for

N_FILES = 150
# Records per file, from 10 to 250 and mostly small (median 32, 8798 in all).
# The seed draws the order of the files; the total is the same for every seed.
COUNTS = np.rint(10 * 25 ** ((np.arange(N_FILES) / (N_FILES - 1)) ** 1.5)).astype(int)
COMMON = ("SV", "LV", "SH", "PL", "ST", "HA", "BR", "TC", "BC", "SP")
COMMON_P = 1.0 / np.arange(1, len(COMMON) + 1) ** 1.3
COMMON_P /= COMMON_P.sum()
# Each rare category appears in an image with this probability, as a singleton.
RARE = ("GTF", "SBF", "RA", "BD", "HC")
P_RARE = 0.12
SPARSE = 0.3
PARTIAL = 0.5
OPS_PER_JOB = 5


def rect_corners(cx, cy, w, h, theta) -> np.ndarray:
    """(..., 4, 2) corners of rotated rectangles, counterclockwise from the
    corner at (-w/2, -h/2) in the rectangle's own frame."""
    cx, cy, w, h, theta = np.broadcast_arrays(*map(np.asarray, (cx, cy, w, h, theta)))
    u = np.stack([-w, w, w, -w], axis=-1) / 2.0
    v = np.stack([-h, -h, h, h], axis=-1) / 2.0
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    return np.stack([cx[..., None] + c * u - s * v, cy[..., None] + s * u + c * v], axis=-1)


def fmt_float(v: float) -> str:
    """Full-precision text, integers without a fraction."""
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def keep_count(n: int) -> int:
    return int(math.floor(SPARSE * n + 0.5))


class Image:
    """One generated annotation file, as the benchmark knows it."""

    def __init__(self, headers, lines, corners, cats):
        self.headers = headers
        self.line_set = Counter(lines)
        self.corners = corners
        self.cats = np.array(cats)
        self.cat_counts = Counter(cats)
        self.centroids = corners.mean(axis=1)


def generate_corpus(rng: np.random.Generator, path: Path, counts) -> dict[str, Image]:
    path.mkdir(parents=True)
    images = {}
    for i, n in enumerate(rng.permutation(counts)):
        cats = list(rng.choice(COMMON, size=n, p=COMMON_P))
        rare = [c for c in RARE if rng.random() < P_RARE]
        for c, idx in zip(rare, rng.choice(n, size=len(rare), replace=False)):
            cats[idx] = c
        w = rng.uniform(6.0, 150.0, n)
        corners = rect_corners(
            rng.uniform(0.0, 4000.0, n),
            rng.uniform(0.0, 4000.0, n),
            w,
            w * rng.uniform(0.15, 1.0, n),
            rng.uniform(-math.pi / 2, math.pi / 2, n),
        )
        difficulty = (rng.random(n) < 0.1).astype(int)
        lines = [
            " ".join(fmt_float(v) for v in corners[k].ravel()) + f" {cats[k]} {difficulty[k]}"
            for k in range(n)
        ]
        headers = ["imagesource:GoogleEarth", f"gsd:{fmt_float(rng.uniform(0.1, 0.9))}"]
        image_id = f"P{i:04d}"
        (path / f"{image_id}.txt").write_text("\n".join(headers + lines) + "\n")
        images[image_id] = Image(headers, lines, corners, cats)
    return images


def read_dir(path: Path) -> dict[str, list[str]]:
    return {f.stem: f.read_text().splitlines() for f in sorted(path.glob("*.txt"))}


def count_cats(lines) -> Counter:
    return Counter(line.split()[-2] for line in lines)


class Workload:
    def __init__(self, spwood, seed: int, root: Path):
        self.cli = spwood.cli
        self.seed = seed
        self.root = root
        self.images = generate_corpus(rng_for(seed, SETUP), root / "corpus", COUNTS)
        self.n_records = int(COUNTS.sum())
        self.totals = Counter()
        for img in self.images.values():
            self.totals.update(img.cat_counts)
        small = np.full(6, 12)
        generate_corpus(rng_for(seed, WARM_UP), root / "warm", small)

    def warm_up(self) -> None:
        job = self._job(self.root / "warm", self.root / "warm-out", seed_for(self.seed, WARM_UP))
        self.run(job)

    def _job(self, corpus: Path, out: Path, seed: int):
        s, c = str(seed), str(corpus)
        sparsify = ["sparsify", "--input", c, "--sparse", str(SPARSE), "--seed", s]
        commands = [
            sparsify + ["--out", str(out / "single"), "--method", "single", "--partial", str(PARTIAL)],
            sparsify + ["--out", str(out / "overall"), "--method", "overall"],
            ["report", "--single", str(out / "single" / "annotations"),
             "--overall", str(out / "overall" / "annotations"), "--out", str(out / "report.csv")],
            sparsify + ["--out", str(out / "rbox"), "--method", "single", "--weaken", "rbox"],
            sparsify + ["--out", str(out / "point"), "--method", "overall", "--weaken", "point"],
        ]
        return out, commands

    def prepare(self, j: int):
        return self._job(self.root / "corpus", self.root / f"job{j}" / "out", seed_for(self.seed, TIMED_JOB, j))

    def run(self, job):
        return [run_cli(self.cli, argv) for argv in job[1]]

    def check(self, job, results) -> tuple[int, int, int]:
        out = job[0]
        for (code, text), argv in zip(results, job[1]):
            require(code == 0, f"spwood {argv[0]} exited {code}: {text[-500:]}")
        single = self._check_single(out / "single")
        overall = self._check_overall(out / "overall")
        self._check_report(out / "report.csv", single, overall)
        self._check_points(out / "point" / "annotations")
        rbox_ok = self._check_rbox(out / "rbox" / "annotations")
        read = 4 * self.n_records + sum(single.values()) + sum(overall.values())
        return OPS_PER_JOB, 0 if rbox_ok else 1, read

    def _check_lines(self, files: dict[str, list[str]]) -> None:
        for image_id, lines in files.items():
            img = self.images[image_id]
            require(lines[: len(img.headers)] == img.headers, f"{image_id}: headers changed")
            records = lines[len(img.headers):]
            extra = Counter(records) - img.line_set
            require(not extra, f"{image_id}: lines not in the input: {list(extra)[:2]}")

    def _check_single(self, path: Path) -> Counter:
        labeled = (path / "labeled_ids.txt").read_text().split()
        require(len(labeled) == math.floor(PARTIAL * N_FILES + 0.5), "wrong labeled image count")
        files = read_dir(path / "annotations")
        require(sorted(files) == sorted(labeled), "single output images differ from labeled ids")
        self._check_lines(files)
        kept = Counter()
        for image_id, lines in files.items():
            img = self.images[image_id]
            got = count_cats(lines[len(img.headers):])
            want = {c: max(1, keep_count(n)) for c, n in img.cat_counts.items()}
            require(got == want, f"single {image_id}: kept {dict(got)}, expected {want}")
            kept.update(got)
        return kept

    def _check_overall(self, path: Path) -> Counter:
        files = read_dir(path / "annotations")
        require(sorted(files) == sorted(self.images), "overall output images differ from input")
        self._check_lines(files)
        kept = Counter()
        for image_id, lines in files.items():
            kept.update(count_cats(lines[len(self.images[image_id].headers):]))
        want = {c: keep_count(n) for c, n in self.totals.items() if keep_count(n)}
        require(kept == want, f"overall kept {dict(kept)}, expected {want}")
        return kept

    def _check_report(self, path: Path, single: Counter, overall: Counter) -> None:
        rows = [r for r in path.read_text().splitlines() if not r.startswith("#")]
        require(rows[0] == "category,count_single,count_overall,relative_difference_percent",
                "report header")
        got = {}
        for row in rows[1:]:
            cat, cs, co, rel = row.split(",")
            got[cat] = (int(cs), int(co), rel)
        for cat in set(single) | set(overall):
            cs, co = single[cat], overall[cat]
            rel = "" if co == 0 else f"{(cs - co) / co * 100.0:.4f}"
            require(got.get(cat) == (cs, co, rel), f"report {cat}: {got.get(cat)} != {(cs, co, rel)}")
        require(len(got) == len(set(single) | set(overall)), "report has extra categories")

    def _check_points(self, path: Path) -> None:
        files = read_dir(path)
        kept = Counter()
        for image_id, lines in files.items():
            img = self.images[image_id]
            for line in lines:
                x, y, cat = line.split()
                kept[cat] += 1
                cands = img.centroids[img.cats == cat]
                err = np.abs(cands - [float(x), float(y)]).max(axis=1).min() if len(cands) else np.inf
                require(err <= 1e-9, f"point {image_id}: {line!r} is no record's centroid")
        want = {c: keep_count(n) for c, n in self.totals.items() if keep_count(n)}
        require(kept == want, f"point output kept {dict(kept)}, expected {want}")

    def _check_rbox(self, path: Path) -> bool:
        """False when the output does not parse; wrong geometry is an error."""
        parsed = {}
        for image_id, lines in read_dir(path).items():
            try:
                parsed[image_id] = [
                    (np.array([float(t) for t in line.split()[:8]]).reshape(4, 2), line.split()[8])
                    for line in lines
                ]
            except ValueError:
                return False
        require(sorted(parsed) == sorted(self.images), "rbox output images differ from input")
        for image_id, boxes in parsed.items():
            img = self.images[image_id]
            for corners, cat in boxes:
                cands = img.corners[img.cats == cat]
                err = min(
                    np.abs(np.roll(cands, k, axis=1) - corners).max(axis=(1, 2)).min()
                    for k in range(4)
                )
                require(err <= 1e-6, f"rbox {image_id}: box matches no input rectangle")
            got = Counter(cat for _, cat in boxes)
            want = {c: max(1, keep_count(n)) for c, n in img.cat_counts.items()}
            require(got == want, f"rbox {image_id}: kept {dict(got)}, expected {want}")
        return True
