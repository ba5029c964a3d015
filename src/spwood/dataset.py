"""DOTA-format annotations, weak-label derivation, and sparsification.

Annotation files hold one object per line: eight corner coordinates, a
category, and a difficulty flag. Metadata header lines (first token
non-numeric) are preserved verbatim on output.

Two sparsification schemes are provided. The single method subsamples
per image and per category, always keeping at least one instance of any
category present in an image, which inflates rare categories. The
overall method subsamples each category across the whole labeled set at
the exact ratio, preserving the original category distribution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DotaParseError, InvalidInputError
from .geometry import (
    HorizontalBox,
    OrientedBox,
    PointAnnotation,
    box_corners,
    normalize_angle,
)

# report ordering used for category tables; unknown categories follow,
# sorted by name
DOTA_CATEGORY_ORDER = (
    "PL", "BD", "BR", "GTF", "SV", "LV", "SH", "TC", "BC", "ST",
    "SBF", "RA", "HA", "SP", "HC",
)
DOTA_CATEGORY_NAMES = (
    "plane", "baseball-diamond", "bridge", "ground-track-field",
    "small-vehicle", "large-vehicle", "ship", "tennis-court",
    "basketball-court", "storage-tank", "soccer-ball-field", "roundabout",
    "harbor", "swimming-pool", "helicopter",
)
_CATEGORY_RANK = {c: i for i, c in enumerate(DOTA_CATEGORY_ORDER)}
_CATEGORY_RANK.update({c: i for i, c in enumerate(DOTA_CATEGORY_NAMES)})


class WeakKind(str, enum.Enum):
    RBOX = "rbox"
    HBOX = "hbox"
    POINT = "point"


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotated object: four corners, category, difficulty flag."""

    image_id: str
    corners: tuple[tuple[float, float], ...]
    category: str
    difficulty: int = 0

    def __post_init__(self):
        if len(self.corners) != 4:
            raise InvalidInputError(f"expected 4 corners, got {len(self.corners)}")
        if not self.category:
            raise InvalidInputError("category must be non-empty")
        corners = tuple((float(x), float(y)) for x, y in self.corners)
        if not all(math.isfinite(v) for xy in corners for v in xy):
            raise InvalidInputError("non-finite corner coordinate")
        object.__setattr__(self, "corners", corners)


class AnnotationSet:
    """Annotation records grouped by image, with preserved header lines."""

    def __init__(self, images=None, headers=None):
        self.images: dict[str, list[AnnotationRecord]] = dict(images or {})
        self.headers: dict[str, tuple[str, ...]] = dict(headers or {})
        for image_id, records in self.images.items():
            for rec in records:
                if rec.image_id != image_id:
                    raise InvalidInputError(
                        f"record for {rec.image_id!r} filed under {image_id!r}"
                    )

    def __len__(self) -> int:
        return sum(len(r) for r in self.images.values())

    def image_ids(self) -> list[str]:
        return sorted(self.images)

    def records(self):
        for image_id in self.image_ids():
            yield from self.images[image_id]

    def category_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rec in self.records():
            counts[rec.category] = counts.get(rec.category, 0) + 1
        return counts

    def categories(self) -> list[str]:
        return sorted({rec.category for rec in self.records()})


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def parse_dota(text: str, image_id: str = "") -> AnnotationSet:
    """Parse one image's annotation text.

    Leading lines whose first token is non-numeric are metadata headers
    and are kept for round-tripping. Each remaining line must carry
    exactly eight coordinates, a category, and an integer difficulty.
    """
    headers: list[str] = []
    records: list[AnnotationRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if not _is_number(tokens[0]):
            headers.append(raw.rstrip("\n"))
            continue
        if len(tokens) != 10:
            raise DotaParseError(
                f"expected 8 coordinates, category, difficulty "
                f"(10 fields), got {len(tokens)}",
                line_no,
            )
        try:
            coords = [float(t) for t in tokens[:8]]
        except ValueError:
            raise DotaParseError(f"bad coordinate in {line!r}", line_no) from None
        category = tokens[8]
        if _is_number(category):
            raise DotaParseError(f"category {category!r} looks numeric", line_no)
        try:
            difficulty = int(tokens[9])
        except ValueError:
            raise DotaParseError(f"bad difficulty {tokens[9]!r}", line_no) from None
        records.append(
            AnnotationRecord(
                image_id=image_id,
                corners=tuple(
                    (coords[2 * i], coords[2 * i + 1]) for i in range(4)
                ),
                category=category,
                difficulty=difficulty,
            )
        )
    return AnnotationSet(
        images={image_id: records},
        headers={image_id: tuple(headers)} if headers else {},
    )


def merge_sets(sets) -> AnnotationSet:
    images: dict[str, list[AnnotationRecord]] = {}
    headers: dict[str, tuple[str, ...]] = {}
    for s in sets:
        for image_id, records in s.images.items():
            if image_id in images:
                raise InvalidInputError(f"duplicate image id {image_id!r}")
            images[image_id] = list(records)
        headers.update(s.headers)
    return AnnotationSet(images, headers)


def _fmt_coord(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def serialize_dota(ann: AnnotationSet) -> dict[str, str]:
    """Render each image back to annotation text, headers first."""
    out = {}
    for image_id in ann.image_ids():
        lines = list(ann.headers.get(image_id, ()))
        for rec in ann.images[image_id]:
            coords = " ".join(
                f"{_fmt_coord(x)} {_fmt_coord(y)}" for x, y in rec.corners
            )
            lines.append(f"{coords} {rec.category} {rec.difficulty}")
        out[image_id] = "\n".join(lines) + "\n" if lines else ""
    return out


def load_dota_dir(path) -> AnnotationSet:
    """Load every .txt file in a directory; image ids are file stems."""
    files = sorted(Path(path).glob("*.txt"))
    if not files:
        raise InvalidInputError(f"no .txt annotation files in {path}")
    return merge_sets(
        parse_dota(f.read_text(encoding="utf-8"), image_id=f.stem) for f in files
    )


def write_dota_dir(ann: AnnotationSet, path) -> None:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for image_id, text in serialize_dota(ann).items():
        (out / f"{image_id}.txt").write_text(text, encoding="utf-8")


def weaken(record: AnnotationRecord, target: WeakKind):
    """Derive a weaker label from a corner-annotated record.

    rbox recovers the oriented box (center from the corner centroid,
    extents from mean opposite-edge lengths, angle from the longer edge);
    hbox takes the axis-aligned corner bounds; point takes the centroid.
    """
    target = WeakKind(target)
    pts = np.asarray(record.corners, dtype=float)
    if target is WeakKind.POINT:
        cx, cy = pts.mean(axis=0)
        return PointAnnotation(float(cx), float(cy), record.category)
    if target is WeakKind.HBOX:
        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
        return HorizontalBox(float(xmin), float(ymin), float(xmax), float(ymax))
    # shoelace area to reject degenerate quads
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))
    if area < 1e-9:
        raise DegenerateInputError(f"zero-area quadrilateral {record.corners}")
    edges = np.roll(pts, -1, axis=0) - pts
    len_a = 0.5 * (np.linalg.norm(edges[0]) + np.linalg.norm(edges[2]))
    len_b = 0.5 * (np.linalg.norm(edges[1]) + np.linalg.norm(edges[3]))
    dir_a = 0.5 * (edges[0] - edges[2])
    dir_b = 0.5 * (edges[1] - edges[3])
    if len_a >= len_b:
        w, h, direction = len_a, len_b, dir_a
    else:
        w, h, direction = len_b, len_a, dir_b
    theta = normalize_angle(math.atan2(float(direction[1]), float(direction[0])))
    cx, cy = pts.mean(axis=0)
    return OrientedBox(float(cx), float(cy), float(w), float(h), theta)


def record_from_box(box: OrientedBox, image_id: str, category: str, difficulty: int = 0) -> AnnotationRecord:
    """Corner-format record for an oriented box (inverse of weaken-to-rbox)."""
    corners = tuple((float(x), float(y)) for x, y in box_corners(box))
    return AnnotationRecord(image_id, corners, category, difficulty)


def serialize_weak(ann: AnnotationSet, kind: WeakKind) -> dict[str, str]:
    """Weak-label text per image: "x y category" lines for points,
    "xmin ymin xmax ymax category" for horizontal boxes, corner format
    for recovered oriented boxes."""
    kind = WeakKind(kind)
    out = {}
    for image_id in ann.image_ids():
        lines = []
        for rec in ann.images[image_id]:
            weak = weaken(rec, kind)
            if kind is WeakKind.POINT:
                lines.append(
                    f"{_fmt_coord(weak.x)} {_fmt_coord(weak.y)} {rec.category}"
                )
            elif kind is WeakKind.HBOX:
                lines.append(
                    f"{_fmt_coord(weak.xmin)} {_fmt_coord(weak.ymin)} "
                    f"{_fmt_coord(weak.xmax)} {_fmt_coord(weak.ymax)} {rec.category}"
                )
            else:
                coords = " ".join(
                    f"{_fmt_coord(x)} {_fmt_coord(y)}"
                    for x, y in box_corners(weak)
                )
                lines.append(f"{coords} {rec.category} {rec.difficulty}")
        out[image_id] = "\n".join(lines) + "\n" if lines else ""
    return out


def round_half_up(x: float) -> int:
    """Shared rounding rule for sample counts."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SparsifyConfig:
    method: str = "single"  # "single" | "overall"
    partial_ratio: float = 1.0
    sparse_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("single", "overall"):
            raise InvalidInputError(f"unknown sparsify method {self.method!r}")
        for name in ("partial_ratio", "sparse_ratio"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise InvalidInputError(f"{name} must be in (0, 1], got {v}")


def select_partial(ann: AnnotationSet, partial_ratio: float, seed: int):
    """Split image ids into (labeled, unlabeled) by uniform sampling of
    round_half_up(ratio * n_images) images without replacement."""
    if not ann.images:
        raise InvalidInputError("empty annotation set")
    if not 0.0 < partial_ratio <= 1.0:
        raise InvalidInputError(f"partial_ratio must be in (0, 1], got {partial_ratio}")
    ids = ann.image_ids()
    k = round_half_up(partial_ratio * len(ids))
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(len(ids))[:k]
    labeled = sorted(ids[i] for i in chosen)
    unlabeled = sorted(set(ids) - set(labeled))
    return labeled, unlabeled


def subset_images(ann: AnnotationSet, image_ids) -> AnnotationSet:
    keep = set(image_ids)
    return AnnotationSet(
        images={i: list(r) for i, r in ann.images.items() if i in keep},
        headers={i: h for i, h in ann.headers.items() if i in keep},
    )


def sparsify_single(ann: AnnotationSet, sparse_ratio: float, seed: int) -> AnnotationSet:
    """Per image and per category keep max(1, round_half_up(ratio * n))
    records, sampled without replacement. Every (image, category) pair in
    the input survives."""
    if not 0.0 < sparse_ratio <= 1.0:
        raise InvalidInputError(f"sparse_ratio must be in (0, 1], got {sparse_ratio}")
    rng = np.random.default_rng(seed)
    images: dict[str, list[AnnotationRecord]] = {}
    for image_id in ann.image_ids():
        records = ann.images[image_id]
        by_cat: dict[str, list[int]] = {}
        for idx, rec in enumerate(records):
            by_cat.setdefault(rec.category, []).append(idx)
        keep: set[int] = set()
        for cat in sorted(by_cat):
            idxs = by_cat[cat]
            k = max(1, round_half_up(sparse_ratio * len(idxs)))
            chosen = rng.permutation(len(idxs))[:k]
            keep.update(idxs[i] for i in chosen)
        images[image_id] = [records[i] for i in sorted(keep)]
    return AnnotationSet(images, dict(ann.headers))


def sparsify_overall(ann: AnnotationSet, sparse_ratio: float, seed: int) -> AnnotationSet:
    """Per category across the whole set keep exactly
    round_half_up(ratio * n) records, sampled without replacement; an
    image may lose every instance of a category."""
    if not 0.0 < sparse_ratio <= 1.0:
        raise InvalidInputError(f"sparse_ratio must be in (0, 1], got {sparse_ratio}")
    rng = np.random.default_rng(seed)
    entries: dict[str, list[tuple[str, int]]] = {}
    for image_id in ann.image_ids():
        for idx, rec in enumerate(ann.images[image_id]):
            entries.setdefault(rec.category, []).append((image_id, idx))
    keep: dict[str, set[int]] = {image_id: set() for image_id in ann.images}
    for cat in sorted(entries):
        pool = entries[cat]
        k = round_half_up(sparse_ratio * len(pool))
        chosen = rng.permutation(len(pool))[:k]
        for i in chosen:
            image_id, idx = pool[i]
            keep[image_id].add(idx)
    images = {
        image_id: [ann.images[image_id][i] for i in sorted(keep[image_id])]
        for image_id in ann.images
    }
    return AnnotationSet(images, dict(ann.headers))


def sparsify(ann: AnnotationSet, config: SparsifyConfig) -> AnnotationSet:
    if config.method == "single":
        return sparsify_single(ann, config.sparse_ratio, config.seed)
    return sparsify_overall(ann, config.sparse_ratio, config.seed)


@dataclass(frozen=True)
class CategoryRow:
    category: str
    count_single: int
    count_overall: int
    relative_difference_percent: float | None  # None when undefined


@dataclass(frozen=True)
class CategoryStats:
    rows: tuple[CategoryRow, ...]

    def by_category(self) -> dict[str, CategoryRow]:
        return {r.category: r for r in self.rows}

    def to_csv(self) -> str:
        lines = ["category,count_single,count_overall,relative_difference_percent"]
        for r in self.rows:
            rel = "" if r.relative_difference_percent is None else f"{r.relative_difference_percent:.4f}"
            lines.append(f"{r.category},{r.count_single},{r.count_overall},{rel}")
        return "\n".join(lines) + "\n"


def category_sort_key(category: str):
    """Report ordering: canonical DOTA order first, then others by name."""
    return (_CATEGORY_RANK.get(category, len(DOTA_CATEGORY_ORDER)), category)


def relative_difference_percent(count_single: int, count_overall: int) -> float | None:
    if count_overall == 0:
        return None
    return (count_single - count_overall) / count_overall * 100.0


def compare_counts(single_counts: dict[str, int], overall_counts: dict[str, int]) -> CategoryStats:
    """Category statistics from raw per-category counts."""
    categories = sorted(
        set(single_counts) | set(overall_counts), key=category_sort_key
    )
    rows = []
    for cat in categories:
        cs = int(single_counts.get(cat, 0))
        co = int(overall_counts.get(cat, 0))
        rows.append(
            CategoryRow(cat, cs, co, relative_difference_percent(cs, co))
        )
    return CategoryStats(tuple(rows))


def compare_stats(single: AnnotationSet, overall: AnnotationSet) -> CategoryStats:
    """Per-category counts of two sparsified sets and the relative
    difference of the single method against the overall method."""
    return compare_counts(single.category_counts(), overall.category_counts())
