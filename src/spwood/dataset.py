"""DOTA-format annotations, weak-label derivation, and sparsification.

Annotation files hold one object per line: eight corner coordinates, a
category, and a difficulty flag. A line whose first token is non-numeric
is a metadata header, wherever it stands in the file; headers are kept
verbatim and written first on output. An annotation set holds its records
as columns, so parsing, weakening, sampling and formatting are array passes.

Two sparsification schemes are provided. The single method subsamples
per image and per category, always keeping at least one instance of any
category present in an image, which inflates rare categories. The
overall method subsamples each category across the whole labeled set at
the exact ratio, preserving the original category distribution. Both
return the ascending rows they keep, which the writer and the category
counts take in place of a copy of the set.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DotaParseError, InvalidInputError, check_seed
from .geometry import HorizontalBox, OrientedBox, corners_of_boxes, normalize_angle

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


class AnnotationSet:
    """Annotations of many images, held as columns.

    ``ids`` are the sorted image ids; the records of ``ids[i]`` are rows
    ``offsets[i]:offsets[i + 1]``, in file order. Row r has corners
    ``corners[r]`` ((N, 4, 2) float64), category ``names[codes[r]]``
    (``names`` is sorted, so code order is name order) and difficulty
    ``difficulty[r]`` (int64). ``headers`` maps image ids to header lines.
    """

    def __init__(self, ids, offsets, corners, codes, names, difficulty, headers=None):
        self.ids, self.names = tuple(ids), tuple(names)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.corners = np.ascontiguousarray(corners, dtype=np.float64).reshape(-1, 4, 2)
        self.codes = np.asarray(codes, dtype=np.intp)
        self.difficulty = np.asarray(difficulty, dtype=np.int64)
        self.headers: dict[str, tuple[str, ...]] = dict(headers or {})
        n, bounds = len(self.corners), self.offsets.tolist()
        if not (
            list(self.ids) == sorted(set(self.ids)) and list(self.names) == sorted(set(self.names))
            and len(bounds) == len(self.ids) + 1 and bounds[0] == 0 and bounds[-1] == n
            and bounds == sorted(bounds) and self.codes.shape == self.difficulty.shape == (n,)
            and np.all((self.codes >= 0) & (self.codes < len(self.names)))
        ):
            raise InvalidInputError("inconsistent annotation columns")
        if not np.isfinite(self.corners).all():
            raise InvalidInputError("non-finite corner coordinate")

    def __len__(self) -> int:
        return len(self.codes)

    def category_counts(self, rows=None) -> dict[str, int]:
        """Records per category, of the set or of its ``rows``."""
        codes = self.codes if rows is None else self.codes[rows]
        counts = np.bincount(codes, minlength=len(self.names)).tolist()
        return {name: n for name, n in zip(self.names, counts) if n}

    def _image_of_rows(self) -> np.ndarray:
        """(N,) index into ``ids`` of each row's image."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.offsets))

    def _select(self, rows, images=None, headers=None) -> AnnotationSet:
        """The ascending ``rows``, which lie in the images ``images``
        (ascending indices into ``ids``; all images by default)."""
        images = np.arange(len(self.ids)) if images is None else images
        offsets = np.append(np.searchsorted(rows, self.offsets[images]), len(rows))
        return AnnotationSet(
            [self.ids[i] for i in images], offsets, self.corners[rows], self.codes[rows],
            self.names, self.difficulty[rows], self.headers if headers is None else headers,
        )


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _check_row(tokens, raw: str, line_no: int) -> None:
    """Raise the error of one annotation line, if it is malformed."""
    if len(tokens) != 10:
        message = f"expected 8 coordinates, category, difficulty (10 fields), got {len(tokens)}"
        raise DotaParseError(message, line_no)
    try:
        coords = [float(t) for t in tokens[:8]]
    except ValueError:
        raise DotaParseError(f"bad coordinate in {raw.strip()!r}", line_no) from None
    if _is_number(tokens[8]):
        raise DotaParseError(f"category {tokens[8]!r} looks numeric", line_no)
    try:
        np.int64(int(tokens[9]))
    except (ValueError, OverflowError):
        raise DotaParseError(f"bad difficulty {tokens[9]!r}", line_no) from None
    if not all(math.isfinite(v) for v in coords):
        raise DotaParseError("non-finite corner coordinate", line_no)


def parse_dota(text: str, image_id: str = "") -> AnnotationSet:
    """Parse one image's annotation text.

    A line whose first token is non-numeric is a metadata header, wherever
    it stands in the file; headers are kept verbatim and written before
    the records on output. Every other non-blank line must carry exactly
    eight coordinates, a category, and an integer difficulty; the first
    malformed line raises. Each record's fields are converted into the
    columns as its line is read, so beyond the lines and the columns (and
    their buffers' slack) the parse holds one line's tokens.
    """
    lines = text.splitlines()
    headers, codes, difficulty = [], array("q"), array("q")
    names: dict[str, int] = {}  # category -> code, in order of arrival
    levels: dict[str, int] = {}  # difficulty token -> its value

    def coordinates():
        """Each record line's eight coordinate tokens, the first converted
        already; its category and difficulty go into their columns."""
        for raw in lines:
            tokens = raw.split()
            if not tokens:
                continue
            try:
                tokens[0] = float(tokens[0])
            except ValueError:
                headers.append(raw)
                continue
            if len(tokens) != 10:
                raise ValueError("wrong field count")
            code = names.get(tokens[8])
            if code is None:
                if _is_number(tokens[8]):
                    raise ValueError("numeric category")
                code = names[tokens[8]] = len(names)
            codes.append(code)
            level = levels.get(tokens[9])
            if level is None:
                level = levels[tokens[9]] = int(tokens[9])
            difficulty.append(level)
            del tokens[8:]
            yield tokens

    try:
        corners = np.fromiter(map(float, itertools.chain.from_iterable(coordinates())), np.float64)
        if not np.isfinite(corners).all():
            raise ValueError("non-finite corner")
    except (ValueError, OverflowError):
        for line_no, raw in enumerate(lines, start=1):
            tokens = raw.split()
            if tokens and _is_number(tokens[0]):
                _check_row(tokens, raw, line_no)
        raise
    rank = {name: i for i, name in enumerate(sorted(names))}
    codes = np.array([rank[name] for name in names], np.intp)[np.frombuffer(codes, np.int64)]
    return AnnotationSet(
        (image_id,), (0, len(codes)), corners, codes, sorted(names), np.frombuffer(difficulty, np.int64),
        {image_id: tuple(headers)} if headers else {},
    )


def merge_sets(sets) -> AnnotationSet:
    """One set with the images of all ``sets``, which must not share an id.

    ``sets`` is consumed one set at a time: each set's columns are appended
    to growing buffers before the next set is taken, so the merge holds one
    copy of the columns plus one set. Rows are gathered into id order once,
    and only when the images did not arrive in id order."""
    corners, codes, difficulty = array("d"), array("q"), array("q")
    names: dict[str, int] = {}  # category -> code, in order of arrival
    ids, seen, starts, sizes, headers = [], set(), [], [], {}
    for s in sets:
        for image_id in s.ids:
            if image_id in seen:
                raise InvalidInputError(f"duplicate image id {image_id!r}")
            seen.add(image_id)
        ids += s.ids
        starts += (s.offsets[:-1] + len(codes)).tolist()
        sizes += np.diff(s.offsets).tolist()
        recode = np.array([names.setdefault(name, len(names)) for name in s.names], np.int64)
        corners.frombytes(s.corners.tobytes())
        codes.frombytes(recode[s.codes].tobytes())
        difficulty.frombytes(s.difficulty.tobytes())
        headers.update(s.headers)
    rank = {name: i for i, name in enumerate(sorted(names))}
    codes = np.array([rank[name] for name in names], np.intp)[np.frombuffer(codes, np.int64)]
    corners, difficulty = np.frombuffer(corners, np.float64).reshape(-1, 4, 2), np.frombuffer(difficulty, np.int64)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    sizes, starts = np.array(sizes, np.intp)[order], np.array(starts, np.intp)[order]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if order != list(range(len(ids))):
        rows = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], sizes)
        corners, codes, difficulty = corners[rows], codes[rows], difficulty[rows]
    return AnnotationSet([ids[i] for i in order], offsets, corners, codes, sorted(names), difficulty, headers)


# Records gathered, weakened and formatted at once; it bounds the rows,
# labels, token and line lists and the texts a writer holds.
_BATCH_RECORDS = 128


def _batches(ann: AnnotationSet, rows=None):
    """(first position in ``rows``, set) over runs of whole images whose
    kept rows number at most _BATCH_RECORDS in all, in id order; a larger
    image is a batch of its own. ``rows`` are ascending rows of ``ann``
    (every row by default); each set holds its images' kept rows."""
    bounds = (ann.offsets if rows is None else np.searchsorted(rows, ann.offsets)).tolist()
    first = 0
    while first < len(ann.ids):
        last = max(first + 1, bisect.bisect_right(bounds, bounds[first] + _BATCH_RECORDS) - 1)
        lo, hi = bounds[first], bounds[last]
        take = slice(lo, hi) if rows is None else rows[lo:hi]
        ids = ann.ids[first:last]
        yield lo, AnnotationSet(
            ids, np.subtract(bounds[first : last + 1], lo), ann.corners[take], ann.codes[take], ann.names,
            ann.difficulty[take], {i: ann.headers[i] for i in ids if i in ann.headers},
        )
        first = last


def _render(ann: AnnotationSet, values, with_difficulty: bool, headers) -> dict[str, str]:
    """Text per image: its header lines, then one line per record with the
    record's row of ``values`` (full precision, integers without a
    fraction), its category and, if asked, its difficulty."""
    width = values.size // max(len(values), 1)
    tails = [ann.names[c] for c in ann.codes.tolist()]
    if with_difficulty:
        tails = [f"{c} {d}" for c, d in zip(tails, ann.difficulty.tolist())]
    tokens = iter([str(int(v)) if v.is_integer() else repr(v) for v in np.ravel(values).tolist()])
    lines = [f"{' '.join(v)} {t}" for v, t in zip(zip(*[tokens] * width), tails)]
    bounds = ann.offsets.tolist()
    out = {}
    for image_id, start, stop in zip(ann.ids, bounds, bounds[1:]):
        body = [*headers.get(image_id, ()), *lines[start:stop]]
        out[image_id] = "\n".join(body) + "\n" if body else ""
    return out


def _texts(ann: AnnotationSet, kind: WeakKind | None, dropped: list, rows=None):
    """(image id, text) of every image in id order, from its records among
    the ascending ``rows`` (all by default), gathered, weakened and
    rendered one batch at a time: the corner format with headers when
    ``kind`` is None, else ``kind`` labels (see write_dota_dir). Under a
    weak kind the records without a valid label are left out of the text
    and their rows appended to ``dropped``."""
    for lo, part in _batches(ann, rows):
        if kind is None:
            yield from _render(part, part.corners, True, part.headers).items()
            continue
        labels, bad = _weak_labels(part.corners, kind)[:2]
        if len(bad):
            dropped.extend((lo + bad if rows is None else rows[lo + bad]).tolist())
            keep = np.delete(np.arange(len(part)), bad)
            part, labels = part._select(keep), labels[keep]
        if kind is WeakKind.RBOX:
            labels = corners_of_boxes(labels)
        yield from _render(part, labels, kind is WeakKind.RBOX, {}).items()


def serialize_dota(ann: AnnotationSet) -> dict[str, str]:
    """Render each image back to annotation text, headers first."""
    return dict(_texts(ann, None, []))


def _dota_files(path) -> list[Path]:
    files = sorted(Path(path).glob("*.txt"))
    if not files:
        raise InvalidInputError(f"no .txt annotation files in {path}")
    return files


def dota_dir_ids(path) -> list[str]:
    """The sorted image ids (file stems) that load_dota_dir gives ``path``."""
    return sorted(f.stem for f in _dota_files(path))


def load_dota_dir(path, keep=None) -> AnnotationSet:
    """Load every .txt file in a directory; image ids are file stems. An
    error in a file (see parse_dota, or text that is not UTF-8) names it.
    Given the image ids ``keep``, every file is still parsed and checked,
    but only the images in ``keep`` are held and returned."""
    sets = map(_load_file, _dota_files(path))
    if keep is not None:
        keep = set(keep)
        sets = (s for s in sets if s.ids[0] in keep)
    return merge_sets(sets)


def _load_file(path: Path) -> AnnotationSet:
    """parse_dota of one file; an error names the file."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason} at offset {exc.start})") from None
    try:
        return parse_dota(text, image_id=path.stem)
    except DotaParseError as exc:
        raise DotaParseError(exc.message, exc.line_no, path) from None
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def write_dota_dir(ann: AnnotationSet, path, kind: WeakKind | None = None, rows=None) -> tuple[int, AnnotationSet]:
    """Write each image's text to ``path``/<image id>.txt, from its records
    among the ascending ``rows`` (all by default): the corner format with
    headers, or with ``kind`` its weak labels, without headers: "x y
    category" lines for points, "xmin ymin xmax ymax category" for
    horizontal boxes, the corner format for recovered oriented boxes. A
    record without a valid label (see weaken_corners) is left out of the
    text. Each batch of images is gathered, weakened, rendered and written
    before the next, so beyond ``ann`` and ``rows`` the writer holds one
    batch. Returns the number of files written and the records left out,
    without headers."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    dropped = []
    for image_id, text in _texts(ann, None if kind is None else WeakKind(kind), dropped, rows):
        (out / f"{image_id}.txt").write_text(text, encoding="utf-8")
    return len(ann.ids), ann._select(np.array(dropped, np.intp), headers={})


def _weak_labels(corners: np.ndarray, target: WeakKind):
    """(labels, bad, area): the weak label row of each quad of (N, 4, 2)
    corners, the ascending rows of the quads without a valid label, and
    under rbox the quad areas (None otherwise)."""
    if target is WeakKind.POINT:
        return corners.mean(axis=1), np.array([], dtype=np.intp), None
    if target is WeakKind.HBOX:
        boxes = np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)
        return boxes, np.flatnonzero(~((boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3]))), None
    # Products go through matmul, which makes the dot calls np.dot and
    # np.linalg.norm make on one quad, and angles through math.atan2, not
    # np.arctan2's SIMD loop, so each row is bit-identical to one quad's.
    x, y = corners[..., 0], corners[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        cross = x[:, None] @ np.roll(y, -1, axis=1)[..., None] - np.roll(x, -1, axis=1)[:, None] @ y[..., None]
        area = 0.5 * np.abs(cross[:, 0, 0])
        edges = np.roll(corners, -1, axis=1) - corners
        lengths = np.sqrt(edges[..., None, :] @ edges[..., None])[..., 0, 0]
        len_a, len_b = 0.5 * (lengths[:, 0] + lengths[:, 2]), 0.5 * (lengths[:, 1] + lengths[:, 3])
        along_a = len_a >= len_b
        direction = np.where(along_a[:, None], edges[:, 0] - edges[:, 2], edges[:, 1] - edges[:, 3]) * 0.5
        theta = np.array([math.atan2(dy, dx) for dx, dy in direction.tolist()], dtype=np.float64)
        # the second pass is OrientedBox's, which normalizes the angle it is given
        theta = normalize_angle(normalize_angle(theta))
        boxes = np.column_stack([
            corners.mean(axis=1), np.where(along_a, len_a, len_b), np.where(along_a, len_b, len_a), theta,
        ])
    bad = (area < 1e-9) | ~(np.isfinite(boxes).all(axis=1) & (boxes[:, 2] > 0) & (boxes[:, 3] > 0))
    return boxes, np.flatnonzero(bad), area


def weaken_corners(corners, target: WeakKind) -> np.ndarray:
    """Weak labels of (N, 4, 2) corner quads, one row per quad.

    point gives the (x, y) centroid; hbox the corner bounds (xmin, ymin,
    xmax, ymax); rbox the oriented box (cx, cy, w, h, theta): center from
    the corner centroid, extents from mean opposite-edge lengths, angle
    from the longer edge. The first quad without a valid label raises what
    the label type raises, or DegenerateInputError for a zero-area quad.
    """
    target = WeakKind(target)
    corners = np.ascontiguousarray(corners, dtype=np.float64).reshape(-1, 4, 2)
    labels, bad, area = _weak_labels(corners, target)
    if len(bad):
        i = bad[0]
        if area is not None and area[i] < 1e-9:
            raise DegenerateInputError(f"zero-area quadrilateral {tuple(map(tuple, corners[i].tolist()))}")
        (HorizontalBox if target is WeakKind.HBOX else OrientedBox)(*labels[i].tolist())
    return labels


def round_half_up(x: float) -> int:
    """Shared rounding rule for sample counts."""
    return int(math.floor(x + 0.5))


def select_partial(ids, partial_ratio: float, seed: int):
    """Split the sorted image ids ``ids`` (an annotation set's ``ids``, or
    dota_dir_ids of a directory) into (labeled, unlabeled) by uniform
    sampling of round_half_up(ratio * n_images) images without replacement."""
    if not ids:
        raise InvalidInputError("empty annotation set")
    if not 0.0 < partial_ratio <= 1.0:
        raise InvalidInputError(f"partial_ratio must be in (0, 1], got {partial_ratio}")
    k = round_half_up(partial_ratio * len(ids))
    chosen = np.random.default_rng(check_seed(seed)).permutation(len(ids))[:k]
    labeled = sorted(ids[i] for i in chosen)
    unlabeled = sorted(set(ids) - set(labeled))
    return labeled, unlabeled


def subset_images(ann: AnnotationSet, image_ids) -> AnnotationSet:
    keep = set(image_ids)
    images = [i for i, image_id in enumerate(ann.ids) if image_id in keep]
    rows = np.flatnonzero(np.isin(ann._image_of_rows(), images))
    return ann._select(rows, images, {i: h for i, h in ann.headers.items() if i in keep})


# Sorted keys compared at once when _sample_groups finds its groups.
_GROUP_SCAN = 1 << 12


def _group_ends(key: np.ndarray, order: np.ndarray):
    """The end, as a position in ``order``, of each run of equal keys when
    ``order`` sorts the rows by ``key``; the keys are compared _GROUP_SCAN
    rows at a time, so the scan holds no row-sized array."""
    for lo in range(0, len(order) - 1, _GROUP_SCAN):
        sorted_key = key[order[lo : lo + _GROUP_SCAN + 1]]
        ends = sorted_key[1:] != sorted_key[:-1]
        del sorted_key  # so the ends, one per group, take no more than the keys did
        ends = np.flatnonzero(ends)
        ends += lo + 1
        yield from map(int, ends)
        del ends
    if len(order):
        yield len(order)


def _sample_groups(key: np.ndarray, count, seed: int) -> np.ndarray:
    """Ascending rows kept when each group of rows with equal ``key`` keeps
    ``count(n)`` of its n rows: groups in key order, each drawing one
    ``permutation(n)`` over its rows in row order. Beyond ``key`` it holds
    the sorting order and a keep mask."""
    rng = np.random.default_rng(check_seed(seed))
    order = np.argsort(key, kind="stable")
    keep = np.zeros(len(order), dtype=bool)
    start = 0
    # Shuffling a group's rows in place makes the draws of permutation(n)
    # and moves each row where that permutation moves its index; it leaves
    # the keys in sorted order for the groups _group_ends has yet to find.
    for stop in _group_ends(key, order):
        rng.shuffle(order[start:stop])
        keep[order[start : start + count(stop - start)]] = True
        start = stop
    del order
    return np.flatnonzero(keep)


def sparsify_single(ann: AnnotationSet, sparse_ratio: float, seed: int) -> np.ndarray:
    """Per image and per category keep max(1, round_half_up(ratio * n))
    records, sampled without replacement; returns the ascending kept rows.
    Every (image, category) pair in the input survives."""
    if not 0.0 < sparse_ratio <= 1.0:
        raise InvalidInputError(f"sparse_ratio must be in (0, 1], got {sparse_ratio}")
    key = ann._image_of_rows()
    key *= len(ann.names)
    key += ann.codes
    return _sample_groups(key, lambda n: max(1, round_half_up(sparse_ratio * n)), seed)


def sparsify_overall(ann: AnnotationSet, sparse_ratio: float, seed: int) -> np.ndarray:
    """Per category across the whole set keep exactly
    round_half_up(ratio * n) records, sampled without replacement; returns
    the ascending kept rows. An image may lose every instance of a
    category."""
    if not 0.0 < sparse_ratio <= 1.0:
        raise InvalidInputError(f"sparse_ratio must be in (0, 1], got {sparse_ratio}")
    return _sample_groups(ann.codes, lambda n: round_half_up(sparse_ratio * n), seed)


@dataclass(frozen=True)
class CategoryRow:
    category: str
    count_single: int
    count_overall: int
    relative_difference_percent: float | None  # None when undefined


@dataclass(frozen=True)
class CategoryStats:
    rows: tuple[CategoryRow, ...]

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
    rows = []
    for cat in sorted(set(single_counts) | set(overall_counts), key=category_sort_key):
        cs, co = int(single_counts.get(cat, 0)), int(overall_counts.get(cat, 0))
        rows.append(CategoryRow(cat, cs, co, relative_difference_percent(cs, co)))
    return CategoryStats(tuple(rows))

