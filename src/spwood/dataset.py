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

import enum
import itertools
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DotaParseError, InvalidInputError, check_seed, read_text
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
    ``difficulty[r]``. ``headers`` maps image ids to header lines.

    Codes and difficulties are checked as given, then held in the narrowest
    type that holds them: ``codes`` as ``np.min_scalar_type(len(names) - 1)``
    (uint8 up to 256 categories), ``difficulty`` as the narrowest of int8,
    int16, int32 and int64 that holds its values (int8 for 0/1).
    """

    def __init__(self, ids, offsets, corners, codes, names, difficulty, headers=None):
        self.ids, self.names = tuple(ids), tuple(names)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.corners = np.ascontiguousarray(corners, dtype=np.float64).reshape(-1, 4, 2)
        codes = codes if _is_array_of(codes, "iu") else np.asarray(codes, dtype=np.intp)
        difficulty = difficulty if _is_array_of(difficulty, "i") else np.asarray(difficulty, dtype=np.int64)
        # copied entry by entry: a whole-dict copy takes a fresh key table,
        # which the interpreter keeps in a free list once the set is freed
        self.headers: dict[str, tuple[str, ...]] = {i: h for i, h in (headers or {}).items()}
        # checked pairwise, so no check holds a copy of ids or offsets
        n, bounds = len(self.corners), self.offsets
        if not (
            _ascending(self.ids) and _ascending(self.names)
            and bounds.shape == (len(self.ids) + 1,) and bounds[0] == 0 and bounds[-1] == n
            and (bounds[:-1] <= bounds[1:]).all() and codes.shape == difficulty.shape == (n,)
            and (n == 0 or (
                (codes.dtype.kind == "u" or np.minimum.reduce(codes) >= 0)
                and np.maximum.reduce(codes) < len(self.names)
            ))
        ):
            raise InvalidInputError("inconsistent annotation columns")
        if not _finite(self.corners):
            raise InvalidInputError("non-finite corner coordinate")
        self.codes = codes.astype(_code_type(len(self.names)), copy=False)
        if difficulty.itemsize > 1:  # int8 is as narrow as a difficulty gets
            levels = (int(np.minimum.reduce(difficulty)), int(np.maximum.reduce(difficulty))) if n else (0, 0)
            difficulty = difficulty.astype(_level_type(*levels), copy=False)
        self.difficulty = difficulty

    def __len__(self) -> int:
        return len(self.codes)

    def category_counts(self, rows=None) -> dict[str, int]:
        """Records per category, of the set or of its ``rows``, counted
        _BLOCK_ROWS codes at a time: np.bincount makes an intp copy of what
        it counts."""
        counts = np.zeros(len(self.names), dtype=np.intp)
        for lo in range(0, len(self) if rows is None else len(rows), _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            counts += np.bincount(self.codes[block if rows is None else rows[block]], minlength=len(self.names))
        return {name: n for name, n in zip(self.names, counts.tolist()) if n}

    def _select(self, rows, headers=None) -> AnnotationSet:
        """The ascending ``rows``, in every image."""
        return AnnotationSet(
            self.ids, np.searchsorted(rows, self.offsets), self.corners[rows], self.codes[rows],
            self.names, self.difficulty[rows], self.headers if headers is None else headers,
        )


def _ascending(values) -> bool:
    """Whether ``values`` are strictly ascending (sorted, no repeats)."""
    return all(a < b for a, b in itertools.pairwise(values))


def _is_array_of(values, kinds: str) -> bool:
    return isinstance(values, np.ndarray) and values.dtype.kind in kinds


def _finite(values: np.ndarray) -> bool:
    """Whether every one of ``values`` is finite, as its least and greatest are."""
    return not values.size or all(math.isfinite(f.reduce(values, None)) for f in (np.minimum, np.maximum))


def _code_type(n_names: int) -> np.dtype:
    """The type of the codes into a table of ``n_names`` categories."""
    return np.min_scalar_type(max(n_names - 1, 0))


# Signed types a difficulty column may take, narrowest first, with their bounds.
_LEVEL_TYPES = tuple(
    (t, np.iinfo(t).min, np.iinfo(t).max) for t in map(np.dtype, (np.int8, np.int16, np.int32, np.int64))
)


def _level_type(low: int, high: int) -> np.dtype:
    """The narrowest of _LEVEL_TYPES that holds ``low`` to ``high``."""
    for level_type, least, most in _LEVEL_TYPES:
        if least <= low and high <= most:
            return level_type
    raise OverflowError("difficulty beyond 64 bits")


def _widen(buffer: array, dtype: np.dtype) -> array:
    """``buffer``, or a copy of it as ``dtype`` if its items are narrower."""
    return buffer if dtype.itemsize <= buffer.itemsize else array(dtype.char, buffer)


# Rows a sampler or a count takes at once: sparsify_single samples runs of
# whole images of about this many rows, and category_counts counts this many
# codes at a time, so neither holds an array the size of the set beside its
# keep mask or its rows.
_BLOCK_ROWS = 1 << 10


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


class _Columns:
    """The growing columns of a load, which takes one image's text at a time.
    The code and difficulty buffers start one byte wide and widen only when
    a category or a difficulty does not fit."""

    def __init__(self):
        self.corners, self.codes, self.difficulty = array("d"), array("B"), array("b")
        self.names: dict[str, int] = {}  # category -> code, in order of arrival
        self.levels: dict[str, int] = {}  # difficulty token -> its value
        self.ids, self.bounds, self.headers = [], [0], {}

    def add(self, text: str, image_id: str) -> _Columns:
        """Append the records of one image's annotation text (see
        parse_dota); the first malformed line raises."""
        lines, headers, start = text.splitlines(), [], len(self.codes)
        try:
            self.corners.extend(map(float, itertools.chain.from_iterable(self._records(lines, headers))))
            if not _finite(np.frombuffer(self.corners, np.float64)[8 * start :]):
                raise ValueError("non-finite corner coordinate")
        except (ValueError, OverflowError):
            for line_no, raw in enumerate(lines, start=1):
                tokens = raw.split()
                if tokens and _is_number(tokens[0]):
                    _check_row(tokens, raw, line_no)
            raise
        self.ids.append(image_id)
        self.bounds.append(len(self.codes))
        if headers:
            self.headers[image_id] = tuple(headers)
        return self

    def _records(self, lines, headers: list):
        """Each record line's eight coordinate tokens, the first converted
        already; its category and difficulty go into their columns, and
        header lines into ``headers``."""
        names, levels = self.names, self.levels
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
                if code >> 8 * self.codes.itemsize:  # the first code its items cannot hold
                    self.codes = _widen(self.codes, _code_type(len(names)))
            self.codes.append(code)
            level = levels.get(tokens[9])
            if level is None:
                level = levels[tokens[9]] = int(tokens[9])
                self.difficulty = _widen(self.difficulty, _level_type(level, level))
            self.difficulty.append(level)
            del tokens[8:]
            yield tokens

    def finish(self) -> AnnotationSet:
        """The set of the held images, which arrived in id order: the
        columns as they grew, codes remapped to the sorted names."""
        # codes into the sorted names, remapped in place _BLOCK_ROWS at a time:
        # indexing by a narrow array makes an intp copy of its entries
        rank = {name: i for i, name in enumerate(sorted(self.names))}
        table = np.array([rank[name] for name in self.names], self.codes.typecode)
        codes = np.frombuffer(self.codes, self.codes.typecode)
        for lo in range(0, len(codes), _BLOCK_ROWS):
            codes[lo : lo + _BLOCK_ROWS] = table[codes[lo : lo + _BLOCK_ROWS]]
        corners = np.frombuffer(self.corners, np.float64).reshape(-1, 4, 2)
        difficulty = np.frombuffer(self.difficulty, self.difficulty.typecode)
        return AnnotationSet(self.ids, self.bounds, corners, codes, sorted(self.names), difficulty, self.headers)


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
    return _Columns().add(text, image_id).finish()


# Records gathered, weakened and formatted at once; it bounds the rows,
# labels, token and line lists and the texts a writer holds.
_BATCH_RECORDS = 128


def _runs(bounds: np.ndarray, size: int):
    """(first, last, lo, hi) of each run of whole images, in order, whose
    rows ``lo:hi`` (``bounds[first]:bounds[last]``) number at most ``size``
    in all; a larger image is a run of its own. ``bounds`` are the images'
    ascending row bounds."""
    first = 0
    while first < len(bounds) - 1:
        lo = int(bounds[first])
        last = max(first + 1, int(bounds.searchsorted(lo + size, "right")) - 1)
        yield first, last, lo, int(bounds[last])
        first = last


def _batches(ann: AnnotationSet, rows=None):
    """(first position in ``rows``, set) over runs of whole images whose
    kept rows number at most _BATCH_RECORDS in all, in id order; a larger
    image is a batch of its own. ``rows`` are ascending rows of ``ann``
    (every row by default); each set holds its images' kept rows."""
    bounds = ann.offsets if rows is None else np.searchsorted(rows, ann.offsets)
    for first, last, lo, hi in _runs(bounds, _BATCH_RECORDS):
        take = slice(lo, hi) if rows is None else rows[lo:hi]
        ids = ann.ids[first:last]
        yield lo, AnnotationSet(
            ids, bounds[first : last + 1] - lo, ann.corners[take], ann.codes[take], ann.names,
            ann.difficulty[take], {i: ann.headers[i] for i in ids if i in ann.headers},
        )


# Records whose tokens _render formats at once.
_RENDER_ROWS = 16


def _render(ann: AnnotationSet, values, with_difficulty: bool, headers) -> dict[str, str]:
    """Text per image: its header lines, then one line per record with the
    record's row of ``values`` (full precision, integers without a
    fraction), its category and, if asked, its difficulty. Tokens are made
    _RENDER_ROWS rows at a time and lines one image at a time, so beyond
    the texts the render holds one image's lines and the tokens of that
    many rows."""
    width = values.size // max(len(values), 1)
    flat = values.reshape(-1)
    names, codes = ann.names, ann.codes.tolist()
    levels = ann.difficulty.tolist() if with_difficulty else None
    bounds = ann.offsets.tolist()
    out = {}
    for image_id, start, stop in zip(ann.ids, bounds, bounds[1:]):
        lines = [*headers.get(image_id, ())]
        for lo in range(start, stop, _RENDER_ROWS):
            hi = min(lo + _RENDER_ROWS, stop)
            tokens = iter([str(int(v)) if v.is_integer() else repr(v) for v in flat[lo * width : hi * width].tolist()])
            rows = zip(*[tokens] * width)
            if levels is None:
                lines += [f"{' '.join(v)} {names[c]}" for v, c in zip(rows, codes[lo:hi])]
            else:
                lines += [f"{' '.join(v)} {names[c]} {d}" for v, c, d in zip(rows, codes[lo:hi], levels[lo:hi])]
        lines.append("")  # each line ends in a newline; an image without lines is empty
        out[image_id] = "\n".join(lines)
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


def _stem(name: str) -> str:
    """Path(name).stem of a .txt file's name, without making a path."""
    return name[:-4] or name


def _dota_files(path):
    """(stem, name) of each .txt file in ``path``, in id (stem) order."""
    names = sorted((f.name for f in Path(path).glob("*.txt")), key=_stem)
    if not names:
        raise InvalidInputError(f"no .txt annotation files in {path}")
    return ((_stem(name), name) for name in names)


def dota_dir_ids(path) -> list[str]:
    """The sorted image ids (file stems) that load_dota_dir gives ``path``."""
    return [stem for stem, _ in _dota_files(path)]


def load_dota_dir(path, keep=None) -> AnnotationSet:
    """Load every .txt file in a directory; image ids are file stems. An
    error in a file (see parse_dota, or text that is not UTF-8) names it.
    Given the image ids ``keep``, every file is still parsed and checked,
    but only the images in ``keep`` are held and returned. Files are read
    in id order, each appended straight into one set of columns that
    become the set's own without a gather, so the load holds the columns
    and one file's text and lines."""
    keep = None if keep is None else set(keep)
    folder, columns = Path(path), _Columns()
    for image_id, name in _dota_files(path):
        text = read_text(folder / name)
        try:  # an image left out is parsed and checked into columns of its own
            (columns if keep is None or image_id in keep else _Columns()).add(text, image_id)
        except DotaParseError as exc:
            raise DotaParseError(exc.message, exc.line_no, folder / name) from None
    return columns.finish()


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


# Each corner's successor around its quad.
_NEXT_CORNER = np.array([1, 2, 3, 0])


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
    # Each quad's corners in successor order are one gather, as contiguous
    # as np.roll made them, and the box is written into one array, so a
    # call makes a few dozen numpy calls whatever its size.
    x, y = corners[..., 0], corners[..., 1]
    boxes = np.empty((len(corners), 5))
    with np.errstate(over="ignore", invalid="ignore"):
        cross = x[:, None] @ y[:, _NEXT_CORNER][..., None] - x[:, _NEXT_CORNER][:, None] @ y[..., None]
        area = 0.5 * np.abs(cross[:, 0, 0])
        edges = corners[:, _NEXT_CORNER] - corners
        lengths = np.sqrt(edges[..., None, :] @ edges[..., None])[..., 0, 0]
        extents = 0.5 * (lengths[:, :2] + lengths[:, 2:])  # mean lengths of edges 0 and 2, 1 and 3
        along_a = extents[:, 0] >= extents[:, 1]
        sides = edges[:, :2] - edges[:, 2:]
        del edges, lengths  # each temporary goes as soon as it is used, so a batch holds few at once
        direction = np.where(along_a[:, None], sides[:, 0], sides[:, 1]) * 0.5
        del sides
        theta = np.fromiter(
            map(math.atan2, direction[:, 1].tolist(), direction[:, 0].tolist()), np.float64, len(corners)
        )
        # the second pass is OrientedBox's, which normalizes the angle it is given
        boxes[:, 4] = normalize_angle(normalize_angle(theta))
        boxes[:, :2] = np.add.reduce(corners, axis=1) / 4  # corners.mean(axis=1)
        boxes[:, 2:4] = np.where(along_a[:, None], extents, extents[:, ::-1])
    ok = np.logical_and.reduce(np.isfinite(boxes), axis=1) & (boxes[:, 2] > 0) & (boxes[:, 3] > 0)
    return boxes, np.flatnonzero((area < 1e-9) | ~ok), area


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


def sparsify_single(ann: AnnotationSet, sparse_ratio: float, seed: int) -> np.ndarray:
    """Per image and per category keep max(1, round_half_up(ratio * n))
    records, sampled without replacement; returns the ascending kept rows.
    Every (image, category) pair in the input survives.

    The (image, category) groups are taken in image order, then category
    order, each drawing one ``permutation(n)`` over its rows in row order.
    They are found in runs of whole images of about _BLOCK_ROWS rows, each
    sorted by an (image, code) key of the narrowest type that holds it, so
    beyond the keep mask and the kept rows the sampler holds one run's key
    and order."""
    if not 0.0 < sparse_ratio <= 1.0:
        raise InvalidInputError(f"sparse_ratio must be in (0, 1], got {sparse_ratio}")
    keep = np.zeros(len(ann), dtype=bool)
    # marked in a call of its own, whose last run's arrays are freed before the kept rows are gathered
    _mark_single(ann, sparse_ratio, np.random.default_rng(check_seed(seed)), keep)
    return np.flatnonzero(keep)


def _mark_single(ann: AnnotationSet, sparse_ratio: float, rng, keep: np.ndarray) -> None:
    """Mark in ``keep`` the rows sparsify_single keeps."""
    n_names = len(ann.names)
    for first, last, lo, hi in _runs(ann.offsets, _BLOCK_ROWS):
        if lo == hi:
            continue
        key_type = np.min_scalar_type((last - first) * n_names)
        key = (np.arange(last - first, dtype=key_type) * n_names).repeat(np.diff(ann.offsets[first : last + 1]))
        key += ann.codes[lo:hi]
        order = key.argsort(kind="stable")
        key = key[order]
        ends = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        del key
        kept = keep[lo:hi]
        # Shuffling a group's rows in place makes the draws of permutation(n)
        # and moves each row where that permutation moves its index; a group
        # of one row keeps it and draws nothing.
        for start, stop in zip([0, *ends], [*ends, hi - lo]):
            if stop - start == 1:
                kept[order[start]] = True
                continue
            rng.shuffle(order[start:stop])
            kept[order[start : start + max(1, round_half_up(sparse_ratio * (stop - start)))]] = True


def sparsify_overall(ann: AnnotationSet, sparse_ratio: float, seed: int) -> np.ndarray:
    """Per category across the whole set keep exactly
    round_half_up(ratio * n) records, sampled without replacement; returns
    the ascending kept rows. An image may lose every instance of a
    category. The categories are taken in code order, each drawing one
    ``permutation(n)`` over its rows in row order, so beyond the keep mask
    and the kept rows the sampler holds one category's rows and row mask."""
    if not 0.0 < sparse_ratio <= 1.0:
        raise InvalidInputError(f"sparse_ratio must be in (0, 1], got {sparse_ratio}")
    keep = np.zeros(len(ann), dtype=bool)
    # marked in a call of its own, whose last category's rows are freed before the kept rows are gathered
    _mark_overall(ann, sparse_ratio, np.random.default_rng(check_seed(seed)), keep)
    return np.flatnonzero(keep)


def _mark_overall(ann: AnnotationSet, sparse_ratio: float, rng, keep: np.ndarray) -> None:
    """Mark in ``keep`` the rows sparsify_overall keeps."""
    for code in range(len(ann.names)):
        rows = np.flatnonzero(ann.codes == code)  # none for a category without rows, which draws nothing
        rng.shuffle(rows)
        keep[rows[: round_half_up(sparse_ratio * len(rows))]] = True
        del rows  # before the next category's mask and rows are made


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

