import bisect
import gc
import math
import sys
import tempfile
import tracemalloc
from collections import Counter, namedtuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spwood import cli, dataset
from spwood.dataset import (
    DOTA_CATEGORY_ORDER,
    AnnotationSet,
    WeakKind,
    category_sort_key,
    compare_counts,
    load_dota_dir,
    parse_dota,
    round_half_up,
    select_partial,
    serialize_dota,
    sparsify_overall,
    sparsify_single,
    subset_images,
    weaken_corners,
    write_dota_dir,
)
from spwood.errors import DegenerateInputError, DotaParseError, InvalidInputError
from spwood.geometry import (
    HorizontalBox,
    OrientedBox,
    PointAnnotation,
    corners_of_boxes,
    normalize_angle,
)

# One annotated object, as the record-based reference below handles it.
Record = namedtuple("Record", "image_id corners category difficulty")


def record(image_id, corners, category="plane", difficulty=0):
    return Record(image_id, tuple((float(x), float(y)) for x, y in corners), category, difficulty)


def set_of(records, headers=None, image_ids=()):
    """The columns of Record rows; each image keeps its records in the
    given order, and ``image_ids`` adds images without records."""
    records = sorted(records, key=lambda r: r.image_id)
    keys = [r.image_id for r in records]
    ids = sorted(set(image_ids) | set(keys))
    names = sorted({r.category for r in records})
    return AnnotationSet(
        ids, [bisect.bisect_left(keys, i) for i in ids] + [len(keys)], [r.corners for r in records],
        [names.index(r.category) for r in records], names, [r.difficulty for r in records], headers,
    )


def records_of(ann, image_id=None):
    """Record rows of every image in id order, or of one image."""
    images = range(len(ann.ids)) if image_id is None else [ann.ids.index(image_id)]
    return [
        Record(ann.ids[i], tuple(map(tuple, ann.corners[r].tolist())), ann.names[ann.codes[r]], int(ann.difficulty[r]))
        for i in images for r in range(ann.offsets[i], ann.offsets[i + 1])
    ]


def write_weak(ann, kind, path):
    """(text by image id, records left out) of write_dota_dir's ``kind``
    labels, written to the new directory ``path``."""
    written, dropped = write_dota_dir(ann, path, kind)
    assert written == len(ann.ids) == len(list(Path(path).iterdir()))
    return {i: (Path(path) / f"{i}.txt").read_bytes().decode("utf-8") for i in ann.ids}, dropped


def rect_corners(cx, cy, w, h, theta):
    return corners_of_boxes([(cx, cy, w, h, theta)])


def synthetic_corpus(seed=0, n_images=200, categories=("PL", "BD", "SV", "SH", "HC")):
    """Skewed corpus: some categories appear as singletons, some in bulk."""
    rng = np.random.default_rng(seed)
    image_ids = [f"img{i:04d}" for i in range(n_images)]
    records = []
    for image_id in image_ids:
        for cat in categories:
            if cat in ("BD", "HC"):
                n = int(rng.random() < 0.4)  # rare: one instance or none
            else:
                n = int(rng.integers(0, 30))
            for k in range(n):
                x, y = rng.uniform(0, 900, 2)
                records.append(
                    record(
                        image_id,
                        [(x, y), (x + 10, y), (x + 10, y + 5), (x, y + 5)],
                        cat,
                    )
                )
    return set_of(records, image_ids=image_ids)


def sparse_set(sample, ann, ratio, seed):
    """The records of ``ann`` among the rows that ``sample`` keeps."""
    return ann._select(sample(ann, ratio, seed))


def by_image(ann):
    return {i: tuple(records_of(ann, i)) for i in ann.ids}


# --- parsing --------------------------------------------------------------------


def test_parse_minimal_line():
    ann = parse_dota("0 0 2 0 2 1 0 1 plane 0\n", image_id="P0001")
    recs = records_of(ann)
    assert len(recs) == 1
    assert recs[0].category == "plane"
    assert recs[0].corners == ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))


def test_parse_empty_file():
    assert len(parse_dota("", image_id="x")) == 0


def test_parse_wrong_arity_reports_line():
    text = "0 0 2 0 2 1 0 plane 0\n"  # 7 coordinates
    with pytest.raises(DotaParseError) as exc:
        parse_dota(text, image_id="x")
    assert exc.value.line_no == 1


def test_parse_bad_line_number_after_header():
    text = "imagesource:GoogleEarth\ngsd:0.5\n0 0 2 0 2 1 0 1 plane notanint\n"
    with pytest.raises(DotaParseError) as exc:
        parse_dota(text, image_id="x")
    assert exc.value.line_no == 3


def test_headers_preserved_on_round_trip():
    text = "imagesource:GoogleEarth\ngsd:0.146343590398\n1 2 3 2 3 4 1 4 ship 1\n"
    ann = parse_dota(text, image_id="P1")
    assert serialize_dota(ann)["P1"] == text


def test_parse_serialize_parse_identity():
    text = (
        "imagesource:synthetic\n"
        "0 0 2 0 2 1 0 1 plane 0\n"
        "10.5 0 14 0 14 2.25 10.5 2 ship 1\n"
    )
    once = parse_dota(text, image_id="A")
    again = parse_dota(serialize_dota(once)["A"], image_id="A")
    assert records_of(once) == records_of(again)
    assert once.headers == again.headers


# --- weak labels ----------------------------------------------------------------


def test_weaken_hbox_of_axis_aligned():
    assert weaken_corners([[(3, 4), (7, 4), (7, 6), (3, 6)]], WeakKind.HBOX).tolist() == [[3, 4, 7, 6]]


def test_weaken_point_is_centroid():
    assert weaken_corners([[(0, 0), (2, 0), (2, 2), (0, 2)]], WeakKind.POINT).tolist() == [[1.0, 1.0]]


def test_weaken_rbox_recovers_rotation():
    theta = math.radians(30.0)
    _, _, w, h, got = weaken_corners(rect_corners(50, 40, 20, 10, theta), WeakKind.RBOX)[0]
    assert got == pytest.approx(theta, abs=1e-6)
    assert w == pytest.approx(20.0, abs=1e-9)
    assert h == pytest.approx(10.0, abs=1e-9)


def test_weaken_degenerate_rejected():
    with pytest.raises(DegenerateInputError):
        weaken_corners([[(0, 0), (1, 1), (2, 2), (3, 3)]], WeakKind.RBOX)


@given(
    st.floats(-500, 500),
    st.floats(-500, 500),
    st.floats(1.0, 80.0),
    st.floats(1.0, 80.0),
    st.floats(-1.5, 1.5),
)
@settings(max_examples=60)
def test_rbox_round_trip_within_tolerance(cx, cy, w, h, theta):
    if abs(w - h) < 0.05:
        return  # squares leave the edge direction ambiguous
    corners = rect_corners(cx, cy, w, h, theta)
    box = weaken_corners(corners, WeakKind.RBOX)
    # the long-edge convention may relabel the sides, cycling the corner
    # order; compare the corner sets geometrically
    got = corners_of_boxes(box)[0]
    for corner in corners[0]:
        assert np.min(np.linalg.norm(got - corner, axis=1)) <= 1e-6


# --- partial selection ------------------------------------------------------------


def small_set(n):
    return set_of(record(f"i{k}", [(0, 0), (1, 0), (1, 1), (0, 1)]) for k in range(n))


def test_partial_ratio_one_keeps_all():
    labeled, unlabeled = select_partial(small_set(10).ids, 1.0, seed=0)
    assert len(labeled) == 10 and unlabeled == []


def test_partial_rounding():
    labeled, unlabeled = select_partial(small_set(10).ids, 0.3, seed=0)
    assert len(labeled) == 3 and len(unlabeled) == 7


def test_partial_deterministic():
    assert select_partial(small_set(50).ids, 0.2, seed=9) == select_partial(
        small_set(50).ids, 0.2, seed=9
    )


@pytest.mark.parametrize("seed", [-1, -5])
def test_negative_seed_is_an_input_error(seed):
    """numpy's generator takes no negative seed: each sampler names the value."""
    ann = synthetic_corpus(seed=1, n_images=5)
    for call in (select_partial, sparsify_single, sparsify_overall):
        with pytest.raises(InvalidInputError, match=rf"^seed must be nonnegative, got {seed}$"):
            call(ann.ids if call is select_partial else ann, 0.5, seed)


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(0.5) == 1


# --- sparsification ---------------------------------------------------------------


def test_single_keeps_singletons():
    ann = set_of([record("a", [(0, 0), (1, 0), (1, 1), (0, 1)], "BD")])
    out = sparsify_single(ann, 0.1, seed=0)
    assert len(out) == 1


def test_single_exact_fraction():
    recs = [
        record("a", [(i, 0), (i + 1, 0), (i + 1, 1), (i, 1)], "SV") for i in range(10)
    ]
    out = sparsify_single(set_of(recs), 0.1, seed=0)
    assert len(out) == 1


def test_single_inflates_rare_categories():
    ann = synthetic_corpus(seed=1)
    out = sparsify_single(ann, 0.1, seed=0)
    before = ann.category_counts()
    after = ann.category_counts(out)
    # singleton-heavy categories retain far more than the nominal 10%
    assert after["BD"] / before["BD"] > 0.5
    # bulk categories sit near the nominal ratio
    assert after["SV"] / before["SV"] < 0.2


def test_single_preserves_image_category_pairs():
    ann = synthetic_corpus(seed=2)
    out = sparse_set(sparsify_single, ann, 0.1, 3)
    for image_id in ann.ids:
        in_cats = {r.category for r in records_of(ann, image_id)}
        out_cats = {r.category for r in records_of(out, image_id)}
        assert in_cats == out_cats


def test_overall_exact_counts():
    ann = synthetic_corpus(seed=3)
    out = sparsify_overall(ann, 0.1, seed=4)
    before = ann.category_counts()
    after = ann.category_counts(out)
    for cat, n in before.items():
        assert after.get(cat, 0) == round_half_up(0.1 * n)


def test_overall_identity_at_full_ratio():
    ann = synthetic_corpus(seed=4, n_images=30)
    assert sparsify_overall(ann, 1.0, seed=0).tolist() == list(range(len(ann)))


@given(st.integers(0, 1000), st.sampled_from([0.1, 0.3, 0.5, 0.9]))
@settings(max_examples=15, deadline=None)
def test_sparsified_output_is_subset(seed, ratio):
    ann = synthetic_corpus(seed=5, n_images=40)
    for sample in (sparsify_single, sparsify_overall):
        out = sparse_set(sample, ann, ratio, seed)
        source = by_image(ann)
        for image_id, records in by_image(out).items():
            assert all(r in source[image_id] for r in records)
            # no duplication: a sub-multiset of the image's records
            assert not Counter(records) - Counter(source[image_id])


def test_sparsify_byte_identical_per_seed():
    ann = synthetic_corpus(seed=6, n_images=60)
    a = serialize_dota(sparse_set(sparsify_single, ann, 0.2, 11))
    b = serialize_dota(sparse_set(sparsify_single, ann, 0.2, 11))
    assert a == b
    c = serialize_dota(sparse_set(sparsify_overall, ann, 0.2, 11))
    d = serialize_dota(sparse_set(sparsify_overall, ann, 0.2, 11))
    assert c == d


# --- statistics -------------------------------------------------------------------


def test_relative_difference_examples():
    stats = compare_counts({"BD": 37, "PL": 383}, {"BD": 14, "PL": 369})
    rows = {r.category: r for r in stats.rows}
    assert rows["BD"].relative_difference_percent == pytest.approx(164.3, abs=0.05)
    assert rows["PL"].relative_difference_percent == pytest.approx(3.8, abs=0.05)


def test_equal_counts_zero_difference():
    stats = compare_counts({"SV": 10}, {"SV": 10})
    assert stats.rows[0].relative_difference_percent == 0.0


def test_zero_denominator_flagged_undefined():
    stats = compare_counts({"HC": 5}, {"HC": 0})
    assert stats.rows[0].relative_difference_percent is None
    assert ",," in stats.to_csv().splitlines()[1] + ","


def test_compare_stats_on_sets_and_ordering():
    ann = synthetic_corpus(seed=7, n_images=50)
    single = sparsify_single(ann, 0.1, seed=1)
    overall = sparsify_overall(ann, 0.1, seed=1)
    stats = compare_counts(ann.category_counts(single), ann.category_counts(overall))
    names = [r.category for r in stats.rows]
    assert names == sorted(
        names, key=lambda c: (("PL", "BD", "BR", "GTF", "SV", "LV", "SH", "TC",
                               "BC", "ST", "SBF", "RA", "HA", "SP", "HC").index(c))
    )
    for row in stats.rows:
        assert row.count_single == ann.category_counts(single).get(row.category, 0)


def test_category_counts_of_rows():
    ann = synthetic_corpus(seed=7, n_images=20)
    rows = sparsify_single(ann, 0.3, 2)
    assert ann.category_counts(rows) == ann._select(rows).category_counts() != ann.category_counts()
    assert ann.category_counts(np.arange(len(ann))) == ann.category_counts()
    assert ann.category_counts(np.array([], np.intp)) == {}


# --- weak-label serialization -------------------------------------------------------


def test_serialize_weak_formats(tmp_path):
    ann = set_of([record("a", [(0, 0), (4, 0), (4, 2), (0, 2)], "ship")], {"a": ("hdr",)})
    assert write_weak(ann, WeakKind.POINT, tmp_path / "point")[0]["a"] == "2 1 ship\n"
    assert write_weak(ann, WeakKind.HBOX, tmp_path / "hbox")[0]["a"] == "0 0 4 2 ship\n"
    rbox_text, dropped = write_weak(ann, WeakKind.RBOX, tmp_path / "rbox")
    rbox_text = rbox_text["a"]
    assert len(dropped) == 0
    reparsed = parse_dota(rbox_text, image_id="a")
    assert records_of(reparsed)[0].category == "ship"


def test_serialize_weak_rbox_non_integer_corners_parse_as_floats(tmp_path):
    corners = rect_corners(10.5, 20, 4, 2, 0)
    ann = AnnotationSet(["a"], [0, 1], corners, [0], ["ship"], [0])
    tokens = write_weak(ann, WeakKind.RBOX, tmp_path)[0]["a"].split()
    assert len(tokens) == 10
    assert np.allclose(np.reshape([float(t) for t in tokens[:8]], (4, 2)), corners[0])


# --- reference: the record-based implementation the columnar set replaced --------
# One Record per line, weakened one record at a time. The
# columnar code must give the same bytes and raise the same errors.


def ref_parse(text, image_id):
    headers, records = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if not ref_is_number(tokens[0]):
            headers.append(raw.rstrip("\n"))
            continue
        if len(tokens) != 10:
            raise DotaParseError(
                f"expected 8 coordinates, category, difficulty (10 fields), got {len(tokens)}",
                line_no,
            )
        try:
            coords = [float(t) for t in tokens[:8]]
        except ValueError:
            raise DotaParseError(f"bad coordinate in {line!r}", line_no) from None
        if ref_is_number(tokens[8]):
            raise DotaParseError(f"category {tokens[8]!r} looks numeric", line_no)
        try:
            difficulty = int(tokens[9])
        except ValueError:
            raise DotaParseError(f"bad difficulty {tokens[9]!r}", line_no) from None
        if not all(math.isfinite(v) for v in coords):
            raise DotaParseError("non-finite corner coordinate", line_no)
        corners = tuple((coords[2 * i], coords[2 * i + 1]) for i in range(4))
        records.append(Record(image_id, corners, tokens[8], difficulty))
    return records, tuple(headers)


def ref_is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def ref_load(path):
    images, headers = {}, {}
    for f in sorted(Path(path).glob("*.txt")):
        records, head = ref_parse(f.read_text(encoding="utf-8"), f.stem)
        images[f.stem] = records
        if head:
            headers[f.stem] = head
    return images, headers


def ref_fmt(v):
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def ref_serialize(images, headers):
    out = {}
    for image_id in sorted(images):
        lines = list(headers.get(image_id, ()))
        for rec in images[image_id]:
            coords = " ".join(f"{ref_fmt(x)} {ref_fmt(y)}" for x, y in rec.corners)
            lines.append(f"{coords} {rec.category} {rec.difficulty}")
        out[image_id] = "\n".join(lines) + "\n" if lines else ""
    return out


def ref_weaken(record, target):
    pts = np.asarray(record.corners, dtype=float)
    if target is WeakKind.POINT:
        cx, cy = pts.mean(axis=0)
        return PointAnnotation(float(cx), float(cy), record.category)
    if target is WeakKind.HBOX:
        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
        return HorizontalBox(float(xmin), float(ymin), float(xmax), float(ymax))
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


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def ref_box_corners(box):
    half = np.array(
        [[-box.w / 2.0, -box.h / 2.0], [box.w / 2.0, -box.h / 2.0],
         [box.w / 2.0, box.h / 2.0], [-box.w / 2.0, box.h / 2.0]]
    )
    return half @ rotation(box.theta).T + np.array([box.cx, box.cy])


def ref_serialize_weak(images, kind):
    out = {}
    for image_id in sorted(images):
        lines = []
        for rec in images[image_id]:
            weak = ref_weaken(rec, kind)
            if kind is WeakKind.POINT:
                lines.append(f"{ref_fmt(weak.x)} {ref_fmt(weak.y)} {rec.category}")
            elif kind is WeakKind.HBOX:
                lines.append(
                    f"{ref_fmt(weak.xmin)} {ref_fmt(weak.ymin)} "
                    f"{ref_fmt(weak.xmax)} {ref_fmt(weak.ymax)} {rec.category}"
                )
            else:
                coords = " ".join(f"{ref_fmt(x)} {ref_fmt(y)}" for x, y in ref_box_corners(weak))
                lines.append(f"{coords} {rec.category} {rec.difficulty}")
        out[image_id] = "\n".join(lines) + "\n" if lines else ""
    return out


def ref_select_partial(ids, ratio, seed):
    ids = sorted(ids)
    k = round_half_up(ratio * len(ids))
    chosen = np.random.default_rng(seed).permutation(len(ids))[:k]
    labeled = sorted(ids[i] for i in chosen)
    return labeled, sorted(set(ids) - set(labeled))


def ref_sparsify_single(images, ratio, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for image_id in sorted(images):
        records = images[image_id]
        by_cat = {}
        for idx, rec in enumerate(records):
            by_cat.setdefault(rec.category, []).append(idx)
        keep = set()
        for cat in sorted(by_cat):
            idxs = by_cat[cat]
            k = max(1, round_half_up(ratio * len(idxs)))
            keep.update(idxs[i] for i in rng.permutation(len(idxs))[:k])
        out[image_id] = [records[i] for i in sorted(keep)]
    return out


def ref_sparsify_overall(images, ratio, seed):
    rng = np.random.default_rng(seed)
    entries = {}
    for image_id in sorted(images):
        for idx, rec in enumerate(images[image_id]):
            entries.setdefault(rec.category, []).append((image_id, idx))
    keep = {image_id: set() for image_id in images}
    for cat in sorted(entries):
        pool = entries[cat]
        for i in rng.permutation(len(pool))[: round_half_up(ratio * len(pool))]:
            image_id, idx = pool[i]
            keep[image_id].add(idx)
    return {i: [images[i][k] for k in sorted(keep[i])] for i in images}


def ref_counts(images):
    counts = {}
    for records in images.values():
        for rec in records:
            counts[rec.category] = counts.get(rec.category, 0) + 1
    return counts


def fmt_value(v):
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_oracle_corpus(path, seed=0, n_images=40):
    """DOTA-style files: header lines (also mid-file), blank lines, integer,
    two-decimal and full-precision corners, thin boxes with aspect ratios up
    to 300 at any angle, rare singleton categories, and images without
    records."""
    rng = np.random.default_rng(seed)
    common = ("SV", "LV", "SH", "PL", "HA", "BR", "small-vehicle")
    rare = ("GTF", "SBF", "HC", "zeta")
    path.mkdir()
    for i in range(n_images):
        n = int(rng.integers(0, 60)) if i % 9 else 0
        cats = list(rng.choice(common, n)) if n else []
        for c in rare:
            if n and rng.random() < 0.25:
                cats[int(rng.integers(n))] = c
        lines = []
        for k in range(n):
            w = rng.uniform(3.0, 300.0)
            h = w / math.exp(rng.uniform(0.0, math.log(300.0)))
            box = OrientedBox(rng.uniform(0, 4000), rng.uniform(0, 4000), w, h,
                              rng.uniform(-math.pi / 2, math.pi / 2))
            corners = ref_box_corners(box).ravel()
            style = rng.random()
            if style < 0.25 and h > 3:
                corners = np.round(corners)
            elif style < 0.35:
                corners = np.round(corners, 2)
            elif style < 0.45:
                x0, y0 = int(box.cx), int(box.cy)
                x1, y1 = x0 + int(w) + 1, y0 + max(1, int(h))
                corners = [x0, y0, x1, y0, x1, y1, x0, y1]
            lines.append(" ".join(map(fmt_value, corners)) + f" {cats[k]} {int(rng.random() < 0.1)}")
        if n > 4 and rng.random() < 0.3:
            lines.insert(n // 2, "  note:mid-file header  ")
        if rng.random() < 0.3:
            lines.insert(0, "")
        head = ["imagesource:GoogleEarth", f"gsd:{rng.uniform(0.1, 0.9)!r}"] if i % 4 else []
        (path / f"P{i:04d}.txt").write_text("\n".join(head + lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def oracle_corpus(tmp_path_factory):
    return write_oracle_corpus(tmp_path_factory.mktemp("oracle") / "anns")


def read_texts(path):
    return {f.stem: f.read_text(encoding="utf-8") for f in sorted(Path(path).glob("*.txt"))}


def check_sparsify_against_record_reference(corpus, out, method, partial, weak):
    assert cli.main([
        "sparsify", "--input", str(corpus), "--out", str(out), "--method", method,
        "--sparse", "0.3", "--partial", str(partial), "--seed", "13", "--weaken", weak,
    ]) == 0
    images, headers = ref_load(corpus)
    if partial < 1.0:
        labeled, unlabeled = ref_select_partial(images, partial, 13)
        assert (out / "labeled_ids.txt").read_text() == "".join(f"{i}\n" for i in labeled)
        assert (out / "unlabeled_ids.txt").read_text() == "".join(f"{i}\n" for i in unlabeled)
        images = {i: images[i] for i in labeled}
        headers = {i: h for i, h in headers.items() if i in images}
    sample = ref_sparsify_single if method == "single" else ref_sparsify_overall
    sparse = sample(images, 0.3, 13)
    if weak == "none":
        want = ref_serialize(sparse, headers)
    else:
        want = ref_serialize_weak(sparse, WeakKind(weak))
    assert read_texts(out / "annotations") == want
    before, after = ref_counts(images), ref_counts(sparse)
    rows = [
        f"{c},{after.get(c, 0)},{before[c]},{100.0 * after.get(c, 0) / before[c]:.10g}"
        for c in sorted(before, key=category_sort_key)
    ]
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[1:] == ["category,kept,total,retention_percent"] + rows


@pytest.mark.parametrize("weak", ["none", "hbox", "point", "rbox"])
@pytest.mark.parametrize("partial", [1.0, 0.5])
@pytest.mark.parametrize("method", ["single", "overall"])
def test_sparsify_cli_bytes_match_record_reference(tmp_path, oracle_corpus, method, partial, weak):
    check_sparsify_against_record_reference(oracle_corpus, tmp_path / "out", method, partial, weak)


# Records that lose their weak label, appended to files of later batches;
# each category is new to its image, so the single method keeps it.
DEGENERATE_LINES = {
    "P0025": "10 10 20 20 30 30 40 40 RA 0",  # zero area: no rbox
    "P0031": "7 0 7 5 7 9 7 3 TC 1",  # zero width: no rbox, no hbox
    "P0038": "3 3 3 3 3 3 3 3 BD 0",  # a point: no rbox, no hbox
}


@pytest.fixture(scope="module")
def degenerate_corpus(tmp_path_factory):
    path = write_oracle_corpus(tmp_path_factory.mktemp("degenerate") / "anns", seed=3)
    for image_id, line in DEGENERATE_LINES.items():
        with open(path / f"{image_id}.txt", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return path


def ref_weak_outputs(images, kind):
    """ref_serialize_weak's texts with each record whose reference label
    raises left out, and the stderr lines naming the records left out."""
    kept, dropped = {}, []
    for image_id in sorted(images):
        kept[image_id] = []
        for rec in images[image_id]:
            try:
                ref_weaken(rec, kind)
            except (DegenerateInputError, InvalidInputError):
                dropped.append(rec)
            else:
                kept[image_id].append(rec)
    lines = [ref_serialize({r.image_id: [r]}, {})[r.image_id].rstrip() for r in dropped]
    err = [f"{r.image_id}: dropped {line!r}: no valid {kind.value} label" for r, line in zip(dropped, lines)]
    counts = ref_counts({"": dropped})
    err += [
        f"{c}: dropped {counts[c]} record(s) with no valid {kind.value} label"
        for c in sorted(counts, key=category_sort_key)
    ]
    return ref_serialize_weak(kept, kind), err


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, 6, 64])
@pytest.mark.parametrize("weak", ["rbox", "hbox"])
def test_streamed_weak_sparsify_matches_record_reference(tmp_path, degenerate_corpus, capsys, weak, batch):
    """Each batch is weakened, rendered and written before the next; the
    records that lose their label lie in later batches."""
    out = tmp_path / "out"
    with mock.patch.object(dataset, "_BATCH_RECORDS", batch):
        code = cli.main([
            "sparsify", "--input", str(degenerate_corpus), "--out", str(out), "--method", "single",
            "--sparse", "0.5", "--seed", "3", "--weaken", weak,
        ])
    images, _ = ref_load(degenerate_corpus)
    sparse = ref_sparsify_single(images, 0.5, 3)
    texts, err = ref_weak_outputs(sparse, WeakKind(weak))
    before, after = ref_counts(images), ref_counts(sparse)
    categories = sorted(before, key=category_sort_key)
    kept = {c: (after.get(c, 0), before[c], 100.0 * after.get(c, 0) / before[c]) for c in categories}
    stdout = [f"{c}: kept {k}/{n} ({pct:.1f}%)" for c, (k, n, pct) in kept.items()]
    stdout.append(f"wrote {len(sparse)} annotation files to {out / 'annotations'}")
    stats = [f"{c},{k},{n},{pct:.10g}" for c, (k, n, pct) in kept.items()]
    assert len(err) == {"rbox": 6, "hbox": 4}[weak]
    assert code == cli.EXIT_DEGENERATE
    assert read_texts(out / "annotations") == texts
    assert (out / "stats.csv").read_text().splitlines()[2:] == stats
    assert capsys.readouterr() == ("\n".join(stdout) + "\n", "\n".join(err) + "\n")


def check_report_against_record_reference(corpus, tmp_path):
    images, headers = ref_load(corpus)
    dirs = {}
    for name, sample in (("single", ref_sparsify_single), ("overall", ref_sparsify_overall)):
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        for image_id, text in ref_serialize(sample(images, 0.2, 5), headers).items():
            (dirs[name] / f"{image_id}.txt").write_text(text, encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main([
        "report", "--single", str(dirs["single"]), "--overall", str(dirs["overall"]), "--out", str(out),
    ]) == 0
    single, _ = ref_load(dirs["single"])
    overall, _ = ref_load(dirs["overall"])
    want = compare_counts(ref_counts(single), ref_counts(overall)).to_csv()
    assert out.read_text().split("\n", 1)[1] == want


def test_report_cli_bytes_match_record_reference(tmp_path, oracle_corpus):
    check_report_against_record_reference(oracle_corpus, tmp_path)


def test_parse_serialize_and_weaken_match_record_reference(oracle_corpus):
    images, headers = ref_load(oracle_corpus)
    ann = load_dota_dir(oracle_corpus)
    assert records_of(ann) == [r for i in sorted(images) for r in images[i]]
    assert ann.headers == headers
    assert serialize_dota(ann) == ref_serialize(images, headers)
    rows = {kind: weaken_corners(ann.corners, kind) for kind in WeakKind}
    for k, rec in enumerate(records_of(ann)):
        for kind in WeakKind:
            old = ref_weaken(rec, kind)
            assert rows[kind][k].tolist() == label_row(old)
            assert weaken_corners([rec.corners], kind).tolist() == [label_row(old)]  # a batch of one
            if kind is WeakKind.RBOX:
                assert corners_of_boxes(rows[kind][k]).tolist() == [ref_box_corners(old).tolist()]


def label_row(label):
    """The weak label row of a reference label."""
    if isinstance(label, PointAnnotation):
        return [label.x, label.y]
    if isinstance(label, HorizontalBox):
        return [label.xmin, label.ymin, label.xmax, label.ymax]
    return [label.cx, label.cy, label.w, label.h, label.theta]


def test_thin_boxes_weaken_bit_for_bit():
    """Aspect ratios up to 300 at every angle, where a vectorized arctan2,
    x*x + y*y or elementwise rotation differs from the one-quad code."""
    rng = np.random.default_rng(21)
    w = rng.uniform(1.0, 300.0, 4000)
    h = w / rng.uniform(1.0, 300.0, 4000)
    theta = normalize_angle(rng.uniform(-4, 4, 4000))
    boxes = np.column_stack([rng.uniform(0, 4000, (4000, 2)), w, h, theta])
    quads = corners_of_boxes(boxes)
    rows = weaken_corners(quads, WeakKind.RBOX)
    got = corners_of_boxes(rows)
    for k in range(len(boxes)):
        rec = record("x", quads[k].tolist(), "BR")
        old = ref_weaken(rec, WeakKind.RBOX)
        assert rows[k].tolist() == [old.cx, old.cy, old.w, old.h, old.theta]
        assert got[k].tolist() == ref_box_corners(old).tolist()
        assert quads[k].tolist() == ref_box_corners(OrientedBox(*boxes[k])).tolist()


def test_rbox_angle_rounded_up_to_half_pi_wraps_like_the_record_code(tmp_path):
    # atan2 gives -pi/2 - 1e-16 here, whose remainder modulo the period
    # rounds up to the period itself; normalize_angle counts it as 0 and
    # wraps it to -pi/2
    rec = record("a", [(0.0, 0.0), (-1e-16, -1.0), (0.25 - 1e-16, -1.0), (0.25, 0.0)])
    old = ref_weaken(rec, WeakKind.RBOX)
    assert old.theta == -math.pi / 2
    assert weaken_corners(np.array([rec.corners]), WeakKind.RBOX)[0].tolist() == [
        old.cx, old.cy, old.w, old.h, old.theta,
    ]
    assert write_weak(set_of([rec]), WeakKind.RBOX, tmp_path)[0] == ref_serialize_weak({"a": [rec]}, WeakKind.RBOX)


def test_sparsifiers_match_record_reference_on_memory_sets():
    ann = synthetic_corpus(seed=8, n_images=80)
    images = {i: records_of(ann, i) for i in ann.ids}
    for seed in (0, 1, 2):
        for ratio in (0.05, 0.3, 1.0):
            assert by_image(sparse_set(sparsify_single, ann, ratio, seed)) == {
                i: tuple(r) for i, r in ref_sparsify_single(images, ratio, seed).items()
            }
            assert by_image(sparse_set(sparsify_overall, ann, ratio, seed)) == {
                i: tuple(r) for i, r in ref_sparsify_overall(images, ratio, seed).items()
            }
    assert ann.category_counts() == ref_counts(images)


# --- parse errors -------------------------------------------------------------------

GOOD = "10 0 12.5 0 12.5 3 10 3 plane 0"
BAD_LINES = [
    "0 0 2 0 2 1 0 plane 0",  # 9 fields
    "0 0 2 0 2 1 0 1 2 plane 0",  # 11 fields
    "0 0 2 0 2 x 0 1 plane 0",  # bad coordinate
    "0 0 2 0 2 1 0 1 7 0",  # numeric category
    "0 0 2 0 2 1 0 1 nan 0",  # numeric category
    "0 0 2 0 2 1 0 1 plane 1.5",  # bad difficulty
    "0 0 2 0 2 1 0 1 plane x",  # bad difficulty
    "0 0 2 nan 2 1 0 1 plane 0",  # non-finite corner
    "0 0 2 0 inf 1 0 1 plane 0",  # non-finite corner
    "0 0 2 0 2 1 0 1e999 plane 0",  # overflows to inf
    "0 0 2 nan 2 1 0 1 plane x",  # bad difficulty before the non-finite corner
    "0 x 2 0 2 1 0 1 7 y",  # bad coordinate first
    "0 0 2 0 2 1 0 1 7 y",  # numeric category before the bad difficulty
    "0 x 2 0 2 1 0 7 y",  # field count first
]


def parse_outcome(fn, text):
    try:
        fn(text, "img")
    except (DotaParseError, InvalidInputError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return None


@pytest.mark.parametrize("bad", BAD_LINES)
@pytest.mark.parametrize("before", [0, 1, 3000])
def test_parse_errors_match_record_reference(bad, before):
    text = "\n".join(["imagesource:x", *[GOOD] * before, "", bad, "gsd:1", GOOD]) + "\n"
    want = parse_outcome(ref_parse, text)
    assert want is not None
    assert parse_outcome(parse_dota, text) == want


def test_parse_first_bad_line_wins():
    lines = [GOOD] * 50
    lines[20] = BAD_LINES[6]  # bad difficulty at line 21
    lines[10] = BAD_LINES[7]  # non-finite corner at line 11
    lines[40] = BAD_LINES[0]  # field count at line 41
    text = "\n".join(lines)
    assert parse_outcome(parse_dota, text) == parse_outcome(ref_parse, text)
    assert parse_outcome(parse_dota, text) == (DotaParseError, "line 11: non-finite corner coordinate", 11)


def test_parse_rejects_difficulty_beyond_int64():
    with pytest.raises(DotaParseError, match="bad difficulty") as exc:
        parse_dota(f"{GOOD}\n0 0 2 0 2 1 0 1 plane {2**63}\n", image_id="x")
    assert exc.value.line_no == 2


def test_load_errors_name_the_file(tmp_path):
    (tmp_path / "a.txt").write_text(f"{GOOD}\n")
    (tmp_path / "b.txt").write_text(f"hdr\n{GOOD}\n{BAD_LINES[5]}\n")
    with pytest.raises(DotaParseError) as exc:
        load_dota_dir(tmp_path)
    assert (exc.value.path, exc.value.line_no) == (tmp_path / "b.txt", 3)
    assert str(exc.value) == f"{tmp_path / 'b.txt'}: line 3: bad difficulty '1.5'"
    (tmp_path / "b.txt").write_bytes(b"\x80")
    with pytest.raises(InvalidInputError, match=r"b\.txt: not UTF-8 text \(invalid start byte at offset 0\)$"):
        load_dota_dir(tmp_path)


def test_zero_area_quad_in_batch_raises_under_rbox():
    good = record("a", [(0, 0), (4, 0), (4, 2), (0, 2)])
    flat = record("a", [(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DegenerateInputError) as exc:
        weaken_corners([r.corners for r in [good] * 500 + [flat] + [good] * 10], WeakKind.RBOX)
    with pytest.raises(DegenerateInputError) as ref:
        ref_weaken(flat, WeakKind.RBOX)
    assert str(exc.value) == str(ref.value)
    # corners that overflow when differenced give a non-finite box
    huge = record("a", [(-1e308, 0), (1e308, 0), (1e308, 1), (-1e308, 1)])
    with pytest.raises(InvalidInputError, match="non-finite box field 'w'"):
        weaken_corners([good.corners, huge.corners], WeakKind.RBOX)
    with pytest.raises(InvalidInputError, match="non-finite box field 'w'"), np.errstate(over="ignore"):
        ref_weaken(huge, WeakKind.RBOX)
    # a vertical segment has no horizontal box
    thin = record("a", [(1, 0), (1, 1), (1, 2), (1, 1)])
    with pytest.raises(InvalidInputError, match="empty horizontal box"):
        weaken_corners([good.corners, thin.corners], WeakKind.HBOX)
    with pytest.raises(InvalidInputError, match="empty horizontal box"):
        ref_weaken(thin, WeakKind.HBOX)


def test_serialize_weak_leaves_out_records_without_a_label(tmp_path):
    good = record("a", [(0, 0), (4, 0), (4, 2), (0, 2)], "ship")
    flat = record("a", [(0, 0), (1, 1), (2, 2), (3, 3)], "bridge")  # zero area, a valid hbox
    thin = record("b", [(1, 0), (1, 1), (1, 2), (1, 1)], "harbor")  # zero width
    other = record("b", [(5, 5), (9, 5), (9, 6), (5, 6)], "ship")
    ann = set_of([good, flat, thin, other], {"a": ("hdr",)}, image_ids=["c"])
    for kind, bad in ((WeakKind.RBOX, [flat, thin]), (WeakKind.HBOX, [thin]), (WeakKind.POINT, [])):
        kept = [r for r in (good, flat, thin, other) if r not in bad]
        text, dropped = write_weak(ann, kind, tmp_path / kind.value)
        want = write_weak(set_of(kept, image_ids=["a", "b", "c"]), kind, tmp_path / f"{kind.value}_kept")
        assert text == want[0] and len(want[1]) == 0
        assert records_of(dropped) == bad and dropped.headers == {}
        assert dropped.ids == ("a", "b", "c")


# --- columns ------------------------------------------------------------------------


def test_load_sorts_images_and_remaps_categories(tmp_path):
    """Files with their own category tables, ids that arrive out of id order
    ("a-b" before "a" in path order) and a header-only file."""
    (tmp_path / "b.txt").write_text("hdr:b\n0 0 1 0 1 1 0 1 ship 0\n0 0 2 0 2 2 0 2 plane 1\n")
    (tmp_path / "a-b.txt").write_text("0 0 3 0 3 3 0 3 zebra 0\n")
    (tmp_path / "a.txt").write_text("hdr:c\n")
    loaded = load_dota_dir(tmp_path)
    assert loaded.ids == ("a", "a-b", "b")
    assert loaded.names == ("plane", "ship", "zebra")
    assert [(r.image_id, r.category) for r in records_of(loaded)] == [
        ("a-b", "zebra"), ("b", "ship"), ("b", "plane"),
    ]
    assert loaded.headers == {"b": ("hdr:b",), "a": ("hdr:c",)}
    assert serialize_dota(loaded)["a"] == "hdr:c\n"
    assert_same_set(loaded, concat_load_dota_dir(tmp_path))


def test_sets_without_records_sample_and_render(tmp_path):
    empty = parse_dota("imagesource:x\n\n", image_id="e")
    assert len(empty) == 0 and empty.category_counts() == {}
    for out in (sparse_set(sparsify_single, empty, 0.5, 0), sparse_set(sparsify_overall, empty, 0.5, 0)):
        assert out.ids == ("e",) and len(out) == 0
        assert serialize_dota(out) == {"e": "imagesource:x\n"}
    text, dropped = write_weak(empty, WeakKind.RBOX, tmp_path)
    assert text == {"e": ""} and len(dropped) == 0


def test_columns_reject_inconsistent_input():
    with pytest.raises(InvalidInputError):
        AnnotationSet(("b", "a"), (0, 0, 0), np.empty((0, 4, 2)), [], [], [])
    with pytest.raises(InvalidInputError):
        AnnotationSet(("a",), (0, 1), np.zeros((1, 4, 2)), [1], ["ship"], [0])
    with pytest.raises(InvalidInputError, match="non-finite"):
        AnnotationSet(("a",), (0, 1), np.full((1, 4, 2), np.inf), [0], ["ship"], [0])


# --- narrow code and difficulty columns ------------------------------------------


def names_of(n):
    return [f"c{i:03d}" for i in range(n)]


@pytest.mark.parametrize("n_names, code_type", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_code_column_is_as_narrow_as_the_category_table(n_names, code_type):
    ann = AnnotationSet(("a",), (0, 2), np.zeros((2, 4, 2)), [0, n_names - 1], names_of(n_names), [0, 0])
    assert ann.codes.dtype == code_type and ann.codes.tolist() == [0, n_names - 1]
    parsed = parse_dota("".join(f"0 0 1 0 1 1 0 1 {name} 0\n" for name in names_of(n_names)[::-1]))
    assert parsed.codes.dtype == code_type and parsed.names == tuple(names_of(n_names))
    assert parsed.codes.tolist() == list(range(n_names))[::-1]


@pytest.mark.parametrize("levels, level_type", [
    ((0, 1), np.int8), ((-128, 127), np.int8), ((0, 128), np.int16), ((-129, 1), np.int16),
    ((0, 70_000), np.int32), ((0, 2**31), np.int64), ((-(2**63) + 1, 2**63 - 1), np.int64),
    ((-(2**63), 0), np.int64),
])
def test_difficulty_column_is_as_narrow_as_its_values(levels, level_type):
    for given in (list(levels), np.array(levels, np.int64)):
        ann = AnnotationSet(("a",), (0, 2), np.zeros((2, 4, 2)), [0, 0], ["ship"], given)
        assert ann.difficulty.dtype == level_type and ann.difficulty.tolist() == list(levels)
    # the buffer widens at the first line whose value needs it
    parsed = parse_dota("".join(f"0 0 1 0 1 1 0 1 ship {d}\n" for d in levels))
    assert parsed.difficulty.dtype == level_type and parsed.difficulty.tolist() == list(levels)


@pytest.mark.parametrize("code", [256, 300, -1])
def test_codes_out_of_range_are_rejected_before_they_are_narrowed(code):
    """With 256 categories a uint8 cast would wrap each of these codes onto a
    valid one (256 to 0, 300 to 44, -1 to 255)."""
    for codes in ([code], np.array([code]), np.array([code], np.int16)):
        with pytest.raises(InvalidInputError, match="inconsistent annotation columns"):
            AnnotationSet(("a",), (0, 1), np.zeros((1, 4, 2)), codes, names_of(256), [0])


@pytest.mark.parametrize("level", [2**63, -(2**63) - 1])
def test_difficulty_beyond_int64_raises_as_before(level):
    with pytest.raises(OverflowError, match="Python int too large to convert to C long"):
        AnnotationSet(("a",), (0, 1), np.zeros((1, 4, 2)), [0], ["ship"], [level])
    with pytest.raises(DotaParseError, match="bad difficulty") as exc:
        parse_dota(f"0 0 1 0 1 1 0 1 ship 300\n0 0 1 0 1 1 0 1 ship {level}\n")
    assert exc.value.line_no == 2


def test_load_takes_the_wider_columns(tmp_path):
    """300 categories spread over two files give uint16 codes, and
    difficulties at int64's extremes int64 ones, whichever files arrive
    first; without them codes stay uint8 and a difficulty of 300 gives
    int16."""
    line = "0 0 1 0 1 1 0 1 {} {}\n".format
    files = {
        "wide": "".join(line(name, level) for name, level in zip(names_of(300)[::2], [-(2**63), 2**63 - 1] * 75)),
        "rest": "".join(line(name, 0) for name in names_of(300)[1::2]),
        "narrow": "hdr\n" + line("ship", 1) + line("ship", 0),
        "middle": line("c001", 300),
    }
    for chosen in (["wide", "rest", "narrow"], ["narrow", "wide", "rest"], ["narrow", "middle"],
                   ["middle", "narrow", "rest", "wide"]):
        path = tmp_path / "-".join(chosen)
        path.mkdir()
        for k, key in enumerate(chosen):  # arriving in the listed order
            (path / f"{k}{key}.txt").write_text(files[key])
        loaded = load_dota_dir(path)
        assert loaded.codes.dtype == (np.uint16 if "rest" in chosen else np.uint8)
        assert loaded.difficulty.dtype == (np.int64 if "wide" in chosen else np.int16)
        assert_same_set(loaded, concat_load_dota_dir(path))


def write_wide_corpus(path, n_images=6, seed=4):
    """DOTA-style files over 300 categories, all of them in the first file
    and the rest spread over the others, with difficulties at int64's
    extremes and past one byte."""
    rng = np.random.default_rng(seed)
    levels = (0, 1, 300, -129, -(2**63), 2**63 - 1)
    path.mkdir()
    for i in range(n_images):
        n = 300 if i == 0 else int(rng.integers(20, 60))
        lines = []
        for k in range(n):
            box = OrientedBox(rng.uniform(0, 4000), rng.uniform(0, 4000), rng.uniform(10, 100), rng.uniform(3, 10),
                              rng.uniform(-math.pi / 2, math.pi / 2))
            corners = ref_box_corners(box).ravel()
            if k % 3 == 0:
                corners = np.round(corners)
            category = f"c{(k * 7 + i) % 300:03d}"
            lines.append(" ".join(map(fmt_value, corners)) + f" {category} {levels[int(rng.integers(len(levels)))]}")
        (path / f"W{i:03d}.txt").write_text("\n".join(["imagesource:GoogleEarth", *lines]) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    return write_wide_corpus(tmp_path_factory.mktemp("wide") / "anns")


def test_wide_corpus_parses_and_writes_byte_identical(wide_corpus, tmp_path):
    first = parse_dota((wide_corpus / "W000.txt").read_text(encoding="utf-8"), "W000")
    assert len(first.names) == 300 and first.codes.dtype == np.uint16 and first.difficulty.dtype == np.int64
    ann = load_dota_dir(wide_corpus)
    images, headers = ref_load(wide_corpus)
    assert records_of(ann) == [r for i in sorted(images) for r in images[i]]
    assert write_dota_dir(ann, tmp_path / "out")[0] == len(images)
    assert read_texts(tmp_path / "out") == read_texts(wide_corpus) == ref_serialize(images, headers)


@pytest.mark.parametrize("weak", ["none", "rbox"])
@pytest.mark.parametrize("method", ["single", "overall"])
def test_wide_corpus_sparsify_matches_record_reference(tmp_path, wide_corpus, method, weak):
    check_sparsify_against_record_reference(wide_corpus, tmp_path / "out", method, 1.0, weak)


def test_wide_corpus_report_matches_record_reference(tmp_path, wide_corpus):
    check_report_against_record_reference(wide_corpus, tmp_path)


# --- batched rendering and one-copy loading ------------------------------------------


def whole_set_render(ann, values, with_difficulty, headers):
    """dataset._render before it formatted records in batches, kept
    verbatim as the oracle for its bytes: every record's tokens and lines
    of the whole set at once."""
    tails = [ann.names[c] for c in ann.codes.tolist()]
    if with_difficulty:
        tails = [f"{c} {d}" for c, d in zip(tails, ann.difficulty.tolist())]
    tokens = iter([str(int(v)) if v.is_integer() else repr(v) for v in np.ravel(values).tolist()])
    width = values.size // max(len(values), 1)
    lines = [f"{' '.join(v)} {t}" for v, t in zip(zip(*[tokens] * width), tails)]
    bounds = ann.offsets.tolist()
    out = {}
    for image_id, start, stop in zip(ann.ids, bounds, bounds[1:]):
        body = [*headers.get(image_id, ()), *lines[start:stop]]
        out[image_id] = "\n".join(body) + "\n" if body else ""
    return out


def concat_merge_sets(sets):
    """The loader's merge of parsed files before it appended each file to
    growing buffers, kept verbatim as the oracle: every set taken at once,
    each column one concatenation of per-image row slices in id order."""
    sets = list(sets)
    ids = [image_id for s in sets for image_id in s.ids]
    if len(set(ids)) < len(ids):
        duplicate = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise InvalidInputError(f"duplicate image id {duplicate!r}")
    names = sorted({name for s in sets for name in s.names})
    code = {name: i for i, name in enumerate(names)}
    recode = [np.array([code[n] for n in s.names], np.intp) for s in sets]
    # (id, set, rows) of every image in id order: each column is one
    # concatenation of these row slices
    images = sorted(
        (image_id, k, slice(start, stop))
        for k, s in enumerate(sets)
        for image_id, start, stop in zip(s.ids, s.offsets.tolist(), s.offsets[1:].tolist())
    )

    def column(take):
        return np.concatenate([take(k, rows) for _, k, rows in images]) if images else []

    return AnnotationSet(
        [image_id for image_id, _, _ in images],
        np.cumsum([0] + [rows.stop - rows.start for _, _, rows in images]),
        column(lambda k, rows: sets[k].corners[rows]),
        column(lambda k, rows: recode[k][sets[k].codes[rows]]),
        names,
        column(lambda k, rows: sets[k].difficulty[rows]),
        {image_id: h for s in sets for image_id, h in s.headers.items()},
    )


def concat_load_dota_dir(path):
    """load_dota_dir as it was before merging streamed: every file parsed,
    then merged by concat_merge_sets."""
    files = sorted(Path(path).glob("*.txt"))
    return concat_merge_sets(parse_dota(f.read_text(encoding="utf-8"), f.stem) for f in files)


def assert_same_set(got, want):
    assert got.ids == want.ids and got.names == want.names and got.headers == want.headers
    for column in ("offsets", "corners", "codes", "difficulty"):
        a, b = getattr(got, column), getattr(want, column)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# integer-valued, signed-zero and fractional coordinates
COORDINATES = st.one_of(
    st.integers(-5000, 5000).map(float),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, 1e-300, 2.0**60, 1e22]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
HEADER_LINES = st.lists(st.sampled_from(["imagesource:GoogleEarth", "gsd:0.146", "note: 1 2"]), min_size=1, max_size=2)


@st.composite
def annotation_sets(draw, max_records=13):
    """Sets whose images hold one record each, or from none to
    ``max_records``; an image may have headers, records, both or neither."""
    ids = sorted(draw(st.sets(st.text("ab-.x0", min_size=1, max_size=3), max_size=9)))
    each = st.just(1) if draw(st.booleans()) else st.integers(0, max_records)
    sizes = [draw(each) for _ in ids]
    n = sum(sizes)
    corners = draw(st.lists(COORDINATES, min_size=8 * n, max_size=8 * n))
    names = sorted(draw(st.sets(st.sampled_from(["SV", "plane", "ship", "small-vehicle"]), min_size=1)))
    codes = draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n))
    difficulty = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    headers = {i: tuple(draw(HEADER_LINES)) for i in ids if draw(st.booleans())}
    return AnnotationSet(ids, np.cumsum([0] + sizes), np.reshape(corners, (n, 4, 2)), codes, names, difficulty, headers)


@given(annotation_sets(), st.one_of(st.integers(1, 6), st.just(dataset._BATCH_RECORDS)))
@settings(max_examples=200, deadline=None)
def test_render_in_batches_matches_whole_set_render(ann, batch):
    """Mostly batches far smaller than the images, so most images are larger
    than a batch and every batch edge falls somewhere new."""
    with mock.patch.object(dataset, "_BATCH_RECORDS", batch):
        assert serialize_dota(ann) == whole_set_render(ann, ann.corners, True, ann.headers)
        for values in (ann.corners[:, :, 0], ann.corners[:, 0]):  # 4 and 2 values a record
            assert dataset._render(ann, values, False, {}) == whole_set_render(ann, values, False, {})
        points = weaken_corners(ann.corners, WeakKind.POINT)
        with tempfile.TemporaryDirectory() as tmp:
            assert write_weak(ann, WeakKind.POINT, Path(tmp) / "out")[0] == whole_set_render(ann, points, False, {})


@given(annotation_sets(), st.data(), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_writing_rows_matches_writing_their_selection(ann, data, batch):
    """Each batch gathers the kept rows of its images; records that lose
    their label are named by their rows in ``ann``."""
    rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(ann), max_size=len(ann))))
    with mock.patch.object(dataset, "_BATCH_RECORDS", batch), tempfile.TemporaryDirectory() as tmp:
        for kind in (None, *WeakKind):
            got = write_dota_dir(ann, Path(tmp) / f"rows-{kind}", kind, rows=rows)
            want = write_dota_dir(ann._select(rows), Path(tmp) / f"set-{kind}", kind)
            assert got[0] == want[0] and read_texts(Path(tmp) / f"rows-{kind}") == read_texts(Path(tmp) / f"set-{kind}")
            assert got[1].ids == want[1].ids and records_of(got[1]) == records_of(want[1])


@st.composite
def annotation_dirs(draw):
    """File texts by name: the images of an annotation set, each parsed
    with its own category table, beside an empty and a header-only file.
    Ids such as "a-b" and "a" arrive out of id order."""
    ann = draw(annotation_sets())
    texts = {f"f{image_id}.txt": text for image_id, text in serialize_dota(ann).items()}
    return {**texts, "fempty.txt": "", "fhdr.txt": "imagesource:GoogleEarth\n\n"}


@given(annotation_dirs())
@settings(max_examples=100, deadline=None)
def test_load_dir_matches_concat_merge(texts):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        assert_same_set(load_dota_dir(tmp), concat_load_dota_dir(tmp))


def test_committed_corpus_loads_like_concat_merge():
    path = Path(__file__).parent / "data" / "dota_14"
    assert_same_set(load_dota_dir(path), concat_load_dota_dir(path))


def test_load_names_the_first_bad_file_in_path_order(tmp_path):
    (tmp_path / "a.txt").write_text(f"{GOOD}\n{BAD_LINES[2]}\n")
    (tmp_path / "a-b.txt").write_text(f"hdr\n{GOOD}\n{BAD_LINES[7]}\n")  # before a.txt in path order
    with pytest.raises(DotaParseError) as exc:
        load_dota_dir(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'a-b.txt'}: line 3: non-finite corner coordinate"
    (tmp_path / "a-b.txt").write_text(f"{GOOD}\n")
    with pytest.raises(DotaParseError) as exc:
        load_dota_dir(tmp_path)
    assert (exc.value.path, exc.value.line_no) == (tmp_path / "a.txt", 2)


def test_load_keeps_only_the_given_images_but_checks_every_file(tmp_path):
    path = Path(__file__).parent / "data" / "dota_14"
    whole = load_dota_dir(path)
    assert dataset.dota_dir_ids(path) == list(whole.ids)
    keep = whole.ids[::3]
    kept, want = load_dota_dir(path, keep=keep), subset_images(whole, keep)
    assert kept.ids == want.ids == keep and kept.headers == want.headers
    assert records_of(kept) == records_of(want)
    nothing = load_dota_dir(path, keep=())
    assert nothing.ids == () and len(nothing) == 0
    (tmp_path / "a.txt").write_text(f"{GOOD}\n")
    (tmp_path / "b.txt").write_text(f"{GOOD}\n{BAD_LINES[5]}\n")
    with pytest.raises(DotaParseError) as exc:
        load_dota_dir(tmp_path, keep=["a"])
    assert (exc.value.path, exc.value.line_no) == (tmp_path / "b.txt", 2)


def test_load_takes_back_what_an_unkept_image_brought(tmp_path):
    """An image left out by ``keep`` is parsed and checked, but its rows, its
    headers, the 300 categories only it has and its int64 difficulties are
    not held: the load is that of the kept files alone, uint8 codes and int8
    difficulty included."""
    line = "0 0 1 0 1 1 0 1 {} {}\n".format
    texts = {
        "a": "hdr:a\n" + line("ship", 0) + line("plane", 1),
        "b": "hdr:b\n" + line("ship", 0) + "".join(line(name, 2**40) for name in names_of(300)),
        "c": line("plane", 0) + line("harbor", 1) + "hdr:c\n",
    }
    for folder, names in (("all", "abc"), ("kept", "ac")):
        (tmp_path / folder).mkdir()
        for name in names:
            (tmp_path / folder / f"{name}.txt").write_text(texts[name])
    loaded = load_dota_dir(tmp_path / "all", keep=["a", "c"])
    assert loaded.names == ("harbor", "plane", "ship") and loaded.headers == {"a": ("hdr:a",), "c": ("hdr:c",)}
    assert (loaded.codes.dtype, loaded.difficulty.dtype) == (np.uint8, np.int8)
    assert_same_set(loaded, load_dota_dir(tmp_path / "kept"))


# Records per image of the benchmark's corpus: 10 to 250, mostly small,
# 8,798 over 150 images.
LARGE_COUNTS = np.rint(10 * 25 ** ((np.arange(150) / 149) ** 1.5)).astype(int)


@pytest.fixture(scope="module")
def large_set():
    rng = np.random.default_rng(17)
    n = int(LARGE_COUNTS.sum())
    boxes = np.column_stack([
        rng.uniform(0, 4000, (n, 2)), rng.uniform(6, 150, n), rng.uniform(2, 40, n), rng.uniform(-1.5, 1.5, n),
    ])
    ids = [f"P{i:04d}" for i in range(len(LARGE_COUNTS))]
    names = sorted(DOTA_CATEGORY_ORDER)
    return AnnotationSet(
        ids, np.cumsum([0, *rng.permutation(LARGE_COUNTS)]), corners_of_boxes(boxes),
        rng.integers(0, len(names), n), names, (rng.random(n) < 0.1).astype(int),
        {i: ("imagesource:GoogleEarth", "gsd:0.146") for i in ids},
    )


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak of the call in bytes). pathlib
    interns the names of the paths it makes, so the file names a traced
    call makes paths of are kept referenced before it runs: interning one
    anew can grow the interpreter's table of interned strings, which takes
    megabytes at once."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_set_renders_like_the_oracle(large_set):
    texts = serialize_dota(large_set)
    assert len(large_set) == 8798 and texts == whole_set_render(large_set, large_set.corners, True, large_set.headers)
    one_image = parse_dota("".join(texts.values()), "big")  # 8,798 records in one image
    assert serialize_dota(one_image) == whole_set_render(one_image, one_image.corners, True, one_image.headers)


def test_serialize_memory_beyond_its_texts(large_set):
    texts, peak = traced_peak(serialize_dota, large_set)
    size = sum(map(sys.getsizeof, texts.values()))
    assert peak - size < 2**20  # rendering the whole set at once took 6.4 MB more than the texts


@pytest.fixture(scope="module")
def large_dir(large_set, tmp_path_factory):
    """large_set written out, one file per image. Its file names stay
    referenced while the module runs (see traced_peak)."""
    path = tmp_path_factory.mktemp("large") / "anns"
    count, dropped = write_dota_dir(large_set, path)
    assert count == 150 and len(dropped) == 0
    names = [path / f"{i}.txt" for i in large_set.ids]
    yield path
    del names


def column_bytes(ann):
    return sum(getattr(ann, c).nbytes for c in ("offsets", "corners", "codes", "difficulty"))


def test_large_dir_loads_like_concat_merge(large_set, large_dir):
    loaded = load_dota_dir(large_dir)
    assert_same_set(loaded, concat_load_dota_dir(large_dir))
    assert_same_set(loaded, large_set)


def test_load_memory_beyond_its_columns(large_dir):
    loaded, peak = traced_peak(load_dota_dir, large_dir)
    # 0.15 MB; a set of each file merged into the columns took 0.21 MB,
    # converting each file's coordinates from a list of every line's tokens
    # 0.41 MB, and parsing every file before the merge 1.18 MB
    assert peak - column_bytes(loaded) < 0.18 * 2**20


def test_sparsify_memory_beyond_the_loaded_columns(large_dir, tmp_path, capsys):
    argv = ["sparsify", "--input", str(large_dir), "--method", "single", "--sparse", "0.3", "--weaken", "rbox"]
    assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == 0  # lazy imports happen before the trace
    code, peak = traced_peak(cli.main, [*argv, "--out", str(tmp_path / "out")])
    assert code == 0
    # 0.28 MB; a sparse copy of the set, 512-record batches and every
    # line's tokens held while parsing its file took 0.50 MB, and parsing
    # every file before the merge, weakening the whole sparse set and
    # rendering every text before writing 1.61 MB
    assert peak - column_bytes(load_dota_dir(large_dir)) < 0.45 * 2**20


def grouped_set(n_images, rows_per_image, codes_per_image, n_names, seed=0):
    """``n_images`` images of ``rows_per_image`` rows each, every image's
    rows shuffled over the codes 0 to ``codes_per_image - 1`` of ``n_names``
    categories, with zero corners."""
    rng = np.random.default_rng(seed)
    codes = np.concatenate([rng.permutation(np.arange(rows_per_image) % codes_per_image) for _ in range(n_images)])
    return AnnotationSet(
        [f"P{i:04d}" for i in range(n_images)], np.arange(0, len(codes) + 1, rows_per_image),
        np.zeros((len(codes), 4, 2)), codes, [f"c{i:04d}" for i in range(n_names)], np.zeros(len(codes), np.int8),
    )


def test_sampling_memory_does_not_grow_with_the_group_count():
    """20,000 rows keeping 4,000: the single sampler draws them from 20
    (image, category) groups or from 4,000, in images of 1,000 rows; the
    overall sampler from 4 categories or from 4,000. More groups cost no
    more, and beyond the columns each peak is at most the keep mask, what
    the sampler holds for one block (a run's key and order, or a category's
    row mask and rows) and the kept rows. Holding every group's view and
    kept rows at once made 4,000 groups cost 1.25 MB against 0.46 MB, and
    the (image, category) key and its order over the whole set took 16
    bytes a row."""
    def peak(sample, ann, block):
        kept, peak = traced_peak(sample, ann, 0.2, 1)
        assert len(kept) == 4_000
        assert peak <= len(ann) + block + kept.nbytes
        return peak

    run = dataset._BLOCK_ROWS * (np.min_scalar_type(200).itemsize + np.dtype(np.intp).itemsize)
    few, many = grouped_set(20, 1_000, 1, 200), grouped_set(20, 1_000, 200, 200)
    assert peak(sparsify_single, many, run) <= peak(sparsify_single, few, run) + 2**10
    category = 20_000 + 5_000 * np.dtype(np.intp).itemsize  # the row mask and rows of one of 4 categories
    few, many = grouped_set(1, 20_000, 4, 4), grouped_set(1, 20_000, 4_000, 4_000)
    assert peak(sparsify_overall, many, category) <= peak(sparsify_overall, few, category) + 2**10


def test_single_sampling_memory_does_not_grow_with_the_rows():
    """20,000 and 80,000 rows in images of 100 over 5 categories: beyond the
    keep mask and the kept rows, the single sampler holds the same. A key
    and its order over the whole set took 16 bytes a row, and a list of
    the image bounds 36 bytes an image."""
    def beyond(n_images):
        ann = grouped_set(n_images, 100, 5, 5)
        kept, peak = traced_peak(sparsify_single, ann, 0.3, 1)
        return peak - len(ann) - kept.nbytes

    assert beyond(800) <= beyond(200) + 2**10


def test_parse_memory_beyond_its_lines_and_columns(large_set):
    """2,000 records: beyond the text's lines and the columns it returns the
    parse holds one line's tokens and the column buffers' slack."""
    text = "".join(serialize_dota(large_set._select(np.arange(2_000))).values())
    lines = text.splitlines()
    lines_bytes = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
    del lines
    parsed, peak = traced_peak(parse_dota, text, "x")
    assert len(parsed) == 2_000
    # 28 KB; keeping every line's tokens for one conversion per column took 1.75 MB
    assert peak - lines_bytes - column_bytes(parsed) < 48 * 2**10


def test_writer_memory_does_not_grow_with_the_kept_rows(tmp_path):
    """1,000 and 8,000 kept rows of 9,600, in images smaller than a batch:
    beyond its inputs the writer holds one batch, so both peaks agree."""
    rng = np.random.default_rng(5)
    n = 160 * 60
    boxes = np.column_stack([
        rng.uniform(0, 4000, (n, 2)), rng.uniform(6, 150, n), rng.uniform(2, 40, n), rng.uniform(-1.5, 1.5, n),
    ])
    ids = [f"P{i:04d}" for i in range(160)]
    names = sorted(DOTA_CATEGORY_ORDER)
    ann = AnnotationSet(
        ids, np.arange(0, n + 1, 60), corners_of_boxes(boxes), rng.integers(0, len(names), n), names,
        (rng.random(n) < 0.1).astype(int), {i: ("imagesource:GoogleEarth", "gsd:0.146") for i in ids},
    )
    names = [tmp_path / f"{i}.txt" for i in ids]  # see traced_peak
    for kind in (None, WeakKind.RBOX):
        peaks = []
        for k in (1_000, 8_000):
            rows = np.sort(rng.choice(n, k, replace=False))
            (written, dropped), peak = traced_peak(write_dota_dir, ann, tmp_path / f"{kind}-{k}", kind, rows)
            assert written == 160 and len(dropped) == 0
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def test_partial_sparsify_memory_below_the_whole_corpus_columns(large_dir, tmp_path, capsys):
    """Only the labeled images are loaded: the command peaks below the
    columns of the whole corpus."""
    argv = ["sparsify", "--input", str(large_dir), "--method", "single", "--sparse", "0.3", "--partial", "0.5"]
    assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == 0  # lazy imports happen before the trace
    code, peak = traced_peak(cli.main, [*argv, "--out", str(tmp_path / "out")])
    assert code == 0
    # 0.48 MB against 0.67 MB; loading every image and then copying the labeled ones took 1.12 MB
    assert peak < column_bytes(load_dota_dir(large_dir))
