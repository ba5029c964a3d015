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
    merge_sets,
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
    labeled, unlabeled = select_partial(small_set(10), 1.0, seed=0)
    assert len(labeled) == 10 and unlabeled == []


def test_partial_rounding():
    labeled, unlabeled = select_partial(small_set(10), 0.3, seed=0)
    assert len(labeled) == 3 and len(unlabeled) == 7


def test_partial_deterministic():
    assert select_partial(small_set(50), 0.2, seed=9) == select_partial(
        small_set(50), 0.2, seed=9
    )


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
    assert len(records_of(out, "a")) == 1


def test_single_inflates_rare_categories():
    ann = synthetic_corpus(seed=1)
    out = sparsify_single(ann, 0.1, seed=0)
    before = ann.category_counts()
    after = out.category_counts()
    # singleton-heavy categories retain far more than the nominal 10%
    assert after["BD"] / before["BD"] > 0.5
    # bulk categories sit near the nominal ratio
    assert after["SV"] / before["SV"] < 0.2


def test_single_preserves_image_category_pairs():
    ann = synthetic_corpus(seed=2)
    out = sparsify_single(ann, 0.1, seed=3)
    for image_id in ann.ids:
        in_cats = {r.category for r in records_of(ann, image_id)}
        out_cats = {r.category for r in records_of(out, image_id)}
        assert in_cats == out_cats


def test_overall_exact_counts():
    ann = synthetic_corpus(seed=3)
    out = sparsify_overall(ann, 0.1, seed=4)
    before = ann.category_counts()
    after = out.category_counts()
    for cat, n in before.items():
        assert after.get(cat, 0) == round_half_up(0.1 * n)


def test_overall_identity_at_full_ratio():
    ann = synthetic_corpus(seed=4, n_images=30)
    out = sparsify_overall(ann, 1.0, seed=0)
    assert by_image(out) == by_image(ann)


@given(st.integers(0, 1000), st.sampled_from([0.1, 0.3, 0.5, 0.9]))
@settings(max_examples=15, deadline=None)
def test_sparsified_output_is_subset(seed, ratio):
    ann = synthetic_corpus(seed=5, n_images=40)
    for sample in (sparsify_single, sparsify_overall):
        out = sample(ann, ratio, seed)
        source = by_image(ann)
        for image_id, records in by_image(out).items():
            assert all(r in source[image_id] for r in records)
            # no duplication: a sub-multiset of the image's records
            assert not Counter(records) - Counter(source[image_id])


def test_sparsify_byte_identical_per_seed():
    ann = synthetic_corpus(seed=6, n_images=60)
    a = serialize_dota(sparsify_single(ann, 0.2, seed=11))
    b = serialize_dota(sparsify_single(ann, 0.2, seed=11))
    assert a == b
    c = serialize_dota(sparsify_overall(ann, 0.2, seed=11))
    d = serialize_dota(sparsify_overall(ann, 0.2, seed=11))
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
    stats = compare_counts(single.category_counts(), overall.category_counts())
    names = [r.category for r in stats.rows]
    assert names == sorted(
        names, key=lambda c: (("PL", "BD", "BR", "GTF", "SV", "LV", "SH", "TC",
                               "BC", "ST", "SBF", "RA", "HA", "SP", "HC").index(c))
    )
    for row in stats.rows:
        assert row.count_single == single.category_counts().get(row.category, 0)


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


@pytest.mark.parametrize("weak", ["none", "hbox", "point", "rbox"])
@pytest.mark.parametrize("partial", [1.0, 0.5])
@pytest.mark.parametrize("method", ["single", "overall"])
def test_sparsify_cli_bytes_match_record_reference(tmp_path, oracle_corpus, method, partial, weak):
    out = tmp_path / "out"
    assert cli.main([
        "sparsify", "--input", str(oracle_corpus), "--out", str(out), "--method", method,
        "--sparse", "0.3", "--partial", str(partial), "--seed", "13", "--weaken", weak,
    ]) == 0
    images, headers = ref_load(oracle_corpus)
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


def test_report_cli_bytes_match_record_reference(tmp_path, oracle_corpus):
    images, headers = ref_load(oracle_corpus)
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
            assert by_image(sparsify_single(ann, ratio, seed)) == {
                i: tuple(r) for i, r in ref_sparsify_single(images, ratio, seed).items()
            }
            assert by_image(sparsify_overall(ann, ratio, seed)) == {
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


def test_merge_sorts_images_and_remaps_categories():
    a = parse_dota("hdr:b\n0 0 1 0 1 1 0 1 ship 0\n0 0 2 0 2 2 0 2 plane 1\n", image_id="b")
    b = parse_dota("0 0 3 0 3 3 0 3 zebra 0\n", image_id="a.x")
    c = parse_dota("hdr:c\n", image_id="a")
    merged = merge_sets([a, b, c])
    assert merged.ids == ("a", "a.x", "b")
    assert merged.names == ("plane", "ship", "zebra")
    assert [(r.image_id, r.category) for r in records_of(merged)] == [
        ("a.x", "zebra"), ("b", "ship"), ("b", "plane"),
    ]
    assert merged.headers == {"b": ("hdr:b",), "a": ("hdr:c",)}
    assert serialize_dota(merged)["a"] == "hdr:c\n"
    with pytest.raises(InvalidInputError, match="duplicate image id 'b'"):
        merge_sets([a, b, a])


def test_sets_without_records_sample_and_render(tmp_path):
    empty = parse_dota("imagesource:x\n\n", image_id="e")
    assert len(empty) == 0 and empty.category_counts() == {}
    for out in (sparsify_single(empty, 0.5, 0), sparsify_overall(empty, 0.5, 0)):
        assert out.ids == ("e",) and len(out) == 0
        assert serialize_dota(out) == {"e": "imagesource:x\n"}
    text, dropped = write_weak(empty, WeakKind.RBOX, tmp_path)
    assert text == {"e": ""} and len(dropped) == 0
    assert len(merge_sets([])) == 0


def test_columns_reject_inconsistent_input():
    with pytest.raises(InvalidInputError):
        AnnotationSet(("b", "a"), (0, 0, 0), np.empty((0, 4, 2)), [], [], [])
    with pytest.raises(InvalidInputError):
        AnnotationSet(("a",), (0, 1), np.zeros((1, 4, 2)), [1], ["ship"], [0])
    with pytest.raises(InvalidInputError, match="non-finite"):
        AnnotationSet(("a",), (0, 1), np.full((1, 4, 2), np.inf), [0], ["ship"], [0])


# --- batched rendering and one-copy merging ------------------------------------------


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


def argsort_merge_sets(sets):
    """dataset.merge_sets before it concatenated per-image row slices, kept
    verbatim as the oracle: rows put in id order by an argsort and a
    fancy-index copy of each concatenated column."""
    sets = list(sets)
    ids = [image_id for s in sets for image_id in s.ids]
    if len(set(ids)) < len(ids):
        duplicate = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise InvalidInputError(f"duplicate image id {duplicate!r}")
    if not sets:
        return AnnotationSet((), (0,), [], [], [], [])
    names = sorted({name for s in sets for name in s.names})
    code = {name: i for i, name in enumerate(names)}
    order = sorted(range(len(ids)), key=ids.__getitem__)
    sizes = np.concatenate([np.diff(s.offsets) for s in sets])
    rows = np.argsort(np.repeat(np.argsort(order), sizes), kind="stable")
    return AnnotationSet(
        [ids[i] for i in order],
        np.concatenate([[0], np.cumsum(sizes[order])]),
        np.concatenate([s.corners for s in sets])[rows],
        np.concatenate([np.array([code[n] for n in s.names], np.intp)[s.codes] for s in sets])[rows],
        names,
        np.concatenate([s.difficulty for s in sets])[rows],
        {image_id: h for s in sets for image_id, h in s.headers.items()},
    )


def concat_merge_sets(sets):
    """dataset.merge_sets before it appended each set to growing buffers,
    kept verbatim as the oracle: every set taken at once, each column one
    concatenation of per-image row slices in id order."""
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
    return concat_merge_sets(map(dataset._load_file, sorted(Path(path).glob("*.txt"))))


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


@st.composite
def interleaved_sets(draw):
    """Pieces of one set whose image ids interleave, some with a category
    table of their own (as parse_dota gives) and some with the whole one."""
    whole = draw(annotation_sets())
    k = draw(st.integers(1, 4))
    owner = [draw(st.integers(0, k - 1)) for _ in whole.ids]
    pieces = [subset_images(whole, [i for i, o in zip(whole.ids, owner) if o == j]) for j in range(k)]
    return [own_names(p) if draw(st.booleans()) else p for p in pieces]


def own_names(ann):
    """``ann`` with a category table of only the categories it uses."""
    used = np.unique(ann.codes)
    return AnnotationSet(
        ann.ids, ann.offsets, ann.corners, np.searchsorted(used, ann.codes), [ann.names[c] for c in used],
        ann.difficulty, ann.headers,
    )


@given(interleaved_sets())
@settings(max_examples=150, deadline=None)
def test_merge_matches_argsort_merge(sets):
    assert_same_set(merge_sets(sets), argsort_merge_sets(sets))
    assert_same_set(merge_sets(sets[::-1]), argsort_merge_sets(sets[::-1]))
    assert_same_set(merge_sets(iter(sets)), concat_merge_sets(sets))


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
    """(fn(*args), the tracemalloc peak of the call in bytes)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_set_renders_and_merges_like_the_oracles(large_set):
    texts = serialize_dota(large_set)
    assert len(large_set) == 8798 and texts == whole_set_render(large_set, large_set.corners, True, large_set.headers)
    sets = [parse_dota(text, image_id) for image_id, text in texts.items()]
    assert_same_set(merge_sets(sets[::-1]), argsort_merge_sets(sets[::-1]))
    one_image = merge_sets([parse_dota("".join(texts.values()), "big")])  # 8,798 records, 17 batches
    assert serialize_dota(one_image) == whole_set_render(one_image, one_image.corners, True, one_image.headers)


def test_serialize_memory_beyond_its_texts(large_set):
    texts, peak = traced_peak(serialize_dota, large_set)
    size = sum(map(sys.getsizeof, texts.values()))
    assert peak - size < 2**20  # rendering the whole set at once took 6.4 MB more than the texts


def test_merge_memory_beyond_its_columns(large_set):
    sets = [parse_dota(text, image_id) for image_id, text in serialize_dota(large_set).items()]
    merged, peak = traced_peak(merge_sets, sets)
    columns = sum(getattr(merged, c).nbytes for c in ("offsets", "corners", "codes", "difficulty"))
    assert peak - columns < 0.25 * 2**20  # the argsort and fancy-index copies took 0.48 MB more



@pytest.fixture(scope="module")
def large_dir(large_set, tmp_path_factory):
    """large_set written out, one file per image."""
    path = tmp_path_factory.mktemp("large") / "anns"
    count, dropped = write_dota_dir(large_set, path)
    assert count == 150 and len(dropped) == 0
    return path


def column_bytes(ann):
    return sum(getattr(ann, c).nbytes for c in ("offsets", "corners", "codes", "difficulty"))


def test_large_dir_loads_like_concat_merge(large_set, large_dir):
    loaded = load_dota_dir(large_dir)
    assert_same_set(loaded, concat_load_dota_dir(large_dir))
    assert_same_set(loaded, large_set)


def test_load_memory_beyond_its_columns(large_dir):
    loaded, peak = traced_peak(load_dota_dir, large_dir)
    assert peak - column_bytes(loaded) < 0.6 * 2**20  # 0.41 MB; parsing every file before the merge took 1.18 MB


def test_sparsify_memory_beyond_the_loaded_columns(large_dir, tmp_path, capsys):
    argv = ["sparsify", "--input", str(large_dir), "--method", "single", "--sparse", "0.3", "--weaken", "rbox"]
    assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == 0  # lazy imports happen before the trace
    code, peak = traced_peak(cli.main, [*argv, "--out", str(tmp_path / "out")])
    assert code == 0
    # 0.82 MB; parsing every file before the merge, weakening the whole
    # sparse set and rendering every text before writing took 1.61 MB
    assert peak - column_bytes(load_dota_dir(large_dir)) < 1.1 * 2**20
