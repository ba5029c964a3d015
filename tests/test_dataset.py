import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spwood.dataset import (
    AnnotationRecord,
    AnnotationSet,
    SparsifyConfig,
    WeakKind,
    compare_counts,
    compare_stats,
    parse_dota,
    record_from_box,
    round_half_up,
    select_partial,
    serialize_dota,
    serialize_weak,
    sparsify,
    sparsify_overall,
    sparsify_single,
    weaken,
)
from spwood.errors import DegenerateInputError, DotaParseError
from spwood.geometry import HorizontalBox, OrientedBox, PointAnnotation, box_corners


def record(image_id, corners, category="plane", difficulty=0):
    return AnnotationRecord(image_id, tuple(corners), category, difficulty)


def rect_record(image_id, cx, cy, w, h, theta, category="plane"):
    box = OrientedBox(cx, cy, w, h, theta)
    return record(image_id, [tuple(p) for p in box_corners(box)], category)


def synthetic_corpus(seed=0, n_images=200, categories=("PL", "BD", "SV", "SH", "HC")):
    """Skewed corpus: some categories appear as singletons, some in bulk."""
    rng = np.random.default_rng(seed)
    images = {}
    for i in range(n_images):
        image_id = f"img{i:04d}"
        records = []
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
        images[image_id] = records
    return AnnotationSet(images)


# --- parsing --------------------------------------------------------------------


def test_parse_minimal_line():
    ann = parse_dota("0 0 2 0 2 1 0 1 plane 0\n", image_id="P0001")
    recs = list(ann.records())
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
    assert list(once.records()) == list(again.records())
    assert once.headers == again.headers


# --- weak labels ----------------------------------------------------------------


def test_weaken_hbox_of_axis_aligned():
    rec = record("x", [(3, 4), (7, 4), (7, 6), (3, 6)])
    assert weaken(rec, WeakKind.HBOX) == HorizontalBox(3, 4, 7, 6)


def test_weaken_point_is_centroid():
    rec = record("x", [(0, 0), (2, 0), (2, 2), (0, 2)])
    assert weaken(rec, WeakKind.POINT) == PointAnnotation(1.0, 1.0, "plane")


def test_weaken_rbox_recovers_rotation():
    theta = math.radians(30.0)
    rec = rect_record("x", 50, 40, 20, 10, theta)
    box = weaken(rec, WeakKind.RBOX)
    assert box.theta == pytest.approx(theta, abs=1e-6)
    assert box.w == pytest.approx(20.0, abs=1e-9)
    assert box.h == pytest.approx(10.0, abs=1e-9)


def test_weaken_degenerate_rejected():
    rec = record("x", [(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DegenerateInputError):
        weaken(rec, WeakKind.RBOX)


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
    rec = rect_record("x", cx, cy, w, h, theta)
    box = weaken(rec, WeakKind.RBOX)
    # the long-edge convention may relabel the sides, cycling the corner
    # order; compare the corner sets geometrically
    got = np.asarray(box_corners(box))
    for corner in rec.corners:
        assert np.min(np.linalg.norm(got - corner, axis=1)) <= 1e-6


# --- partial selection ------------------------------------------------------------


def small_set(n):
    return AnnotationSet(
        {
            f"i{k}": [record(f"i{k}", [(0, 0), (1, 0), (1, 1), (0, 1)])]
            for k in range(n)
        }
    )


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
    ann = AnnotationSet(
        {"a": [record("a", [(0, 0), (1, 0), (1, 1), (0, 1)], "BD")]}
    )
    out = sparsify_single(ann, 0.1, seed=0)
    assert len(out) == 1


def test_single_exact_fraction():
    recs = [
        record("a", [(i, 0), (i + 1, 0), (i + 1, 1), (i, 1)], "SV") for i in range(10)
    ]
    out = sparsify_single(AnnotationSet({"a": recs}), 0.1, seed=0)
    assert len(out.images["a"]) == 1


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
    for image_id, records in ann.images.items():
        in_cats = {r.category for r in records}
        out_cats = {r.category for r in out.images[image_id]}
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
    assert {i: tuple(r) for i, r in out.images.items()} == {
        i: tuple(r) for i, r in ann.images.items()
    }


@given(st.integers(0, 1000), st.sampled_from([0.1, 0.3, 0.5, 0.9]))
@settings(max_examples=15, deadline=None)
def test_sparsified_output_is_subset(seed, ratio):
    ann = synthetic_corpus(seed=5, n_images=40)
    for method in ("single", "overall"):
        out = sparsify(ann, SparsifyConfig(method=method, sparse_ratio=ratio, seed=seed))
        for image_id, records in out.images.items():
            source = ann.images[image_id]
            assert all(r in source for r in records)
            assert len(set(map(id, records))) == len(records)  # no duplication


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
    rows = stats.by_category()
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
    stats = compare_stats(single, overall)
    names = [r.category for r in stats.rows]
    assert names == sorted(
        names, key=lambda c: (("PL", "BD", "BR", "GTF", "SV", "LV", "SH", "TC",
                               "BC", "ST", "SBF", "RA", "HA", "SP", "HC").index(c))
    )
    for row in stats.rows:
        assert row.count_single == single.category_counts().get(row.category, 0)


# --- weak-label serialization -------------------------------------------------------


def test_serialize_weak_formats():
    ann = AnnotationSet(
        {"a": [record("a", [(0, 0), (4, 0), (4, 2), (0, 2)], "ship")]}
    )
    assert serialize_weak(ann, WeakKind.POINT)["a"] == "2 1 ship\n"
    assert serialize_weak(ann, WeakKind.HBOX)["a"] == "0 0 4 2 ship\n"
    rbox_text = serialize_weak(ann, WeakKind.RBOX)["a"]
    reparsed = parse_dota(rbox_text, image_id="a")
    assert list(reparsed.records())[0].category == "ship"


def test_serialize_weak_rbox_non_integer_corners_parse_as_floats():
    box = OrientedBox(10.5, 20, 4, 2, 0)
    ann = AnnotationSet({"a": [record_from_box(box, "a", "ship")]})
    tokens = serialize_weak(ann, WeakKind.RBOX)["a"].split()
    assert len(tokens) == 10
    corners = [float(t) for t in tokens[:8]]
    assert np.allclose(np.reshape(corners, (4, 2)), box_corners(box))
