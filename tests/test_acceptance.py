"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Finite-difference oracles here are written locally, independent of
the package's own gradient-checking helpers.
"""

import math
import time

import numpy as np
import pytest

from spwood.dataset import (
    AnnotationSet,
    compare_counts,
    round_half_up,
    serialize_dota,
    sparsify_overall,
    sparsify_single,
)
from spwood.filtering import LevelScores, PyramidLevel, fit_gmm, threshold_from_fit
from spwood.geometry import OrientedBox, PointAnnotation
from spwood.layout import (
    RasterImage,
    scale_target_from_mask,
    voronoi_partition,
    watershed_segment,
)
from spwood.losses import (
    Flip,
    FocalParams,
    PredictionTriple,
    Rotate,
    SampleKind,
    SupervisedWeights,
    angle_loss,
    gaussian_overlap_loss,
    sparse_cls_loss,
    total_loss,
    total_supervised_loss,
    unsupervised_loss,
    watershed_loss,
)
from spwood.pipeline import (
    LevelPlan,
    SimScenario,
    StageState,
    advance_stage,
    ema_update,
    paired_comparison,
)


def report(num, name, t0, limit=None):
    elapsed = time.perf_counter() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_category_stats_arithmetic():
    t0 = time.perf_counter()
    printed_single = {"BD": 37, "GTF": 79, "SBF": 48, "RA": 46, "PL": 383}
    printed_overall = {"BD": 14, "GTF": 13, "SBF": 12, "RA": 11, "PL": 369}
    expected = {"BD": 164.3, "GTF": 507.7, "SBF": 300.0, "RA": 318.2, "PL": 3.8}
    rows = {r.category: r for r in compare_counts(printed_single, printed_overall).rows}
    for cat, want in expected.items():
        assert rows[cat].relative_difference_percent == pytest.approx(want, abs=0.1)
    report(1, "category stats arithmetic", t0, limit=1.0)


def test_criterion_2_supervised_weighting():
    t0 = time.perf_counter()
    assert total_supervised_loss([1, 1, 1, 1, 1, 1], SupervisedWeights()) == 18.2
    report(2, "supervised loss weighting", t0)


# --- criterion 3: gradients vs central finite differences ----------------------


def fd_gradient(f, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def rel_err(analytic, numeric):
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
    return float(np.max(np.abs(a - n) / denom))


def uniform_avoiding(rng, lo, hi, avoid, margin=1e-3):
    while True:
        v = rng.uniform(lo, hi)
        if all(abs(v - a) > margin for a in avoid):
            return v


def sample_cases(op, rng):
    if op == "sparse_cls":
        params = FocalParams(
            alpha_t=rng.uniform(0.1, 0.9),
            gamma=rng.uniform(0.5, 4.0),
            omega=rng.uniform(0.05, 1.0),
            thr=rng.uniform(0.2, 0.8),
        )
        kind = SampleKind.POSITIVE if rng.random() < 0.5 else SampleKind.NEGATIVE
        p = uniform_avoiding(rng, 0.02, 0.98, [params.thr])
        res = sparse_cls_loss(p, kind, params)
        return (
            np.array([p]),
            lambda x: sparse_cls_loss(float(x[0]), kind, params).value,
            res.grad,
        )
    if op == "angle":
        beta = rng.uniform(0.3, 1.5)
        aug = Flip() if rng.random() < 0.5 else Rotate(rng.uniform(-3.0, 3.0))
        while True:
            ta = rng.uniform(-1.5, 1.5)
            to = rng.uniform(-1.5, 1.5)
            raw = ta + to if isinstance(aug, Flip) else ta - to - aug.angle
            wrapped = (raw + math.pi / 2) % math.pi - math.pi / 2
            frac = (raw + math.pi / 2) % math.pi
            if min(frac, math.pi - frac) > 1e-3 and abs(abs(wrapped) - beta) > 1e-3:
                break
        res = angle_loss(ta, to, aug, beta)
        return (
            np.array([ta, to]),
            lambda x: angle_loss(float(x[0]), float(x[1]), aug, beta).value,
            res.grad,
        )
    if op == "overlap":
        n = int(rng.integers(2, 4))
        rows = np.column_stack(
            [
                rng.uniform(-4, 4, n),
                rng.uniform(-4, 4, n),
                rng.uniform(0.5, 4, n),
                rng.uniform(0.5, 4, n),
                rng.uniform(-1.4, 1.4, n),
            ]
        )

        def f(x):
            return gaussian_overlap_loss(
                [OrientedBox(*row) for row in x.reshape(-1, 5)]
            ).value

        res = gaussian_overlap_loss([OrientedBox(*row) for row in rows])
        return rows.ravel(), f, res.grad.ravel()
    if op == "watershed":
        w, h, tw, th = rng.uniform(0.5, 8.0, 4)

        def f(x):
            return watershed_loss(OrientedBox(0, 0, x[0], x[1], 0), tw, th).value

        res = watershed_loss(OrientedBox(0, 0, w, h, 0), tw, th)
        return np.array([w, h]), f, res.grad
    if op == "supervised":
        parts = rng.uniform(0.0, 5.0, 6)
        weights = SupervisedWeights()
        return (
            parts,
            lambda x: total_supervised_loss(x.tolist(), weights),
            weights.as_array(),
        )
    if op == "unsupervised":
        n = int(rng.integers(1, 5))
        t_margins = rng.uniform(-3, 3, (n, 4))
        offsets = np.array(
            [uniform_avoiding(rng, -2.5, 2.5, [-1.0, 1.0]) for _ in range(4 * n)]
        ).reshape(n, 4)
        teacher = PredictionTriple(
            rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n), t_margins
        )
        s0 = np.concatenate(
            [
                rng.uniform(0.05, 0.95, n),
                rng.uniform(0.05, 0.95, n),
                (t_margins + offsets).ravel(),
            ]
        )

        def f(x):
            student = PredictionTriple(
                x[:n], x[n : 2 * n], x[2 * n :].reshape(n, 4)
            )
            return unsupervised_loss(teacher, student).value

        student0 = PredictionTriple(
            s0[:n], s0[n : 2 * n], s0[2 * n :].reshape(n, 4)
        )
        return s0, f, unsupervised_loss(teacher, student0).grad
    if op == "total":
        x = rng.uniform(0.0, 20.0, 2)
        return (
            x,
            lambda v: total_loss(float(v[0]), float(v[1])),
            np.array([1.0, 1.0]),
        )
    raise AssertionError(op)


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    ops = (
        "sparse_cls", "angle", "overlap", "watershed",
        "supervised", "unsupervised", "total",
    )
    rng = np.random.default_rng(2024)
    worst = {}
    for op in ops:
        errs = []
        for _ in range(100):
            x0, f, analytic = sample_cases(op, rng)
            errs.append(rel_err(analytic, fd_gradient(f, x0)))
        worst[op] = max(errs)
        assert worst[op] < 1e-5, f"{op}: max rel err {worst[op]:.3g}"
    report(3, f"gradient suite (worst {max(worst.values()):.2g})", t0, limit=10.0)


def test_criterion_4_gmm_recovery():
    t0 = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        neg = np.clip(rng.normal(0.15, 0.05, 500), 1e-6, 1 - 1e-6)
        pos = np.clip(rng.normal(0.85, 0.05, 500), 1e-6, 1 - 1e-6)
        scores = np.concatenate([neg, pos])
        labels = np.concatenate([np.zeros(500, bool), np.ones(500, bool)])
        fit = fit_gmm(scores)
        assert abs(fit.mu_p - 0.85) <= 0.02
        assert abs(fit.mu_n - 0.15) <= 0.02
        assert np.all(np.diff(fit.log_likelihoods) >= -1e-9)
        tau = threshold_from_fit(fit, scores).tau
        accuracy = float(np.mean((scores >= tau) == labels))
        assert accuracy >= 0.99
    report(4, "planted mixture recovery, 50 seeds", t0, limit=30.0)


def test_criterion_5_mpf_beats_cpf():
    t0 = time.perf_counter()
    plans = []
    for i, level in enumerate(PyramidLevel):
        mu_n = 0.06 + 0.12 * i
        plans.append(LevelPlan(level, 150, 450, mu_n + 0.34, mu_n, 0.04))
    scenario = SimScenario(tuple(plans), rounds=2, seed=0)
    summary = paired_comparison(scenario, repeats=50, base_seed=100)
    assert summary.mpf_mean_f1 > summary.cpf_mean_f1
    assert summary.sign_test_p < 0.01
    report(
        5,
        f"MPF {summary.mpf_mean_f1:.3f} > CPF {summary.cpf_mean_f1:.3f}, "
        f"p={summary.sign_test_p:.2g}",
        t0,
        limit=60.0,
    )


def test_criterion_6_voronoi_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(200):
        width = int(rng.integers(2, 129))
        height = int(rng.integers(2, 129))
        n_seeds = int(rng.integers(1, 21))
        seeds = [
            PointAnnotation(int(rng.integers(0, width)), int(rng.integers(0, height)))
            for _ in range(n_seeds)
        ]
        got = voronoi_partition(seeds, width, height).cell_id
        # independent oracle: sequential per-seed scan, strict improvement
        # keeps the lowest index on ties
        xs = np.arange(width, dtype=float)[None, :]
        ys = np.arange(height, dtype=float)[:, None]
        best_d = np.full((height, width), np.inf)
        best_i = np.zeros((height, width), dtype=np.int64)
        for k, s in enumerate(seeds):
            d = (xs - s.x) ** 2 + (ys - s.y) ** 2
            better = d < best_d
            best_d[better] = d[better]
            best_i[better] = k
        assert np.array_equal(got, best_i)
    report(6, "voronoi equals brute-force oracle, 200 configs", t0, limit=30.0)


def test_criterion_7_watershed_scale_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(50):
        w = float(rng.uniform(8, 60))
        h = float(rng.uniform(8, 60))
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        size = int(math.hypot(w, h)) + 12
        cx = cy = size / 2.0
        ys, xs = np.mgrid[0:size, 0:size]
        c, s = math.cos(-theta), math.sin(-theta)
        u = (xs - cx) * c - (ys - cy) * s
        v = (xs - cx) * s + (ys - cy) * c
        img = ((np.abs(u) <= w / 2) & (np.abs(v) <= h / 2)).astype(float)
        cells = voronoi_partition(
            [PointAnnotation(round(cx), round(cy))], size, size
        )
        mask = watershed_segment(RasterImage.from_array(img), cells)[0]
        target = scale_target_from_mask(mask, theta)
        tol_w = max(0.1 * w, 2.0)
        tol_h = max(0.1 * h, 2.0)
        if target.valid and abs(target.w_t - w) <= tol_w and abs(target.h_t - h) <= tol_h:
            hits += 1
    assert hits >= 45, f"only {hits}/50 rectangles recovered"
    report(7, f"watershed scale recovery {hits}/50", t0, limit=60.0)


def test_criterion_8_sparsifier_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    categories = [f"C{k:02d}" for k in range(15)]
    rectangle = np.array([(0, 0), (9, 0), (9, 4), (0, 4)], dtype=float)
    corners, codes, offsets = [], [], [0]
    while len(codes) < 10000:
        for code, cat in enumerate(categories):
            # skewed counts: rare categories mostly absent or singleton
            n = int(rng.integers(0, 2)) if cat < "C05" else int(rng.integers(0, 12))
            corners += [xy + rectangle for xy in rng.uniform(0, 999, (n, 1, 2))]
            codes += [code] * n
        offsets.append(len(codes))
    image_ids = [f"img{i:05d}" for i in range(len(offsets) - 1)]
    ann = AnnotationSet(image_ids, offsets, corners, codes, categories, np.zeros(len(codes), int))
    assert len(ann) >= 10000

    def categories_by_image(s):
        return [set(s.codes[lo:hi].tolist()) for lo, hi in zip(s.offsets, s.offsets[1:])]

    single = sparsify_single(ann, 0.1, seed=5)
    assert single.ids == ann.ids and single.names == ann.names
    assert categories_by_image(single) == categories_by_image(ann)

    overall = sparsify_overall(ann, 0.1, seed=5)
    counts = ann.category_counts()
    kept = overall.category_counts()
    for cat, n in counts.items():
        assert kept.get(cat, 0) == round_half_up(0.1 * n)

    assert serialize_dota(single) == serialize_dota(sparsify_single(ann, 0.1, seed=5))
    assert serialize_dota(overall) == serialize_dota(sparsify_overall(ann, 0.1, seed=5))
    report(8, f"sparsifier invariants on {len(ann)} records", t0, limit=10.0)


def test_criterion_9_ema_and_staging():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    teacher = rng.normal(size=32)
    student = rng.normal(size=32)
    gap0 = np.linalg.norm(teacher - student)
    momentum = 0.999
    current = teacher
    for k in range(1, 1001):
        current = ema_update(current, student, momentum)
        assert np.linalg.norm(current - student) == pytest.approx(
            momentum**k * gap0, abs=1e-9
        )
    state = StageState()
    assert state.burn_in_iters == 12800
    for expected_iter in range(1, 12801):
        state = advance_stage(state)
        assert state.iteration == expected_iter
    assert state.stage.value == "self-training"
    assert StageState(iteration=12799).stage.value == "burn-in"
    report(9, "EMA decay identity and stage flip at 12800", t0)


def test_criterion_10_focal_reduction():
    t0 = time.perf_counter()
    params = FocalParams(alpha_t=0.25, gamma=2.0, omega=1.0, thr=0.5)
    grid = np.linspace(1e-3, 1.0 - 1e-3, 1000)
    for p in grid:
        p = float(p)
        got = sparse_cls_loss(p, SampleKind.NEGATIVE, params).value
        plain = -(1.0 - params.alpha_t) * p**params.gamma * math.log(1.0 - p)
        assert abs(got - plain) <= 1e-12
    report(10, "omega=1 equals plain focal negative branch", t0)
