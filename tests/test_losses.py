import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spwood.errors import InvalidInputError, NumericalDegeneracyError
from spwood.geometry import OrientedBox, bhattacharyya_boxes, gwd_squared
from spwood.losses import (
    Flip,
    FocalParams,
    PredictionTriple,
    Rotate,
    SampleKind,
    SupervisedWeights,
    angle_loss,
    gaussian_overlap_loss,
    smooth_l1,
    sparse_cls_loss,
    total_loss,
    total_supervised_loss,
    unsupervised_loss,
    watershed_loss,
)


def fd(f, x, step=1e-5):
    """Independent central-difference oracle."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


# --- sparse-aware classification ---------------------------------------------

DEFAULTS = FocalParams(alpha_t=0.25, gamma=2.0, omega=0.2, thr=0.5)


def test_positive_near_one_vanishes():
    assert sparse_cls_loss(1.0 - 1e-9, SampleKind.POSITIVE, DEFAULTS).value < 1e-15


def test_positive_half_confidence():
    res = sparse_cls_loss(0.5, SampleKind.POSITIVE, DEFAULTS)
    assert res.value == pytest.approx(0.25 * 0.25 * math.log(2.0), rel=1e-12)


def test_hard_negative_branch():
    res = sparse_cls_loss(0.9, SampleKind.NEGATIVE, DEFAULTS)
    expected = 0.75 * 0.81 * (-math.log(0.1)) * 0.2
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_domain_rejected():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidInputError):
            sparse_cls_loss(p, SampleKind.POSITIVE, DEFAULTS)


@pytest.mark.parametrize("gamma", [-0.5, math.nan, math.inf])
def test_focal_gamma_must_be_finite_and_nonnegative(gamma):
    with pytest.raises(InvalidInputError, match="gamma"):
        FocalParams(gamma=gamma)


def test_omega_one_reduces_to_plain_focal_negative():
    params = FocalParams(alpha_t=0.25, gamma=2.0, omega=1.0, thr=0.5)
    for p in np.linspace(0.501, 0.999, 200):
        got = sparse_cls_loss(float(p), SampleKind.NEGATIVE, params).value
        plain = -(1 - 0.25) * p**2.0 * math.log(1 - p)
        assert abs(got - plain) <= 1e-12


def test_negative_branch_jump_at_threshold():
    params = DEFAULTS
    at = sparse_cls_loss(params.thr, SampleKind.NEGATIVE, params).value
    above = sparse_cls_loss(params.thr + 1e-12, SampleKind.NEGATIVE, params).value
    # the step down at thr is (1 - omega) times the unscaled branch value
    assert at - above == pytest.approx((1 - params.omega) * at, rel=1e-6)


@given(st.floats(0.01, 0.99), st.sampled_from(list(SampleKind)))
@settings(max_examples=60)
def test_sparse_cls_gradient_matches_fd(p, kind):
    if abs(p - DEFAULTS.thr) < 1e-3:
        return
    res = sparse_cls_loss(p, kind, DEFAULTS)
    numeric = fd(lambda x: sparse_cls_loss(float(x[0]), kind, DEFAULTS).value, [p])
    assert res.grad[0] == pytest.approx(numeric[0], rel=1e-5, abs=1e-8)


# --- angle consistency --------------------------------------------------------


def test_flip_antisymmetry_zero():
    assert angle_loss(-0.7, 0.7, Flip()).value == pytest.approx(0.0, abs=1e-15)


def test_rotation_consistency_zero():
    assert angle_loss(0.9, 0.4, Rotate(0.5)).value == pytest.approx(0.0, abs=1e-15)


def test_quadratic_branch_value():
    # residual 0.5 inside the quadratic region
    assert angle_loss(0.5, 0.0, Flip(), beta=1.0).value == pytest.approx(0.125)


@given(
    st.floats(-1.5, 1.5),
    st.floats(-1.5, 1.5),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(max_examples=80)
def test_angle_loss_period_invariance(ta, to, ka, kb):
    for aug in (Flip(), Rotate(0.37)):
        base = angle_loss(ta, to, aug).value
        shifted = angle_loss(ta + ka * math.pi, to + kb * math.pi, aug).value
        assert shifted == pytest.approx(base, abs=1e-9)


def test_angle_gradient_matches_fd():
    rng = np.random.default_rng(1)
    for _ in range(30):
        ta, to = rng.uniform(-1.4, 1.4, 2)
        aug = Rotate(rng.uniform(-1.0, 1.0)) if rng.random() < 0.5 else Flip()
        res = angle_loss(ta, to, aug)
        numeric = fd(lambda x: angle_loss(x[0], x[1], aug).value, [ta, to])
        if np.abs(res.grad).max() < 1e-6:
            continue  # at the loss minimum the residual sign flips
        assert np.allclose(res.grad, numeric, rtol=1e-4, atol=1e-7)


# --- Gaussian overlap ---------------------------------------------------------


def test_single_box_no_pairs():
    assert gaussian_overlap_loss([OrientedBox(0, 0, 2, 2, 0)]).value == 0.0


def test_identical_boxes_zero():
    b = OrientedBox(1, 1, 3, 2, 0.4)
    assert gaussian_overlap_loss([b, b]).value == pytest.approx(0.0, abs=1e-12)


def test_two_unit_squares():
    res = gaussian_overlap_loss(
        [OrientedBox(0, 0, 2, 2, 0), OrientedBox(2, 0, 2, 2, 0)]
    )
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_empty_list_rejected():
    with pytest.raises(InvalidInputError):
        gaussian_overlap_loss([])


def test_overlap_matches_pairwise_distances():
    boxes = [
        OrientedBox(0, 0, 2, 3, 0.2),
        OrientedBox(1.5, -0.5, 4, 1, -0.6),
        OrientedBox(-1, 2, 1.5, 1.5, 1.1),
    ]
    rows = np.array([(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes])
    expected = sum(
        bhattacharyya_boxes(rows[[i]], rows[[j]])[0][0]
        for i in range(3)
        for j in range(3)
        if i != j
    ) / len(boxes)
    assert gaussian_overlap_loss(boxes).value == pytest.approx(expected, rel=1e-12)


@given(st.permutations([0, 1, 2, 3]))
@settings(max_examples=24)
def test_overlap_permutation_invariant(perm):
    boxes = [
        OrientedBox(0, 0, 2, 3, 0.2),
        OrientedBox(2, 1, 1, 1, -0.3),
        OrientedBox(-1, -1, 3, 1.5, 0.9),
        OrientedBox(0.5, 2, 2, 2, 0.0),
    ]
    base = gaussian_overlap_loss(boxes).value
    shuffled = gaussian_overlap_loss([boxes[i] for i in perm]).value
    assert shuffled == pytest.approx(base, rel=1e-12)


def test_overlap_gradient_matches_fd():
    boxes = [OrientedBox(0, 0, 2, 3, 0.2), OrientedBox(1.5, -0.5, 4, 1, -0.6)]
    res = gaussian_overlap_loss(boxes)

    def f(x):
        rebuilt = [OrientedBox(*row) for row in x.reshape(-1, 5)]
        return gaussian_overlap_loss(rebuilt).value

    x0 = np.array([[b.cx, b.cy, b.w, b.h, b.theta] for b in boxes]).ravel()
    assert np.allclose(res.grad.ravel(), fd(f, x0), rtol=1e-5, atol=1e-7)


# Reference: the per-pair matrix-calculus loop the batched loss replaced. It
# builds each pair's 2x2 average covariance and inverts it, so it loses
# digits on thin boxes; on well-shaped boxes it is a trustworthy oracle.

_ROT90_GEN = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def reference_overlap_loss(boxes):
    n = len(boxes)
    means = [np.array([b.cx, b.cy]) for b in boxes]
    covs, derivs = [], []
    for b in boxes:
        r = rotation(b.theta)
        cov = r @ np.diag([(b.w / 2.0) ** 2, (b.h / 2.0) ** 2]) @ r.T
        covs.append(cov)
        derivs.append((
            r @ np.diag([b.w / 2.0, 0.0]) @ r.T,
            r @ np.diag([0.0, b.h / 2.0]) @ r.T,
            _ROT90_GEN @ cov - cov @ _ROT90_GEN,
        ))
    value, grad = 0.0, np.zeros((n, 5))
    for i in range(n):
        for j in range(i + 1, n):
            cov_a, cov_b = covs[i], covs[j]
            avg_inv = np.linalg.inv(0.5 * (cov_a + cov_b))
            d = means[i] - means[j]
            sd = avg_inv @ d
            det_avg = np.linalg.det(0.5 * (cov_a + cov_b))
            det_a, det_b = np.linalg.det(cov_a), np.linalg.det(cov_b)
            value += 2.0 * (0.125 * d @ sd + 0.5 * math.log(det_avg / math.sqrt(det_a * det_b)))
            common = -0.0625 * np.outer(sd, sd) + 0.25 * avg_inv
            for k, dmu, dcov in (
                (i, 0.25 * sd, common - 0.25 * np.linalg.inv(cov_a)),
                (j, -0.25 * sd, common - 0.25 * np.linalg.inv(cov_b)),
            ):
                grad[k, :2] += 2.0 * dmu
                grad[k, 2:] += [2.0 * np.sum(dcov * m) for m in derivs[k]]
    return value / n, grad / n


def random_boxes(rng, n, w=(0.5, 40.0), log_h=(math.log(0.5), math.log(40.0))):
    """n boxes with centers in [0, 100]^2 and h log-uniform in exp(log_h)."""
    return [
        OrientedBox(*row)
        for row in np.column_stack([
            rng.uniform(0.0, 100.0, n),
            rng.uniform(0.0, 100.0, n),
            rng.uniform(*w, n),
            np.exp(rng.uniform(*log_h, n)),
            rng.uniform(-math.pi / 2, math.pi / 2, n),
        ])
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 30, 100])
def test_overlap_matches_reference_loop(n):
    rng = np.random.default_rng(600 + n)
    for _ in range(3 if n <= 30 else 1):
        boxes = random_boxes(rng, n)
        res = gaussian_overlap_loss(boxes)
        value, grad = reference_overlap_loss(boxes)
        assert res.grad.shape == (n, 5)
        assert res.value == pytest.approx(value, rel=1e-12, abs=1e-300)
        np.testing.assert_allclose(
            res.grad, grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max(initial=0.0)
        )


def test_single_box_zero_gradient():
    res = gaussian_overlap_loss([OrientedBox(3, 4, 20, 0.01, 0.7)])
    assert res.value == 0.0
    assert res.grad.shape == (1, 5) and not res.grad.any()


def test_overlap_rejects_underflowing_and_overflowing_extents():
    for w in (1e-200, 1e200):
        box = OrientedBox(0, 0, w, w, 0.0)
        with pytest.raises(NumericalDegeneracyError), np.errstate(over="ignore", invalid="ignore"):
            gaussian_overlap_loss([box, box])


def mp_overlap_loss(mp, rows):
    """Overlap loss at mpmath precision, in the world frame: each pair's
    averaged covariance, its determinant and its adjugate."""
    covs = []
    for _, _, w, h, t in rows:
        c, s = mp.cos(t), mp.sin(t)
        a, b = (w / 2) ** 2, (h / 2) ** 2
        covs.append((a * c * c + b * s * s, (a - b) * c * s, a * s * s + b * c * c))
    total = mp.mpf(0)
    for i, j in ((i, j) for i in range(len(rows)) for j in range(len(rows)) if i != j):
        sxx, sxy, syy = [(u + v) / 2 for u, v in zip(covs[i], covs[j])]
        det = sxx * syy - sxy * sxy
        dx, dy = rows[i][0] - rows[j][0], rows[i][1] - rows[j][1]
        maha = (syy * dx * dx - 2 * sxy * dx * dy + sxx * dy * dy) / det
        det_i = covs[i][0] * covs[i][2] - covs[i][1] ** 2
        det_j = covs[j][0] * covs[j][2] - covs[j][1] ** 2
        total += maha / 8 + mp.log(det / mp.sqrt(det_i * det_j)) / 2
    return total / len(rows)


def test_overlap_gradient_thin_boxes_matches_mpmath():
    """DOTA-like bridges and harbors: w in [100, 300], h log-uniform in
    [1e-3, 3] (aspect ratios up to 3e5). Every gradient component agrees
    with a 50-digit derivative to 1e-10 relative."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(61)
    with mp.workdps(50):
        for _ in range(8):
            boxes = random_boxes(rng, 3, w=(100.0, 300.0), log_h=(math.log(1e-3), math.log(3.0)))
            res = gaussian_overlap_loss(boxes)
            rows = [[mp.mpf(v) for v in (b.cx, b.cy, b.w, b.h, b.theta)] for b in boxes]
            for k, row in enumerate(rows):
                for c in range(5):

                    def f(t, k=k, c=c):
                        moved = [list(r) for r in rows]
                        moved[k][c] = t
                        return mp_overlap_loss(mp, moved)

                    exact = float(mp.diff(f, row[c]))
                    assert abs(res.grad[k, c] - exact) <= 1e-10 * abs(exact)


# --- batch axis: each row of a stack is its one-row call, bit for bit ----------


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def box_stack(rng, k, n):
    """(k, n, 5) rows: thetas far outside [-pi/2, pi/2), on its ends and at
    -0.0, thin boxes (aspect up to 1e4) among well-shaped ones."""
    rows = np.column_stack([
        rng.uniform(-5, 5, k * n), rng.uniform(-5, 5, k * n), rng.uniform(0.5, 300.0, k * n),
        np.exp(rng.uniform(math.log(0.03), math.log(4.0), k * n)), rng.uniform(-9.0, 9.0, k * n),
    ])
    # the last one sums with pi/2 to a tiny negative, whose remainder rounds
    # up to the period; it wraps to -pi/2
    special = [-0.0, 0.0, -math.pi / 2, math.pi / 2, math.pi, -3 * math.pi / 2, 1e-17,
               np.nextafter(-math.pi / 2, -math.inf)]
    pick = rng.random(k * n) < 0.3
    rows[pick, 4] = rng.choice(special, pick.sum())
    return rows.reshape(k, n, 5)


# Reference: the one-row bodies of the two losses as they were before the
# batch axis. Every row of a stack matches them bit for bit, which keeps the
# values and gradients eval-loss prints byte-identical.


def ref_overlap_one_row(boxes):
    n = len(boxes)
    x = np.array([(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes], dtype=float)
    i, j = np.triu_indices(n, 1)
    value, grad_i, grad_j = bhattacharyya_boxes(x[i], x[j])
    pair_grad = np.zeros((n, n, 5))
    pair_grad[i, j], pair_grad[j, i] = grad_i, grad_j
    return 2.0 * float(value.sum()) / n, 2.0 * pair_grad.sum(axis=1) / n


def ref_unsupervised_one_row(teacher, conf, cen, margins, beta=1.0):
    def bce(target, pred):
        value = float(np.mean(-target * np.log(pred) - (1.0 - target) * np.log1p(-pred)))
        return value, (-target / pred + (1.0 - target) / (1.0 - pred)) / len(pred)

    n = len(conf)
    conf_v, conf_g = bce(teacher.conf, conf)
    cen_v, cen_g = bce(teacher.centerness, cen)
    residual = (margins - teacher.box_margins).ravel()
    magnitude = np.abs(residual)
    inside = magnitude < beta
    box = np.where(inside, 0.5 * residual * residual / beta, magnitude - 0.5 * beta)
    box_g = np.where(inside, residual / beta, np.copysign(1.0, residual)) / n
    return conf_v + cen_v + float(box.sum()) / n, np.concatenate([conf_g, cen_g, box_g])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_overlap_batch_rows_match_one_row_calls(n):
    rng = np.random.default_rng(40 + n)
    stack = box_stack(rng, 24, n)
    res = gaussian_overlap_loss(stack)
    assert res.value.shape == (24,) and res.grad.shape == (24, n, 5)
    for b, rows in enumerate(stack):
        boxes = [OrientedBox(*row) for row in rows.tolist()]
        one = gaussian_overlap_loss(boxes)
        assert isinstance(one.value, float) and same_bits(res.value[b], one.value)
        assert same_bits(res.grad[b], one.grad)
        ref_value, ref_grad = ref_overlap_one_row(boxes)
        assert same_bits(one.value, ref_value) and same_bits(one.grad, ref_grad)
        unbatched = gaussian_overlap_loss(rows)  # no batch dimension: a float, like the list
        assert isinstance(unbatched.value, float) and same_bits(unbatched.value, one.value)
        assert same_bits(unbatched.grad, one.grad)
    nested = gaussian_overlap_loss(stack.reshape(4, 6, n, 5))
    assert same_bits(nested.value, res.value.reshape(4, 6))
    assert same_bits(nested.grad, res.grad.reshape(4, 6, n, 5))
    empty = gaussian_overlap_loss(stack[:0])
    assert empty.value.shape == (0,) and empty.grad.shape == (0, n, 5)


def test_overlap_batch_normalizes_theta_once():
    thetas = (2.0, -2.0, -0.0, np.nextafter(-math.pi / 2, -math.inf))
    rows = np.array([[[0.0, 0.0, 3.0, 1.0, t], [1.0, 0.5, 2.0, 0.7, -0.0]] for t in thetas])
    stack = gaussian_overlap_loss(rows)
    for b, row in enumerate(rows):
        # the list form takes boxes normalized once, at construction
        boxes = [OrientedBox(*r) for r in row.tolist()]
        assert same_bits(stack.value[b], gaussian_overlap_loss(boxes).value)


@pytest.mark.parametrize("bad", [(0, 0, 0.0, 1, 0), (0, 0, 1, -2.0, 0), (math.nan, 0, 1, 1, 0),
                                 (0, 0, 1, 1, math.inf), (0, 0, math.inf, 1, 0)])
def test_overlap_batch_rejects_a_bad_row_as_oriented_box_does(bad):
    stack = box_stack(np.random.default_rng(5), 4, 3)
    stack[2, 1] = bad
    with pytest.raises(InvalidInputError) as exc:
        gaussian_overlap_loss(stack)
    with pytest.raises(InvalidInputError) as ref:
        OrientedBox(*map(float, bad))
    assert str(exc.value) == str(ref.value)


def test_overlap_batch_rejects_bad_shapes():
    for shape in ((5,), (3, 4), (2, 0, 5)):
        with pytest.raises(InvalidInputError):
            gaussian_overlap_loss(np.ones(shape))


@pytest.mark.parametrize("n", [1, 3, 9])
def test_unsupervised_batch_rows_match_one_row_calls(n):
    rng = np.random.default_rng(70 + n)
    teacher = triple(rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n), rng.uniform(-3, 3, (n, 4)))
    k = 30
    conf, cen = rng.uniform(0.001, 0.999, (2, k, n))
    margins = teacher.box_margins + rng.uniform(-3, 3, (k, n, 4))
    margins[0, 0, 0] = teacher.box_margins[0, 0]  # a residual of exactly 0
    margins[1, 0, :2] = teacher.box_margins[0, :2] + [1.0, -1.0]  # on the smooth-L1 kink
    res = unsupervised_loss(teacher, triple(conf, cen, margins))
    assert res.value.shape == (k,) and res.grad.shape == (k, 6 * n)
    for b in range(k):
        one = unsupervised_loss(teacher, triple(conf[b], cen[b], margins[b]))
        assert isinstance(one.value, float) and same_bits(res.value[b], one.value)
        assert same_bits(res.grad[b], one.grad)
        ref_value, ref_grad = ref_unsupervised_one_row(teacher, conf[b], cen[b], margins[b])
        assert same_bits(one.value, ref_value) and same_bits(one.grad, ref_grad)
    nested = unsupervised_loss(teacher, triple(conf.reshape(5, 6, n), cen.reshape(5, 6, n),
                                               margins.reshape(5, 6, n, 4)), beta=0.7)
    flat = unsupervised_loss(teacher, triple(conf, cen, margins), beta=0.7)
    assert same_bits(nested.value, flat.value.reshape(5, 6))
    assert same_bits(nested.grad, flat.grad.reshape(5, 6, 6 * n))


def test_unsupervised_batch_rejects_a_bad_row_as_one_row_call_does():
    teacher = triple([0.5, 0.5], [0.5, 0.5], np.zeros((2, 4)))
    conf = np.full((3, 2), 0.5)
    conf[1, 1] = 1.0
    with pytest.raises(InvalidInputError) as exc:
        unsupervised_loss(teacher, triple(conf, conf * 0 + 0.5, np.zeros((3, 2, 4))))
    with pytest.raises(InvalidInputError) as ref:
        unsupervised_loss(teacher, triple(conf[1], [0.5, 0.5], np.zeros((2, 4))))
    assert str(exc.value) == str(ref.value)
    for bad in ((np.full((3, 2), 0.5), np.full((3, 3), 0.5), np.zeros((3, 2, 4))),  # fields disagree
                (np.full((3, 2), 0.5), np.full((3, 2), 0.5), np.zeros((3, 2, 3))),  # not four margins
                (np.full((3, 3), 0.5), np.full((3, 3), 0.5), np.zeros((3, 3, 4)))):  # three locations
        with pytest.raises(InvalidInputError):
            unsupervised_loss(teacher, triple(*bad))


# --- watershed scale loss -----------------------------------------------------


def test_matched_extents_zero():
    assert watershed_loss(OrientedBox(0, 0, 4, 6, 0), 4, 6).value == pytest.approx(0.0)


def test_halved_width():
    res = watershed_loss(OrientedBox(0, 0, 2, 4, 0), 4, 4)
    assert res.value == pytest.approx(1.0 - 1.0 / (1.0 + math.log(2.0)), rel=1e-12)


def test_monotone_in_width_error():
    widths = np.linspace(4.0, 12.0, 40)
    values = [
        watershed_loss(OrientedBox(0, 0, float(w), 4, 0), 4, 4).value for w in widths
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_raw_mode_is_squared_distance():
    res = watershed_loss(OrientedBox(0, 0, 2, 4, 0), 4, 4, raw=True)
    assert res.value == pytest.approx(1.0)
    gwd = gwd_squared(np.array([[0, 0, 2, 4, 0.0]]), np.array([[0, 0, 4, 4, 0.0]]))[0]
    assert res.value == pytest.approx(gwd, rel=1e-12)


@given(*[st.floats(1e-3, 300.0)] * 4)
@settings(max_examples=50)
def test_raw_mode_is_gwd_of_cocentred_axis_aligned_boxes(w, h, target_w, target_h):
    raw = watershed_loss(OrientedBox(0, 0, w, h, 0), target_w, target_h, raw=True).value
    gwd = gwd_squared(np.array([[0, 0, w, h, 0.0]]), np.array([[0, 0, target_w, target_h, 0.0]]))[0]
    # relative to the traces, the scale of the terms the box form subtracts
    assert abs(raw - gwd) <= 1e-12 * (w * w + h * h + target_w * target_w + target_h * target_h) / 4.0


def test_nonpositive_target_rejected():
    with pytest.raises(InvalidInputError):
        watershed_loss(OrientedBox(0, 0, 2, 2, 0), 0.0, 4)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_watershed_tau_must_be_finite_and_positive(tau):
    # at tau = 0 a matched box (d2 = 0) would divide by zero
    with pytest.raises(InvalidInputError, match="tau"):
        watershed_loss(OrientedBox(0, 0, 1, 1, 0), 1.0, 1.0, tau=tau)


def test_watershed_gradient_matches_fd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w, h, tw, th = rng.uniform(1.0, 8.0, 4)

        def f(x):
            return watershed_loss(OrientedBox(0, 0, x[0], x[1], 0), tw, th).value

        res = watershed_loss(OrientedBox(0, 0, w, h, 0), tw, th)
        assert np.allclose(res.grad, fd(f, [w, h]), rtol=1e-5, atol=1e-8)


# --- totals -------------------------------------------------------------------


def test_supervised_zero_parts():
    assert total_supervised_loss([0, 0, 0, 0, 0, 0]) == 0.0


def test_supervised_default_weighting():
    assert total_supervised_loss([1, 1, 1, 1, 1, 1]) == 18.2


def test_supervised_single_angle_part():
    assert total_supervised_loss([0, 0, 0, 2, 0, 0]) == pytest.approx(0.4)


@given(st.integers(0, 5), st.floats(0.0, 10.0))
def test_supervised_linear_in_each_part(idx, value):
    parts = [0.0] * 6
    parts[idx] = value
    weights = SupervisedWeights()
    assert total_supervised_loss(parts, weights) == pytest.approx(
        weights.as_array()[idx] * value
    )


@pytest.mark.parametrize("name", ["w_cls", "w_o", "w_w"])
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_supervised_weights_must_be_finite_and_nonnegative(name, bad):
    with pytest.raises(InvalidInputError, match=name):
        SupervisedWeights(**{name: bad})


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
def test_smooth_l1_losses_need_finite_positive_beta(beta):
    with pytest.raises(InvalidInputError, match="beta"):
        angle_loss(0.1, 0.2, Flip(), beta)
    triple = PredictionTriple(np.array([0.5]), np.array([0.5]), np.zeros((1, 4)))
    with pytest.raises(InvalidInputError, match="beta"):
        unsupervised_loss(triple, triple, beta)


def test_total_loss_addition():
    assert total_loss(0.0, 0.0) == 0.0
    assert total_loss(18.2, 1.5) == pytest.approx(19.7)
    assert total_loss(3.25, 0.0) == 3.25


# --- unsupervised distillation -------------------------------------------------


def triple(conf, cen, margins):
    return PredictionTriple(np.asarray(conf), np.asarray(cen), np.asarray(margins))


def test_self_distillation_entropy():
    t = triple([0.5, 0.5], [0.5, 0.5], [[1.0, 2.0, 3.0, 4.0]] * 2)
    res = unsupervised_loss(t, t)
    assert res.value == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_confident_match_vanishes():
    t = triple([1 - 1e-9], [1 - 1e-9], [[1.0, 1.0, 1.0, 1.0]])
    assert unsupervised_loss(t, t).value < 1e-7


def test_equal_margins_zero_box_term():
    t = triple([0.5], [0.5], [[1.0, 2.0, 3.0, 4.0]])
    s = triple([0.8], [0.3], [[1.0, 2.0, 3.0, 4.0]])
    full = unsupervised_loss(t, s).value
    conf_cen_only = unsupervised_loss(
        triple([0.5], [0.5], [[0.0] * 4]), triple([0.8], [0.3], [[0.0] * 4])
    ).value
    assert full == pytest.approx(conf_cen_only)


def test_shape_mismatch_rejected():
    t = triple([0.5, 0.5], [0.5, 0.5], [[0.0] * 4] * 2)
    s = triple([0.5], [0.5], [[0.0] * 4])
    with pytest.raises(InvalidInputError):
        unsupervised_loss(t, s)


def test_unsupervised_gradient_matches_fd():
    rng = np.random.default_rng(3)
    n = 3
    t = triple(
        rng.uniform(0.2, 0.8, n), rng.uniform(0.2, 0.8, n), rng.uniform(-2, 2, (n, 4))
    )
    s_conf = rng.uniform(0.2, 0.8, n)
    s_cen = rng.uniform(0.2, 0.8, n)
    s_margins = t.box_margins + rng.choice([-1, 1], (n, 4)) * rng.uniform(
        0.1, 0.8, (n, 4)
    )
    s = triple(s_conf, s_cen, s_margins)
    res = unsupervised_loss(t, s)

    def f(x):
        st_ = triple(x[:n], x[n : 2 * n], x[2 * n :].reshape(n, 4))
        return unsupervised_loss(t, st_).value

    x0 = np.concatenate([s_conf, s_cen, s_margins.ravel()])
    assert np.allclose(res.grad, fd(f, x0), rtol=1e-5, atol=1e-8)


def test_smooth_l1_shape():
    assert smooth_l1(0.5) == pytest.approx(0.125)
    assert smooth_l1(2.0) == pytest.approx(1.5)
    assert smooth_l1(-2.0) == pytest.approx(1.5)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_distillation_box_term_matches_scalar_smooth_l1(beta):
    # residuals on both branches and exactly on the |x| = beta boundary
    residual = np.array([[-2.0 * beta, -beta, -0.3 * beta, 0.0], [0.25, beta, 1.5 * beta, 7.0]])
    zeros = triple([0.5, 0.5], [0.5, 0.5], np.zeros((2, 4)))
    res = unsupervised_loss(zeros, triple([0.5, 0.5], [0.5, 0.5], residual), beta)
    base = unsupervised_loss(zeros, zeros, beta).value
    flat = residual.ravel()
    expected = sum(smooth_l1(float(x), beta) for x in flat) / 2
    assert res.value - base == pytest.approx(expected, rel=1e-12)
    slopes = [x / beta if abs(x) < beta else math.copysign(1.0, x) for x in flat]
    np.testing.assert_array_equal(res.grad[4:], np.array(slopes) / 2)
