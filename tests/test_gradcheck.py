import math

import numpy as np
import pytest

from spwood import cli, gradcheck, losses
from spwood.errors import InvalidInputError
from spwood.geometry import OrientedBox
from spwood.gradcheck import DEFAULT_STEP, GradCase
from spwood.losses import (
    Flip,
    FocalParams,
    LossValueGrad,
    PredictionTriple,
    Rotate,
    SampleKind,
    SupervisedWeights,
)

# --- reference: one constructor per op, a random_case branch per op, and the
# CLI's own entry parser, as they were before the op table replaced them ------


def ref_sparse_cls_case(p_t, kind, params):
    res = losses.sparse_cls_loss(p_t, kind, params)

    def f(x):
        return losses.sparse_cls_loss(float(x[0]), kind, params).value

    return GradCase("sparse-cls", np.array([p_t]), f, res.grad, res.value)


def ref_angle_case(theta_aug, theta_orig, aug, beta=1.0):
    res = losses.angle_loss(theta_aug, theta_orig, aug, beta)

    def f(x):
        return losses.angle_loss(float(x[0]), float(x[1]), aug, beta).value

    return GradCase("angle", np.array([theta_aug, theta_orig]), f, res.grad, res.value)


def ref_overlap_case(boxes):
    res = losses.gaussian_overlap_loss(boxes)
    x0 = np.array([[b.cx, b.cy, b.w, b.h, b.theta] for b in boxes]).ravel()

    def f(x):
        return losses.gaussian_overlap_loss([OrientedBox(*row) for row in x.reshape(-1, 5)]).value

    return GradCase("overlap", x0, f, res.grad.ravel(), res.value)


def ref_watershed_case(pred_w, pred_h, target_w, target_h, tau=1.0, raw=False):
    def f(x):
        box = OrientedBox(0.0, 0.0, float(x[0]), float(x[1]), 0.0)
        return losses.watershed_loss(box, target_w, target_h, tau, raw).value

    res = losses.watershed_loss(
        OrientedBox(0.0, 0.0, pred_w, pred_h, 0.0), target_w, target_h, tau, raw
    )
    return GradCase("watershed", np.array([pred_w, pred_h]), f, res.grad, res.value)


def ref_supervised_case(parts, weights=SupervisedWeights()):
    value = losses.total_supervised_loss(parts, weights)

    def f(x):
        return losses.total_supervised_loss(x.tolist(), weights)

    return GradCase("supervised", np.asarray(parts, dtype=float), f, weights.as_array(), value)


def ref_unsupervised_case(teacher, student, beta=1.0):
    res = losses.unsupervised_loss(teacher, student, beta)
    n = len(student)
    x0 = np.concatenate([student.conf, student.centerness, student.box_margins.ravel()])

    def f(x):
        s = PredictionTriple(
            conf=x[:n], centerness=x[n : 2 * n], box_margins=x[2 * n :].reshape(n, 4)
        )
        return losses.unsupervised_loss(teacher, s, beta).value

    return GradCase("unsupervised", x0, f, res.grad, res.value)


def ref_total_case(sup, unsup):
    value = losses.total_loss(sup, unsup)

    def f(x):
        return losses.total_loss(float(x[0]), float(x[1]))

    return GradCase("total", np.array([sup, unsup]), f, np.array([1.0, 1.0]), value)


def ref_away_from(rng, low, high, avoid, margin=1e-3):
    while True:
        v = rng.uniform(low, high)
        if all(abs(v - a) > margin for a in avoid):
            return v


def ref_random_case(op, rng):
    if op == "sparse-cls":
        params = FocalParams(
            alpha_t=rng.uniform(0.1, 0.9),
            gamma=rng.uniform(0.5, 4.0),
            omega=rng.uniform(0.05, 1.0),
            thr=rng.uniform(0.2, 0.8),
        )
        kind = SampleKind.POSITIVE if rng.random() < 0.5 else SampleKind.NEGATIVE
        p = ref_away_from(rng, 0.02, 0.98, [params.thr])
        return ref_sparse_cls_case(p, kind, params)
    if op == "angle":
        beta = rng.uniform(0.3, 1.5)
        if rng.random() < 0.5:
            aug, sign, shift = Flip(), 1.0, 0.0
        else:
            shift = rng.uniform(-math.pi, math.pi)
            aug, sign = Rotate(shift), -1.0
        while True:
            ta = rng.uniform(-math.pi / 2, math.pi / 2)
            to = rng.uniform(-math.pi / 2, math.pi / 2)
            raw = ta + sign * to - (shift if sign < 0 else 0.0)
            wrapped = (raw + math.pi / 2) % math.pi - math.pi / 2
            near_wrap = (raw + math.pi / 2) % math.pi
            if min(near_wrap, math.pi - near_wrap) > 1e-3 and abs(abs(wrapped) - beta) > 1e-3:
                return ref_angle_case(ta, to, aug, beta)
    if op == "overlap":
        n = int(rng.integers(2, 4))
        boxes = [
            OrientedBox(
                rng.uniform(-4, 4),
                rng.uniform(-4, 4),
                rng.uniform(0.5, 4.0),
                rng.uniform(0.5, 4.0),
                rng.uniform(-1.4, 1.4),
            )
            for _ in range(n)
        ]
        return ref_overlap_case(boxes)
    if op == "watershed":
        return ref_watershed_case(
            rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)
        )
    if op == "supervised":
        return ref_supervised_case(rng.uniform(0.0, 5.0, size=6))
    if op == "unsupervised":
        n = int(rng.integers(1, 5))
        beta = 1.0
        t_margins = rng.uniform(-3.0, 3.0, size=(n, 4))
        s_margins = np.empty_like(t_margins)
        for idx in np.ndindex(s_margins.shape):
            s_margins[idx] = t_margins[idx] + ref_away_from(rng, -3.0, 3.0, [-beta, 0.0, beta])
        teacher = PredictionTriple(rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n), t_margins)
        student = PredictionTriple(rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n), s_margins)
        return ref_unsupervised_case(teacher, student, beta)
    if op == "total":
        return ref_total_case(rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0))
    raise InvalidInputError(f"unknown loss op {op!r}")


def ref_parse_floats(text):
    return [float(t) for t in text.split(",") if t]


def ref_parse_boxes(text):
    boxes = []
    for chunk in text.split(","):
        fields = [float(t) for t in chunk.split(":")]
        if len(fields) != 5:
            raise InvalidInputError(f"box {chunk!r} must be cx:cy:w:h:theta")
        boxes.append(OrientedBox(*fields))
    return boxes


def ref_parse_margins(text):
    rows = []
    for chunk in text.split(","):
        fields = [float(t) for t in chunk.split(":")]
        if len(fields) != 4:
            raise InvalidInputError(f"margins {chunk!r} must be four ':'-separated values")
        rows.append(fields)
    return np.array(rows)


def ref_entry_case(line):
    tokens = line.split()
    op = tokens[0]
    kv = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise InvalidInputError(f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        kv[key] = value
    if op == "sparse-cls":
        params = FocalParams(
            alpha_t=float(kv.get("alpha_t", 0.25)),
            gamma=float(kv.get("gamma", 2.0)),
            omega=float(kv.get("omega", 0.2)),
            thr=float(kv.get("thr", 0.5)),
        )
        return ref_sparse_cls_case(float(kv["p_t"]), SampleKind(kv["kind"]), params)
    if op == "angle":
        aug = Flip() if kv["aug"] == "flip" else Rotate(float(kv["r"]))
        return ref_angle_case(
            float(kv["theta_aug"]), float(kv["theta"]), aug, float(kv.get("beta", 1.0))
        )
    if op == "overlap":
        return ref_overlap_case(ref_parse_boxes(kv["boxes"]))
    if op == "watershed":
        return ref_watershed_case(
            float(kv["w"]),
            float(kv["h"]),
            float(kv["target_w"]),
            float(kv["target_h"]),
            tau=float(kv.get("tau", 1.0)),
            raw=bool(int(kv.get("raw", 0))),
        )
    if op == "supervised":
        parts = ref_parse_floats(kv["parts"])
        if "weights" in kv:
            weights = SupervisedWeights(*ref_parse_floats(kv["weights"]))
        else:
            weights = SupervisedWeights()
        return ref_supervised_case(parts, weights)
    if op == "unsupervised":
        teacher = PredictionTriple(
            np.array(ref_parse_floats(kv["t_conf"])),
            np.array(ref_parse_floats(kv["t_cen"])),
            ref_parse_margins(kv["t_box"]),
        )
        student = PredictionTriple(
            np.array(ref_parse_floats(kv["s_conf"])),
            np.array(ref_parse_floats(kv["s_cen"])),
            ref_parse_margins(kv["s_box"]),
        )
        return ref_unsupervised_case(teacher, student, float(kv.get("beta", 1.0)))
    if op == "total":
        return ref_total_case(float(kv["sup"]), float(kv["unsup"]))
    raise InvalidInputError(f"unknown loss op {op!r}")


# --- entry lines covering every op, with and without each optional key --------


def num(v):
    return repr(float(v))


def floats(values):
    return ",".join(num(v) for v in values)


def rows(arr):
    return ",".join(":".join(num(v) for v in row) for row in arr)


def entry_lines(seed):
    """Valid entries for every op; each optional key is present in some, absent in others."""
    rng = np.random.default_rng(seed)
    u = rng.uniform

    def opt(**keys):
        return "".join(f" {k}={v}" for k, v in keys.items() if rng.random() < 0.5)

    lines = []
    for _ in range(4):
        kind = "positive" if rng.random() < 0.5 else "negative"
        lines.append(f"sparse-cls p_t={num(u(0.02, 0.98))} kind={kind}" + opt(
            alpha_t=num(u(0.1, 0.9)), gamma=num(u(0.0, 4.0)), omega=num(u(0.05, 1.0)),
            thr=num(u(0.2, 0.8))))
        ta, to, r = u(-3.0, 3.0, 3)
        aug = "aug=flip" if rng.random() < 0.5 else f"aug=rotate r={num(r)}"
        lines.append(f"angle theta_aug={num(ta)} theta={num(to)} {aug}" + opt(beta=num(u(0.3, 1.5))))
        boxes = np.column_stack([u(-4, 4, (3, 2)), u(0.5, 4.0, (3, 2)),
                                 u(-5.0, 5.0, 3)])  # theta outside the normal range
        lines.append(f"overlap boxes={rows(boxes[: int(rng.integers(1, 4))])}")
        w, h, tw, th = u(0.5, 8.0, 4)
        lines.append(f"watershed w={num(w)} h={num(h)} target_w={num(tw)} target_h={num(th)}"
                     + opt(tau=num(u(0.5, 2.0)), raw=int(rng.integers(0, 2))))
        lines.append(f"supervised parts={floats(u(0.0, 5.0, 6))}"
                     + opt(weights=floats(u(0.0, 10.0, 6))))
        n = int(rng.integers(1, 4))
        t_conf, t_cen, s_conf, s_cen = u(0.05, 0.95, (4, n))
        lines.append(f"unsupervised t_conf={floats(t_conf)} t_cen={floats(t_cen)} "
                     f"t_box={rows(u(-3, 3, (n, 4)))} s_conf={floats(s_conf)} "
                     f"s_cen={floats(s_cen)} s_box={rows(u(-3, 3, (n, 4)))}"
                     + opt(beta=num(u(0.5, 1.5))))
        lines.append(f"total sup={num(u(0.0, 20.0))} unsup={num(u(0.0, 20.0))}")
    return lines


ENTRY_LINES = (
    entry_lines(0)
    + entry_lines(1)
    + [
        "sparse-cls p_t=0.3 kind=negative",
        "sparse-cls p_t=0.7 kind=negative alpha_t=0.4 gamma=1.5 omega=0.3 thr=0.6",
        "angle theta_aug=0.1 theta=0.2 aug=flip",
        "angle theta_aug=0.1 theta=0.2 aug=rotate r=0.5 beta=0.3",
        "watershed w=1 h=2 target_w=3 target_h=4",
        "watershed w=1 h=2 target_w=3 target_h=4 tau=2 raw=1",
        "supervised parts=1,2,3,4,5,6",
        "supervised parts=1,2,3,4,5,6 weights=1,2,3,4,5,6",
        "unsupervised t_conf=0.5 t_cen=0.5 t_box=1:2:3:4 s_conf=0.4 s_cen=0.6 s_box=1.5:2:3:5",
        "unsupervised t_conf=0.5 t_cen=0.5 t_box=1:2:3:4 s_conf=0.4 s_cen=0.6 s_box=1.5:2:3:5 beta=2",
        "total sup=1 unsup=2",
    ]
)


def ref_central_difference(f, x, step=DEFAULT_STEP):
    """The per-coordinate loop the batched stencil replaced; f takes one point."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        out[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return out


def ref_stencil(x0, step=DEFAULT_STEP):
    """The points that loop visits: x0 + e_i for every i, then x0 - e_i."""
    e = [np.where(np.arange(x0.size) == i, step, 0.0) for i in range(x0.size)]
    return np.array([x0 + ei for ei in e] + [x0 - ei for ei in e])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_case(new, ref):
    assert new.op == ref.op
    assert np.array_equal(new.x0, ref.x0)
    assert new.value == ref.value
    assert np.array_equal(new.analytic, ref.analytic)
    stencil = ref_stencil(new.x0)
    assert np.array_equal(new.func(stencil), [ref.func(x) for x in stencil.copy()])
    numeric = gradcheck.central_difference(new.func, new.x0)
    assert same_bits(numeric, ref_central_difference(ref.func, ref.x0))


@pytest.mark.parametrize("op", gradcheck.OPS)
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 999])
def test_random_case_matches_reference(op, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(15):
        assert_same_case(gradcheck.random_case(op, rng), ref_random_case(op, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_entry_cases_match_reference():
    ops = set()
    for line in ENTRY_LINES:
        case = gradcheck.case_from_entry(line)
        assert_same_case(case, ref_entry_case(line))
        ops.add(case.op)
    assert ops == set(gradcheck.OPS)


@pytest.mark.parametrize("op", gradcheck.OPS)
def test_central_difference_evaluates_the_stencil_in_one_call(op):
    case = gradcheck.random_case(op, np.random.default_rng(3))
    shapes = []

    def func(x):
        shapes.append(x.shape)
        return case.func(x)

    numeric = gradcheck.central_difference(func, case.x0)
    d = case.x0.size
    assert shapes == [(2 * d, d)] and numeric.shape == (d,)


def eval_loss_stdout(capsys, monkeypatch, argv, reference):
    if reference:
        monkeypatch.setattr(gradcheck, "random_case", ref_random_case)
        monkeypatch.setattr(gradcheck, "case_from_entry", ref_entry_case)
        monkeypatch.setattr(gradcheck, "central_difference", ref_central_difference)
    code = cli.main(argv)
    monkeypatch.undo()
    return code, capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 42])
def test_eval_loss_sweep_bytes_match_reference(capsys, monkeypatch, seed):
    argv = ["eval-loss", "--check-grad", "--random", "20", "--seed", str(seed)]
    new = eval_loss_stdout(capsys, monkeypatch, argv, reference=False)
    assert new == eval_loss_stdout(capsys, monkeypatch, argv, reference=True)
    assert new[0] == 0 and new[1].count(" ok\n") == len(gradcheck.OPS)


@pytest.mark.parametrize("check_grad", [False, True])
def test_eval_loss_entry_bytes_match_reference(tmp_path, capsys, monkeypatch, check_grad):
    src = tmp_path / "entries.txt"
    src.write_text("# every op\n" + "".join(line + "\n" for line in ENTRY_LINES))
    argv = ["eval-loss", str(src)] + ["--check-grad"] * check_grad
    new = eval_loss_stdout(capsys, monkeypatch, argv, reference=False)
    assert new == eval_loss_stdout(capsys, monkeypatch, argv, reference=True)
    assert new[0] == 0 and len(new[1].splitlines()) == len(ENTRY_LINES)


def test_sweep_reports_fail_for_a_wrong_gradient(capsys, monkeypatch):
    angle_loss = losses.angle_loss

    def skewed(*args, **kwargs):
        res = angle_loss(*args, **kwargs)
        return LossValueGrad(res.value, res.grad * 1.01)

    monkeypatch.setattr(losses, "angle_loss", skewed)
    assert cli.main(["eval-loss", "--check-grad", "--random", "5", "--seed", "0"]) == cli.EXIT_ERROR
    *per_op, overall = capsys.readouterr().out.splitlines()
    status = {line.split(":")[0]: line.split()[-1] for line in per_op}
    assert status == {op: "FAIL" if op == "angle" else "ok" for op in gradcheck.OPS}
    assert overall.startswith("overall max_rel_err=")
