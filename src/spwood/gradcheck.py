"""Finite-difference verification for the loss gradients.

Each loss is wrapped as a :class:`GradCase`: a flat parameter vector, a
value function over (k, d) stacks of such vectors, and the analytic
gradient reported by the loss. Central differences over the same vector,
all 2·d points in one call, give an independent gradient to compare against.

Every loss op is one row of ``_TABLE``: the keys of its entry line
(``op key=value ...``, README "Loss entries") with a parser for each
value, a seeded draw of a random interior point away from the few
non-smooth spots (branch thresholds, smooth-L1 kinks, angle wrap
boundaries), and a builder that turns either into the flat ``x0`` and
one ``evaluate(x)`` returning the loss values and gradients at the rows of
``x``. :func:`random_case` and :func:`case_from_entry` both go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import losses
from .errors import InvalidInputError, NumericalDegeneracyError
from .geometry import OrientedBox, box_rows
from .losses import (
    Flip,
    FocalParams,
    LossValueGrad,
    PredictionTriple,
    Rotate,
    SampleKind,
    SupervisedWeights,
)

DEFAULT_STEP = 1e-5
DEFAULT_REL_TOL = 1e-5
ERROR_FLOOR = 1e-3  # the least denominator of a relative error


@dataclass(frozen=True)
class GradCase:
    op: str
    x0: np.ndarray
    func: Callable[[np.ndarray], np.ndarray]  # (k, d) stack of points -> (k,) values
    analytic: np.ndarray
    value: float


def central_difference(f: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """(f(x + h e_i) - f(x - h e_i)) / (2 h) for every coordinate i, with h
    DEFAULT_STEP. f maps a (k, d) stack of points to their k values and is
    called once, on the stencil x + h e_i for every i, then x - h e_i for
    every i."""
    x = np.asarray(x, dtype=float)
    e = DEFAULT_STEP * np.eye(x.size)
    values = f(np.concatenate([x + e, x - e]))
    return (values[: x.size] - values[x.size :]) / (2.0 * DEFAULT_STEP)


def max_relative_error(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), ERROR_FLOOR)
    return float(np.max(np.abs(a - n) / denom, initial=0.0))


def check_case(case: GradCase) -> float:
    try:
        numeric = central_difference(case.func, case.x0)
    except (ValueError, NumericalDegeneracyError) as exc:
        raise InvalidInputError(f"{case.op}: a finite-difference step left the loss's domain: {exc}") from None
    return max_relative_error(case.analytic, numeric)


# --- the op table -----------------------------------------------------------


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _rows(text: str, width: int, form: str) -> list[list[float]]:
    rows = []
    for chunk in text.split(","):
        rows.append([float(t) for t in chunk.split(":")])
        if len(rows[-1]) != width:
            raise InvalidInputError(form.format(repr(chunk)))
    return rows


def _margins(text: str) -> np.ndarray:
    return np.array(_rows(text, 4, "margins {} must be four ':'-separated values"))


def _boxes(text: str) -> np.ndarray:
    return box_rows(_rows(text, 5, "box {} must be cx:cy:w:h:theta"))


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise InvalidInputError(f"must be 0 or 1, got {text!r}")
    return text == "1"


def _per_row(loss):
    """An evaluate over (k, d) stacks that maps ``loss``, the loss at one
    point, over the rows. The scalar losses keep their math-module
    arithmetic, which numpy's vector loops do not reproduce to the last bit."""

    def evaluate(x):
        rows = [loss(row) for row in x]
        return LossValueGrad(np.array([r.value for r in rows]), np.array([r.grad for r in rows]))

    return evaluate


def _away_from(rng, low, high, avoid, margin=1e-3):
    """Uniform draw from (low, high) at least margin away from each avoid point."""
    while True:
        v = rng.uniform(low, high)
        if all(abs(v - a) > margin for a in avoid):
            return v


def _sparse_cls(p_t, kind, **focal):
    params = FocalParams(**focal)
    return np.array([p_t]), _per_row(lambda x: losses.sparse_cls_loss(float(x[0]), kind, params))


def _draw_sparse_cls(rng):
    bounds = {"alpha_t": (0.1, 0.9), "gamma": (0.5, 4.0), "omega": (0.05, 1.0), "thr": (0.2, 0.8)}
    focal = {key: rng.uniform(*bound) for key, bound in bounds.items()}
    kind = SampleKind.POSITIVE if rng.random() < 0.5 else SampleKind.NEGATIVE
    return dict(p_t=_away_from(rng, 0.02, 0.98, [focal["thr"]]), kind=kind, **focal)


def _angle(theta_aug, theta, aug, r=None, **opt):
    if aug not in ("flip", "rotate"):
        raise InvalidInputError(f"angle: key 'aug' must be flip or rotate, got {aug!r}")
    if (aug == "rotate") != (r is not None):
        raise InvalidInputError("angle: key 'r' must be given with aug=rotate, and only then")
    transform = Flip() if r is None else Rotate(r)
    return np.array([theta_aug, theta]), _per_row(lambda x: losses.angle_loss(
        float(x[0]), float(x[1]), transform, **opt
    ))


def _draw_angle(rng):
    beta = rng.uniform(0.3, 1.5)
    r = None if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi)
    while True:
        ta = rng.uniform(-math.pi / 2, math.pi / 2)
        to = rng.uniform(-math.pi / 2, math.pi / 2)
        raw = ta + to if r is None else ta - to - r
        wrapped = (raw + math.pi / 2) % math.pi  # the residual plus pi/2, in [0, pi)
        if min(wrapped, math.pi - wrapped) > 1e-3 and abs(abs(wrapped - math.pi / 2) - beta) > 1e-3:
            aug = dict(aug="flip") if r is None else dict(aug="rotate", r=r)
            return dict(theta_aug=ta, theta=to, beta=beta, **aug)


def _overlap(boxes):
    return boxes.ravel(), lambda x: losses.gaussian_overlap_loss(x.reshape(len(x), -1, 5))


def _draw_overlap(rng):
    bounds = ((-4, 4), (-4, 4), (0.5, 4.0), (0.5, 4.0), (-1.4, 1.4))
    n = int(rng.integers(2, 4))
    return dict(boxes=box_rows([[rng.uniform(*b) for b in bounds] for _ in range(n)]))


_EXTENTS = ("w", "h", "target_w", "target_h")  # watershed's predicted and target extents


def _watershed(w, h, target_w, target_h, **opt):
    return np.array([w, h]), _per_row(lambda x: losses.watershed_loss(
        OrientedBox(0.0, 0.0, float(x[0]), float(x[1]), 0.0), target_w, target_h, **opt
    ))


def _supervised(parts, weights=None):
    n = len(fields(SupervisedWeights))
    if weights is not None and len(weights) != n:
        raise InvalidInputError(f"supervised: key 'weights' needs {n} values, got {len(weights)}")
    w = SupervisedWeights() if weights is None else SupervisedWeights(*weights)
    return np.asarray(parts, dtype=float), _per_row(lambda x: LossValueGrad(
        losses.total_supervised_loss(x.tolist(), w), w.as_array()
    ))


def _unsupervised(t_conf, t_cen, t_box, s_conf, s_cen, s_box, **opt):
    teacher = PredictionTriple(t_conf, t_cen, t_box)
    student = PredictionTriple(s_conf, s_cen, s_box)
    n = len(student)
    x0 = np.concatenate([student.conf, student.centerness, student.box_margins.ravel()])
    return x0, lambda x: losses.unsupervised_loss(  # a stack of students, one per row
        teacher, PredictionTriple(x[:, :n], x[:, n : 2 * n], x[:, 2 * n :].reshape(len(x), n, 4)), **opt
    )


def _draw_unsupervised(rng):
    n, beta = int(rng.integers(1, 5)), 1.0
    t_box = rng.uniform(-3.0, 3.0, size=(n, 4))
    offsets = [_away_from(rng, -3.0, 3.0, [-beta, 0.0, beta]) for _ in range(t_box.size)]
    t_conf, t_cen, s_conf, s_cen = (rng.uniform(0.05, 0.95, n) for _ in range(4))
    return dict(t_conf=t_conf, t_cen=t_cen, t_box=t_box, s_conf=s_conf, s_cen=s_cen,
                s_box=t_box + np.reshape(offsets, t_box.shape), beta=beta)


def _total(sup, unsup):
    return np.array([sup, unsup]), _per_row(lambda x: LossValueGrad(
        losses.total_loss(float(x[0]), float(x[1])), np.array([1.0, 1.0])
    ))


@dataclass(frozen=True)
class _Op:
    """One loss op. ``required`` and ``optional`` map its entry keys to value
    parsers; an omitted optional key keeps the loss's own default. The parsed
    entry or ``draw(rng)`` is ``build``'s keyword arguments, and ``build``
    returns the flat x0 and ``evaluate(x) -> LossValueGrad`` over (k, d) stacks."""

    required: dict[str, Callable[[str], object]]
    optional: dict[str, Callable[[str], object]]
    draw: Callable[[np.random.Generator], dict]
    build: Callable[..., tuple[np.ndarray, Callable[[np.ndarray], LossValueGrad]]]


_TABLE = {
    "sparse-cls": _Op(dict(p_t=float, kind=SampleKind),
                      dict.fromkeys(("alpha_t", "gamma", "omega", "thr"), float),
                      _draw_sparse_cls, _sparse_cls),
    "angle": _Op(dict(theta_aug=float, theta=float, aug=str), dict(r=float, beta=float),
                 _draw_angle, _angle),
    "overlap": _Op(dict(boxes=_boxes), {}, _draw_overlap, _overlap),
    "watershed": _Op(dict.fromkeys(_EXTENTS, float),
                     dict(tau=float, raw=_flag),
                     lambda rng: {key: rng.uniform(0.5, 8.0) for key in _EXTENTS}, _watershed),
    "supervised": _Op(dict(parts=_floats), dict(weights=_floats),
                      lambda rng: dict(parts=rng.uniform(0.0, 5.0, size=6)), _supervised),
    "unsupervised": _Op(dict.fromkeys(("t_conf", "t_cen", "s_conf", "s_cen"), _floats)
                        | dict(t_box=_margins, s_box=_margins),
                        dict(beta=float), _draw_unsupervised, _unsupervised),
    "total": _Op(dict(sup=float, unsup=float), {},
                 lambda rng: dict(sup=rng.uniform(0.0, 20.0), unsup=rng.uniform(0.0, 20.0)),
                 _total),
}
OPS = tuple(_TABLE)


def _op(op: str) -> _Op:
    if op not in _TABLE:
        raise InvalidInputError(f"unknown loss op {op!r}")
    return _TABLE[op]


def _case(op: str, x0: np.ndarray, evaluate: Callable[[np.ndarray], LossValueGrad]) -> GradCase:
    res = evaluate(x0[None])
    return GradCase(op, x0, lambda x: evaluate(x).value, np.ravel(res.grad[0]), float(res.value[0]))


def random_case(op: str, rng: np.random.Generator) -> GradCase:
    row = _op(op)
    return _case(op, *row.build(**row.draw(rng)))


def case_from_entry(line: str) -> GradCase:
    """The case of one entry line, ``op key=value ...``; a key the op does not
    know, or a required key the line leaves out, is an error."""
    op, *tokens = line.split()
    text = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise InvalidInputError(f"expected key=value, got {tok!r}")
        text[key] = value
    row = _op(op)
    parsers = row.required | row.optional
    for key in text:
        if key not in parsers:
            raise InvalidInputError(f"{op}: unknown key {key!r} (keys: {', '.join(parsers)})")
    for key in row.required:
        if key not in text:
            raise InvalidInputError(f"{op}: missing key {key!r}")
    values = {}
    for key in (key for key in parsers if key in text):
        try:
            values[key] = parsers[key](text[key])
        except ValueError as exc:
            raise InvalidInputError(f"{op}: key {key!r}: {exc}") from None
    return _case(op, *row.build(**values))


def random_sweep(n_points: int = 100, seed: int = 0) -> dict[str, float]:
    """Max relative FD error per op over n_points seeded random cases."""
    if n_points < 1:
        raise InvalidInputError(f"n_points must be at least 1, got {n_points}")
    rng = np.random.default_rng(seed)
    return {op: max(check_case(random_case(op, rng)) for _ in range(n_points)) for op in OPS}
