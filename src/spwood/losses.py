"""Training losses with analytic gradients.

Every loss here returns a :class:`LossValueGrad` carrying the scalar value
and the exact partial derivatives with respect to its prediction inputs,
so each one can be verified against central finite differences. Weighted
totals return plain floats. The overlap and distillation losses also take
inputs with leading batch dimensions; their value then has the batch shape.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import OrientedBox, bhattacharyya_boxes, box_rows, normalize_angle


class SampleKind(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class FocalParams:
    """Focal-style classification settings.

    alpha_t balances positives against negatives, gamma focuses away from
    easy samples, and omega down-weights confident negatives above thr
    (likely unannotated objects rather than background).
    """

    alpha_t: float = 0.25
    gamma: float = 2.0
    omega: float = 0.2
    thr: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha_t < 1.0:
            raise InvalidInputError(f"alpha_t must be in (0, 1), got {self.alpha_t}")
        if not 0.0 <= self.gamma < math.inf:
            raise InvalidInputError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if not 0.0 < self.omega <= 1.0:
            raise InvalidInputError(f"omega must be in (0, 1], got {self.omega}")
        if not 0.0 < self.thr < 1.0:
            raise InvalidInputError(f"thr must be in (0, 1), got {self.thr}")


@dataclass(frozen=True)
class SupervisedWeights:
    """Term weights for the supervised total."""

    w_cls: float = 1.0
    w_cen: float = 1.0
    w_box: float = 1.0
    w_ang: float = 0.2
    w_o: float = 10.0
    w_w: float = 5.0

    def __post_init__(self):
        for name in ("w_cls", "w_cen", "w_box", "w_ang", "w_o", "w_w"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be finite and nonnegative")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.w_cls, self.w_cen, self.w_box, self.w_ang, self.w_o, self.w_w]
        )


@dataclass(frozen=True, slots=True)
class LossValueGrad:
    """A loss value plus its gradient w.r.t. the prediction inputs, per row if batched."""

    value: float | np.ndarray
    grad: np.ndarray


@dataclass(frozen=True)
class Flip:
    """Vertical-flip augmentation."""


@dataclass(frozen=True)
class Rotate:
    """Rotation augmentation by ``angle`` radians, which must be finite."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise InvalidInputError(f"rotation angle must be finite, got {self.angle}")


Augmentation = Flip | Rotate


@dataclass(frozen=True)
class PredictionTriple:
    """Per-location confidence, centerness, and edge margins.

    conf and centerness are open-interval (0, 1) scores; box_margins is an
    (n, 4) array of distances from each location to its box edges. A student
    stack adds leading batch dimensions, e.g. conf (k, n), box_margins (k, n, 4).
    """

    conf: np.ndarray
    centerness: np.ndarray
    box_margins: np.ndarray

    def __post_init__(self):
        conf = np.asarray(self.conf, dtype=float)
        cen = np.asarray(self.centerness, dtype=float)
        margins = np.asarray(self.box_margins, dtype=float)
        if margins.ndim < 2 or margins.shape[-1] != 4:
            raise InvalidInputError(f"box_margins must have shape (..., n, 4), got {margins.shape}")
        if not conf.shape == cen.shape == margins.shape[:-1]:
            raise InvalidInputError("prediction triple fields disagree on length")
        for name, arr in (("conf", conf), ("centerness", cen)):
            if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
                raise InvalidInputError(f"{name} values must lie strictly in (0, 1)")
        if not np.all(np.isfinite(margins)):
            raise InvalidInputError("non-finite box margins")
        object.__setattr__(self, "conf", conf)
        object.__setattr__(self, "centerness", cen)
        object.__setattr__(self, "box_margins", margins)

    def __len__(self) -> int:
        return self.conf.shape[-1]


def sparse_cls_loss(
    p_t: float, kind: SampleKind, params: FocalParams = FocalParams()
) -> LossValueGrad:
    """Sparse-aware focal classification loss for a single prediction.

    Positives get the usual focal term. Negatives get the focal negative
    term, scaled by omega once their confidence exceeds thr: a confident
    "negative" under sparse labels is likely an unannotated object, so its
    penalty is damped instead of letting it drag the model toward
    background.
    """
    if not (0.0 < p_t < 1.0):
        raise InvalidInputError(f"p_t must lie strictly in (0, 1), got {p_t}")
    a, g = params.alpha_t, params.gamma
    if kind is SampleKind.POSITIVE:
        value = -a * (1.0 - p_t) ** g * math.log(p_t)
        dv = a * g * (1.0 - p_t) ** (g - 1.0) * math.log(p_t) - a * (
            1.0 - p_t
        ) ** g / p_t
    elif kind is SampleKind.NEGATIVE:
        scale = 1.0 if p_t <= params.thr else params.omega
        base = -(1.0 - a) * p_t**g * math.log(1.0 - p_t)
        dbase = -(1.0 - a) * g * p_t ** (g - 1.0) * math.log(1.0 - p_t) + (
            1.0 - a
        ) * p_t**g / (1.0 - p_t)
        value, dv = scale * base, scale * dbase
    else:
        raise InvalidInputError(f"unknown sample kind {kind!r}")
    return LossValueGrad(value, np.array([dv]))


def smooth_l1(x: float, beta: float = 1.0) -> float:
    """Huber-style penalty: quadratic inside |x| < beta, linear outside."""
    ax = abs(x)
    if ax < beta:
        return 0.5 * x * x / beta
    return ax - 0.5 * beta


def angle_loss(
    theta_pred_aug: float,
    theta_pred_orig: float,
    aug: Augmentation,
    beta: float = 1.0,
) -> LossValueGrad:
    """Consistency loss tying the angle predicted on an augmented view to
    the angle predicted on the original view.

    A flip negates the angle, so theta_aug + theta_orig should vanish; a
    rotation shifts it, so theta_aug - theta_orig should equal the applied
    rotation. The residual is wrapped into the half-period before the
    smooth-L1 penalty (finite beta > 0), so predictions a full period apart
    are identical. grad holds (d/d theta_pred_aug, d/d theta_pred_orig).
    """
    if not (math.isfinite(theta_pred_aug) and math.isfinite(theta_pred_orig)):
        raise InvalidInputError("angles must be finite")
    if not 0.0 < beta < math.inf:
        raise InvalidInputError(f"beta must be finite and positive, got {beta}")
    if isinstance(aug, Flip):
        residual = normalize_angle(theta_pred_aug + theta_pred_orig)
        d_orig = 1.0
    elif isinstance(aug, Rotate):
        residual = normalize_angle(theta_pred_aug - theta_pred_orig - aug.angle)
        d_orig = -1.0
    else:
        raise InvalidInputError(f"unknown augmentation {aug!r}")
    value = smooth_l1(residual, beta)
    d = residual / beta if abs(residual) < beta else math.copysign(1.0, residual)
    return LossValueGrad(value, np.array([d, d * d_orig]))


def gaussian_overlap_loss(boxes) -> LossValueGrad:
    """Mean pairwise Bhattacharyya distance over the boxes' Gaussian models.

    Sums over ordered pairs i != j and divides by the number of boxes.
    Minimizing it pulls predicted boxes apart, bounding object scale from
    above. ``boxes`` is a list of n OrientedBox, or an (..., n, 5) array of
    rows checked and normalized by geometry.box_rows. value has the batch
    shape (a float if none); grad the shape of the rows, (n, 5) for a list.
    """
    if isinstance(boxes, np.ndarray):
        x = box_rows(boxes)
    else:  # their thetas are normalized already
        x = np.array([(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes], dtype=float).reshape(-1, 5)
    batch, n = x.shape[:-2], x.shape[-2]
    if n == 0:
        raise InvalidInputError("need at least one box")
    i, j = np.triu_indices(n, 1)
    value, grad_i, grad_j = bhattacharyya_boxes(x[..., i, :].reshape(-1, 5), x[..., j, :].reshape(-1, 5))
    pair_grad = np.zeros(batch + (n, n, 5))  # [..., k, l]: d B(k, l) / d box k
    pair_grad[..., i, j, :] = grad_i.reshape(batch + (len(i), 5))
    pair_grad[..., j, i, :] = grad_j.reshape(batch + (len(i), 5))
    # ordered pairs: (i, j) and (j, i) contribute equally
    value = 2.0 * value.reshape(batch + (len(i),)).sum(axis=-1) / n
    return LossValueGrad(value if batch else float(value), 2.0 * pair_grad.sum(axis=-2) / n)


def watershed_loss(
    pred: OrientedBox,
    target_w: float,
    target_h: float,
    tau: float = 1.0,
    raw: bool = False,
) -> LossValueGrad:
    """Scale-regression loss against watershed-derived extent targets.

    Both the prediction and the target are treated as zero-mean Gaussians
    with diagonal covariances diag(w/2, h/2)^2, compared by squared
    Wasserstein distance d2 = (w - w_t)^2/4 + (h - h_t)^2/4, then mapped
    through 1 - 1/(tau + ln(1 + d2)). tau must be finite and positive, so
    the denominator is at least tau. ``raw=True`` returns d2 itself.
    grad holds (d/dw, d/dh) of the predicted extents.
    """
    if not 0.0 < tau < math.inf:
        raise InvalidInputError(f"tau must be finite and positive, got {tau}")
    if not (0.0 < target_w < math.inf and 0.0 < target_h < math.inf):
        raise InvalidInputError(f"targets must be finite and positive, got ({target_w}, {target_h})")
    dw = (pred.w - target_w) / 2.0
    dh = (pred.h - target_h) / 2.0
    d2 = dw * dw + dh * dh
    dd2 = np.array([dw, dh])  # d(d2)/d(w, h)
    if raw:
        return LossValueGrad(d2, dd2)
    denom = tau + math.log1p(d2)
    value = 1.0 - 1.0 / denom
    scale = 1.0 / (denom * denom * (1.0 + d2))
    return LossValueGrad(value, scale * dd2)


def total_supervised_loss(parts, weights: SupervisedWeights = SupervisedWeights()) -> float:
    """Weighted sum of the six supervised terms, in the order
    (cls, centerness, box, angle, overlap, watershed)."""
    parts = list(parts)
    if len(parts) != 6:
        raise InvalidInputError(f"expected 6 loss parts, got {len(parts)}")
    if not all(math.isfinite(p) for p in parts):
        raise InvalidInputError("non-finite loss part")
    w = weights
    return (
        w.w_cls * parts[0]
        + w.w_cen * parts[1]
        + w.w_box * parts[2]
        + w.w_ang * parts[3]
        + w.w_o * parts[4]
        + w.w_w * parts[5]
    )


def _bce(target: np.ndarray, pred: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Mean binary cross-entropy over the last axis; writes its gradient
    w.r.t. pred into ``grad``."""
    value = np.mean(-target * np.log(pred) - (1.0 - target) * np.log1p(-pred), axis=-1)
    np.divide(-target, pred, out=grad)
    rest = np.subtract(1.0, pred)
    grad += np.divide(1.0 - target, rest, out=rest)
    grad /= pred.shape[-1]
    return value


def unsupervised_loss(
    teacher: PredictionTriple, student: PredictionTriple, beta: float = 1.0
) -> LossValueGrad:
    """Distillation loss from teacher pseudo-targets to student predictions.

    Binary cross-entropy on confidence and centerness plus smooth-L1
    (finite beta > 0) on the four edge margins, each averaged over matched
    locations. Teacher values are fixed targets; grad covers only student
    inputs, laid out as [conf (n), centerness (n), margins row-major (4n)].
    A student with leading batch dimensions gives a value of the batch shape
    and a grad of shape (..., 6n); a one-row student gives a float.
    """
    n = len(teacher)
    if len(student) != n:
        raise InvalidInputError(
            f"teacher has {n} locations but student has {len(student)}"
        )
    if n == 0:
        raise InvalidInputError("no matched locations")
    if not 0.0 < beta < math.inf:
        raise InvalidInputError(f"beta must be finite and positive, got {beta}")
    grad = np.empty((*student.conf.shape[:-1], 6 * n))
    # The margin slice of grad holds the residual r until it becomes r's gradient.
    r = grad[..., 2 * n :]
    try:
        np.subtract(student.box_margins, teacher.box_margins, out=r.reshape(*r.shape[:-1], n, 4))
    except ValueError:  # the first operation on both: a teacher with dimensions the student lacks
        raise InvalidInputError(
            f"teacher shape {teacher.conf.shape} does not broadcast to student shape {student.conf.shape}"
        ) from None
    box = np.abs(r)  # smooth-L1: ((0.5 * r) * r) / beta inside, |r| - 0.5 * beta outside
    inside = box < beta
    outside = ~inside
    np.multiply(0.5, r, out=box, where=inside)
    np.multiply(box, r, out=box, where=inside)
    np.divide(box, beta, out=box, where=inside)
    np.subtract(box, 0.5 * beta, out=box, where=outside)
    box_value = box.sum(axis=-1) / n
    del box
    np.divide(r, beta, out=r, where=inside)
    np.copysign(1.0, r, out=r, where=outside)
    r /= n
    conf_value = _bce(teacher.conf, student.conf, grad[..., :n])
    value = conf_value + _bce(teacher.centerness, student.centerness, grad[..., n : 2 * n]) + box_value
    return LossValueGrad(value if np.ndim(value) else float(value), grad)


def total_loss(sup: float, unsup: float) -> float:
    """Overall objective: supervised plus unsupervised branch."""
    if not (math.isfinite(sup) and math.isfinite(unsup)):
        raise InvalidInputError("non-finite loss input")
    return sup + unsup
