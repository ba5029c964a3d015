"""Oriented boxes and the two statistical distances between their 2-D
Gaussian models that the losses are built on.

Angle convention: boxes carry a rotation ``theta`` in radians, normalized
to ``[-pi/2, pi/2)`` (long-edge style half-period). The distances take
(m, 5) arrays of (cx, cy, w, h, theta) box rows and are written in each
box's own frame; no covariance matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError

HALF_PERIOD = math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle, or an array of angles, into [-pi/2, pi/2)."""
    r = (theta + math.pi / 2.0) % HALF_PERIOD
    # an angle just below -pi/2 leaves a remainder that rounds up to the
    # period itself; it counts as 0
    return r * (r < HALF_PERIOD) - math.pi / 2.0


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle: center (cx, cy), extents w x h, rotation theta.

    w and h must be positive; theta is normalized on construction.
    """

    cx: float
    cy: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"non-finite box field {name!r}")
        if self.w <= 0 or self.h <= 0:
            raise InvalidInputError(
                f"box extents must be positive, got w={self.w}, h={self.h}"
            )
        object.__setattr__(self, "theta", normalize_angle(self.theta))


def box_rows(rows) -> np.ndarray:
    """A float copy of (..., 5) box rows (cx, cy, w, h, theta), each row
    checked as OrientedBox checks a box (the first bad row raises its
    error) and its theta normalized once, as OrientedBox normalizes it."""
    rows = np.array(rows, dtype=float)
    if rows.ndim < 2 or rows.shape[-1] != 5:
        raise InvalidInputError(f"box rows must have shape (..., n, 5), got {rows.shape}")
    ok = np.isfinite(rows).all(axis=-1) & (rows[..., 2] > 0) & (rows[..., 3] > 0)
    if not ok.all():
        OrientedBox(*rows[~ok][0].tolist())
    rows[..., 4] = normalize_angle(rows[..., 4])
    return rows


@dataclass(frozen=True)
class HorizontalBox:
    """Axis-aligned box given by its corner coordinates."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise InvalidInputError(
                f"empty horizontal box ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )


@dataclass(frozen=True)
class PointAnnotation:
    """A single labeled location."""

    x: float
    y: float
    category: str = ""


def bhattacharyya_boxes(p: np.ndarray, q: np.ndarray):
    """Bhattacharyya distance between the Gaussian models of box pairs,
    with its gradient.

    p and q are (m, 5) arrays of (cx, cy, w, h, theta) rows; row k of p is
    paired with row k of q. Returns the (m,) distances and their (m, 5)
    partial derivatives with respect to p and to q.

    Work in each box's own frame: with a1, a2 = (w/2)^2, (h/2)^2 for p,
    b1, b2 the same for q and D = theta_q - theta_p, the summed covariance
    M = Sp + Sq has
        det M = a1 a2 + b1 b2 + (a1 b2 + a2 b1) cos^2 D + (a1 b1 + a2 b2) sin^2 D
    and, adj being linear, N = d^T adj(M) d = a2 up^2 + a1 vp^2 + b2 uq^2 + b1 vq^2,
    where (u, v) is the center offset d = mu_p - mu_q in that box's frame.
    So B = N / (4 det M) + 1/2 ln(4 det M / (wp hp wq hq)). Every term is a
    sum of nonnegative products, so thin boxes lose no digits, and swapping
    p and q gives exactly the same value.
    """
    dx, dy = p[:, 0] - q[:, 0], p[:, 1] - q[:, 1]
    wp, hp, wq, hq = p[:, 2], p[:, 3], q[:, 2], q[:, 3]
    a1, a2, b1, b2 = (wp / 2.0) ** 2, (hp / 2.0) ** 2, (wq / 2.0) ** 2, (hq / 2.0) ** 2
    cp, sp, cq, sq = np.cos(p[:, 4]), np.sin(p[:, 4]), np.cos(q[:, 4]), np.sin(q[:, 4])
    up, vp = cp * dx + sp * dy, cp * dy - sp * dx
    uq, vq = cq * dx + sq * dy, cq * dy - sq * dx
    delta = q[:, 4] - p[:, 4]
    cos2, sin2 = np.cos(delta) ** 2, np.sin(delta) ** 2
    det = (a1 * a2 + b1 * b2) + ((a1 * b2 + a2 * b1) * cos2 + (a1 * b1 + a2 * b2) * sin2)
    if not np.all(np.isfinite(det) & (det > 0.0)):
        raise NumericalDegeneracyError("singular averaged covariance")
    num = (a2 * up * up + a1 * vp * vp) + (b2 * uq * uq + b1 * vq * vq)
    value = num / (4.0 * det) + 0.5 * np.log(4.0 * det / (wp * hp * (wq * hq)))
    # dB/dN and dB/d(det M); the -0.5/w, -0.5/h terms below come from -1/2 ln(w h)
    g_num = 0.25 / det
    g_det = (0.5 - num * g_num) / det
    gx = 2.0 * g_num * (cp * a2 * up - sp * a1 * vp + cq * b2 * uq - sq * b1 * vq)
    gy = 2.0 * g_num * (sp * a2 * up + cp * a1 * vp + sq * b2 * uq + cq * b1 * vq)
    # d(det M)/dD = sin 2D (a1 - a2)(b1 - b2); d(up, vp)/d theta_p = (vp, -up)
    twist = g_det * np.sin(2.0 * delta) * (a1 - a2) * (b1 - b2)
    grad_p = np.stack([gx, gy,
        0.5 * wp * (g_num * vp * vp + g_det * (a2 + b2 * cos2 + b1 * sin2)) - 0.5 / wp,
        0.5 * hp * (g_num * up * up + g_det * (a1 + b1 * cos2 + b2 * sin2)) - 0.5 / hp,
        2.0 * g_num * (a2 - a1) * up * vp - twist], axis=1)
    grad_q = np.stack([-gx, -gy,
        0.5 * wq * (g_num * vq * vq + g_det * (b2 + a2 * cos2 + a1 * sin2)) - 0.5 / wq,
        0.5 * hq * (g_num * uq * uq + g_det * (b1 + a1 * cos2 + a2 * sin2)) - 0.5 / hq,
        2.0 * g_num * (b2 - b1) * uq * vq + twist], axis=1)
    return value, grad_p, grad_q


def gwd_squared(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared 2-Wasserstein distance between the Gaussian models of box
    pairs.

    p and q are (m, 5) arrays of (cx, cy, w, h, theta) rows; row k of p is
    paired with row k of q. Returns the (m,) distances
        W2^2 = |mu_p - mu_q|^2 + Tr(Sp + Sq - 2 (Sq^1/2 Sp Sq^1/2)^1/2).
    Work in each box's own frame: with x, y = w/2, h/2 and D = theta_q - theta_p,
        (Tr (Sq^1/2 Sp Sq^1/2)^1/2)^2 = Tr(Sp Sq) + 2 sqrt(det Sp det Sq)
        = cos^2 D (xp xq + yp yq)^2 + sin^2 D (xp yq + yp xq)^2.
    Every term is a product of half-extents, so thin boxes lose no digits,
    and swapping p and q gives exactly the same value.
    """
    dx, dy = p[:, 0] - q[:, 0], p[:, 1] - q[:, 1]
    xp, yp, xq, yq = p[:, 2] / 2.0, p[:, 3] / 2.0, q[:, 2] / 2.0, q[:, 3] / 2.0
    # |D| is the same for (p, q) and (q, p); cos^2 and sin^2 are even
    delta = np.abs(q[:, 4] - p[:, 4])
    cross = np.sqrt(np.cos(delta) ** 2 * (xp * xq + yp * yq) ** 2 + np.sin(delta) ** 2 * (xp * yq + yp * xq) ** 2)
    scale = (xp * xp + yp * yp) + (xq * xq + yq * yq) - 2.0 * cross
    # tiny negatives from rounding when p == q
    return (dx * dx + dy * dy) + np.maximum(scale, 0.0)


def corners_of_boxes(boxes) -> np.ndarray:
    """Corner coordinates of (N, 5) box rows (cx, cy, w, h, theta), shape
    (N, 4, 2), each counterclockwise from the corner at (-w/2, -h/2) in
    its box's frame."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 5)
    # math.cos/sin and one (4, 2) @ (2, 2) matmul per box, so a row's
    # corners do not depend on the batch it is in
    cos = np.array([math.cos(t) for t in boxes[:, 4].tolist()], dtype=float)
    sin = np.array([math.sin(t) for t in boxes[:, 4].tolist()], dtype=float)
    rot = np.stack([cos, -sin, sin, cos], axis=1).reshape(-1, 2, 2)
    hw, hh = boxes[:, 2] / 2.0, boxes[:, 3] / 2.0
    half = np.stack([-hw, -hh, hw, -hh, hw, hh, -hw, hh], axis=1).reshape(-1, 4, 2)
    return half @ rot.transpose(0, 2, 1) + boxes[:, None, :2]

