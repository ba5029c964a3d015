"""Oriented boxes, their 2-D Gaussian models, and the two statistical
distances the losses are built on.

Angle convention: boxes carry a rotation ``theta`` in radians, normalized
to ``[-pi/2, pi/2)`` (long-edge style half-period). Flips and rotations
stay closed under this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalDegeneracyError

HALF_PERIOD = math.pi

# Eigenvalue floor applied to a covariance before it is read as a box;
# watershed targets can produce near-zero extents.
COV_EIGENVALUE_FLOOR = 1e-12


def normalize_angle(theta: float) -> float:
    """Wrap an angle into [-pi/2, pi/2)."""
    return (theta + math.pi / 2.0) % HALF_PERIOD - math.pi / 2.0


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


class Gaussian2D:
    """Bivariate normal with a symmetric positive-definite covariance."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise InvalidInputError(
                f"expected mean (2,) and cov (2, 2), got {mean.shape} and {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidInputError("non-finite Gaussian parameters")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-9 * max(1.0, float(np.abs(cov).max())):
            raise InvalidInputError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise InvalidInputError("covariance must be positive definite")
        self.mean = mean
        self.cov = 0.5 * (cov + cov.T)

    def __repr__(self):
        return f"Gaussian2D(mean={self.mean.tolist()}, cov={self.cov.tolist()})"


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rbox_to_gaussian(box: OrientedBox) -> Gaussian2D:
    """Model a box as a Gaussian: mean at the center, covariance
    R(theta) @ diag((w/2)^2, (h/2)^2) @ R(theta).T."""
    r = rotation_matrix(box.theta)
    d = np.diag([(box.w / 2.0) ** 2, (box.h / 2.0) ** 2])
    return Gaussian2D(np.array([box.cx, box.cy]), r @ d @ r.T)


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


def _as_box(g: Gaussian2D) -> np.ndarray:
    """(1, 5) box row of a Gaussian, its eigenvalues floored at
    COV_EIGENVALUE_FLOOR."""
    vals, vecs = np.linalg.eigh(g.cov)
    w, h = 2.0 * np.sqrt(np.maximum(vals, COV_EIGENVALUE_FLOOR))
    return np.array([[g.mean[0], g.mean[1], w, h, math.atan2(vecs[1, 0], vecs[0, 0])]])


def bhattacharyya(a: Gaussian2D, b: Gaussian2D) -> float:
    """Bhattacharyya distance between two Gaussians.

    B = 1/8 * d^T S^-1 d + 1/2 * ln(det S / sqrt(det Sa * det Sb))
    with S the average covariance and d the mean difference, evaluated by
    bhattacharyya_boxes on each Gaussian's eigen-box. Symmetric (exactly),
    nonnegative, zero iff the distributions coincide.
    """
    return float(bhattacharyya_boxes(_as_box(a), _as_box(b))[0][0])


def gwd_squared(a: Gaussian2D, b: Gaussian2D) -> float:
    """Squared 2-Wasserstein distance between two Gaussians.

    W2^2 = |mu_a - mu_b|^2 + Tr(Sa + Sb - 2 * (Sb^1/2 Sa Sb^1/2)^1/2).
    For 2x2 matrices Tr (Sb^1/2 Sa Sb^1/2)^1/2
    = sqrt(Tr(Sa Sb) + 2 sqrt(det Sa det Sb)); every term below is
    written symmetrically in a and b, so d(a, b) == d(b, a) exactly.
    """
    (a11, a12), (_, a22) = a.cov.tolist()
    (b11, b12), (_, b22) = b.cov.tolist()
    dx, dy = (a.mean - b.mean).tolist()
    tr_ab = a11 * b11 + 2.0 * a12 * b12 + a22 * b22
    det_ab = (a11 * a22 - a12 * a12) * (b11 * b22 - b12 * b12)
    cross = math.sqrt(max(tr_ab + 2.0 * math.sqrt(max(det_ab, 0.0)), 0.0))
    scale = (a11 + a22) + (b11 + b22) - 2.0 * cross
    # tiny negatives from rounding when a == b
    return dx * dx + dy * dy + max(scale, 0.0)


def flip_box(box: OrientedBox, image_height: float) -> OrientedBox:
    """Vertical flip: the center reflects about the image midline and the
    angle negates."""
    return OrientedBox(box.cx, image_height - box.cy, box.w, box.h, -box.theta)


def rotate_box(box: OrientedBox, r: float, image_center) -> OrientedBox:
    """Rotate the box by r radians about ``image_center``."""
    ox, oy = image_center
    rot = rotation_matrix(r)
    cx, cy = rot @ np.array([box.cx - ox, box.cy - oy]) + np.array([ox, oy])
    return OrientedBox(float(cx), float(cy), box.w, box.h, box.theta + r)


def corners_of_boxes(boxes) -> np.ndarray:
    """Corner coordinates of (N, 5) box rows (cx, cy, w, h, theta), shape
    (N, 4, 2), each counterclockwise from the corner at (-w/2, -h/2) in
    its box's frame."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 5)
    # math.cos/sin and one matmul per box, the same calls rotation_matrix
    # and a (4, 2) @ (2, 2) product make, so a row's corners do not depend
    # on the batch it is in
    cos = np.array([math.cos(t) for t in boxes[:, 4].tolist()], dtype=float)
    sin = np.array([math.sin(t) for t in boxes[:, 4].tolist()], dtype=float)
    rot = np.stack([cos, -sin, sin, cos], axis=1).reshape(-1, 2, 2)
    hw, hh = boxes[:, 2] / 2.0, boxes[:, 3] / 2.0
    half = np.stack([-hw, -hh, hw, -hh, hw, hh, -hw, hh], axis=1).reshape(-1, 4, 2)
    return half @ rot.transpose(0, 2, 1) + boxes[:, None, :2]


def box_corners(box: OrientedBox) -> np.ndarray:
    """Corner coordinates, shape (4, 2), counterclockwise from the corner
    at (-w/2, -h/2) in the box frame."""
    return corners_of_boxes([box.cx, box.cy, box.w, box.h, box.theta])[0]


def hbox_of(box: OrientedBox) -> HorizontalBox:
    """Tightest axis-aligned box around the rotated corners."""
    corners = box_corners(box)
    xmin, ymin = corners.min(axis=0)
    xmax, ymax = corners.max(axis=0)
    return HorizontalBox(float(xmin), float(ymin), float(xmax), float(ymax))
