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

# Eigenvalue floor applied to covariances before inversion; watershed
# targets can produce near-zero extents.
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


def _floored(cov: np.ndarray) -> np.ndarray:
    """Clamp covariance eigenvalues to the degeneracy floor."""
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() >= COV_EIGENVALUE_FLOOR:
        return cov
    vals = np.maximum(vals, COV_EIGENVALUE_FLOOR)
    return (vecs * vals) @ vecs.T


def bhattacharyya(a: Gaussian2D, b: Gaussian2D) -> float:
    """Bhattacharyya distance between two Gaussians.

    B = 1/8 * d^T S^-1 d + 1/2 * ln(det S / sqrt(det Sa * det Sb))
    with S the average covariance and d the mean difference. Symmetric,
    nonnegative, zero iff the distributions coincide.
    """
    cov_a = _floored(a.cov)
    cov_b = _floored(b.cov)
    avg = (cov_a + cov_b) / 2.0
    det_avg = float(np.linalg.det(avg))
    det_a = float(np.linalg.det(cov_a))
    det_b = float(np.linalg.det(cov_b))
    if not (det_avg > 0 and math.isfinite(det_avg)):
        raise NumericalDegeneracyError("singular averaged covariance")
    d = a.mean - b.mean
    maha = float(d @ np.linalg.solve(avg, d))
    return 0.125 * maha + 0.5 * math.log(det_avg / math.sqrt(det_a * det_b))


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


def box_corners(box: OrientedBox) -> np.ndarray:
    """Corner coordinates, shape (4, 2), counterclockwise from the corner
    at (-w/2, -h/2) in the box frame."""
    half = np.array(
        [
            [-box.w / 2.0, -box.h / 2.0],
            [box.w / 2.0, -box.h / 2.0],
            [box.w / 2.0, box.h / 2.0],
            [-box.w / 2.0, box.h / 2.0],
        ]
    )
    return half @ rotation_matrix(box.theta).T + np.array([box.cx, box.cy])


def hbox_of(box: OrientedBox) -> HorizontalBox:
    """Tightest axis-aligned box around the rotated corners."""
    corners = box_corners(box)
    xmin, ymin = corners.min(axis=0)
    xmax, ymax = corners.max(axis=0)
    return HorizontalBox(float(xmin), float(ymin), float(xmax), float(ymax))
