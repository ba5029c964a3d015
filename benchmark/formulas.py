"""The benchmark's own closed forms of the paper's losses, in numpy.

They restate the formulas of the loss definitions independently of the
program's code, so the workloads can check the values it returns.
"""

from __future__ import annotations

import math

import numpy as np


def box_covariances(b: np.ndarray):
    a, c, t = (b[:, 2] / 2) ** 2, (b[:, 3] / 2) ** 2, b[:, 4]
    cs, sn = np.cos(t), np.sin(t)
    return a * cs * cs + c * sn * sn, a * sn * sn + c * cs * cs, (a - c) * sn * cs


def overlap_value(b: np.ndarray) -> float:
    """Mean over boxes of the summed Bhattacharyya distance to the others."""
    sxx, syy, sxy = box_covariances(b)
    axx, ayy, axy = ((s[:, None] + s[None, :]) / 2 for s in (sxx, syy, sxy))
    det = axx * ayy - axy * axy
    dx = b[:, 0, None] - b[None, :, 0]
    dy = b[:, 1, None] - b[None, :, 1]
    maha = (ayy * dx * dx - 2 * axy * dx * dy + axx * dy * dy) / det
    own = sxx * syy - sxy * sxy
    dist = maha / 8 + 0.5 * np.log(det / np.sqrt(own[:, None] * own[None, :]))
    np.fill_diagonal(dist, 0.0)
    return float(dist.sum() / len(b))


def smooth_l1(x, beta: float = 1.0) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax < beta, 0.5 * x * x / beta, ax - 0.5 * beta)


def bce(t: np.ndarray, s: np.ndarray) -> float:
    return float(np.mean(-t * np.log(s) - (1 - t) * np.log1p(-s)))


def distill_value(t_conf, t_cen, t_box, s_conf, s_cen, s_box, beta: float = 1.0) -> float:
    box = smooth_l1(s_box - t_box, beta).sum() / len(t_conf)
    return bce(t_conf, s_conf) + bce(t_cen, s_cen) + float(box)


def focal_values(p: np.ndarray, positive: np.ndarray, alpha=0.25, gamma=2.0, omega=0.2, thr=0.5):
    pos = -alpha * (1 - p) ** gamma * np.log(p)
    neg = -(1 - alpha) * p**gamma * np.log1p(-p) * np.where(p <= thr, 1.0, omega)
    return np.where(positive, pos, neg)


def wrap(x):
    return (x + math.pi / 2) % math.pi - math.pi / 2


def angle_value(theta_aug, theta, rotation, beta: float = 1.0) -> float:
    """rotation None for a flip."""
    r = wrap(theta_aug + theta) if rotation is None else wrap(theta_aug - theta - rotation)
    return float(smooth_l1(r, beta))


def watershed_value(w, h, tw, th, tau: float = 1.0, raw: bool = False) -> float:
    d2 = ((w - tw) / 2) ** 2 + ((h - th) / 2) ** 2
    return d2 if raw else 1.0 - 1.0 / (tau + math.log1p(d2))


def fd_agrees(f, x: np.ndarray, index: int, analytic: float, step: float = 1e-4) -> bool:
    """Central difference of f at x along one coordinate against analytic."""
    e = np.zeros_like(x)
    e[index] = step * max(1.0, abs(x[index]))
    numeric = (f(x + e) - f(x - e)) / (2 * e[index])
    return abs(numeric - analytic) <= 1e-5 * max(abs(numeric), abs(analytic), 1e-3)
