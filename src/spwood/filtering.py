"""Pseudo-label filtering by two-component Gaussian mixtures.

Teacher confidences at each pyramid level are modeled as a mixture of a
positive (high-mean) and a negative (low-mean) Gaussian fitted by EM.
The selection threshold for a level is the smallest observed score whose
posterior responsibility under the positive component reaches 1/2.

Two strategies are provided: MPF fits one mixture per level, CPF pools
every level into a single fit. Under MPF, levels with too few or
constant scores are degenerate and inherit the pooled fit; under CPF
every level inherits it. :func:`level_decisions` is the one routine for
both: it serves any set of modes from one fit per score set, and a level
selects its scores with ``score >= tau`` (inclusive).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError


class PyramidLevel(str, enum.Enum):
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    P6 = "P6"
    P7 = "P7"


class FilterMode(str, enum.Enum):
    MPF = "mpf"
    CPF = "cpf"


# EM stops when the log-likelihood moves less than EM_TOL or after
# EM_MAX_ITER rounds; variances never drop below VAR_FLOOR. A level with
# fewer than MIN_LEVEL_SCORES scores is degenerate.
EM_TOL = 1e-6
EM_MAX_ITER = 300
VAR_FLOOR = 1e-6
MIN_LEVEL_SCORES = 20


@dataclass(frozen=True)
class LevelScores:
    """Prediction confidences for one pyramid level; may be empty."""

    level: PyramidLevel
    scores: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=float).ravel()
        if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
            raise InvalidInputError(
                f"{self.level.value}: scores must lie strictly in (0, 1)"
            )
        object.__setattr__(self, "scores", arr)
        object.__setattr__(self, "level", PyramidLevel(self.level))


@dataclass(frozen=True)
class GmmFit:
    """Fitted two-component mixture; the positive component has the
    higher mean. log_likelihoods records the EM trajectory."""

    w_p: float
    w_n: float
    mu_p: float
    mu_n: float
    var_p: float
    var_n: float
    iterations: int
    converged: bool
    log_likelihoods: tuple[float, ...] = ()

    def __post_init__(self):
        if abs(self.w_p + self.w_n - 1.0) > 1e-9:
            raise InvalidInputError("mixture weights must sum to 1")
        if not (0.0 <= self.w_p <= 1.0 and 0.0 <= self.w_n <= 1.0):
            raise InvalidInputError("mixture weights must lie in [0, 1]")
        if self.mu_p < self.mu_n:
            raise InvalidInputError("positive component must have the higher mean")
        if self.var_p <= 0 or self.var_n <= 0:
            raise InvalidInputError("variances must be positive")


def _log_joint(sq: np.ndarray, w: float, var: float, out: np.ndarray | None = None) -> np.ndarray:
    """log(w N(x; mu, var)) from the squared residuals sq = (x - mu)^2; -inf when w is 0."""
    out = np.multiply(sq, -0.5 / var, out=out)
    out += (math.log(w) if w > 0 else -math.inf) - 0.5 * math.log(2.0 * math.pi * var)
    return out


# OpenBLAS splits a dot of more than 10,000 elements over its threads, so its
# rounding would depend on the thread count; the M step takes each dot over
# blocks of at most this many scores, one BLAS call each, summed in order.
_DOT_BLOCK = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b of two (n,) arrays, the same on any BLAS thread count."""
    total = a[:_DOT_BLOCK] @ b[:_DOT_BLOCK]
    for lo in range(_DOT_BLOCK, len(a), _DOT_BLOCK):
        total += a[lo : lo + _DOT_BLOCK] @ b[lo : lo + _DOT_BLOCK]
    return total


def fit_gmm(scores) -> GmmFit:
    """EM fit of a two-component univariate Gaussian mixture.

    Initialization is data-determined (no randomness): component means
    start at the maximum and minimum observed score, both variances at 1,
    both weights at 1/2. The log-likelihood is non-decreasing across
    iterations; a variance floor guards against collapse.

    The E step reuses the squared residuals of the previous M step. With
    l_k = log(w_k N_k(x)) and the log-odds d = l_0 - l_1, each score adds
    max(l_0, l_1) + softplus(-|d|) to the log-likelihood, so no term
    cancels where the variance floor makes |d| large, and component k
    takes the responsibility exp(l_k - that).
    """
    x = np.asarray(scores, dtype=float).ravel()
    if x.size and not (np.all(x > 0.0) and np.all(x < 1.0)):
        raise InvalidInputError("scores must lie strictly in (0, 1)")
    if x.size == 0 or x.min() == x.max():
        raise DegenerateInputError(f"need at least 2 distinct scores, got {min(x.size, 1)}")
    n = x.size
    mu = np.array([float(x.max()), float(x.min())])  # [positive, negative]
    var = np.array([1.0, 1.0])
    w = np.array([0.5, 0.5])
    sq = (x - mu[:, None]) ** 2
    # work arrays, so that the loop allocates nothing per iteration
    lj, resp, hi, log_norm = np.empty((2, n)), np.empty((2, n)), np.empty(n), np.empty(n)

    lls: list[float] = []
    converged = False
    iterations = 0
    prev_ll = -np.inf
    for iterations in range(1, EM_MAX_ITER + 1):
        # E step
        for k in (0, 1):
            _log_joint(sq[k], w[k], var[k], out=lj[k])
        np.maximum(lj[0], lj[1], out=hi)
        np.subtract(np.minimum(lj[0], lj[1], out=log_norm), hi, out=log_norm)  # -|d|
        np.log1p(np.exp(log_norm, out=log_norm), out=log_norm)
        log_norm += hi
        ll = float(log_norm.sum())
        lls.append(ll)
        np.exp(np.subtract(lj, log_norm, out=resp), out=resp)
        # M step
        nk = resp.sum(axis=1)
        w = nk / n
        for k in (0, 1):
            if nk[k] > 1e-12:
                mu[k] = float(_dot(resp[k], x) / nk[k])
                np.square(np.subtract(x, mu[k], out=sq[k]), out=sq[k])
                var[k] = max(float(_dot(resp[k], sq[k]) / nk[k]), VAR_FLOOR)
        if abs(ll - prev_ll) < EM_TOL:
            converged = True
            break
        prev_ll = ll

    p, q = (0, 1) if mu[0] >= mu[1] else (1, 0)
    w_mu_var = [float(a[k]) for a in (w, mu, var) for k in (p, q)]  # w_p, w_n, mu_p, ...
    return GmmFit(*w_mu_var, iterations, converged, tuple(lls))


def threshold_from_fit(fit: GmmFit, scores) -> tuple[float, bool]:
    """(tau, fallback): the selection threshold from a fitted mixture, the
    smallest observed score whose posterior responsibility under the
    positive component is >= 1/2. If no score qualifies, tau falls back to
    the maximum observed score (selects nothing below the top) and
    fallback is True.
    """
    x = np.asarray(scores, dtype=float).ravel()
    if x.size == 0:
        raise InvalidInputError("empty score list")
    log_p = _log_joint((x - fit.mu_p) ** 2, fit.w_p, fit.var_p)
    log_n = _log_joint((x - fit.mu_n) ** 2, fit.w_n, fit.var_n)
    acceptable = x[log_p - log_n >= 0.0]  # log-odds d >= 0
    if acceptable.size == 0:
        return float(x.max()), True
    return float(acceptable.min()), False


def is_degenerate_level(scores) -> bool:
    """Too few scores (or too few distinct values) to fit a mixture."""
    scores = np.asarray(scores)
    return scores.size < MIN_LEVEL_SCORES or bool(scores.min() == scores.max())


@dataclass(frozen=True)
class LevelDecision:
    """How one level's threshold was set. An inherited level carries the
    pooled fit and threshold: under MPF because the level was degenerate,
    under CPF always. fallback marks a threshold pinned to the top
    observed score."""

    level: PyramidLevel
    fit: GmmFit
    tau: float
    fallback: bool
    inherited: bool


def level_decisions(per_level: list[LevelScores], modes) -> list[list[LevelDecision]]:
    """One decision list per mode of ``modes``, in the order given; each
    list holds one decision per level, in input order.

    Under MPF each level gets its own mixture fit and threshold, and
    degenerate levels (fewer than MIN_LEVEL_SCORES scores, or fewer
    than 2 distinct values) inherit the fit and threshold of all
    levels pooled. Under CPF every level inherits the pooled fit. Each
    score set is fitted at most once, whatever the modes: a level only if
    some mode gives it its own fit, the pool only if some level under
    some mode inherits it. If the pool is needed and degenerate too, the
    input is rejected.
    """
    if not per_level:
        raise DegenerateInputError("no levels given")
    pool = len(per_level)  # the pooled score set's key; level i's is i
    degenerate = [is_degenerate_level(ls.scores) for ls in per_level]
    keys = [
        [pool if cpf or d else i for i, d in enumerate(degenerate)]
        for cpf in [FilterMode(mode) is FilterMode.CPF for mode in modes]
    ]
    decided = {}
    for key in {k for row in keys for k in row}:
        scores = per_level[key].scores if key < pool else np.concatenate([ls.scores for ls in per_level])
        fit = fit_gmm(scores)  # raises DegenerateInputError when unusable
        decided[key] = (fit, *threshold_from_fit(fit, scores))
    return [
        [LevelDecision(ls.level, *decided[key], inherited=key == pool) for ls, key in zip(per_level, row)]
        for row in keys
    ]
