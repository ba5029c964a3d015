import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spwood
from spwood.errors import DegenerateInputError, InvalidInputError
from spwood.filtering import (
    FilterMode,
    GmmConfig,
    GmmFit,
    LevelDecision,
    LevelScores,
    PyramidLevel,
    fit_gmm,
    is_degenerate_level,
    level_decisions,
    threshold_from_fit,
)
from spwood.pipeline import LevelPlan, SimScenario, run_simulation


def planted_scores(rng, mu_n=0.15, mu_p=0.85, sigma=0.05, n_neg=500, n_pos=500):
    neg = np.clip(rng.normal(mu_n, sigma, n_neg), 1e-6, 1 - 1e-6)
    pos = np.clip(rng.normal(mu_p, sigma, n_pos), 1e-6, 1 - 1e-6)
    scores = np.concatenate([neg, pos])
    labels = np.concatenate([np.zeros(n_neg, bool), np.ones(n_pos, bool)])
    return scores, labels


score_lists = st.lists(
    st.floats(0.01, 0.99, allow_nan=False), min_size=2, max_size=60
).filter(lambda xs: len(set(xs)) >= 2)


# --- fitting ------------------------------------------------------------------


def test_planted_mixture_recovery():
    scores, _ = planted_scores(np.random.default_rng(0))
    fit = fit_gmm(scores)
    assert abs(fit.mu_p - 0.85) <= 0.02
    assert abs(fit.mu_n - 0.15) <= 0.02
    assert abs(fit.w_p - 0.5) <= 0.05
    assert abs(fit.w_n - 0.5) <= 0.05


def test_identical_scores_rejected():
    for scores in ([0.4] * 50, [], np.array([])):
        with pytest.raises(DegenerateInputError):
            fit_gmm(scores)


def test_single_cluster_terminates_with_means_in_range():
    # one tight cluster: the two components end up nearly coincident; EM
    # either meets the tolerance or runs to the iteration cap, and the
    # fitted means stay inside the observed score range
    rng = np.random.default_rng(3)
    scores = np.clip(rng.normal(0.5, 0.05, 400), 1e-6, 1 - 1e-6)
    fit = fit_gmm(scores)
    assert fit.iterations <= GmmConfig().max_iter
    assert scores.min() <= fit.mu_n <= fit.mu_p <= scores.max()
    diffs = np.diff(fit.log_likelihoods)
    assert np.all(diffs >= -1e-9)


def test_em_log_likelihood_monotone():
    for seed in range(5):
        scores, _ = planted_scores(np.random.default_rng(seed))
        fit = fit_gmm(scores)
        assert np.all(np.diff(fit.log_likelihoods) >= -1e-9)


def test_fit_is_deterministic():
    scores, _ = planted_scores(np.random.default_rng(1))
    a, b = fit_gmm(scores), fit_gmm(scores)
    assert a == b


@given(score_lists)
@settings(max_examples=40, deadline=None)
def test_relabeling_invariant(xs):
    fit = fit_gmm(xs)
    assert fit.mu_p >= fit.mu_n
    assert fit.w_p + fit.w_n == pytest.approx(1.0, abs=1e-9)
    assert fit.var_p >= GmmConfig().var_floor
    assert fit.var_n >= GmmConfig().var_floor


def test_gmm_fit_validation():
    with pytest.raises(InvalidInputError):
        GmmFit(0.6, 0.6, 0.8, 0.2, 0.1, 0.1, 1, True)
    with pytest.raises(InvalidInputError):
        GmmFit(0.5, 0.5, 0.2, 0.8, 0.1, 0.1, 1, True)


def test_scores_outside_unit_interval_rejected():
    with pytest.raises(InvalidInputError):
        fit_gmm([0.2, 0.5, 1.2])
    with pytest.raises(InvalidInputError):
        LevelScores(PyramidLevel.P3, np.array([0.0, 0.5]))


# --- the EM loop against the one it replaced ------------------------------------
#
# Reference: fit_gmm and the posterior rule as they stood before the E step
# moved to the log-odds form. The reference stacks both components'
# log-joints into a (2, n) array, normalizes with logaddexp and recomputes
# every squared residual; initialization, M step, variance floor, nk guard
# and stopping rule are the same.


def _reference_log_normal_pdf(x, mu, var):
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mu) ** 2 / (2.0 * var)


def reference_fit_gmm(scores, config=GmmConfig()):
    x = np.asarray(scores, dtype=float).ravel()
    n = x.size
    mu = np.array([float(x.max()), float(x.min())])
    var = np.array([1.0, 1.0])
    w = np.array([0.5, 0.5])
    lls, converged, prev_ll = [], False, -np.inf
    for iterations in range(1, config.max_iter + 1):
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        log_joint = np.stack(
            [log_w[k] + _reference_log_normal_pdf(x, mu[k], var[k]) for k in (0, 1)]
        )
        log_norm = np.logaddexp(log_joint[0], log_joint[1])
        ll = float(log_norm.sum())
        lls.append(ll)
        resp = np.exp(log_joint - log_norm)
        nk = resp.sum(axis=1)
        w = nk / n
        for k in (0, 1):
            if nk[k] > 1e-12:
                mu[k] = float(resp[k] @ x / nk[k])
                var[k] = max(float(resp[k] @ (x - mu[k]) ** 2 / nk[k]), config.var_floor)
        if abs(ll - prev_ll) < config.tol:
            converged = True
            break
        prev_ll = ll
    p, q = (0, 1) if mu[0] >= mu[1] else (1, 0)
    return GmmFit(w[p], w[q], mu[p], mu[q], var[p], var[q], iterations, converged, tuple(lls))


def reference_posterior_tau(fit, scores):
    x = np.asarray(scores, dtype=float).ravel()
    log_p = math.log(fit.w_p) if fit.w_p > 0 else -np.inf
    log_n = math.log(fit.w_n) if fit.w_n > 0 else -np.inf
    score_p = log_p + _reference_log_normal_pdf(x, fit.mu_p, fit.var_p)
    score_n = log_n + _reference_log_normal_pdf(x, fit.mu_n, fit.var_n)
    acceptable = x[score_p >= score_n]
    return float(x.max()) if acceptable.size == 0 else float(acceptable.min())


def _params(fit):
    return [fit.w_p, fit.w_n, fit.mu_p, fit.mu_n, fit.var_p, fit.var_n]


def assert_matches_reference(scores, config=GmmConfig()):
    fit, ref = fit_gmm(scores, config), reference_fit_gmm(scores, config)
    assert (fit.iterations, fit.converged) == (ref.iterations, ref.converged)
    np.testing.assert_allclose(_params(fit), _params(ref), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fit.log_likelihoods, ref.log_likelihoods, rtol=1e-12, atol=0.0)
    assert threshold_from_fit(fit, scores).tau == reference_posterior_tau(ref, scores)
    return fit


# The benchmark's self-training levels: four dense level-shifted levels and
# one sparse one; MPF fits the dense ones and the pool of all five.
BENCHMARK_LEVELS = (
    (500, 1500, 0.40, 0.08),
    (500, 1500, 0.475, 0.155),
    (500, 1500, 0.55, 0.23),
    (500, 1500, 0.625, 0.305),
    (5, 10, 0.70, 0.38),
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_matches_reference_on_benchmark_levels(seed):
    rng = np.random.default_rng(700 + seed)
    levels = [
        np.clip(
            np.concatenate([rng.normal(mu_p, 0.05, n_pos), rng.normal(mu_n, 0.05, n_neg)]),
            1e-6,
            1 - 1e-6,
        )
        for n_pos, n_neg, mu_p, mu_n in BENCHMARK_LEVELS
    ]
    for scores in levels[:4] + [np.concatenate(levels)]:
        assert_matches_reference(scores)


def test_fit_matches_reference_on_100k_scores():
    rng = np.random.default_rng(710)
    scores = np.clip(
        np.concatenate([rng.normal(0.8, 0.08, 30_000), rng.normal(0.3, 0.1, 70_000)]),
        1e-6,
        1 - 1e-6,
    )
    assert_matches_reference(scores)


# Fits 30,000 planted scores and prints every GmmFit field, floats as float.hex.
FIT_HEX = """
import numpy as np
from spwood.filtering import fit_gmm
rng = np.random.default_rng(0)
scores = np.clip(np.concatenate([rng.normal(0.15, 0.05, 15_000), rng.normal(0.85, 0.05, 15_000)]), 1e-6, 1 - 1e-6)
fit = fit_gmm(scores)
print(fit.iterations, fit.converged, *(float(v).hex() for v in (fit.w_p, fit.w_n, fit.mu_p, fit.mu_n, fit.var_p,
                                                                  fit.var_n, *fit.log_likelihoods)))
"""


def test_fit_is_the_same_on_any_blas_thread_count():
    """OpenBLAS splits a dot of more than 10,000 elements over its threads;
    with one dot over all 30,000 scores, one and two threads gave fits that
    differed in their last bits."""
    path = os.pathsep.join([str(Path(spwood.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", FIT_HEX], env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("pair", [(0.2, 0.8), (0.1, 0.9), (0.45, 0.55)])
def test_fit_matches_reference_on_two_scores(pair):
    assert_matches_reference(np.array(pair))


@pytest.mark.parametrize(
    "scores",
    [
        [0.1, 0.9],
        [0.2, 0.2, 0.2, 0.6, 0.6],
        [0.25] * 40 + [0.75] * 60,
        np.concatenate([np.random.default_rng(720).normal(0.3, 0.05, 300), [0.9] * 3]),
    ],
)
def test_fit_matches_reference_at_variance_floor(scores):
    config = GmmConfig()
    fit = assert_matches_reference(scores, config)
    assert min(fit.var_p, fit.var_n) == config.var_floor


@pytest.mark.parametrize("w_p", [0.0, 1.0])
def test_posterior_rule_matches_reference_with_zero_weight(w_p):
    # a weight of 0 makes that component's log-joint -inf at every score
    scores = np.array([0.05, 0.2, 0.5, 0.55, 0.9])
    fit = GmmFit(w_p, 1.0 - w_p, 0.6, 0.1, 0.05, 0.05, 1, True)
    res = threshold_from_fit(fit, scores)
    assert res.tau == reference_posterior_tau(fit, scores)
    assert res.fallback == (w_p == 0.0)


def test_degenerate_level_boundaries():
    distinct = np.linspace(0.1, 0.9, 20)
    assert is_degenerate_level([])
    assert is_degenerate_level([], GmmConfig(min_level_scores=0))
    assert is_degenerate_level(np.full(30, 0.5))
    assert is_degenerate_level(distinct[:19])
    assert not is_degenerate_level(distinct)
    assert not is_degenerate_level(distinct[:2], GmmConfig(min_level_scores=2))
    assert is_degenerate_level(np.full(2, 0.5), GmmConfig(min_level_scores=2))


# --- thresholds ----------------------------------------------------------------


def test_planted_threshold_separates():
    # the components leave a wide score gap, so the smallest observed
    # qualifying score sits at the bottom of the positive cluster
    scores, labels = planted_scores(np.random.default_rng(3))
    fit = fit_gmm(scores)
    tau = threshold_from_fit(fit, scores).tau
    assert 0.3 < tau < 0.7
    assert np.mean((scores >= tau) == labels) >= 0.99


def test_pure_positive_selects_everything():
    scores = np.array([0.2, 0.5, 0.9])
    fit = GmmFit(1.0, 0.0, 0.6, 0.1, 0.05, 0.05, 1, True)
    res = threshold_from_fit(fit, scores)
    assert res.tau == pytest.approx(0.2)
    assert not res.fallback


def test_pure_negative_falls_back_to_max():
    scores = np.array([0.2, 0.5, 0.9])
    fit = GmmFit(0.0, 1.0, 0.6, 0.1, 0.05, 0.05, 1, True)
    res = threshold_from_fit(fit, scores)
    assert res.tau == pytest.approx(0.9)
    assert res.fallback


def test_symmetric_components_boundary_near_midpoint():
    # equal weights and variances around 0.2 / 0.8: the decision boundary
    # sits at the midpoint
    rng = np.random.default_rng(11)

    def truncated(mu, n):
        out = []
        while len(out) < n:
            v = rng.normal(mu, 0.12, n)
            out.extend(v[(v > 0.01) & (v < 0.99)].tolist())
        return out[:n]

    scores = np.array(truncated(0.2, 2000) + truncated(0.8, 2000))
    fit = fit_gmm(scores)
    tau = threshold_from_fit(fit, scores).tau
    assert abs(tau - 0.5) <= 0.02


@given(score_lists)
@settings(max_examples=40, deadline=None)
def test_threshold_within_observed_range(xs):
    fit = fit_gmm(xs)
    tau = threshold_from_fit(fit, xs).tau
    assert min(xs) <= tau <= max(xs)


# --- per-level vs pooled ---------------------------------------------------------


def cpf_tau(per_level):
    return level_decisions(per_level, FilterMode.CPF)[0].tau


def shifted_levels(rng, n_pos=200, n_neg=600, sigma=0.06):
    # 4-sigma component separation keeps scores dense near each boundary,
    # so the observed-score threshold tracks the analytic midpoint
    per_level = []
    boundaries = {}
    for i, level in enumerate(PyramidLevel):
        mu_n = 0.14 + 0.11 * i
        mu_p = mu_n + 0.24
        scores, _ = planted_scores(
            rng, mu_n=mu_n, mu_p=mu_p, sigma=sigma, n_neg=n_neg, n_pos=n_pos
        )
        per_level.append(LevelScores(level, scores))
        boundaries[level] = (mu_n + mu_p) / 2.0
    return per_level, boundaries


def test_mpf_tracks_per_level_boundaries():
    per_level, boundaries = shifted_levels(np.random.default_rng(0))
    decisions = level_decisions(per_level)
    for d in decisions:
        assert abs(d.tau - boundaries[d.level]) <= 0.05
    pooled_tau = cpf_tau(per_level)
    assert max(abs(d.tau - pooled_tau) for d in decisions) > 0.05


def test_cpf_misclassifies_disjoint_level_ranges():
    # lower level's positives score below the upper level's negatives:
    # one pooled threshold cannot serve both levels
    rng = np.random.default_rng(12)
    low, low_labels = planted_scores(rng, mu_n=0.08, mu_p=0.30, sigma=0.03)
    high, _ = planted_scores(rng, mu_n=0.55, mu_p=0.85, sigma=0.03)
    per_level = [
        LevelScores(PyramidLevel.P3, low),
        LevelScores(PyramidLevel.P7, high),
    ]
    tau = cpf_tau(per_level)
    selected_low = low >= tau
    tp = int(np.sum(selected_low & low_labels))
    recall_low = tp / int(low_labels.sum())
    assert recall_low < 0.5  # most of the lower level's positives lost
    mpf_taus = {d.level: d.tau for d in level_decisions(per_level)}
    mpf_recall_low = np.sum((low >= mpf_taus[PyramidLevel.P3]) & low_labels) / int(
        low_labels.sum()
    )
    assert mpf_recall_low >= 0.95


def test_single_level_mpf_equals_cpf():
    scores, _ = planted_scores(np.random.default_rng(6))
    per_level = [LevelScores(PyramidLevel.P4, scores)]
    (mpf,) = level_decisions(per_level)
    (cpf,) = level_decisions(per_level, FilterMode.CPF)
    assert mpf.tau == cpf.tau and mpf.fit == cpf.fit
    assert not mpf.inherited and cpf.inherited


def test_identical_levels_agree_with_pooled():
    # every level drawn from the same overlapping mixture: per-level
    # thresholds land within sampling noise of the pooled one
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        per_level = [
            LevelScores(
                level,
                planted_scores(
                    rng, mu_n=0.3, mu_p=0.7, sigma=0.1, n_neg=300, n_pos=300
                )[0],
            )
            for level in PyramidLevel
        ]
        pooled_tau = cpf_tau(per_level)
        for d in level_decisions(per_level):
            worst = max(worst, abs(d.tau - pooled_tau))
    assert worst <= 0.03


def test_degenerate_level_inherits_pooled_threshold():
    rng = np.random.default_rng(7)
    rich, _ = planted_scores(rng)
    sparse = np.array([0.4, 0.6, 0.5])  # below the 20-score minimum
    per_level = [
        LevelScores(PyramidLevel.P3, rich),
        LevelScores(PyramidLevel.P7, sparse),
    ]
    pooled_tau = cpf_tau(per_level)
    thresholds = {d.level: d.tau for d in level_decisions(per_level)}
    assert thresholds[PyramidLevel.P7] == pooled_tau
    assert is_degenerate_level(sparse)
    assert not is_degenerate_level(rich)


def test_all_degenerate_falls_back_to_pooled():
    rng = np.random.default_rng(8)
    a = np.clip(rng.normal(0.2, 0.05, 15), 0.01, 0.99)
    b = np.clip(rng.normal(0.8, 0.05, 15), 0.01, 0.99)
    per_level = [
        LevelScores(PyramidLevel.P3, a),
        LevelScores(PyramidLevel.P4, b),
    ]
    pooled_tau = cpf_tau(per_level)
    for d in level_decisions(per_level):
        assert d.tau == pooled_tau and d.inherited


def test_mpf_decisions_record_inheritance_and_fallback():
    rng = np.random.default_rng(7)
    rich, _ = planted_scores(rng)
    sparse = np.array([0.4, 0.6, 0.5])
    per_level = [
        LevelScores(PyramidLevel.P3, rich),
        LevelScores(PyramidLevel.P7, sparse),
    ]
    decisions = level_decisions(per_level)
    assert [d.level for d in decisions] == [PyramidLevel.P3, PyramidLevel.P7]
    assert [d.inherited for d in decisions] == [False, True]
    assert all(isinstance(d, LevelDecision) and not d.fallback for d in decisions)
    pooled = np.concatenate([rich, sparse])
    assert decisions[1].fit == fit_gmm(pooled)
    assert decisions[1].tau == cpf_tau(per_level)
    assert decisions[0].fit == fit_gmm(rich)


def fallback_scores():
    rng = np.random.default_rng(4)
    return np.clip(
        np.concatenate([rng.normal(0.4, 0.1, 150), rng.normal(0.45, 0.02, 30)]), 0.01, 0.99
    )


def test_mpf_decisions_record_fallback():
    # a tight cluster inside a broad one: the higher-mean component wins at
    # no observed score, so the threshold is pinned to the top score
    decision = level_decisions([LevelScores(PyramidLevel.P4, fallback_scores())])[0]
    assert decision.fallback and not decision.inherited
    assert decision.tau == fallback_scores().max()


def test_cpf_decisions_all_inherit_one_pooled_fit():
    rng = np.random.default_rng(13)
    per_level, _ = shifted_levels(rng, n_pos=50, n_neg=150)
    per_level.append(LevelScores(PyramidLevel.P7, np.array([0.3, 0.6])))
    pooled = np.concatenate([ls.scores for ls in per_level])
    fit = fit_gmm(pooled)
    res = threshold_from_fit(fit, pooled)
    decisions = level_decisions(per_level, FilterMode.CPF)
    assert decisions == [
        LevelDecision(ls.level, fit, res.tau, True, res.fallback) for ls in per_level
    ]
    assert level_decisions(per_level, "cpf") == decisions
    with pytest.raises(ValueError):
        level_decisions(per_level, "pooled")


def test_everything_degenerate_rejected():
    per_level = [LevelScores(PyramidLevel.P3, np.full(30, 0.5))]
    for mode in FilterMode:
        with pytest.raises(DegenerateInputError):
            level_decisions(per_level, mode)
        with pytest.raises(DegenerateInputError):
            level_decisions([], mode)


def test_empty_levels_do_not_change_pooling():
    scores, _ = planted_scores(np.random.default_rng(9))
    with_empty = [
        LevelScores(PyramidLevel.P3, scores),
        LevelScores(PyramidLevel.P5, np.array([])),
    ]
    without = [LevelScores(PyramidLevel.P3, scores)]
    assert cpf_tau(with_empty) == cpf_tau(without)


# --- level_decisions against the routines it replaced ---------------------------
#
# Test-only copies of filtering.cpf_filter and filtering.mpf_decisions as they
# were before level_decisions served both modes.


def reference_fit_threshold(scores, config):
    fit = fit_gmm(scores, config)
    return fit, threshold_from_fit(fit, scores)


def reference_cpf_filter(per_level, config=GmmConfig()):
    pooled = np.concatenate([ls.scores for ls in per_level]) if per_level else np.array([])
    return reference_fit_threshold(pooled, config)[1]


def reference_mpf_decisions(per_level, config=GmmConfig()):
    if not per_level:
        raise DegenerateInputError("no levels given")
    degenerate = [is_degenerate_level(ls.scores, config) for ls in per_level]
    pooled = None
    if any(degenerate):
        pooled = reference_fit_threshold(np.concatenate([ls.scores for ls in per_level]), config)
    out = []
    for ls, inherited in zip(per_level, degenerate):
        fit, res = pooled if inherited else reference_fit_threshold(ls.scores, config)
        out.append(LevelDecision(ls.level, fit, res.tau, inherited, res.fallback))
    return out


def oracle_inputs(seed):
    """Per-level score sets: rich levels, one degenerate level, every level
    degenerate, a fallback level, empty levels, a constant level."""
    rng = np.random.default_rng(seed)
    levels = list(PyramidLevel)

    def rich():
        n = int(rng.integers(20, 400))
        mu_n = rng.uniform(0.1, 0.5)
        return planted_scores(rng, mu_n=mu_n, mu_p=mu_n + rng.uniform(0.1, 0.4),
                              sigma=rng.uniform(0.02, 0.1), n_neg=n, n_pos=int(rng.integers(5, n)))[0]

    def sparse():
        return np.clip(rng.uniform(0.05, 0.95, int(rng.integers(2, 20))), 0.01, 0.99)

    sets = [
        [rich() for _ in levels],
        [rich(), rich(), sparse(), rich()],
        [sparse() for _ in levels],
        [rich(), rng.permutation(fallback_scores()), rich()],
        [rich(), np.array([]), rich(), np.array([])],
        [np.array([]), sparse(), np.array([])],
        [rich(), np.full(40, 0.37), rich()],
    ]
    return [[LevelScores(lvl, sc) for lvl, sc in zip(levels, s)] for s in sets]


@pytest.mark.parametrize("seed", range(8))
def test_level_decisions_match_reference(seed):
    kinds = set()
    for per_level in oracle_inputs(seed):
        mpf = level_decisions(per_level, FilterMode.MPF)
        assert mpf == reference_mpf_decisions(per_level)
        cpf = level_decisions(per_level, FilterMode.CPF)
        tau = reference_cpf_filter(per_level).tau
        assert [d.tau for d in cpf] == [tau] * len(per_level)
        assert all(d.inherited for d in cpf)
        kinds |= {(d.inherited, d.fallback) for d in mpf}
    assert {(False, False), (True, False), (False, True)} <= kinds


# --- selection: score >= tau per level ------------------------------------------


def test_selection_empty_when_all_below():
    scores = planted_scores(np.random.default_rng(0))[0]
    tau = level_decisions([LevelScores(PyramidLevel.P3, scores)])[0].tau
    assert not np.any(np.array([0.01, 0.02]) >= tau)


def test_selection_boundary_inclusive():
    # tau is an observed score, and the simulator selects score >= tau: a
    # level with its own fit selects at least its threshold score, an
    # inherited one a count that a replay of the draws reproduces
    scenario = SimScenario(
        (LevelPlan(PyramidLevel.P3, 60, 140, 0.7, 0.3, 0.1),
         LevelPlan(PyramidLevel.P5, 40, 90, 0.75, 0.35, 0.08, drift=0.02),
         LevelPlan(PyramidLevel.P7, 6, 8, 0.8, 0.2, 0.1)),  # under 20 scores: inherits
        rounds=3, seed=21,
    )
    for mode in FilterMode:
        report = run_simulation(scenario, mode)
        rows = iter(report.rows)
        rng = np.random.default_rng(scenario.seed)
        for rnd in range(scenario.rounds):
            per_level = []
            for plan in scenario.levels:
                pos = rng.normal(plan.mu_p + rnd * plan.drift, plan.sigma, plan.n_pos)
                neg = rng.normal(plan.mu_n - rnd * plan.drift, plan.sigma, plan.n_neg)
                per_level.append(np.clip(np.concatenate([pos, neg]), 1e-6, 1 - 1e-6))
            pooled = np.concatenate(per_level)
            for scores in per_level:
                row = next(rows)
                assert row.tau in pooled
                assert row.n_selected == int(np.sum(scores >= row.tau))
                if row.tau in scores:
                    assert row.n_selected > int(np.sum(scores > row.tau)) >= 0
            round_rows = report.rows[rnd * 3 : rnd * 3 + 3]
            assert all(r.n_selected >= 1 for r in round_rows[:2])
            if mode is FilterMode.MPF:
                assert all(r.tau in s for r, s in zip(round_rows[:2], per_level))


def test_selection_f1_on_planted_mixture():
    scores, labels = planted_scores(np.random.default_rng(10))
    tau = level_decisions([LevelScores(PyramidLevel.P5, scores)])[0].tau
    chosen = scores >= tau
    tp = int(np.sum(chosen & labels))
    precision = tp / int(chosen.sum())
    recall = tp / int(labels.sum())
    f1 = 2 * precision * recall / (precision + recall)
    assert f1 >= 0.95
