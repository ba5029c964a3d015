import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spwood.errors import DegenerateInputError, InvalidInputError
from spwood.filtering import PyramidLevel
from spwood.pipeline import (
    DEFAULT_BURN_IN_ITERS,
    FilterMode,
    LevelPlan,
    SimScenario,
    Stage,
    StageState,
    advance_stage,
    ema_update,
    paired_comparison,
    parse_scenario,
    run_simulation,
    sign_test_p_value,
)

# --- EMA -----------------------------------------------------------------------


def test_ema_momentum_extremes():
    t = np.array([1.0, 2.0])
    s = np.array([3.0, 5.0])
    assert np.array_equal(ema_update(t, s, 0.0), s)
    assert np.array_equal(ema_update(t, s, 1.0), t)
    assert np.array_equal(ema_update([1.0], [0.0], 0.5), [0.5])


def test_ema_dim_mismatch():
    with pytest.raises(InvalidInputError):
        ema_update([1.0, 2.0], [1.0], 0.9)


@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    st.floats(0.0, 1.0),
    st.integers(0, 100),
)
@settings(max_examples=50)
def test_ema_is_convex_combination(values, momentum, offset):
    t = np.array(values)
    s = t + offset
    out = ema_update(t, s, momentum)
    lo, hi = np.minimum(t, s), np.maximum(t, s)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_ema_geometric_decay():
    rng = np.random.default_rng(0)
    teacher = rng.normal(size=16)
    student = rng.normal(size=16)
    initial_gap = np.linalg.norm(teacher - student)
    m = 0.999
    current = teacher
    for k in range(1, 1001):
        current = ema_update(current, student, m)
        expected = m**k * initial_gap
        assert np.linalg.norm(current - student) == pytest.approx(expected, abs=1e-9)


# --- staging -------------------------------------------------------------------


def test_fresh_state_is_burn_in():
    assert StageState().stage is Stage.BURN_IN
    assert StageState().burn_in_iters == DEFAULT_BURN_IN_ITERS == 12800


def test_stage_flips_exactly_at_burn_in():
    state = StageState(iteration=99, burn_in_iters=100)
    assert state.stage is Stage.BURN_IN
    nxt = advance_stage(state)
    assert nxt.iteration == 100
    assert nxt.stage is Stage.SELF_TRAINING


def test_self_training_is_absorbing():
    state = StageState(iteration=5000, burn_in_iters=100)
    assert advance_stage(state).stage is Stage.SELF_TRAINING


def test_replaying_iterations_reproduces_stages():
    def trajectory():
        state = StageState(burn_in_iters=7)
        seen = []
        for _ in range(20):
            seen.append(state.stage)
            state = advance_stage(state)
        return seen

    assert trajectory() == trajectory()
    assert trajectory()[6] is Stage.BURN_IN and trajectory()[7] is Stage.SELF_TRAINING


# --- scenarios -----------------------------------------------------------------

SCENARIO_TEXT = """
# demo scenario
rounds = 3
seed = 12
P3.n_pos = 40
P3.n_neg = 160
P3.mu_p = 0.8
P3.mu_n = 0.2
P3.sigma = 0.05
P4.n_pos = 40
P4.n_neg = 160
P4.mu_p = 0.7
P4.mu_n = 0.15
P4.sigma = 0.05
P4.drift = 0.01
"""


def test_parse_scenario():
    scen = parse_scenario(SCENARIO_TEXT)
    assert scen.rounds == 3 and scen.seed == 12
    assert [p.level for p in scen.levels] == [PyramidLevel.P3, PyramidLevel.P4]
    assert scen.levels[1].drift == pytest.approx(0.01)
    assert scen.levels[0].n_neg == 160


@pytest.mark.parametrize(
    "broken",
    [
        "rounds = 1\nP9.mu_p = 0.5\n",
        "rounds = 1\nP3.bogus = 0.5\n",
        "rounds = 1\nwhat = 2\n",
        "rounds = 1\nP3.n_pos 40\n",
        "rounds = x\n",
    ],
)
def test_parse_scenario_bad_lines(broken):
    with pytest.raises(InvalidInputError):
        parse_scenario(broken)


@pytest.mark.parametrize("key", ["seed", "rounds", "P3.n_pos", "P4.n_neg"])
@pytest.mark.parametrize("value", ["1.5", "2.7", "5.9", "nan", "inf", "-inf", "1e400"])
def test_parse_scenario_rejects_non_integer_counts(key, value):
    text = f"{SCENARIO_TEXT}{key} = {value}\n"
    line_no = text.count("\n")
    with pytest.raises(InvalidInputError) as exc:
        parse_scenario(text)
    assert str(exc.value) == f"scenario line {line_no}: {key} must be an integer, got {value!r}"


def test_parse_scenario_integral_floats_are_integers():
    text = SCENARIO_TEXT.replace("rounds = 3", "rounds = 3.0").replace("seed = 12", "seed = 1.2e1")
    scen = parse_scenario(text.replace("P3.n_neg = 160", "P3.n_neg = 160.0"))
    assert scen == parse_scenario(SCENARIO_TEXT)
    assert (type(scen.rounds), type(scen.seed), type(scen.levels[0].n_neg)) == (int, int, int)


def test_parse_scenario_requires_rounds_and_levels():
    with pytest.raises(InvalidInputError):
        parse_scenario("seed = 1\nP3.n_pos = 1\n")
    with pytest.raises(DegenerateInputError):
        parse_scenario("rounds = 2\n")
    with pytest.raises(InvalidInputError):
        parse_scenario("rounds = 2\nP3.n_pos = 5\nP3.mu_p = 0.8\n")


def test_zero_rounds_rejected():
    with pytest.raises(InvalidInputError):
        parse_scenario(SCENARIO_TEXT.replace("rounds = 3", "rounds = 0"))


def test_no_positives_rejected():
    with pytest.raises(InvalidInputError):
        SimScenario(
            (LevelPlan(PyramidLevel.P3, 0, 100, 0.8, 0.2, 0.05),), rounds=1
        )


# --- simulation ----------------------------------------------------------------


def well_separated_scenario(rounds=4, drift=0.0):
    plans = tuple(
        LevelPlan(level, 100, 300, 0.8, 0.2, 0.05, drift) for level in PyramidLevel
    )
    return SimScenario(plans, rounds=rounds, seed=3)


def shifted_scenario(rounds=3):
    plans = []
    for i, level in enumerate(PyramidLevel):
        mu_n = 0.06 + 0.12 * i
        plans.append(LevelPlan(level, 150, 450, mu_n + 0.34, mu_n, 0.04))
    return SimScenario(tuple(plans), rounds=rounds, seed=0)


def test_separated_scenario_high_f1_every_round():
    report = run_simulation(well_separated_scenario(), FilterMode.MPF)
    assert all(r.f1 >= 0.95 for r in report.rows)


def test_identical_seeds_identical_reports():
    a = run_simulation(shifted_scenario(), FilterMode.MPF, seed=17)
    b = run_simulation(shifted_scenario(), FilterMode.MPF, seed=17)
    assert a == b


def test_mpf_beats_cpf_on_shifted_levels():
    summary = paired_comparison(shifted_scenario(), repeats=10, base_seed=0)
    assert summary.mpf_mean_f1 > summary.cpf_mean_f1
    assert summary.wins > summary.losses


def test_paired_summary_keeps_each_repeats_reports():
    scen = shifted_scenario()
    summary = paired_comparison(scen, repeats=3, base_seed=40)
    assert summary.reports == tuple(
        tuple(run_simulation(scen, mode, seed=40 + i) for mode in (FilterMode.MPF, FilterMode.CPF))
        for i in range(3)
    )
    assert summary.mpf_mean_f1 == float(np.mean([mpf.mean_f1 for mpf, _ in summary.reports]))


def test_drift_increases_separation():
    scen = well_separated_scenario(rounds=5, drift=0.01)
    report = run_simulation(scen, FilterMode.MPF)
    by_round = {}
    for row in report.rows:
        by_round.setdefault(row.round, []).append(row.f1)
    means = [float(np.mean(v)) for _, v in sorted(by_round.items())]
    assert means[-1] >= means[0] - 1e-9


def test_report_rows_cover_rounds_and_levels():
    scen = shifted_scenario(rounds=2)
    report = run_simulation(scen, FilterMode.CPF)
    assert len(report.rows) == 2 * len(scen.levels)
    taus = {r.tau for r in report.rows if r.round == 0}
    assert len(taus) == 1  # pooled filter shares one threshold per round


def test_sign_test_values():
    assert sign_test_p_value(10, 0) == pytest.approx(0.5**10)
    assert sign_test_p_value(0, 0) == 1.0
    assert sign_test_p_value(5, 5) == pytest.approx(
        sum(math.comb(10, k) for k in range(5, 11)) / 2**10
    )
