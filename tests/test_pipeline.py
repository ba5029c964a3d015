import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spwood import filtering
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
    load_scenario,
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


@pytest.mark.parametrize("shape", [(), (3,), (2, 4), (3, 5000), (2**12 + 1,)])
@pytest.mark.parametrize("momentum", [0.0, 1.0, 0.999, 0.37, 0, 1, np.float32(0.9)])
def test_ema_equals_the_plain_formula(shape, momentum):
    """Bit for bit, in shape and in type: a 0-d pair still gives a numpy scalar."""
    rng = np.random.default_rng(len(shape))
    t, s = rng.normal(size=shape), rng.normal(size=shape)
    want = momentum * t + (1.0 - momentum) * s
    for got in (ema_update(t, s, momentum), ema_update(t.tolist(), s.tolist(), momentum)):
        assert type(got) is type(want) and np.shape(got) == shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    t = rng.normal(size=(7, 6)).T  # Fortran-ordered input
    assert np.array_equal(ema_update(t, t[::-1], momentum), momentum * t + (1.0 - momentum) * t[::-1])


def test_ema_memory_is_its_output_plus_a_block():
    rng = np.random.default_rng(0)
    t, s = rng.normal(size=200_000), rng.normal(size=200_000)
    tracemalloc.start()
    try:
        out = ema_update(t, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 64 * 2**10  # the whole-array form took two more arrays


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
    assert str(exc.value) == f"line {line_no}: {key} must be an integer, got {value!r}"


def test_scenario_line_errors_name_the_file_read(tmp_path):
    text = "rounds = 1\n\nP3.n_pos 40\n"
    with pytest.raises(InvalidInputError) as exc:
        parse_scenario(text)
    assert str(exc.value) == "line 3: expected key = value"
    path = tmp_path / "scen.txt"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as exc:
        load_scenario(path)
    assert str(exc.value) == f"{path}: line 3: expected key = value"


@pytest.mark.parametrize("field, value, want", [
    ("sigma", "inf", "P3: sigma must be finite and positive, got inf"),
    ("sigma", "nan", "P3: sigma must be finite and positive, got nan"),
    ("sigma", "0", "P3: sigma must be finite and positive, got 0.0"),
    ("drift", "nan", "P3: drift must be finite, got nan"),
    ("drift", "inf", "P3: drift must be finite, got inf"),
    ("drift", "-1e400", "P3: drift must be finite, got -inf"),
    ("mu_p", "nan", "P3: mu_p must be finite, got nan"),
    ("mu_n", "-inf", "P3: mu_n must be finite, got -inf"),
])
def test_parse_scenario_rejects_non_finite_level_values(field, value, want):
    with pytest.raises(InvalidInputError) as exc:
        parse_scenario(f"{SCENARIO_TEXT}P3.{field} = {value}\n")
    assert str(exc.value) == want


def test_a_large_finite_drift_is_clipped():
    scen = parse_scenario(f"{SCENARIO_TEXT}P3.drift = 1e300\n")
    assert scen.levels[0].drift == 1e300
    assert len(run_simulation(scen, "mpf").rows) == 6


@pytest.mark.parametrize("seed", ["-1", "-4"])
def test_parse_scenario_rejects_a_negative_seed(seed):
    with pytest.raises(InvalidInputError) as exc:
        parse_scenario(SCENARIO_TEXT.replace("seed = 12", f"seed = {seed}"))
    assert str(exc.value) == f"scenario seed must be nonnegative, got {seed}"


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


@pytest.mark.parametrize("seed", [-1, -7])
def test_negative_seed_arguments_are_input_errors(seed):
    """numpy's generator takes no negative seed: the error names the value."""
    with pytest.raises(InvalidInputError, match=rf"^seed must be nonnegative, got {seed}$"):
        run_simulation(shifted_scenario(), FilterMode.MPF, seed=seed)
    with pytest.raises(InvalidInputError, match=rf"^base_seed must be nonnegative, got {seed}$"):
        paired_comparison(shifted_scenario(), repeats=2, base_seed=seed)


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "4"])
def test_non_integer_seed_arguments_are_input_errors(seed):
    """numpy's generator takes only an integer seed: the error names the value."""
    with pytest.raises(InvalidInputError) as exc:
        run_simulation(shifted_scenario(), FilterMode.MPF, seed=seed)
    assert str(exc.value) == f"seed must be an integer, got {seed}"
    with pytest.raises(InvalidInputError) as exc:
        paired_comparison(shifted_scenario(), repeats=2, base_seed=seed)
    assert str(exc.value) == f"base_seed must be an integer, got {seed}"
    with pytest.raises(InvalidInputError) as exc:
        SimScenario(shifted_scenario().levels, rounds=1, seed=seed)
    assert str(exc.value) == f"scenario seed must be an integer, got {seed}"


def test_numpy_integer_seeds_are_integers():
    scen = shifted_scenario(rounds=1)
    assert run_simulation(scen, FilterMode.MPF, seed=np.int64(5)) == run_simulation(scen, FilterMode.MPF, seed=5)


def test_each_score_set_is_fitted_once_per_round(monkeypatch):
    """tests/data/scen.txt has four rounds of P3 and P4, rich enough for fits
    of their own, and P5, whose 7 scores inherit the pool under MPF. A
    paired repeat draws each round once and fits P3, P4 and the pool once,
    the pool serving both modes: 3 fits a round, against 3 + 1 for two
    single-mode runs."""
    fits = []
    fit_gmm = filtering.fit_gmm
    monkeypatch.setattr(filtering, "fit_gmm", lambda scores: fits.append(len(scores)) or fit_gmm(scores))
    scen = load_scenario(Path(__file__).parent / "data" / "scen.txt")
    paired_comparison(scen, repeats=3)
    assert len(fits) == 36
    for mode, want in (("mpf", 12), ("cpf", 4)):
        fits.clear()
        run_simulation(scen, mode)
        assert len(fits) == want


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


@pytest.mark.parametrize("wins, losses", [(1024, 0), (600, 600), (0, 1100), (1023, 0), (700, 300)])
def test_sign_test_is_exact_past_the_float_range_of_2_to_the_n(wins, losses):
    """From wins + losses = 1024 on, 2.0**n overflows; the p-value is the
    exact tail fraction, rounded once."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(wins, n + 1))
    assert sign_test_p_value(wins, losses) == float(Fraction(tail, 2**n))


def test_sign_test_of_1024_straight_wins_is_two_to_the_minus_1024():
    assert sign_test_p_value(1024, 0) == math.ldexp(1.0, -1024) > 0.0
