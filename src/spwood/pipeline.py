"""Teacher-student staging and a desk-scale self-training simulator.

The simulator replaces a detector with planted per-level score
distributions: each round draws positive and negative confidences per
pyramid level, filters them with MPF or CPF, and scores the selection
against the planted labels. Randomness flows through one seeded
numpy PCG64 generator, so reports are bit-reproducible per seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .filtering import FilterMode, GmmConfig, LevelScores, PyramidLevel, level_decisions

DEFAULT_EMA_MOMENTUM = 0.999
DEFAULT_BURN_IN_ITERS = 12800

_SCORE_EPS = 1e-6  # draws are clipped into (eps, 1 - eps)


class Stage(enum.Enum):
    BURN_IN = "burn-in"
    SELF_TRAINING = "self-training"


def ema_update(teacher, student, momentum: float = DEFAULT_EMA_MOMENTUM) -> np.ndarray:
    """Exponential moving average of parameters:
    out = momentum * teacher + (1 - momentum) * student."""
    t = np.asarray(teacher, dtype=float)
    s = np.asarray(student, dtype=float)
    if t.shape != s.shape:
        raise InvalidInputError(
            f"parameter shapes differ: {t.shape} vs {s.shape}"
        )
    if not 0.0 <= momentum <= 1.0:
        raise InvalidInputError(f"momentum must be in [0, 1], got {momentum}")
    return momentum * t + (1.0 - momentum) * s


@dataclass(frozen=True)
class StageState:
    """Training-stage marker; burn-in holds until the configured iteration."""

    iteration: int = 0
    burn_in_iters: int = DEFAULT_BURN_IN_ITERS

    def __post_init__(self):
        if self.iteration < 0 or self.burn_in_iters < 0:
            raise InvalidInputError("iteration counts must be nonnegative")

    @property
    def stage(self) -> Stage:
        return Stage.BURN_IN if self.iteration < self.burn_in_iters else Stage.SELF_TRAINING


def advance_stage(state: StageState) -> StageState:
    """Step one iteration; the stage flips to self-training exactly when
    the iteration counter reaches the burn-in length."""
    return replace(state, iteration=state.iteration + 1)


@dataclass(frozen=True)
class LevelPlan:
    """Planted score distribution for one pyramid level.

    Positives draw from N(mu_p, sigma^2) and negatives from
    N(mu_n, sigma^2), clipped into (0, 1). Per round r the means move
    apart by r * drift, emulating a teacher that improves with training.
    """

    level: PyramidLevel
    n_pos: int
    n_neg: int
    mu_p: float
    mu_n: float
    sigma: float
    drift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "level", PyramidLevel(self.level))
        if self.n_pos < 0 or self.n_neg < 0:
            raise InvalidInputError("sample counts must be nonnegative")
        if not (0.0 < self.mu_n < 1.0 and 0.0 < self.mu_p < 1.0):
            raise InvalidInputError("means must lie in (0, 1)")
        if self.mu_p <= self.mu_n:
            raise InvalidInputError("mu_p must exceed mu_n")
        if self.sigma <= 0.0:
            raise InvalidInputError("sigma must be positive")


@dataclass(frozen=True)
class SimScenario:
    levels: tuple[LevelPlan, ...]
    rounds: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise InvalidInputError("scenario needs at least one level")
        if self.rounds < 1:
            raise InvalidInputError("scenario needs at least one round")
        if sum(p.n_pos for p in self.levels) < 1:
            raise InvalidInputError("scenario plants no positives")
        names = [p.level for p in self.levels]
        if len(set(names)) != len(names):
            raise InvalidInputError("duplicate level in scenario")


@dataclass(frozen=True)
class RoundLevelResult:
    round: int
    level: PyramidLevel
    tau: float
    precision: float
    recall: float
    f1: float
    n_selected: int


@dataclass(frozen=True)
class SimulationReport:
    mode: FilterMode
    seed: int
    rows: tuple[RoundLevelResult, ...]

    @property
    def mean_f1(self) -> float:
        return float(np.mean([r.f1 for r in self.rows]))


def _prf(selected: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    tp = int(np.sum(selected & labels))
    n_sel = int(selected.sum())
    n_pos = int(labels.sum())
    precision = tp / n_sel if n_sel else 0.0
    recall = tp / n_pos if n_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def run_simulation(
    scenario: SimScenario,
    filter_mode: FilterMode = FilterMode.MPF,
    config: GmmConfig = GmmConfig(),
    seed: int | None = None,
) -> SimulationReport:
    """Run the planted-score self-training loop and report per-round,
    per-level selection quality against the planted labels.

    Draw order is fixed (rounds outer, levels in scenario order,
    positives before negatives), so a given seed always produces the
    same report. ``seed`` overrides the scenario's own seed.
    """
    filter_mode = FilterMode(filter_mode)
    used_seed = scenario.seed if seed is None else seed
    rng = np.random.default_rng(used_seed)
    rows: list[RoundLevelResult] = []
    for rnd in range(scenario.rounds):
        per_level: list[LevelScores] = []
        labels_by_level: dict[PyramidLevel, np.ndarray] = {}
        for plan in scenario.levels:
            mu_p = plan.mu_p + rnd * plan.drift
            mu_n = plan.mu_n - rnd * plan.drift
            pos = rng.normal(mu_p, plan.sigma, plan.n_pos)
            neg = rng.normal(mu_n, plan.sigma, plan.n_neg)
            scores = np.clip(
                np.concatenate([pos, neg]), _SCORE_EPS, 1.0 - _SCORE_EPS
            )
            per_level.append(LevelScores(plan.level, scores))
            labels_by_level[plan.level] = np.concatenate(
                [np.ones(plan.n_pos, dtype=bool), np.zeros(plan.n_neg, dtype=bool)]
            )
        for ls, decision in zip(per_level, level_decisions(per_level, filter_mode, config)):
            tau = decision.tau
            selected = ls.scores >= tau
            precision, recall, f1 = _prf(selected, labels_by_level[ls.level])
            rows.append(
                RoundLevelResult(
                    round=rnd,
                    level=ls.level,
                    tau=tau,
                    precision=precision,
                    recall=recall,
                    f1=f1,
                    n_selected=int(selected.sum()),
                )
            )
    return SimulationReport(mode=filter_mode, seed=used_seed, rows=tuple(rows))


@dataclass(frozen=True)
class PairedSummary:
    """Head-to-head MPF vs CPF outcome over repeated seeded runs;
    reports[i] holds repeat i's (mpf, cpf) simulation reports."""

    repeats: int
    mpf_mean_f1: float
    cpf_mean_f1: float
    wins: int
    losses: int
    ties: int
    sign_test_p: float
    reports: tuple[tuple[SimulationReport, SimulationReport], ...]

    def describe(self) -> str:
        return (
            f"repeats={self.repeats} mpf_mean_f1={self.mpf_mean_f1:.6f} "
            f"cpf_mean_f1={self.cpf_mean_f1:.6f} wins={self.wins}/{self.repeats} "
            f"sign_test_p={self.sign_test_p:.3g}"
        )


def sign_test_p_value(wins: int, losses: int) -> float:
    """One-sided exact sign test: probability of at least ``wins``
    successes in wins + losses fair coin flips (ties already removed)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(wins, n + 1))
    return tail / 2.0**n


def paired_comparison(
    scenario: SimScenario,
    repeats: int,
    base_seed: int | None = None,
    config: GmmConfig = GmmConfig(),
) -> PairedSummary:
    """Run MPF and CPF on identical seeds and compare mean selection F1.

    Repeat i uses seed base_seed + i for both modes, so each pair sees
    exactly the same planted draws.
    """
    if repeats < 1:
        raise InvalidInputError("need at least one repeat")
    start = scenario.seed if base_seed is None else base_seed
    modes = (FilterMode.MPF, FilterMode.CPF)
    reports = tuple(
        tuple(run_simulation(scenario, mode, config, seed=start + i) for mode in modes)
        for i in range(repeats)
    )
    mpf_f1 = np.array([mpf.mean_f1 for mpf, _ in reports])
    cpf_f1 = np.array([cpf.mean_f1 for _, cpf in reports])
    wins = int(np.sum(mpf_f1 > cpf_f1))
    losses = int(np.sum(mpf_f1 < cpf_f1))
    ties = repeats - wins - losses
    return PairedSummary(
        repeats=repeats,
        mpf_mean_f1=float(mpf_f1.mean()),
        cpf_mean_f1=float(cpf_f1.mean()),
        wins=wins,
        losses=losses,
        ties=ties,
        sign_test_p=sign_test_p_value(wins, losses),
        reports=reports,
    )


# --- scenario files ---------------------------------------------------------
#
# Flat key = value lines; '#' starts a comment; blank lines ignored.
# Top-level keys: rounds (required), seed (optional, default 0).
# Per-level keys: <LEVEL>.<field> with LEVEL one of P3..P7 and field one
# of n_pos, n_neg, mu_p, mu_n, sigma, drift (drift optional, default 0).

_LEVEL_FIELDS = {"n_pos", "n_neg", "mu_p", "mu_n", "sigma", "drift"}
_REQUIRED_LEVEL_FIELDS = {"n_pos", "n_neg", "mu_p", "mu_n", "sigma"}
_INT_FIELDS = {"n_pos", "n_neg", "rounds", "seed"}


def parse_scenario(text: str) -> SimScenario:
    """Parse the flat key = value scenario format."""
    top: dict[str, int] = {}
    levels: dict[str, dict[str, float]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"scenario line {line_no}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            num = float(value)
        except ValueError as exc:
            raise InvalidInputError(
                f"scenario line {line_no}: bad number {value!r}"
            ) from exc
        if "." in key:
            level_name, _, name = key.partition(".")
            try:
                PyramidLevel(level_name)
            except ValueError as exc:
                raise InvalidInputError(
                    f"scenario line {line_no}: unknown level {level_name!r}"
                ) from exc
            if name not in _LEVEL_FIELDS:
                raise InvalidInputError(
                    f"scenario line {line_no}: unknown field {name!r}"
                )
            fields = levels.setdefault(level_name, {})
        elif key in ("rounds", "seed"):
            name, fields = key, top
        else:
            raise InvalidInputError(f"scenario line {line_no}: unknown key {key!r}")
        if name in _INT_FIELDS and not num.is_integer():
            raise InvalidInputError(f"scenario line {line_no}: {key} must be an integer, got {value!r}")
        fields[name] = int(num) if name in _INT_FIELDS else num
    if "rounds" not in top:
        raise InvalidInputError("scenario is missing 'rounds'")
    plans = []
    for name in (lvl.value for lvl in PyramidLevel):
        if name not in levels:
            continue
        fields = levels[name]
        missing = _REQUIRED_LEVEL_FIELDS - fields.keys()
        if missing:
            raise InvalidInputError(
                f"level {name} is missing {sorted(missing)}"
            )
        plans.append(LevelPlan(level=PyramidLevel(name), **fields))
    if not plans:
        raise DegenerateInputError("scenario defines no levels")
    return SimScenario(
        levels=tuple(plans), rounds=top["rounds"], seed=top.get("seed", 0)
    )


def load_scenario(path) -> SimScenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
