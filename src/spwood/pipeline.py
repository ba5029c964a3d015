"""Teacher-student staging and a desk-scale self-training simulator.

The simulator replaces a detector with planted per-level score
distributions: each round draws positive and negative confidences per
pyramid level, filters them with MPF, CPF or both, and scores each
selection against the planted labels. One round loop serves any set of
modes, so the paired MPF-vs-CPF comparison draws each round once.
Randomness flows through one seeded numpy PCG64 generator, so reports
are bit-reproducible per seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, LineError, check_seed, numbered_lines, read_text
from .filtering import FilterMode, LevelScores, PyramidLevel, level_decisions

DEFAULT_EMA_MOMENTUM = 0.999
DEFAULT_BURN_IN_ITERS = 12800
_EMA_BLOCK = 2**12  # student elements weighted per step of ema_update

_SCORE_EPS = 1e-6  # draws are clipped into (eps, 1 - eps)


class Stage(enum.Enum):
    BURN_IN = "burn-in"
    SELF_TRAINING = "self-training"


def ema_update(teacher, student, momentum: float = DEFAULT_EMA_MOMENTUM) -> np.ndarray:
    """Exponential moving average of parameters:
    out = momentum * teacher + (1 - momentum) * student.

    Allocates the output plus one block of the weighted student at a time."""
    t = np.asarray(teacher, dtype=float)
    s = np.asarray(student, dtype=float)
    if t.shape != s.shape:
        raise InvalidInputError(
            f"parameter shapes differ: {t.shape} vs {s.shape}"
        )
    if not 0.0 <= momentum <= 1.0:
        raise InvalidInputError(f"momentum must be in [0, 1], got {momentum}")
    out = np.multiply(momentum, t, out=np.empty(t.shape))
    flat, s = out.reshape(-1), s.reshape(-1)  # out is C-contiguous, so flat is a view
    for i in range(0, flat.size, _EMA_BLOCK):
        flat[i : i + _EMA_BLOCK] += (1.0 - momentum) * s[i : i + _EMA_BLOCK]
    return out if out.ndim else out[()]


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
        for name, value in (("mu_p", self.mu_p), ("mu_n", self.mu_n), ("drift", self.drift)):
            if not math.isfinite(value):
                raise InvalidInputError(f"{self.level.value}: {name} must be finite, got {value}")
        if not 0.0 < self.sigma < math.inf:
            raise InvalidInputError(f"{self.level.value}: sigma must be finite and positive, got {self.sigma}")
        if self.n_pos < 0 or self.n_neg < 0:
            raise InvalidInputError("sample counts must be nonnegative")
        if not (0.0 < self.mu_n < 1.0 and 0.0 < self.mu_p < 1.0):
            raise InvalidInputError("means must lie in (0, 1)")
        if self.mu_p <= self.mu_n:
            raise InvalidInputError("mu_p must exceed mu_n")


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
        check_seed(self.seed, "scenario seed")
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


def _simulate(scenario: SimScenario, modes: tuple[FilterMode, ...], seed: int) -> list[SimulationReport]:
    """One report per mode of ``modes`` from one pass of rounds: each round
    draws every level once, and every mode filters those same draws."""
    rng = np.random.default_rng(seed)
    rows: list[list[RoundLevelResult]] = [[] for _ in modes]
    for rnd in range(scenario.rounds):
        per_level: list[LevelScores] = []
        labels: list[np.ndarray] = []
        for plan in scenario.levels:
            mu_p = plan.mu_p + rnd * plan.drift
            mu_n = plan.mu_n - rnd * plan.drift
            pos = rng.normal(mu_p, plan.sigma, plan.n_pos)
            neg = rng.normal(mu_n, plan.sigma, plan.n_neg)
            scores = np.clip(np.concatenate([pos, neg]), _SCORE_EPS, 1.0 - _SCORE_EPS)
            per_level.append(LevelScores(plan.level, scores))
            labels.append(np.arange(plan.n_pos + plan.n_neg) < plan.n_pos)  # positives first
        for mode_rows, decisions in zip(rows, level_decisions(per_level, modes)):
            for ls, is_pos, decision in zip(per_level, labels, decisions):
                selected = ls.scores >= decision.tau
                mode_rows.append(
                    RoundLevelResult(rnd, ls.level, decision.tau, *_prf(selected, is_pos), int(selected.sum()))
                )
    return [SimulationReport(mode, seed, tuple(r)) for mode, r in zip(modes, rows)]


def run_simulation(
    scenario: SimScenario,
    filter_mode: FilterMode = FilterMode.MPF,
    seed: int | None = None,
) -> SimulationReport:
    """Run the planted-score self-training loop and report per-round,
    per-level selection quality against the planted labels.

    Draw order is fixed (rounds outer, levels in scenario order,
    positives before negatives), so a given seed always produces the
    same report. ``seed`` overrides the scenario's own seed.
    """
    filter_mode = FilterMode(filter_mode)
    used_seed = scenario.seed if seed is None else check_seed(seed)
    return _simulate(scenario, (filter_mode,), used_seed)[0]


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
    return tail / 2**n  # int / int rounds once, and 2.0**n would overflow from n = 1024


def paired_comparison(
    scenario: SimScenario,
    repeats: int,
    base_seed: int | None = None,
) -> PairedSummary:
    """Run MPF and CPF on identical seeds and compare mean selection F1.

    Repeat i is one simulation at seed base_seed + i that serves both
    modes, so each pair sees exactly the same planted draws, drawn once.
    Each report equals the one ``run_simulation`` gives at that seed.
    """
    if repeats < 1:
        raise InvalidInputError("need at least one repeat")
    start = scenario.seed if base_seed is None else check_seed(base_seed, "base_seed")
    modes = (FilterMode.MPF, FilterMode.CPF)
    reports = tuple(tuple(_simulate(scenario, modes, start + i)) for i in range(repeats))
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
_LEVEL_NAMES = [lvl.value for lvl in PyramidLevel]


def parse_scenario(text: str) -> SimScenario:
    """Parse the flat key = value scenario format; a line error reads
    ``line N: ...``."""
    return _parse_scenario(text)


def load_scenario(path) -> SimScenario:
    """Read and parse the scenario file at ``path``; a line error reads
    ``PATH: line N: ...``."""
    return _parse_scenario(read_text(path), path)


def _parse_scenario(text: str, path=None) -> SimScenario:
    top: dict[str, int] = {}
    levels: dict[str, dict[str, float]] = {}
    for line_no, line in numbered_lines(text):
        line = line.split("#", 1)[0].strip()
        if "=" not in line:
            raise LineError("expected key = value", line_no, path)
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            num = float(value)
        except ValueError:
            raise LineError(f"bad number {value!r}", line_no, path) from None
        if "." in key:
            level_name, _, name = key.partition(".")
            if level_name not in _LEVEL_NAMES:
                raise LineError(f"unknown level {level_name!r}", line_no, path)
            if name not in _LEVEL_FIELDS:
                raise LineError(f"unknown field {name!r}", line_no, path)
            fields = levels.setdefault(level_name, {})
        elif key in ("rounds", "seed"):
            name, fields = key, top
        else:
            raise LineError(f"unknown key {key!r}", line_no, path)
        if name in _INT_FIELDS and not num.is_integer():
            raise LineError(f"{key} must be an integer, got {value!r}", line_no, path)
        fields[name] = int(num) if name in _INT_FIELDS else num
    if "rounds" not in top:
        raise InvalidInputError("scenario is missing 'rounds'")
    plans = []
    for name in (n for n in _LEVEL_NAMES if n in levels):
        fields = levels[name]
        missing = _REQUIRED_LEVEL_FIELDS - fields.keys()
        if missing:
            raise InvalidInputError(f"level {name} is missing {sorted(missing)}")
        plans.append(LevelPlan(level=PyramidLevel(name), **fields))
    if not plans:
        raise DegenerateInputError("scenario defines no levels")
    return SimScenario(levels=tuple(plans), rounds=top["rounds"], seed=top.get("seed", 0))
