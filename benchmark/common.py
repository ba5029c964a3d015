"""Helpers shared by the workload modules.

Each ``wl_<name>.py`` defines ``Workload(spwood, seed, root)``, whose
constructor and ``warm_up()`` are the set-up, with ``prepare(j)`` (job j's
fresh inputs, untimed), ``run(job)`` (the timed part), ``check(job, output)``
returning ``(attempted, failed, items)`` or raising ``CheckFailed``, and
optionally ``finish()`` for checks over the whole run. Job j keeps its
files under ``root/job<j>``, the program's outputs under ``root/job<j>/out``.

The benchmark's workloads (``wl_calls``, ``wl_arrays``) are ``Composite``
workloads: one job runs a fixed number of jobs of each of two parts
(``wl_corpus`` and ``wl_gradcheck``; ``wl_raster`` and ``wl_selftrain``),
each part keeping its files under ``root/<part>``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

# Seed streams: every input is drawn from default_rng([seed, stream, ...]),
# so the same --seed replays the same inputs and each stream is independent.
SETUP, WARM_UP, TIMED_JOB = 0, 1, 3


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rng_for(seed: int, stream: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *key])


def seed_for(seed: int, stream: int, *key: int) -> int:
    """A program-side ``--seed`` value derived from the benchmark seed."""
    return int(rng_for(seed, stream, *key, 1 << 20).integers(0, 2**31 - 1))


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``spwood`` in-process, returning its exit code and its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


class Composite:
    """A workload whose job runs, in order, ``repeats`` jobs of each part.

    ``PARTS`` lists ``(name, module, repeats)``. Part jobs get the ids
    ``repeats * j + r``, so every part job of a run has fresh inputs and the
    same ``--seed`` replays the same part jobs."""

    PARTS: tuple = ()

    def __init__(self, spwood, seed: int, root: Path):
        self.parts = [(module.Workload(spwood, seed, root / name), repeats)
                      for name, module, repeats in self.PARTS]

    def warm_up(self) -> None:
        for part, _ in self.parts:
            part.warm_up()

    def prepare(self, j: int):
        return [[part.prepare(repeats * j + r) for r in range(repeats)] for part, repeats in self.parts]

    def run(self, job):
        return [[part.run(x) for x in jobs] for (part, _), jobs in zip(self.parts, job)]

    def check(self, job, out) -> tuple[int, int, int]:
        total = [0, 0, 0]
        for (part, _), jobs, outs in zip(self.parts, job, out):
            for x, y in zip(jobs, outs):
                total = [a + b for a, b in zip(total, part.check(x, y))]
        return tuple(total)

    def finish(self) -> None:
        for part, _ in self.parts:
            getattr(part, "finish", lambda: None)()
