"""gradcheck: many small loss calls under finite-difference gradient checks.

Each job runs ``spwood eval-loss --check-grad`` twice: once as a seeded
random sweep over all seven loss ops, and once on an entry file written
for the job that covers every op. The values printed for the entry file
are checked against the benchmark's own closed forms.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from common import TIMED_JOB, WARM_UP, close, require, rng_for, run_cli, seed_for
from formulas import (
    angle_value,
    distill_value,
    focal_values,
    overlap_value,
    watershed_value,
)

SWEEP_POINTS = 12  # random cases per op in the sweep
ENTRIES_PER_OP = 3
OPS = ("sparse-cls", "angle", "overlap", "watershed", "supervised", "unsupervised", "total")
WEIGHTS = (1.0, 1.0, 1.0, 0.2, 10.0, 5.0)
LINE = re.compile(r"line (\d+): (\S+) value=(\S+) grad=\S* fd_max_rel_err=(\S+)$")


def away(rng, low, high, avoid, margin=1e-2):
    while True:
        v = float(rng.uniform(low, high))
        if all(abs(v - a) > margin for a in avoid):
            return v


def floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def rows(arr) -> str:
    return ",".join(":".join(repr(float(v)) for v in row) for row in arr)


def make_entry(rng, op: str) -> tuple[str, float]:
    """One entry-file line for op and its value by the closed forms."""
    if op == "sparse-cls":
        a, g, o, thr = (float(rng.uniform(lo, hi)) for lo, hi in ((0.1, 0.9), (0.5, 4.0), (0.05, 1.0), (0.2, 0.8)))
        p = away(rng, 0.02, 0.98, [thr])
        positive = bool(rng.random() < 0.5)
        value = float(focal_values(np.array(p), np.array(positive), a, g, o, thr))
        kind = "positive" if positive else "negative"
        return f"sparse-cls p_t={p!r} kind={kind} alpha_t={a!r} gamma={g!r} omega={o!r} thr={thr!r}", value
    if op == "angle":
        beta = float(rng.uniform(0.3, 1.5))
        rotation = None if rng.random() < 0.5 else float(rng.uniform(-math.pi, math.pi))
        while True:
            ta, to = (float(v) for v in rng.uniform(-math.pi / 2, math.pi / 2, 2))
            raw = ta + to if rotation is None else ta - to - rotation
            r = (raw + math.pi / 2) % math.pi
            if min(r, math.pi - r) > 1e-2 and abs(abs(r - math.pi / 2) - beta) > 1e-2:
                break
        aug = "aug=flip" if rotation is None else f"aug=rotate r={rotation!r}"
        return (f"angle theta_aug={ta!r} theta={to!r} {aug} beta={beta!r}",
                angle_value(ta, to, rotation, beta))
    if op == "overlap":
        n = int(rng.integers(2, 4))
        boxes = np.stack([rng.uniform(-4, 4, n), rng.uniform(-4, 4, n), rng.uniform(0.5, 4.0, n),
                          rng.uniform(0.5, 4.0, n), rng.uniform(-1.4, 1.4, n)], axis=1)
        return f"overlap boxes={rows(boxes)}", overlap_value(boxes)
    if op == "watershed":
        w, h, tw, th = (float(v) for v in rng.uniform(0.5, 8.0, 4))
        tau, raw = float(rng.uniform(1.0, 2.0)), bool(rng.random() < 0.3)
        return (f"watershed w={w!r} h={h!r} target_w={tw!r} target_h={th!r} tau={tau!r} raw={int(raw)}",
                watershed_value(w, h, tw, th, tau, raw))
    if op == "supervised":
        parts = rng.uniform(0.0, 5.0, 6)
        return f"supervised parts={floats(parts)}", float(np.dot(WEIGHTS, parts))
    if op == "unsupervised":
        n = int(rng.integers(1, 5))
        beta = float(rng.uniform(0.5, 1.5))
        t_box = rng.uniform(-3.0, 3.0, (n, 4))
        s_box = t_box + np.array([away(rng, -3.0, 3.0, [-beta, 0.0, beta]) for _ in range(4 * n)]).reshape(n, 4)
        t_conf, t_cen, s_conf, s_cen = rng.uniform(0.05, 0.95, (4, n))
        line = (f"unsupervised t_conf={floats(t_conf)} t_cen={floats(t_cen)} t_box={rows(t_box)} "
                f"s_conf={floats(s_conf)} s_cen={floats(s_cen)} s_box={rows(s_box)} beta={beta!r}")
        return line, distill_value(t_conf, t_cen, t_box, s_conf, s_cen, s_box, beta)
    if op == "total":
        sup, unsup = (float(v) for v in rng.uniform(0.0, 20.0, 2))
        return f"total sup={sup!r} unsup={unsup!r}", sup + unsup
    raise ValueError(f"unknown op {op!r}")


class Workload:
    def __init__(self, spwood, seed: int, root: Path):
        self.cli = spwood.cli
        self.seed = seed
        self.root = root

    def warm_up(self) -> None:
        self.run(self._job(rng_for(self.seed, WARM_UP), seed_for(self.seed, WARM_UP), self.root / "warm", 1))

    def prepare(self, j: int):
        return self._job(rng_for(self.seed, TIMED_JOB, j), seed_for(self.seed, TIMED_JOB, j),
                         self.root / f"job{j}", SWEEP_POINTS)

    def _job(self, rng, sweep_seed: int, path: Path, points: int):
        entries = [make_entry(rng, op) for _ in range(ENTRIES_PER_OP) for op in OPS]
        path.mkdir(parents=True)
        entry_file = path / "entries.txt"
        entry_file.write_text("# loss entries\n" + "".join(line + "\n" for line, _ in entries))
        argvs = [
            ["eval-loss", "--check-grad", "--random", str(points), "--seed", str(sweep_seed)],
            ["eval-loss", str(entry_file), "--check-grad"],
        ]
        return argvs, entries

    def run(self, job):
        return [run_cli(self.cli, argv) for argv in job[0]]

    def check(self, job, results) -> tuple[int, int, int]:
        argvs, entries = job
        for (code, text), argv in zip(results, argvs):
            require(code == 0, f"spwood {' '.join(argv)} exited {code}: {text[-500:]}")
        sweep = results[0][1].splitlines()
        require(len(sweep) == len(OPS) + 1 and all(line.endswith(" ok") for line in sweep[:-1]),
                f"sweep output: {sweep}")
        printed = results[1][1].splitlines()
        require(len(printed) == len(entries), f"{len(printed)} result lines for {len(entries)} entries")
        for out, (line, value) in zip(printed, entries):
            m = LINE.match(out)
            require(m is not None and m.group(2) == line.split()[0], f"unexpected output {out!r}")
            require(close(float(m.group(3)), value, 1e-9, 1e-12),
                    f"{line.split()[0]}: printed value {m.group(3)}, closed form {value!r}")
            require(float(m.group(4)) < 1e-5, f"{out}: gradient disagrees with central differences")
        points = int(argvs[0][argvs[0].index("--random") + 1])
        return len(argvs), 0, len(OPS) * points + len(entries)
