"""selftrain: one self-training round through the library API per job.

A job runs one MPF filtering round over planted teacher scores, then the
training losses at batch scale on fresh inputs, then the EMA teacher
update across the burn-in flip. Every value is checked against the
benchmark's own closed-form numpy formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import TIMED_JOB, WARM_UP, close, require, rng_for, seed_for
from formulas import (
    angle_value,
    distill_value,
    fd_agrees,
    focal_values,
    overlap_value,
    watershed_value,
    wrap,
)

# Four dense, level-shifted levels that each get their own mixture fit, and
# one sparse level (under 20 scores) that inherits the pooled threshold.
LEVELS = (
    ("P3", 500, 1500, 0.40, 0.08),
    ("P4", 500, 1500, 0.475, 0.155),
    ("P5", 500, 1500, 0.55, 0.23),
    ("P6", 500, 1500, 0.625, 0.305),
    ("P7", 5, 10, 0.70, 0.38),
)
SIGMA = 0.05
DENSE = ("P3", "P4", "P5", "P6")
SCORE_EPS = 1e-6
MIN_F1 = 0.99


@dataclass(frozen=True)
class Size:
    images: int
    boxes: int
    locations: int
    cls_locations: int
    params: int


FULL = Size(images=4, boxes=30, locations=20000, cls_locations=3000, params=200000)
WARM = Size(images=1, boxes=4, locations=50, cls_locations=20, params=100)


# --- the job -----------------------------------------------------------------


class Workload:
    def __init__(self, spwood, seed: int, root: Path):
        self.sp = spwood
        self.seed = seed
        pl = spwood.pipeline
        self.scenario = pl.SimScenario(
            levels=tuple(pl.LevelPlan(name, n_pos, n_neg, mu_p, mu_n, SIGMA)
                         for name, n_pos, n_neg, mu_p, mu_n in LEVELS),
            rounds=1,
        )

    def warm_up(self) -> None:
        job = self._job(rng_for(self.seed, WARM_UP), seed_for(self.seed, WARM_UP), WARM)
        self.run(job)

    def prepare(self, j: int):
        return self._job(rng_for(self.seed, TIMED_JOB, j), seed_for(self.seed, TIMED_JOB, j), FULL)

    def _job(self, rng, sim_seed: int, size: Size) -> dict:
        n = size.boxes
        w = rng.uniform(4.0, 40.0, (size.images, n))
        boxes = np.stack([
            rng.uniform(0.0, 200.0, (size.images, n)),
            rng.uniform(0.0, 200.0, (size.images, n)),
            w,
            w * rng.uniform(0.2, 1.0, (size.images, n)),
            rng.uniform(-1.5, 1.5, (size.images, n)),
        ], axis=-1)
        L = size.locations
        t_box = rng.uniform(0.0, 40.0, (L, 4))
        return {
            "sim_seed": sim_seed,
            "boxes": boxes,
            "targets": boxes[..., 2:4] * rng.uniform(0.8, 1.2, (size.images, n, 2)),
            "theta_aug": rng.uniform(-1.5, 1.5, (size.images, n)),
            "rotation": rng.uniform(-math.pi, math.pi, (size.images, n)),
            "teacher": (rng.uniform(0.02, 0.98, L), rng.uniform(0.02, 0.98, L), t_box),
            "student": (rng.uniform(0.02, 0.98, L), rng.uniform(0.02, 0.98, L),
                        t_box + rng.normal(0.0, 2.0, (L, 4))),
            "cls_p": rng.uniform(0.01, 0.99, size.cls_locations),
            "cls_pos": rng.random(size.cls_locations) < 0.25,
            "centerness_box": rng.uniform(0.0, 2.0, 2).tolist(),
            "teacher_params": rng.normal(0.0, 1.0, size.params),
            "student_params": rng.normal(0.0, 1.0, size.params),
        }

    def run(self, job: dict) -> dict:
        sp = self.sp
        losses, pipeline, geometry = sp.losses, sp.pipeline, sp.geometry
        out = {"report": pipeline.run_simulation(self.scenario, "mpf", seed=job["sim_seed"])}
        teacher = losses.PredictionTriple(*job["teacher"])
        student = losses.PredictionTriple(*job["student"])
        out["distill"] = losses.unsupervised_loss(teacher, student)
        out["overlap"], out["watershed"], out["flip"], out["rotate"] = [], [], [], []
        for boxes, targets, aug, rot in zip(job["boxes"], job["targets"], job["theta_aug"], job["rotation"]):
            obs = [geometry.OrientedBox(*row) for row in boxes.tolist()]
            out["overlap"].append(losses.gaussian_overlap_loss(obs))
            for box, (tw, th), a, r in zip(obs, targets.tolist(), aug.tolist(), rot.tolist()):
                out["watershed"].append(losses.watershed_loss(box, tw, th))
                out["flip"].append(losses.angle_loss(a, box.theta, losses.Flip()))
                out["rotate"].append(losses.angle_loss(a, box.theta, losses.Rotate(r)))
        kinds = (losses.SampleKind.POSITIVE, losses.SampleKind.NEGATIVE)
        out["cls"] = [losses.sparse_cls_loss(p, kinds[0] if pos else kinds[1])
                      for p, pos in zip(job["cls_p"].tolist(), job["cls_pos"].tolist())]
        parts = [
            float(np.mean([c.value for c in out["cls"]])),
            *job["centerness_box"],
            float(np.mean([a.value for a in out["flip"] + out["rotate"]])),
            float(np.mean([o.value for o in out["overlap"]])),
            float(np.mean([ws.value for ws in out["watershed"]])),
        ]
        out["parts"] = parts
        out["supervised"] = losses.total_supervised_loss(parts)
        out["total"] = losses.total_loss(out["supervised"], out["distill"].value)
        out["ema"] = pipeline.ema_update(job["teacher_params"], job["student_params"])
        state = pipeline.StageState(iteration=pipeline.DEFAULT_BURN_IN_ITERS - 1)
        out["stages"] = (state.stage, pipeline.advance_stage(state).stage)
        return out

    def check(self, job: dict, out: dict) -> tuple[int, int, int]:
        scores = self._check_simulation(job["sim_seed"], out["report"])
        self._check_distill(job, out["distill"])
        for k, (boxes, res) in enumerate(zip(job["boxes"], out["overlap"])):
            self._check_overlap(boxes, res, k)
        flat = job["boxes"].reshape(-1, 5)
        for k, (b, (tw, th), a, r) in enumerate(zip(flat, job["targets"].reshape(-1, 2),
                                                     job["theta_aug"].ravel(), job["rotation"].ravel())):
            require(close(out["watershed"][k].value, watershed_value(b[2], b[3], tw, th), 1e-9, 1e-15),
                    f"watershed_loss value, box {k}")
            require(close(out["flip"][k].value, angle_value(a, b[4], None), 1e-9, 1e-15),
                    f"angle_loss (flip) value, box {k}")
            require(close(out["rotate"][k].value, angle_value(a, b[4], r), 1e-9, 1e-15),
                    f"angle_loss (rotate) value, box {k}")
        self._check_scalar_gradients(job, out, flat)
        got = np.array([c.value for c in out["cls"]])
        want = focal_values(job["cls_p"], job["cls_pos"])
        require(np.all(np.abs(got - want) <= 1e-9 * np.abs(want) + 1e-15), "sparse_cls_loss values")
        weights = np.array([1.0, 1.0, 1.0, 0.2, 10.0, 5.0])
        sup = float(weights @ np.array(out["parts"]))
        require(close(out["supervised"], sup, 1e-9), "total_supervised_loss value")
        require(close(out["total"], sup + out["distill"].value, 1e-9), "total_loss value")
        m = 0.999
        require(np.array_equal(out["ema"], m * job["teacher_params"] + (1 - m) * job["student_params"]),
                "ema_update differs from m*t + (1-m)*s")
        require([s.value for s in out["stages"]] == ["burn-in", "self-training"],
                f"stage did not flip at the burn-in length: {out['stages']}")
        # library calls: simulation, distillation, one overlap per image, three
        # losses per box, one per classified location, the two totals, EMA, stage
        calls = 2 + len(job["boxes"]) + 3 * len(flat) + len(job["cls_p"]) + 2 + 2
        return calls, 0, scores

    def _check_scalar_gradients(self, job: dict, out: dict, flat: np.ndarray) -> None:
        """One coordinate each, away from the kinks of the piecewise losses.
        Their values are of order one, so a small step keeps the truncation
        error low without rounding error taking over."""
        p = job["cls_p"]
        k = int(np.flatnonzero((np.abs(p - 0.5) > 1e-2) & (p > 0.05) & (p < 0.95))[0])
        pos = job["cls_pos"][k : k + 1]
        require(fd_agrees(lambda x: float(focal_values(x, pos)[0]), p[k : k + 1].copy(), 0,
                          out["cls"][k].grad[0], 1e-6), f"sparse_cls_loss gradient, location {k}")
        tw, th = job["targets"].reshape(-1, 2)[0]
        require(fd_agrees(lambda x: watershed_value(x[0], x[1], tw, th), flat[0, 2:4].copy(), 0,
                          out["watershed"][0].grad[0], 1e-6), "watershed_loss gradient, box 0")
        aug = job["theta_aug"].ravel()
        r = np.abs(wrap(aug + flat[:, 4]))
        k = int(np.flatnonzero((np.abs(r - 1.0) > 1e-2) & (r < np.pi / 2 - 1e-2))[0])
        require(fd_agrees(lambda x: angle_value(x[0], flat[k, 4], None), aug[k : k + 1].copy(), 0,
                          out["flip"][k].grad[0], 1e-6), f"angle_loss gradient, box {k}")

    def _check_simulation(self, sim_seed: int, report) -> int:
        """Replays the documented draw order and recomputes every row."""
        rng = np.random.default_rng(sim_seed)
        rows = {r.level.value: r for r in report.rows}
        require(len(rows) == len(LEVELS) and len(report.rows) == len(LEVELS), "one row per level")
        n_scores = 0
        for name, n_pos, n_neg, mu_p, mu_n in LEVELS:
            scores = np.clip(np.concatenate([rng.normal(mu_p, SIGMA, n_pos), rng.normal(mu_n, SIGMA, n_neg)]),
                             SCORE_EPS, 1 - SCORE_EPS)
            n_scores += len(scores)
            row = rows[name]
            selected = scores >= row.tau
            tp = int(selected[:n_pos].sum())
            n_sel = int(selected.sum())
            p = tp / n_sel if n_sel else 0.0
            r = tp / n_pos
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            require(row.n_selected == n_sel and close(row.precision, p, 1e-12)
                    and close(row.recall, r, 1e-12) and close(row.f1, f1, 1e-12),
                    f"{name}: precision/recall/F1 disagree with the selection at tau={row.tau}")
            if name in DENSE:
                require(f1 >= MIN_F1, f"{name}: MPF F1 {f1:.4f} below {MIN_F1}")
        return n_scores

    def _check_distill(self, job: dict, res) -> None:
        t_conf, t_cen, t_box = job["teacher"]
        s_conf, s_cen, s_box = job["student"]
        value = distill_value(t_conf, t_cen, t_box, s_conf, s_cen, s_box)
        require(close(res.value, value, 1e-9), f"unsupervised_loss {res.value} != {value}")
        n = len(s_conf)
        x0 = np.concatenate([s_conf, s_cen, s_box.ravel()])

        def f(x):
            return distill_value(t_conf, t_cen, t_box, x[:n], x[n:2 * n], x[2 * n:].reshape(n, 4))

        resid = np.abs((s_box - t_box).ravel())
        smooth = np.flatnonzero((np.abs(resid - 1.0) > 1e-2) & (resid > 1e-2))
        for index in (0, n + n // 2, 2 * n + int(smooth[len(smooth) // 3])):
            require(fd_agrees(f, x0, index, res.grad[index]), f"unsupervised_loss gradient [{index}]")

    def _check_overlap(self, boxes: np.ndarray, res, k: int) -> None:
        value = overlap_value(boxes)
        require(close(res.value, value, 1e-9), f"overlap image {k}: {res.value} != {value}")
        for index in (k % boxes.size, (7 * k + 3) % boxes.size):
            require(fd_agrees(lambda x: overlap_value(x.reshape(-1, 5)), boxes.ravel(), index,
                              res.grad.ravel()[index]), f"overlap image {k}: gradient [{index}]")
