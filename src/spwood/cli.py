"""Command-line interface.

Subcommands: sparsify, fit-gmm, eval-loss, simulate, report, watershed.
Every command is deterministic given its inputs, flags, and seed. The
seed is resolved as ``--seed`` > ``SPWOOD_SEED`` environment variable >
the command's documented default. Output CSVs start with a comment line
recording the tool version, the command line, and the seed.

Exit codes: 0 success, 1 input or runtime error, 2 usage error,
3 degenerate input (no structure to fit).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, dataset, filtering, gradcheck, layout, pipeline
from .errors import (
    DegenerateInputError,
    DotaParseError,
    InvalidInputError,
    NumericalDegeneracyError,
)
from .filtering import LevelScores, PyramidLevel
from .geometry import PointAnnotation

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 3


def _resolve_seed(explicit, default: int) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("SPWOOD_SEED")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise InvalidInputError(f"SPWOOD_SEED must be an integer, got {env!r}") from None


def _comment_header(args, seed) -> str:
    cmd = " ".join(args._argv)
    return f"# spwood {__version__} | cmd: {cmd} | seed: {seed}\n"


def _fmt(v: float) -> str:
    return f"{v:.10g}"


# --- sparsify ----------------------------------------------------------------


def cmd_sparsify(args) -> int:
    ann = dataset.load_dota_dir(args.input)
    seed = _resolve_seed(args.seed, 0)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.partial != 1.0:  # select_partial rejects a ratio outside (0, 1]
        labeled_ids, unlabeled_ids = dataset.select_partial(ann, args.partial, seed)
        (out_dir / "labeled_ids.txt").write_text(
            "".join(f"{i}\n" for i in labeled_ids), encoding="utf-8"
        )
        (out_dir / "unlabeled_ids.txt").write_text(
            "".join(f"{i}\n" for i in unlabeled_ids), encoding="utf-8"
        )
        labeled = dataset.subset_images(ann, labeled_ids)
    else:
        labeled = ann
    del ann  # only the labeled images are sparsified

    sample = dataset.sparsify_single if args.method == "single" else dataset.sparsify_overall
    sparse = sample(labeled, args.sparse, seed)
    before, after = labeled.category_counts(), sparse.category_counts()
    categories = sorted(before, key=dataset.category_sort_key)
    del labeled  # the writer needs only the sparse set beside one batch

    ann_dir = out_dir / "annotations"
    kind = None if args.weaken == "none" else dataset.WeakKind(args.weaken)
    written, dropped = dataset.write_dota_dir(sparse, ann_dir, kind)

    stats_path = Path(args.stats) if args.stats else out_dir / "stats.csv"
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write(_comment_header(args, seed))
        fh.write("category,kept,total,retention_percent\n")
        for cat in categories:
            kept, total = after.get(cat, 0), before[cat]
            fh.write(f"{cat},{kept},{total},{_fmt(100.0 * kept / total)}\n")
    for cat in categories:
        kept, total = after.get(cat, 0), before[cat]
        print(f"{cat}: kept {kept}/{total} ({100.0 * kept / total:.1f}%)")
    print(f"wrote {written} annotation files to {ann_dir}")
    if not dropped:
        return EXIT_OK
    _report_dropped(dropped, args.weaken)
    return EXIT_DEGENERATE


def _report_dropped(dropped: dataset.AnnotationSet, kind: str) -> None:
    """On stderr: each record left without a weak label, by image id and
    annotation line, then the number dropped per category."""
    texts = dataset.serialize_dota(dropped)
    for image_id in dropped.ids:
        for line in texts[image_id].splitlines():
            print(f"{image_id}: dropped {line!r}: no valid {kind} label", file=sys.stderr)
    counts = dropped.category_counts()
    for cat in sorted(counts, key=dataset.category_sort_key):
        print(f"{cat}: dropped {counts[cat]} record(s) with no valid {kind} label", file=sys.stderr)


# --- fit-gmm -----------------------------------------------------------------


def _read_level_scores(path) -> list[LevelScores]:
    by_level: dict[PyramidLevel, list[float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if line_no == 1 and parts[:2] == ["level", "score"]:
                continue
            if len(parts) != 2:
                raise InvalidInputError(
                    f"{path}: line {line_no}: expected 'level,score', got {raw!r}"
                )
            try:
                level = PyramidLevel(parts[0])
            except ValueError:
                raise InvalidInputError(
                    f"{path}: line {line_no}: unknown level {parts[0]!r}"
                ) from None
            try:
                score = float(parts[1])
            except ValueError:
                raise InvalidInputError(
                    f"{path}: line {line_no}: bad score {parts[1]!r}"
                ) from None
            if not 0.0 < score < 1.0:
                raise InvalidInputError(
                    f"{path}: line {line_no}: score {score} outside (0, 1)"
                )
            by_level.setdefault(level, []).append(score)
    return [
        LevelScores(level, np.array(by_level[level]))
        for level in PyramidLevel
        if level in by_level
    ]


def _fit_row(level_name: str, fit: filtering.GmmFit, tau: float) -> str:
    values = (fit.w_p, fit.mu_p, fit.var_p, fit.w_n, fit.mu_n, fit.var_n, tau)
    return ",".join([level_name, *map(_fmt, values), str(int(fit.converged))])


def cmd_fit_gmm(args) -> int:
    per_level = _read_level_scores(args.input)
    if not per_level:
        raise DegenerateInputError(f"no score rows in {args.input}")
    decisions = filtering.level_decisions(per_level, args.mode)
    # under cpf every level carries the one pooled fit, written once
    labels = ["pooled"] if args.mode == "cpf" else [d.level.value for d in decisions]
    rows = [_fit_row(label, d.fit, d.tau) for label, d in zip(labels, decisions)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_comment_header(args, "-"))
        fh.write("level,w_p,mu_p,var_p,w_n,mu_n,var_n,tau,converged\n")
        fh.write("".join(row + "\n" for row in rows))
    print(f"wrote {len(rows)} fit rows to {args.out}")
    return EXIT_OK


# --- eval-loss ---------------------------------------------------------------


def cmd_eval_loss(args) -> int:
    if args.input is None:
        if not args.check_grad:
            print("eval-loss: provide an input file or --check-grad", file=sys.stderr)
            return EXIT_ERROR
        seed = _resolve_seed(args.seed, 0)
        errs = gradcheck.random_sweep(args.random, seed)
        worst = max(errs.values())
        for op in gradcheck.OPS:
            status = "ok" if errs[op] < gradcheck.DEFAULT_REL_TOL else "FAIL"
            print(f"{op}: points={args.random} max_rel_err={errs[op]:.3g} {status}")
        print(f"overall max_rel_err={worst:.3g}")
        return EXIT_OK if worst < gradcheck.DEFAULT_REL_TOL else EXIT_ERROR

    failed = False
    with open(args.input, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                case = gradcheck.case_from_entry(line)
                fd = f" fd_max_rel_err={gradcheck.check_case(case):.3g}" if args.check_grad else ""
            except (InvalidInputError, NumericalDegeneracyError, ValueError) as exc:
                print(f"line {line_no}: error: {exc}")
                failed = True
                continue
            grad = ",".join(_fmt(g) for g in np.asarray(case.analytic).ravel())
            print(f"line {line_no}: {case.op} value={_fmt(case.value)} grad={grad}{fd}")
    return EXIT_ERROR if failed else EXIT_OK


# --- simulate ----------------------------------------------------------------


def _write_report(path, args, report: pipeline.SimulationReport, footer: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_comment_header(args, report.seed))
        fh.write("round,level,tau,precision,recall,f1,n_selected\n")
        for r in report.rows:
            fh.write(
                f"{r.round},{r.level.value},{_fmt(r.tau)},{_fmt(r.precision)},"
                f"{_fmt(r.recall)},{_fmt(r.f1)},{r.n_selected}\n"
            )
        if footer:
            fh.write(footer)


def cmd_simulate(args) -> int:
    scenario = pipeline.load_scenario(args.scenario)
    seed = _resolve_seed(args.seed, scenario.seed)
    out = Path(args.out)
    if args.mode in ("mpf", "cpf"):
        report = pipeline.run_simulation(scenario, args.mode, seed=seed)
        _write_report(out, args, report)
        print(f"{args.mode}: mean_f1={report.mean_f1:.6f} rows={len(report.rows)}")
        return EXIT_OK
    # paired head-to-head: one report file per mode plus a summary footer
    summary = pipeline.paired_comparison(scenario, args.repeats, base_seed=seed)
    footer = f"# paired summary: {summary.describe()}\n"
    for report in summary.reports[0]:
        mode_path = out.with_suffix(f".{report.mode.value}{out.suffix}")
        _write_report(mode_path, args, report, footer)
    print(f"paired summary: {summary.describe()}")
    return EXIT_OK


# --- report ------------------------------------------------------------------


def cmd_report(args) -> int:
    # counted one directory at a time, so only one is loaded at once
    single = dataset.load_dota_dir(args.single).category_counts()
    overall = dataset.load_dota_dir(args.overall).category_counts()
    stats = dataset.compare_counts(single, overall)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_comment_header(args, "-"))
        fh.write(stats.to_csv())
    for row in stats.rows:
        rel = (
            "undefined"
            if row.relative_difference_percent is None
            else f"{row.relative_difference_percent:+.1f}%"
        )
        print(f"{row.category}: single={row.count_single} overall={row.count_overall} rel={rel}")
    return EXIT_OK


# --- watershed ---------------------------------------------------------------


def _read_points(path) -> list[PointAnnotation]:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise InvalidInputError(
                    f"{path}: line {line_no}: expected 'x y [category]'"
                )
            try:
                x, y = float(tokens[0]), float(tokens[1])
            except ValueError:
                raise InvalidInputError(f"{path}: line {line_no}: bad coordinate in {line!r}") from None
            points.append(PointAnnotation(x, y, tokens[2] if len(tokens) > 2 else ""))
    if not points:
        raise InvalidInputError(f"no points in {path}")
    return points


def cmd_watershed(args) -> int:
    if not math.isfinite(args.theta):
        raise InvalidInputError(f"theta must be finite, got {args.theta}")
    image = layout.read_pgm(args.image)
    seeds = _read_points(args.points)
    cells = layout.voronoi_partition(seeds, image.width, image.height)
    masks = layout.watershed_segment(image, cells)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for k, (seed, mask) in enumerate(zip(seeds, masks)):
        layout.write_pgm(out_dir / f"mask_{k:03d}.pgm", mask)
        target = layout.scale_target_from_mask(mask, args.theta)
        rows.append(
            f"{k},{_fmt(seed.x)},{_fmt(seed.y)},{seed.category},"
            f"{_fmt(target.w_t)},{_fmt(target.h_t)},{int(target.valid)}"
        )
    with open(out_dir / "targets.csv", "w", encoding="utf-8") as fh:
        fh.write(_comment_header(args, "-"))
        fh.write("seed_index,x,y,category,w_t,h_t,valid\n")
        fh.write("".join(r + "\n" for r in rows))
    print(f"wrote {len(masks)} masks and targets.csv to {out_dir}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in scientific notation ("--theta -5.8e-05")
    as a value; argparse in Python 3.11 takes it for an option string."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spwood",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"spwood {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sparsify", help="subsample a DOTA annotation directory")
    p.add_argument("--input", required=True, help="directory of .txt annotation files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--method",
        choices=["single", "overall"],
        required=True,
        help="single: per image per category with an at-least-one floor; "
        "overall: exact per-category ratio across the whole set",
    )
    p.add_argument("--sparse", type=float, required=True, help="sparse ratio in (0, 1]")
    p.add_argument(
        "--partial",
        type=float,
        default=1.0,
        help="fraction of images kept as labeled before sparsifying (default 1.0)",
    )
    p.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")
    p.add_argument(
        "--weaken",
        choices=["none", "rbox", "hbox", "point"],
        default="none",
        help="emit weak labels instead of corner annotations (default none)",
    )
    p.add_argument("--stats", default=None, help="stats CSV path (default OUT/stats.csv)")
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("fit-gmm", help="fit per-level score mixtures and thresholds")
    p.add_argument("--input", required=True, help="CSV of level,score rows")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--mode",
        choices=["mpf", "cpf"],
        default="mpf",
        help="mpf: one fit per level; cpf: pool all levels (default mpf)",
    )
    p.set_defaults(func=cmd_fit_gmm)

    p = sub.add_parser("eval-loss", help="evaluate loss entries from a text file")
    p.add_argument("input", nargs="?", default=None, help="loss entry file")
    p.add_argument(
        "--check-grad",
        action="store_true",
        help="verify analytic gradients against central finite differences; "
        "without an input file, run a seeded random sweep",
    )
    p.add_argument(
        "--random",
        type=int,
        default=100,
        metavar="N",
        help="random interior points per op for the sweep (default 100)",
    )
    p.add_argument("--seed", type=int, default=None, help="sweep seed (default 0)")
    p.set_defaults(func=cmd_eval_loss)

    p = sub.add_parser("simulate", help="run the planted-score filtering simulation")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument(
        "--mode",
        choices=["mpf", "cpf", "paired"],
        default="mpf",
        help="filter to simulate; paired runs both on identical seeds and "
        "writes OUT with .mpf/.cpf inserted before the extension",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="paired mode: number of seeded repeats for the summary (default 1)",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="seed (default: scenario file's seed)"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="compare two sparsified annotation directories")
    p.add_argument("--single", required=True, help="single-method annotation directory")
    p.add_argument("--overall", required=True, help="overall-method annotation directory")
    p.add_argument("--out", required=True, help="stats CSV path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "watershed", help="segment a PGM image around point annotations"
    )
    p.add_argument("--image", required=True, help="input image (binary 8-bit PGM)")
    p.add_argument("--points", required=True, help="text file of 'x y [category]' seeds")
    p.add_argument("--out-dir", required=True, help="directory for masks and targets.csv")
    p.add_argument(
        "--theta",
        type=float,
        default=0.0,
        help="rotation (radians) of the target extent frame (default 0)",
    )
    p.set_defaults(func=cmd_watershed)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InvalidInputError, DotaParseError, NumericalDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
