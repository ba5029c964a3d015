#!/usr/bin/env python3
"""Compare the two sparsification methods on a skewed synthetic corpus.

Builds a corpus where some categories appear mostly as per-image
singletons (rare classes) and others in bulk, applies both the single
(per-image, at-least-one floor) and overall (dataset-wide exact ratio)
methods at the same sparse ratio, and prints the per-category retention
table with the relative difference of single over overall.

Usage:
    python scripts/sparsify_comparison.py --sparse 0.1 --images 300 --seed 0
"""

import argparse
import sys

import numpy as np

from spwood.dataset import AnnotationSet, compare_counts, sparsify_overall, sparsify_single
from spwood.errors import InvalidInputError, check_seed

RARE = ("BD", "GTF", "SBF", "RA", "HC")
BULK = ("PL", "SV", "LV", "SH", "ST", "HA", "SP")
# a 12 x 6 axis-aligned rectangle from its first corner, counterclockwise
RECTANGLE = np.array([(0, 0), (12, 0), (12, 6), (0, 6)], dtype=float)


def build_corpus(n_images: int, seed: int) -> AnnotationSet:
    rng = np.random.default_rng(seed)
    names = sorted(RARE + BULK)
    corners, codes, offsets = [], [], [0]
    for _ in range(n_images):
        for cat in RARE + BULK:
            # a rare category is usually absent, else a singleton
            n = int(rng.random() < 0.35) if cat in RARE else int(rng.integers(0, 25))
            corners += [xy + RECTANGLE for xy in rng.uniform(0, 999, (n, 1, 2))]
            codes += [names.index(cat)] * n
        offsets.append(len(codes))
    ids = [f"img{i:05d}" for i in range(n_images)]
    return AnnotationSet(ids, offsets, corners, codes, names, np.zeros(len(codes), int))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sparse", type=float, default=0.1)
    parser.add_argument("--images", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="optional stats CSV path")
    args = parser.parse_args()
    if args.images < 1:
        parser.error(f"--images must be at least 1, got {args.images}")

    try:
        corpus = build_corpus(args.images, check_seed(args.seed, "--seed"))
        single = sparsify_single(corpus, args.sparse, seed=args.seed)
        overall = sparsify_overall(corpus, args.sparse, seed=args.seed)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = compare_counts(corpus.category_counts(single), corpus.category_counts(overall))

    totals = corpus.category_counts()
    print(f"corpus: {len(corpus)} records, {args.images} images, ratio {args.sparse}")
    print(f"{'category':>9} {'total':>6} {'single':>7} {'overall':>8} {'rel diff':>9}")
    for row in stats.rows:
        rel = (
            "undef"
            if row.relative_difference_percent is None
            else f"{row.relative_difference_percent:+.1f}%"
        )
        print(
            f"{row.category:>9} {totals.get(row.category, 0):>6} "
            f"{row.count_single:>7} {row.count_overall:>8} {rel:>9}"
        )
    kept_single, kept_overall = len(single), len(overall)
    print(
        f"\ntotals: single keeps {kept_single} ({100 * kept_single / len(corpus):.1f}%), "
        f"overall keeps {kept_overall} ({100 * kept_overall / len(corpus):.1f}%)"
    )
    print(
        "rare categories retain far above the nominal ratio under the single "
        "method; the overall method holds every category at the exact ratio."
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(stats.to_csv())
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
