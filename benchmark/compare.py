"""Compare two result files written by ``run.py --out``.

For each workload and metric it prints the median of each file, their
ratio (new / old), and each file's spread: the distance between the first
and third quartile of the runs, as a share of their median.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                res = json.loads(line)
                for name, m in res["metrics"].items():
                    runs[res["workload"]][name].append(m["value"])
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(old_path: str, new_path: str) -> int:
    old, new = load(old_path), load(new_path)
    print(f"{'workload':10} {'metric':36} {'old':>12} {'new':>12} {'new/old':>8} {'spread old':>10} {'spread new':>10}")
    for workload in sorted(set(old) | set(new)):
        for name in sorted(set(old[workload]) | set(new[workload])):
            a, b = old[workload].get(name, []), new[workload].get(name, [])
            ma = statistics.median(a) if a else float("nan")
            mb = statistics.median(b) if b else float("nan")
            ratio = mb / ma if a and b and ma else float("nan")
            print(f"{workload:10} {name:36} {ma:12.5g} {mb:12.5g} {ratio:8.3f} {spread(a):10.3f} {spread(b):10.3f}")
    return 0
