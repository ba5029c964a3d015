"""spwood benchmark: one workload per run, with checked outputs.

Run from the repository root:

    python3 benchmark/run.py --workload calls --seed 1 --seconds 48 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones (see README.md). ``--out FILE`` also appends the result,
tagged with workload and seed, to a JSON-lines file, and

    python3 benchmark/run.py --compare OLD.jsonl NEW.jsonl

prints, per workload and metric, the median of each file and their ratio.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import trace_layers  # noqa: E402
from common import CheckFailed  # noqa: E402

WORKLOADS = ("calls", "arrays")
SETUP_REPEATS = 3
MIN_JOBS = 4  # a run times at least this many jobs, however short --seconds is
MEMORY_JOB = 10**6  # job id of the untimed memory pass, beyond any timed job
WORK_DIR = ".bench_work"
TRACE_DIR = ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=48.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the tagged result to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required")
    return args


def import_spwood():
    """Import the package from ./src of the checkout the benchmark runs in."""
    src = Path.cwd() / "src"
    if not (src / "spwood" / "__init__.py").is_file():
        raise SystemExit("benchmark: src/spwood not found; run from the repository root")
    sys.path.insert(0, str(src))
    import spwood
    from spwood import cli, dataset, filtering, geometry, gradcheck, layout, losses, pipeline  # noqa: F401

    if Path(spwood.__file__).resolve().parent != (src / "spwood").resolve():
        raise SystemExit(f"benchmark: imported spwood from {spwood.__file__}, not from {src}")
    return spwood


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.exists() else 0


class Runner:
    """Times jobs of one workload and collects their check results."""

    def __init__(self, wl, root: Path):
        self.wl = wl
        self.root = root
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def job(self, j: int, around=contextlib.nullcontext):
        """Prepare, time, check and clean up job j; returns (seconds, items, output bytes).

        ``around(j)`` is a context manager entered around the timed part."""
        job = self.wl.prepare(j)
        # Garbage left by earlier jobs and checks is collected untimed, so
        # every job starts from the same collector state and pays only for
        # the garbage it makes itself.
        gc.collect()
        with around(j):
            t = time.perf_counter()
            out = self.wl.run(job)
            elapsed = time.perf_counter() - t
        job_dirs = list(self.root.glob("*/job*"))  # those of each part's jobs
        written = sum(dir_bytes(d / "out") for d in job_dirs)
        counts = self.guard(self.wl.check, job, out)
        for d in job_dirs:
            shutil.rmtree(d, ignore_errors=True)
        if counts is None:
            return elapsed, 0, written
        self.attempted += counts[0]
        self.failed += counts[1]
        return elapsed, counts[2], written

    def guard(self, check, *args):
        """Run a check; a failed one marks the run incorrect."""
        try:
            return check(*args)
        except CheckFailed as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)
            return None


@contextlib.contextmanager
def traced_memory(peaks: list):
    """Record the tracemalloc peak of the enclosed block into peaks.

    The heap is collected first, so garbage left by earlier jobs cannot
    trigger a collection inside the block and move its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def set_up(module, spwood, seed: int, root: Path):
    """Set up SETUP_REPEATS times; returns the last workload and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        t = time.perf_counter()
        wl = module.Workload(spwood, seed, root)
        wl.warm_up()
        times.append(time.perf_counter() - t)
    return wl, statistics.median(times)


def measure(args, spwood, module, root: Path, import_s: float) -> dict:
    wl, setup_s = set_up(module, spwood, args.seed, root)
    runner = Runner(wl, root)
    times, items = [], 0
    deadline = time.perf_counter() + args.seconds
    j = 0
    while j < MIN_JOBS or time.perf_counter() < deadline:
        elapsed, n, _ = runner.job(j)
        times.append(elapsed)
        items += n
        j += 1
    loop_s = time.perf_counter() - deadline + args.seconds
    peaks = []
    t = time.perf_counter()
    runner.job(MEMORY_JOB, lambda _: traced_memory(peaks))
    runner.guard(getattr(wl, "finish", lambda: None))
    print(f"{j} timed jobs in {loop_s:.1f} s; memory pass {time.perf_counter() - t:.1f} s",
          file=sys.stderr)
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "items_per_s": (items / sum(times), "1/s"),
        "peak_mb": (peaks[0] / 2**20, "MB"),
    }
    return result(runner, metrics)


def measure_traced(args, spwood, module, root: Path) -> dict:
    wl, _ = set_up(module, spwood, args.seed, root)
    runner = Runner(wl, root)
    tracer = trace_layers.Tracer(spwood)
    plain, traced, per_job = [], [], []
    deadline = time.perf_counter() + args.seconds
    j = 0
    # Even jobs run untraced and odd jobs traced, so both see the same machine.
    while j < 2 * trace_layers.COUNTED_JOBS or time.perf_counter() < deadline:
        if j % 2:
            elapsed, _, written = runner.job(j, tracer.recording)
            traced.append(elapsed)
            per_job.append(tracer.job_metrics(written))
        else:
            plain.append(runner.job(j)[0])
        j += 1
    runner.job(MEMORY_JOB, tracer.memory_recording)
    runner.guard(getattr(wl, "finish", lambda: None))
    Path(TRACE_DIR).mkdir(exist_ok=True)
    tracer.write(Path(TRACE_DIR) / f"spans_{args.workload}_{args.seed}.jsonl")
    metrics = trace_layers.summarize(per_job, tracer.peaks)
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    return result(runner, metrics)


def result(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return compare.main(*args.compare)
    spwood = import_spwood()
    import_s = time.perf_counter() - _START
    module = importlib.import_module(f"wl_{args.workload}")
    root = Path(WORK_DIR) / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            res = measure_traced(args, spwood, module, root)
        else:
            res = measure(args, spwood, module, root, import_s)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.parent.rmdir()  # only when no other run is using it
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **res}) + "\n")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
