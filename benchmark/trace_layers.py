"""Per-layer spans, recorded from outside the program.

The tracer replaces spwood's public functions with wrappers while a traced
job runs: in their own module and wherever another module imported them
by name. Each call becomes a span (layer, group, name, start, end, parent).
Spans stay in memory; those of the first traced job are written out when
the run ends. A span's self time is its duration minus that of its child
spans, so the self times of all spans add up to the time spent in spwood.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import tracemalloc

COUNTED_JOBS = 3  # counts are averaged over the first traced jobs, which replay per seed

# Which metric group each wrapped function feeds. In geometry and gradcheck
# every public function is wrapped, into the group "self". losses.smooth_l1
# is left out: unsupervised_loss calls it once per margin, and a span per
# element would swamp the distillation time it is part of.
GROUPS = {
    "cli": {"main": "self"},
    "dataset": {
        **dict.fromkeys(("load_dota_dir", "parse_dota", "merge_sets"), "parse"),
        **dict.fromkeys(("select_partial", "subset_images", "sparsify", "sparsify_single",
                         "sparsify_overall", "round_half_up"), "sparsify"),
        **dict.fromkeys(("serialize_dota", "serialize_weak", "weaken", "write_dota_dir",
                         "record_from_box"), "serialize"),
        **dict.fromkeys(("compare_stats", "compare_counts", "category_sort_key",
                         "relative_difference_percent", "AnnotationSet.category_counts",
                         "AnnotationSet.categories"), "stats"),
    },
    "layout": {
        "voronoi_partition": "voronoi",
        "watershed_segment": "watershed",
        "gradient_magnitude": "watershed",
        "scale_target_from_mask": "target",
        "read_pgm": "pgm",
        "write_pgm": "pgm",
    },
    "filtering": {
        "fit_gmm": "fit",
        **dict.fromkeys(("threshold_from_fit", "is_degenerate_level", "cpf_filter", "mpf_filter",
                         "select_pseudo_labels"), "threshold"),
    },
    "pipeline": {
        **dict.fromkeys(("run_simulation", "paired_comparison", "sign_test_p_value",
                         "parse_scenario", "load_scenario"), "self"),
        **dict.fromkeys(("ema_update", "advance_stage"), "ema"),
    },
    "losses": {
        "gaussian_overlap_loss": "overlap",
        "unsupervised_loss": "distill",
        **dict.fromkeys(("sparse_cls_loss", "angle_loss", "watershed_loss",
                         "total_supervised_loss", "total_loss"), "scalar"),
    },
    "geometry": None,
    "gradcheck": None,
}
# Functions whose tracemalloc peak the memory pass records.
MEMORY_SPANS = {("layout", "voronoi_partition"): "voronoi", ("layout", "watershed_segment"): "watershed"}

TIME_GROUPS = (
    ("cli", "self"), ("dataset", "parse"), ("dataset", "sparsify"), ("dataset", "serialize"),
    ("dataset", "stats"), ("geometry", "self"), ("layout", "voronoi"), ("layout", "watershed"),
    ("layout", "target"), ("layout", "pgm"), ("filtering", "fit"), ("filtering", "threshold"),
    ("pipeline", "self"), ("pipeline", "ema"), ("losses", "overlap"), ("losses", "distill"),
    ("losses", "scalar"), ("gradcheck", "self"),
)
COUNTS = ("dataset.records", "geometry.calls", "layout.mask_px", "filtering.fits",
          "filtering.em_iterations", "losses.overlap_pairs", "losses.scalar_calls",
          "gradcheck.loss_evals")


def _payload(layer: str, name: str, args, result):
    """What a span counts, read from its arguments and result."""
    if name == "parse_dota":
        return len(result)
    if name == "fit_gmm":
        return result.iterations, len(args[0])
    if name == "gaussian_overlap_loss":
        return len(args[0]) * (len(args[0]) - 1) // 2
    if name == "unsupervised_loss":
        return len(args[0])
    if name == "watershed_segment":
        return result  # masks; their pixels are counted after the job
    return None


class Tracer:
    def __init__(self, spwood):
        self.modules = [getattr(spwood, m) for m in GROUPS] + [spwood]
        self.targets = []  # (module or class, attribute, original, wrapper), one per alias
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kept: list[tuple[int, list]] = []  # (job id, spans) written by write()
        self.memory = False
        self.peaks: dict[str, float] = {}
        for layer, groups in GROUPS.items():
            module = getattr(spwood, layer)
            if groups is None:
                groups = {name: "self" for name, obj in vars(module).items()
                          if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                          and getattr(obj, "__module__", None) == module.__name__}
            for name, group in groups.items():
                owner, attr = module, name
                if "." in name:
                    owner, attr = getattr(module, name.split(".")[0]), name.split(".")[1]
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"trace: spwood.{layer}.{name} not found", file=sys.stderr)
                    continue
                wrapper = self._wrap(layer, group, attr, original)
                if isinstance(owner, type):
                    self.targets.append((owner, attr, original, wrapper))
                    continue
                for namespace in self.modules:
                    for key, value in vars(namespace).items():
                        if value is original:
                            self.targets.append((namespace, key, original, wrapper))

    def _wrap(self, layer: str, group: str, name: str, fn):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        memory_group = MEMORY_SPANS.get((layer, name))

        def wrapper(*args, **kwargs):
            rec = [layer, group, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            if self.memory and memory_group:
                tracemalloc.start()
            rec[3] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                stack.pop()
                if self.memory and memory_group:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = f"layout.{memory_group}_peak_mb"
                    self.peaks[key] = max(self.peaks.get(key, 0.0), peak)
            rec[6] = _payload(layer, name, args, result)
            return result

        return wrapper

    def _swap(self, install: bool) -> None:
        for owner, attr, original, wrapper in self.targets:
            setattr(owner, attr, wrapper if install else original)

    @contextlib.contextmanager
    def recording(self, j: int):
        """Trace one job; its spans stay in self.spans until job_metrics."""
        self.spans.clear()
        self.job = j
        self._swap(True)
        try:
            yield
        finally:
            self._swap(False)

    @contextlib.contextmanager
    def memory_recording(self, j: int):
        """Trace one job, with tracemalloc on inside the MEMORY_SPANS calls."""
        self.memory = True
        try:
            with self.recording(j):
                yield
        finally:
            self.memory = False

    def job_metrics(self, written_bytes: int) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[5] >= 0:
                child[rec[5]] += rec[4] - rec[3]
        ms = dict.fromkeys((f"{a}.{b}" for a, b in TIME_GROUPS), 0.0)
        counts = dict.fromkeys(COUNTS, 0)
        score_iterations = locations = 0
        for rec, inner in zip(spans, child):
            layer, group, name, start, end, parent, payload = rec
            key = f"{layer}.{group}"
            ms[key] = ms.get(key, 0.0) + (end - start - inner) * 1e3
            if layer == "geometry":
                counts["geometry.calls"] += 1
            elif layer == "losses":
                counts["losses.scalar_calls"] += group == "scalar"
                counts["gradcheck.loss_evals"] += parent >= 0 and spans[parent][0] == "gradcheck"
            if payload is None:
                continue
            if name == "parse_dota":
                counts["dataset.records"] += payload
            elif name == "fit_gmm":
                counts["filtering.fits"] += 1
                counts["filtering.em_iterations"] += payload[0]
                score_iterations += payload[0] * payload[1]
            elif name == "gaussian_overlap_loss":
                counts["losses.overlap_pairs"] += payload
            elif name == "unsupervised_loss":
                locations += payload
            elif name == "watershed_segment":
                counts["layout.mask_px"] += sum(int(m.sum()) for m in payload)
                rec[6] = None
        if not self.kept:
            self.kept.append((self.job, [list(r) for r in spans]))
        out = {f"{k}_ms": v for k, v in ms.items()}
        out.update(counts)

        def per(value, n, scale):
            return value * scale / n if n else 0.0

        out["cli.out_mb"] = written_bytes / 2**20
        out["dataset.parse_us_per_record"] = per(ms["dataset.parse"], counts["dataset.records"], 1e3)
        out["filtering.ns_per_score_iteration"] = per(ms["filtering.fit"], score_iterations, 1e6)
        out["losses.overlap_us_per_pair"] = per(ms["losses.overlap"], counts["losses.overlap_pairs"], 1e3)
        out["losses.distill_ns_per_location"] = per(ms["losses.distill"], locations, 1e6)
        self.spans.clear()
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for job, spans in self.kept:
                origin = spans[0][3] if spans else 0.0
                for i, (layer, group, name, start, end, parent, _) in enumerate(spans):
                    fh.write(json.dumps({
                        "job": job, "span": i, "parent": parent, "layer": layer, "group": group,
                        "name": name, "start_us": (start - origin) * 1e6, "dur_us": (end - start) * 1e6,
                    }) + "\n")


UNITS = {"cli.out_mb": "MB", "dataset.parse_us_per_record": "us",
         "filtering.ns_per_score_iteration": "ns", "losses.overlap_us_per_pair": "us",
         "losses.distill_ns_per_location": "ns"}


def unit(name: str) -> str:
    return UNITS.get(name) or ("ms" if name.endswith("_ms") else "count")


def summarize(per_job: list[dict], peaks: dict[str, float]) -> dict:
    """Counts: mean of the first COUNTED_JOBS traced jobs. Everything else:
    median over all traced jobs."""
    out = {}
    for name in per_job[0]:
        if name in COUNTS:
            value = statistics.fmean(job[name] for job in per_job[:COUNTED_JOBS])
        else:
            value = statistics.median(job[name] for job in per_job)
        out[name] = (value, unit(name))
    for name in ("layout.voronoi_peak_mb", "layout.watershed_peak_mb"):
        out[name] = (peaks.get(name, 0.0), "MB")
    return out
