"""Turn a workload's samples and spans into the benchmark's named metrics.

End-to-end metrics come from untraced passes; per-layer metrics come from
the traced passes of a separate ``--trace 1`` run.  Each per-layer value
is the median over traced passes of that pass's total, so counts repeat
exactly and times are per grid pass.
"""

from __future__ import annotations

import math
import resource
import statistics
from collections import defaultdict

from spans import ATTRS, NAME, PARENT, T0, T1, owners, self_times
from workloads import PROJECTOR_CELLS, TRAIN_METHODS, Measurement

# name -> unit; the order is the order printed.
END_TO_END = {
    "setup_s": "s",
    "grid_s": "s",
    **{f"run_s.{m}": "s" for m in TRAIN_METHODS},
    **{f"avg_acc.{m}": "fraction" for m in TRAIN_METHODS},
    **{f"bwt.{m}": "fraction" for m in TRAIN_METHODS},
    "residual_rate.igem": "fraction",
    "peak_rss_mb": "MB",
}

# Layers that partition a run: share.<method>.<layer> is the layer's time
# over the method's traced run_experiences (on projector, its cells') time.
# A backward call belongs to the build or A-GEM reference that made it, so
# "build" and "agem_ref" include their backward calls and "backward_step"
# is the step's own backward; every other layer is its spans' self time.
SHARE_LAYERS = {
    "insert": "replay.insert",
    "build": "replay.build",
    "backward_step": None,
    "agem_ref": "trainer.agem_ref",
    "phi_copy": "adapter_model.phi_copy",
    "pgd": "projector.pgd",
    "exact": "projector.exact",
    "agem": "projector.agem",
    "violation_check": "projector.violation_check",
    "power_iteration": "spectral.power_iteration",
    "optimizer": "trainer.optimizer",
    "eval": "trainer.eval",
    "train_step_self": "trainer.train_step",
}
_LAYER_OF_SPAN = {span: layer for layer, span in SHARE_LAYERS.items() if span}
BACKWARD_PARENTS = {"trainer.train_step": "step", "replay.build": "build", "trainer.agem_ref": "agem_ref"}

# (metric, unit, how to read it from one pass's totals)
_S, _SELF, _CALLS = ":s", ":self", ":calls"
PER_LAYER_SOURCES = [
    ("datagen.generate_stream_s", "s", "datagen.generate_stream" + _S),
    ("datagen.ingest_csv_s", "s", "datagen.ingest_csv" + _S),
    ("datagen.ingest_rows", "count", "datagen.ingest_csv:rows"),
    ("adapter_model.pretrain_s", "s", "adapter_model.pretrain" + _S),
    ("replay.insert_s", "s", "replay.insert" + _S),
    ("replay.insert_calls", "count", "replay.insert" + _CALLS),
    ("replay.insert_rows", "count", "replay.insert:rows"),
    ("replay.build_s", "s", "replay.build" + _S),
    ("replay.build_self_s", "s", "replay.build" + _SELF),
    ("replay.build_calls", "count", "replay.build" + _CALLS),
    ("replay.build_useful_ratio", "fraction", None),
    ("adapter_model.backward_s", "s", "adapter_model.backward" + _S),
    ("adapter_model.backward_calls", "count", "adapter_model.backward" + _CALLS),
    ("adapter_model.backward_rows", "count", "adapter_model.backward:rows"),
    *[(f"adapter_model.backward_{k}.{p}", u, f"backward.{p}:{k}")
      for p in BACKWARD_PARENTS.values()
      for k, u in (("s", "s"), ("calls", "count"), ("rows", "count"))],
    ("adapter_model.phi_copy_s", "s", "adapter_model.phi_copy" + _S),
    ("projector.pgd_s", "s", "projector.pgd" + _S),
    ("projector.pgd_calls", "count", "projector.pgd" + _CALLS),
    ("projector.pgd_md_ops", "count", "projector.pgd:md_ops"),
    ("projector.exact_s", "s", "projector.exact" + _S),
    ("projector.exact_calls", "count", "projector.exact" + _CALLS),
    ("projector.exact_subsets", "count", "projector.exact:subsets"),
    ("projector.agem_s", "s", "projector.agem" + _S),
    ("projector.violation_check_s", "s", "projector.violation_check" + _S),
    ("spectral.power_iteration_s", "s", "spectral.power_iteration" + _S),
    ("spectral.power_iteration_calls", "count", "spectral.power_iteration" + _CALLS),
    ("trainer.train_step_self_s", "s", "trainer.train_step" + _SELF),
    ("trainer.optimizer_s", "s", "trainer.optimizer" + _S),
    ("trainer.eval_s", "s", "trainer.eval" + _S),
    ("trainer.eval_calls", "count", "trainer.eval" + _CALLS),
    ("trainer.agem_ref_s", "s", "trainer.agem_ref" + _S),
    ("trainer.run_s", "s", "trainer.run_experiences" + _S),
    ("trainer.run_experiences_self_s", "s", "trainer.run_experiences" + _SELF),
    ("results.build_s", "s", "results.build" + _S),
    ("results.write_s", "s", "results.write" + _S),
    ("results.bytes_written", "bytes", "results.write:bytes"),
    *[(f"projector.call_s.{c.name}", "s", f"cell.{c.name}") for c in PROJECTOR_CELLS],
    *[(f"share.{m}.{layer}", "fraction", None) for m in TRAIN_METHODS for layer in SHARE_LAYERS],
]
PER_LAYER = {name: unit for name, unit, _ in PER_LAYER_SOURCES}
PER_LAYER["trace.overhead_s"] = "s"


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples) if samples else 0.0, "n": n}
    if n >= 11:
        ordered = sorted(samples)
        out[f"p{math.floor(100 * (n - 10) / n)}"] = ordered[n - 11]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_cell(cells: dict[str, list[float]], combine) -> float:
    """``combine`` (median or sum) over cells of each cell's median repeat."""
    medians = [statistics.median(r) for r in cells.values() if r]
    return combine(medians) if medians else 0.0


def per_pass(cells: dict[str, list[float]]) -> list[float]:
    """Each pass's total over the cells (repeat i of every cell is pass i)."""
    n = min(map(len, cells.values()), default=0)
    return [sum(r[i] for r in cells.values()) for i in range(n)]


def end_to_end(meas: Measurement) -> dict[str, dict]:
    """Every END_TO_END metric as {"value", "unit"}, timings with their summary.

    setup_s is the median set-up; grid_s sums the median repeat of every
    step of a pass; run_s.<method> is the median over data seeds of each
    cell's median run (projector: the sum over the method's cells).  All
    three are in reference seconds (see ``Measurement.host_scale``).  The
    raw value and the median, high percentile and count of the raw samples
    (whole passes for sums) are kept beside them.
    """
    scale = meas.host_scale()

    def run_s(cells):
        if meas.sum_cells:
            return per_cell(cells, sum), per_pass(cells)
        return per_cell(cells, statistics.median), [t for r in cells.values() for t in r]

    timings = {
        "setup_s": (statistics.median(meas.setup_s) if meas.setup_s else 0.0, meas.setup_s),
        "grid_s": (per_cell(meas.steps, sum), per_pass(meas.steps)),
        **{f"run_s.{m}": run_s(cells) for m, cells in meas.run_s.items()},
    }
    out = {}
    for name, unit in END_TO_END.items():
        if name in timings:
            value, samples = timings[name]
            raw = summarize(samples)
            out[name] = {"value": scale * value, "unit": unit, "raw": value,
                         "raw_sample_median": raw.pop("median"), **raw}
        elif name == "peak_rss_mb":
            out[name] = {"value": peak_rss_mb(), "unit": unit}
        else:
            out[name] = {"value": meas.quality.get(name, 0.0), "unit": unit}
    return out


def pass_totals(spans: list[list]) -> list[dict[str, float]]:
    """One dict of totals per traced pass, keyed '<span>:<field>'."""
    selfs = self_times(spans)
    pass_of = owners(spans, {"pass"})
    owner = owners(spans, {"trainer.run_experiences", "projector.cell"})
    totals: dict[int, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        if pass_of[i] < 0 or pass_of[i] == i:
            continue
        acc = totals.setdefault(pass_of[i], defaultdict(float))
        name, dur = rec[NAME], rec[T1] - rec[T0]
        attrs = rec[ATTRS] or {}
        acc[name + _S] += dur
        acc[name + _SELF] += selfs[i]
        acc[name + _CALLS] += 1
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                acc[f"{name}:{key}"] += value
        if name == "adapter_model.backward":
            parent = BACKWARD_PARENTS.get(spans[rec[PARENT]][NAME], "other") if rec[PARENT] >= 0 else "other"
            acc[f"backward.{parent}:s"] += dur
            acc[f"backward.{parent}:calls"] += 1
            acc[f"backward.{parent}:rows"] += attrs.get("rows", 0)
        if name == "projector.cell":
            acc[f"cell.{attrs['cell']}"] += dur / attrs["calls"]
        if owner[i] >= 0:
            method = spans[owner[i]][ATTRS]["method"]
            layer = _LAYER_OF_SPAN.get(name)
            if name == "adapter_model.backward":
                layer = {"build": "build", "agem_ref": "agem_ref"}.get(parent, "backward_step")
            acc[f"{method}|{layer}"] += selfs[i]
            if owner[i] == i:
                acc[f"{method}|total"] += dur
    return [totals[k] for k in sorted(totals)]


def per_layer(meas: Measurement, spans: list[list]) -> dict[str, dict]:
    """Every PER_LAYER metric, each the median over traced passes."""
    passes = pass_totals(spans)

    def value(acc, name, source):
        if source is not None:
            return acc.get(source, 0.0)
        if name == "replay.build_useful_ratio":
            calls = acc.get("replay.build" + _CALLS, 0.0)
            return acc.get("replay.build:useful", 0.0) / calls if calls else 0.0
        _, method, layer = name.split(".")
        total = acc.get(f"{method}|total", 0.0)
        return acc.get(f"{method}|{layer}", 0.0) / total if total else 0.0

    out = {}
    for name, unit, source in PER_LAYER_SOURCES:
        values = [value(acc, name, source) for acc in passes]
        out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    # Same estimator as grid_s, on traced and untraced passes of one run.
    overhead = meas.host_scale() * (per_cell(meas.traced_steps, sum) - per_cell(meas.steps, sum))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out
