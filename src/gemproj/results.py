"""Run-result documents and reproducibility artifacts.

Each run emits one human-readable JSON document (config echo, accuracy
matrix, metric block, environment fingerprint) plus a flat CSV of
per-step curve samples; a grid of runs additionally emits an aggregate
document with cross-seed mean and std per method.  Files are written
atomically (write-temp-then-rename) and all documents carry a schema
version that changes whenever a field changes meaning.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import platform
import tempfile
import time

import numpy as np

from . import __version__
from .datagen import StreamSpec
from .metrics import AccuracyMatrix, aggregate, compute_all
from .trainer import RunLog, StepRecord, TrainConfig

SCHEMA_VERSION = "9"

# The BLAS threading settings, read once when numpy loads; they can change
# the bits of a long dot product, so a run document names them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment_fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "precision": "float64",
        "perf_counter_resolution_s": time.get_clock_info("perf_counter").resolution,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads_env": {v: os.environ.get(v, "default") for v in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


def _run_header(kind: str, config: TrainConfig, spec: StreamSpec) -> dict:
    """The fields every per-run document opens with."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": dataclasses.asdict(config),
        "stream_spec": dataclasses.asdict(spec),
        "environment": environment_fingerprint(),
    }


def build_run_result(
    config: TrainConfig,
    spec: StreamSpec,
    am_matrix: AccuracyMatrix,
    log: RunLog,
) -> dict:
    """Self-contained result document: re-running with the echoed config and
    seed reproduces the accuracy matrix bit-for-bit.  Row 0 of the matrix is
    the pre-training baseline."""
    return {
        **_run_header("run_result", config, spec),
        "accuracy_matrix": [[float(v) for v in row] for row in am_matrix.R],
        "metrics": compute_all(am_matrix, log.proj_times, spec.n_classes),
        "n_projections": len(log.proj_times),
        "n_steps": len(log.steps),
    }


def build_run_failure(config: TrainConfig, spec: StreamSpec, error: str, diagnostics=()) -> dict:
    """Document for a run that diverged or lost its grid worker: the config
    echo, the error and its diagnostic records."""
    return {
        **_run_header("run_failure", config, spec),
        "error": error,
        "diagnostics": list(diagnostics),
    }


def build_aggregate(per_method_runs: dict[str, list[dict]]) -> dict:
    """Aggregate document: mean +/- sample std of each metric across seeds,
    one block per method."""
    methods = {}
    for method, docs in per_method_runs.items():
        methods[method] = {
            "seeds": [d["config"]["seed"] for d in docs],
            "metrics": aggregate([d["metrics"] for d in docs]),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "aggregate",
        "environment": environment_fingerprint(),
        "methods": methods,
    }


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc: dict):
    atomic_write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


CURVE_COLUMNS = [f.name for f in dataclasses.fields(StepRecord) if f.name != "timestamp"]


def _cell(value):
    """A float as its repr (round-trips exactly), a bool as 0/1."""
    if isinstance(value, bool):
        return int(value)
    return repr(value) if isinstance(value, float) else value


def write_curves_csv(path: str, log: RunLog):
    """Flat per-step CSV (plot-ready; one row per training step, one column
    per ``StepRecord`` field but the wall-clock timestamp)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CURVE_COLUMNS)
    writer.writerows([_cell(getattr(r, name)) for name in CURVE_COLUMNS] for r in log.steps)
    atomic_write_text(path, buf.getvalue())
