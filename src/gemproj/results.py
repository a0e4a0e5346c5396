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

from .datagen import StreamSpec
from .metrics import AccuracyMatrix, aggregate, compute_all
from .trainer import NonFiniteLossError, RunLog, TrainConfig

SCHEMA_VERSION = "4"


def environment_fingerprint() -> dict:
    return {
        "package_version": _package_version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "precision": "float64",
        "monotonic_clock_resolution_s": time.get_clock_info("monotonic").resolution,
    }


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("gemproj")
    except Exception:
        return "unknown"


def build_run_result(
    config: TrainConfig,
    spec: StreamSpec,
    am_matrix: AccuracyMatrix,
    log: RunLog,
) -> dict:
    """Self-contained result document: re-running with the echoed config and
    seed reproduces the accuracy matrix bit-for-bit."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run_result",
        "config": config.to_dict(),
        "stream_spec": dataclasses.asdict(spec),
        "environment": environment_fingerprint(),
        "accuracy_matrix": [[float(v) for v in row] for row in am_matrix.R],
        "baseline": [float(v) for v in am_matrix.baseline],
        "metrics": compute_all(am_matrix, log.proj_times, n_classes=spec.n_classes),
        "n_projections": len(log.proj_times),
        "n_steps": len(log.steps),
        **({"replay_buffers": log.buffer_dump} if log.buffer_dump is not None else {}),
    }


def build_run_failure(config: TrainConfig, spec: StreamSpec, error: NonFiniteLossError) -> dict:
    """Document for a run that diverged: the config echo, the error and its
    diagnostic records."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run_failure",
        "config": config.to_dict(),
        "stream_spec": dataclasses.asdict(spec),
        "environment": environment_fingerprint(),
        "error": str(error),
        "diagnostics": error.diagnostics,
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


def parse_run_result(text: str) -> dict:
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema_version')!r}")
    return doc


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


CURVE_COLUMNS = [
    "task", "step", "loss", "proj_time", "lambda_norm",
    "max_violation", "violation_before", "projected",
]


def write_curves_csv(path: str, log: RunLog):
    """Flat per-step CSV (plot-ready; one row per training step)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CURVE_COLUMNS)
    writer.writerows(
        [r.task, r.step, repr(r.loss), repr(r.proj_time), repr(r.lambda_norm),
         repr(r.max_violation), repr(r.violation_before), int(r.projected)]
        for r in log.steps
    )
    atomic_write_text(path, buf.getvalue())
