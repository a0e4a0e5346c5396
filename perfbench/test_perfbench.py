"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import report
import workloads
from gemproj import projector, trainer
from spans import FUNCTIONS, METHODS, NAME, PARENT, T0, T1, Tracer, self_times
from workloads import (
    DeskWorkload,
    Measurement,
    ProjectorCell,
    ProjectorWorkload,
    check_accuracy_matrix,
    check_cell,
    check_exact_steps,
    check_projection,
    projector_instances,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_match_the_code(bench):
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_json_is_within_its_limits(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8 and 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= bench["run_seconds"] <= 60
    names = [x["name"] for x in bench["workloads"] + bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME_RE.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT_RE.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(os.path.isdir(os.path.join(ROOT, p)) for p in bench["paths"])


def test_end_to_end_reports_every_metric():
    meas = Measurement(setup_s=[1.0, 2.0, 3.0],
                       steps={"setup.seed0": [1.0, 2.0], "igem.seed0": [1.5, 1.0]},
                       run_s={m: {"seed0": [0.5, 0.4], "seed1": [0.7]} for m in workloads.TRAIN_METHODS},
                       quality={"avg_acc.igem": 0.8})
    out = report.end_to_end(meas)
    assert list(out) == list(report.END_TO_END)
    assert out["setup_s"]["value"] == 2.0 and out["setup_s"]["n"] == 3
    assert out["avg_acc.igem"]["value"] == 0.8
    # grid_s sums each step's median; run_s is the median over cells of each cell's median
    assert out["grid_s"]["value"] == 2.75 and out["run_s.igem"]["value"] == pytest.approx(0.575)
    # a host running the reference kernel at half speed halves every timing
    meas.host = [2 * workloads.REFERENCE_KERNEL_S] * 3
    slow = report.end_to_end(meas)
    assert slow["grid_s"]["value"] == pytest.approx(1.375) and slow["grid_s"]["raw"] == 2.75
    assert slow["avg_acc.igem"]["value"] == 0.8


def test_summary_percentile_keeps_ten_samples_beyond_it():
    out = report.summarize([float(i) for i in range(20)])
    assert out == {"median": 9.5, "n": 20, "p50": 9.0}
    assert set(report.summarize([1.0] * 10)) == {"median", "n"}


@pytest.fixture(scope="module")
def traced_desk():
    """One desk cell pair, traced, with its untraced twin pass."""
    tracer = Tracer()
    wl = DeskWorkload("desk", (0,), methods=("igem", "agem"))
    with tempfile.TemporaryDirectory() as workdir:
        meas = wl.measure(0.0, 3, tracer, workdir)
    return meas, tracer


def test_traced_run_is_correct_and_restores_the_program(traced_desk):
    meas, _ = traced_desk
    assert meas.failed == 0, meas.errors
    assert all(len(r) == 1 for r in (*meas.steps.values(), *meas.traced_steps.values()))
    assert meas.steps.keys() == meas.traced_steps.keys()
    for owner, attr, _, _ in FUNCTIONS + METHODS:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


def test_spans_nest_and_self_times_sum_to_the_parent(traced_desk):
    _, tracer = traced_desk
    spans = tracer.spans
    selfs = self_times(spans)
    children = {}
    for i, rec in enumerate(spans):
        assert rec[T1] >= rec[T0]
        if rec[PARENT] >= 0:
            parent = spans[rec[PARENT]]
            assert rec[PARENT] < i and parent[T0] <= rec[T0] and rec[T1] <= parent[T1]
            children.setdefault(rec[PARENT], []).append(i)
    for i, rec in enumerate(spans):
        kids = sum(spans[k][T1] - spans[k][T0] for k in children.get(i, []))
        assert selfs[i] >= -1e-9
        assert selfs[i] + kids == pytest.approx(rec[T1] - rec[T0], abs=1e-12)
    roots = [i for i, rec in enumerate(spans) if rec[PARENT] < 0]
    assert [spans[i][NAME] for i in roots] == ["pass"]
    assert sum(selfs) == pytest.approx(spans[0][T1] - spans[0][T0], rel=1e-9)


def test_per_layer_reports_every_metric_and_sees_every_layer(traced_desk):
    meas, tracer = traced_desk
    out = report.per_layer(meas, tracer.spans)
    assert list(out) == list(report.PER_LAYER)
    v = {k: m["value"] for k, m in out.items()}
    assert v["replay.build_calls"] > 0 and v["projector.pgd_calls"] > 0
    assert v["adapter_model.backward_calls"] == (
        v["adapter_model.backward_calls.step"] + v["adapter_model.backward_calls.build"]
        + v["adapter_model.backward_calls.agem_ref"])
    # igem's builds reach pgd_project, agem's never reach a projector.
    assert 0.0 < v["replay.build_useful_ratio"] < 1.0
    assert v["share.naive.insert"] == 0.0 and v["share.agem.agem"] > 0.0
    shares = sum(v[f"share.igem.{layer}"] for layer in report.SHARE_LAYERS)
    assert 0.9 < shares <= 1.0 + 1e-9


def test_accuracy_checks_trip():
    assert check_accuracy_matrix(np.array([[0.5, np.nan], [0.5, 0.5], [0.1, 0.2]]))
    assert check_accuracy_matrix(np.array([[0.5, 1.5], [0.5, 0.5], [0.1, 0.2]]))
    assert not check_accuracy_matrix(np.array([[0.5, 1.0], [0.0, 0.5], [0.1, 0.2]]))
    log = trainer.RunLog()
    log.add_step(trainer.StepRecord(0, 0, 1.0, 0.0, 0.0, 2e-9, 0.0, True, 0.0))
    assert check_exact_steps(log)


def test_projection_check_trips_on_a_wrong_reconstruction():
    rng = np.random.default_rng(0)
    G = projector.ConstraintMatrix.from_rows(rng.standard_normal((3, 50)), normalize=True)
    g = rng.standard_normal(50)
    res = projector.exact_qp_project(g, G)
    assert check_projection(g, G.data, res, feasible=True) == []
    res.projected_gradient = res.projected_gradient + 1e-9
    assert check_projection(g, G.data, res, feasible=False)


def _infeasible_exact(g, G, enum_limit=16):
    """An 'exact' projection that returns g itself: consistent, but infeasible."""
    return projector.ProjectionResult(np.array(g, dtype=float), projector.DualState.cold(G.rows),
                                      0.0, 1, 0.0)


def test_projector_workload_counts_an_injected_infeasible_projection(monkeypatch):
    cells = (ProjectorCell("gem_exact", 4, 2000), ProjectorCell("igem", 4, 2000, 3))
    G, g = projector_instances(0, cells)[(4, 2000)]
    assert (G.data @ g).min() < 0.0  # the instance needs projecting

    wl = ProjectorWorkload()
    wl.cells = cells
    monkeypatch.setattr(wl, "_reference_quality", lambda meas, workdir: {})
    clean = wl.measure(0.0, 0, None, None)
    assert clean.failed == 0, clean.errors

    monkeypatch.setattr(projector, "exact_qp_project", _infeasible_exact)
    assert check_cell(cells[0], G, g, _infeasible_exact(g, G))
    meas = wl.measure(0.0, 0, None, None)
    assert meas.failed == 1 and "infeasible" in meas.errors[0]
    assert meas.attempted == clean.attempted


def test_an_exception_is_a_failed_operation():
    meas = Measurement()
    assert meas.op(lambda: 1 / 0) is None
    assert meas.op(lambda: 2) == 2
    assert (meas.attempted, meas.failed) == (2, 1) and "ZeroDivisionError" in meas.errors[0]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
