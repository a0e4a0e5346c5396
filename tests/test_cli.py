import csv
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

import gemproj
from gemproj.cli import main
from gemproj.datagen import StreamSpec, generate_stream, read_csv
from gemproj.results import (
    CURVE_COLUMNS,
    atomic_write_text,
    build_run_result,
    environment_fingerprint,
    write_curves_csv,
)
from gemproj.trainer import StepRecord, TrainConfig, prepare_model, run_experiences

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


# --- result documents -------------------------------------------------------------

def small_doc(seed=0, method="naive"):
    spec = StreamSpec(seed=seed, n_per_experience=200, feature_dim=8)
    stream = generate_stream(spec)
    from gemproj import adapter_model as am

    model = prepare_model(spec, seed, model_config=am.ModelConfig(input_dim=8, hidden_dim=6))
    cfg = TrainConfig(method=method, seed=seed)
    matrix, log = run_experiences(cfg, stream, model)
    return build_run_result(cfg, spec, matrix, log), log


def test_config_echo_round_trips():
    doc, _ = small_doc(seed=3, method="agem")
    assert TrainConfig(**doc["config"]) == TrainConfig(method="agem", seed=3)


def test_run_result_document_shape():
    doc, _ = small_doc()
    assert doc["schema_version"] == "8"
    assert doc["kind"] == "run_result"
    R = np.array(doc["accuracy_matrix"])
    assert R.shape == (4, 3)
    assert "baseline" not in doc  # the baseline is row 0 of the accuracy matrix
    assert doc["environment"]["precision"] == "float64"
    assert set(doc["metrics"]) >= {"avg_acc", "bwt", "fwt", "forgetting", "mpo"}
    assert "diagnostics" not in doc  # only a failure document carries them
    # document survives a JSON round trip
    assert json.loads(json.dumps(doc))["metrics"]["avg_acc"] == doc["metrics"]["avg_acc"]


def test_run_document_carries_the_package_version():
    doc, _ = small_doc()
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'^\[project\][^\[]*?^version = "([^"]+)"', pyproject, re.M | re.S)[1]
    assert doc["environment"]["package_version"] == gemproj.__version__ == declared


def test_run_document_reports_the_clock_its_timings_come_from():
    # proj_time, and so mpo, is measured on time.perf_counter
    env = small_doc()[0]["environment"]
    assert env["perf_counter_resolution_s"] == time.get_clock_info("perf_counter").resolution
    assert "monotonic_clock_resolution_s" not in env


def test_run_document_names_the_blas_and_its_thread_settings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    env = environment_fingerprint()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "2"
    assert env["blas_threads_env"]["OMP_NUM_THREADS"] == "default"
    assert set(env["blas_threads_env"]) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS"}
    assert env["nproc"] == os.cpu_count()
    assert json.loads(json.dumps(env)) == env


def test_atomic_write_leaves_no_partial_files(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_text(str(path), "hello")
    assert path.read_text() == "hello"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_failed_curves_write_leaves_no_temp_file(tmp_path, monkeypatch):
    _, log = small_doc()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_curves_csv(str(tmp_path / "curves.csv"), log)
    assert list(tmp_path.iterdir()) == []


def test_curves_csv_has_one_row_per_step(tmp_path):
    doc, log = small_doc()
    path = tmp_path / "curves.csv"
    write_curves_csv(str(path), log)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("task,step,loss")
    assert len(lines) == 1 + doc["n_steps"]


def test_curves_columns_are_the_step_record_fields_but_timestamp():
    names = [f.name for f in dataclasses.fields(StepRecord)]
    assert CURVE_COLUMNS == [n for n in names if n != "timestamp"]


def hand_written_curves(log) -> bytes:
    """A curves CSV with its columns and row cells spelled out by hand."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["task", "step", "loss", "proj_time", "lambda_norm",
                     "max_violation", "violation_before", "projected"])
    writer.writerows(
        [r.task, r.step, repr(r.loss), repr(r.proj_time), repr(r.lambda_norm),
         repr(r.max_violation), repr(r.violation_before), int(r.projected)]
        for r in log.steps
    )
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("method", ["naive", "agem", "igem", "gem_exact"])
def test_curves_csv_matches_the_hand_written_rows(tmp_path, method):
    _, log = small_doc(method=method)
    path = tmp_path / "curves.csv"
    write_curves_csv(str(path), log)
    assert path.read_bytes() == hand_written_curves(log)
    assert any(r.projected for r in log.steps) == (method != "naive")


def test_projection_count_and_mpo_match_the_curves_csv(tmp_path):
    out = tmp_path / "res"
    assert run_cli("run", "--methods", "naive,igem", "--seeds", "0", "--out", str(out),
                   "--n-per-experience", "200", "--feature-dim", "8") == 0
    for method in ("naive", "igem"):
        doc = json.loads((out / f"run_{method}_seed0.json").read_text())
        with open(out / f"run_{method}_seed0_curves.csv", newline="") as fh:
            times = [float(r["proj_time"]) for r in csv.DictReader(fh) if r["projected"] == "1"]
        assert doc["n_projections"] == len(times)
        assert doc["metrics"]["mpo"] == (float(np.mean(times)) if times else None)
    assert doc["n_projections"] > 0  # igem projects once a past task exists


# --- CLI subcommands ---------------------------------------------------------------

def test_cli_run_writes_results_and_aggregate(tmp_path, capsys):
    out = tmp_path / "res"
    code = run_cli(
        "run", "--methods", "naive,igem", "--seeds", "0,2", "--out", str(out),
        "--n-per-experience", "200", "--feature-dim", "8",
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "run_naive_seed0.json" in names and "run_igem_seed2.json" in names
    assert "run_igem_seed2_curves.csv" in names
    agg = json.loads((out / "aggregate.json").read_text())
    assert set(agg["methods"]) == {"naive", "igem"}
    assert agg["methods"]["igem"]["metrics"]["avg_acc"]["n"] == 2


def test_cli_serial_grid_sets_each_seed_up_once_and_trains_each_cell_on_a_copy(tmp_path, monkeypatch, capsys):
    import gemproj.cli as cli

    calls = []
    monkeypatch.setattr(cli, "prepare_model", lambda spec, seed: calls.append(seed) or prepare_model(spec, seed))
    monkeypatch.delenv("GEMPROJ_WORKERS", raising=False)
    assert run_cli("run", "--methods", "naive,agem,igem", "--seeds", "3,1", "--out", str(tmp_path),
                   "--n-per-experience", "200", "--feature-dim", "8") == 0
    assert sorted(calls) == [1, 3]
    # the grid runs seed-major, but its documents are written in grid order
    wrote = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert wrote == [f"run_{m}_seed{s}.json" for m in ("naive", "agem", "igem") for s in (3, 1)] + [
        "aggregate.json"]
    # each cell trained the pretrained model as a cell set up on its own would
    for method in ("naive", "agem", "igem"):
        for seed in (3, 1):
            spec = StreamSpec(seed=seed, n_per_experience=200, feature_dim=8)
            cfg = TrainConfig(method=method, seed=seed)
            matrix, _ = run_experiences(cfg, generate_stream(spec), prepare_model(spec, seed))
            doc = json.loads((tmp_path / f"run_{method}_seed{seed}.json").read_text())
            assert doc["accuracy_matrix"] == matrix.R.tolist()


def test_cli_result_that_cannot_be_written_exits_5_and_writes_the_rest(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "run_naive_seed1.json").mkdir(parents=True)
    code = run_cli("run", "--methods", "naive,igem", "--seeds", "0,1", "--out", str(out),
                   "--n-per-experience", "200", "--feature-dim", "8")
    assert code == 5
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out / 'run_naive_seed1.json'}: Is a directory\n"
    for stem in ("run_naive_seed0", "run_igem_seed0", "run_igem_seed1"):
        assert (out / f"{stem}.json").is_file() and (out / f"{stem}_curves.csv").is_file()
    assert not (out / "run_naive_seed1_curves.csv").exists()
    assert not [p.name for p in out.iterdir() if p.name.startswith(".tmp_")]
    agg = json.loads((out / "aggregate.json").read_text())
    assert {m: block["seeds"] for m, block in agg["methods"].items()} == {"naive": [0], "igem": [0, 1]}


def test_cli_gen_data_write_failure_exits_5_naming_the_path(tmp_path, monkeypatch, capsys):
    import gemproj.cli as cli

    def refused(stream, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "dump_csv", refused)
    out = tmp_path / "g.csv"
    assert run_cli("gen-data", "--out", str(out), "--n-per-experience", "10") == 5
    assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"


def test_cli_run_is_byte_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli("run", "--methods", "igem", "--seeds", "7", "--out", str(out),
                       "--n-per-experience", "200", "--feature-dim", "8") == 0
        doc = json.loads((out / "run_igem_seed7.json").read_text())
        outs.append(json.dumps(doc["accuracy_matrix"]))
    assert outs[0] == outs[1]


def test_cli_rerun_from_echoed_config_reproduces_matrix(tmp_path):
    out1 = tmp_path / "one"
    assert run_cli("run", "--methods", "igem", "--seeds", "3", "--out", str(out1),
                   "--n-per-experience", "200", "--feature-dim", "8") == 0
    doc = json.loads((out1 / "run_igem_seed3.json").read_text())
    # rebuild the run purely from the echoed config + stream spec
    cfg = TrainConfig(**doc["config"])
    spec = StreamSpec(**doc["stream_spec"])
    stream = generate_stream(spec)
    model = prepare_model(spec, cfg.seed)
    matrix, _ = run_experiences(cfg, stream, model)
    np.testing.assert_array_equal(matrix.R, np.array(doc["accuracy_matrix"]))


# fields that a schema bump removed, each with a value it took, and the
# config file that once gave the same settings as the flags
REMOVED_FIELDS = [
    ("train_epochs", 2), ("power_iters", 30), ("skip_when_feasible", True), ("violation_tol", 0.1),
    ("eval_every", 3), ("memory_strength", 0.3), ("dump_buffers", True), ("adamw_beta1", 0.9),
    ("adamw_beta2", 0.999), ("adamw_eps", 1e-8), ("weight_decay", 0.0), ("noise_scale", 1.0),
    ("config", "x.json"),
]


@pytest.mark.parametrize("field,value", REMOVED_FIELDS, ids=[f"{field}-{value}" for field, value in REMOVED_FIELDS])
def test_cli_config_with_a_removed_field_exits_2_before_writing(tmp_path, capsys, field, value):
    flag, out = "--" + field.replace("_", "-"), tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli("run", flag, str(value), "--out", str(out))
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods,seeds,repeated", [
    ("naive", "0,0", "seed 0"), ("naive,igem,naive", "0", "method 'naive'"),
])
def test_cli_rejects_a_repeated_grid_cell_before_writing(tmp_path, capsys, methods, seeds, repeated):
    out = tmp_path / "o"
    assert run_cli("run", "--methods", methods, "--seeds", seeds, "--out", str(out)) == 2
    assert f"{repeated} appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["1.5", "0,x", "-1", "0,"])
def test_cli_malformed_seeds_flag_names_it_before_writing(tmp_path, capsys, seeds):
    out = tmp_path / "o"
    assert run_cli("run", "--methods", "naive", "--seeds", seeds, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: --seeds must be a comma list of integers >= 0, got {seeds!r}\n"
    assert not out.exists()


# fields that `run` sets per grid cell, from --methods/--seeds and train.n_experiences
GRID_OWNED = {("train", "method"), ("train", "seed"), ("stream", "seed"), ("stream", "n_experiences")}
SECTION_FIELDS = [(section, f) for section, cls in (("train", TrainConfig), ("stream", StreamSpec))
                  for f in dataclasses.fields(cls)]


def record_cells(monkeypatch):
    """Replace the run of each cell by recording its (config, spec)."""
    import gemproj.cli as cli

    cells = []

    def record(config, spec, table):
        cells.append((config, spec))
        return {"error": "not run"}, None  # a failure document, so the run exits 3

    monkeypatch.setattr(cli, "execute_run", record)
    monkeypatch.delenv("GEMPROJ_WORKERS", raising=False)
    return cells


@pytest.mark.parametrize("section,field", SECTION_FIELDS,
                         ids=[f"{section}.{f.name}" for section, f in SECTION_FIELDS])
def test_every_setting_is_a_run_flag_and_config_key_or_grid_owned(tmp_path, monkeypatch, section, field):
    cells = record_cells(monkeypatch)
    if (section, field.name) in GRID_OWNED:
        # no flag of its own: the grid sets it per cell
        assert run_cli("run", "--methods", "naive,agem", "--seeds", "3", "--n-experiences", "2",
                       "--out", str(tmp_path / "o")) == 3
        want = {"method": {"naive", "agem"}, "seed": {3}, "n_experiences": {2}}[field.name]
        assert {getattr(config if section == "train" else spec, field.name) for config, spec in cells} == want
        return
    # a valid value other than the default, so the cell shows where it came from
    other = {"int": lambda v: v + 1, "float": lambda v: v / 2, "str": {"sgd": "adamw"}.get}
    value = other[field.type](field.default)
    flag = "--" + field.name.replace("_", "-")
    assert run_cli("run", "--methods", "naive", "--out", str(tmp_path / "o"), flag, str(value)) == 3
    [(config, spec)] = cells
    assert getattr(config if section == "train" else spec, field.name) == value


@pytest.mark.parametrize("flag", ["--methods", "--seeds"])
def test_cli_empty_grid_flag_exits_2_before_writing(tmp_path, capsys, flag):
    out = tmp_path / "o"
    assert run_cli("run", flag, "", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_python_dash_m_gemproj_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = tmp_path / "s.csv"
    proc = subprocess.run([sys.executable, "-m", "gemproj", "gen-data", "--out", str(out),
                           "--n-per-experience", "20"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {out}: 3 experiences, 60 rows\n"
    assert out.read_text().count("\n") == 61


def test_cli_run_missing_dataset_names_path(tmp_path, capsys):
    code = run_cli("run", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2 and "nope.csv" in err


@pytest.mark.parametrize("argv", [["run", "--data"], ["gen-data", "--out"]],
                         ids=["run-data", "gen-data-out"])
def test_cli_directory_where_a_file_belongs_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run_cli(*argv, str(tmp_path), *(["--out", str(out)] if argv[0] == "run" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[1]} {tmp_path}: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_run_with_csv_dataset(tmp_path):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--out", str(data), "--n-per-experience", "100",
                   "--feature-dim", "8", "--seed", "1") == 0
    out = tmp_path / "res"
    assert run_cli("run", "--methods", "naive", "--seeds", "1", "--data", str(data),
                   "--out", str(out), "--feature-dim", "8") == 0
    doc = json.loads((out / "run_naive_seed1.json").read_text())
    assert np.array(doc["accuracy_matrix"]).shape == (4, 3)


def test_cli_run_csv_experience_count_mismatch(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--out", str(data), "--n-per-experience", "100",
                   "--feature-dim", "8", "--seed", "1") == 0
    code = run_cli("run", "--method", "naive", "--seeds", "1", "--data", str(data),
                   "--out", str(tmp_path / "o"), "--feature-dim", "8",
                   "--n-experiences", "2")
    err = capsys.readouterr().err
    assert code == 2 and "3 experiences" in err
    assert not (tmp_path / "o").exists()


def _gen_csv(tmp_path, *flags):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--out", str(data), "--n-per-experience", "100", *flags) == 0
    return data


def test_cli_run_empty_seed_list_with_csv_exits_2_before_writing(tmp_path, capsys):
    data = _gen_csv(tmp_path, "--feature-dim", "8")
    out = tmp_path / "o"
    assert run_cli("run", "--seeds", "", "--data", str(data), "--out", str(out),
                   "--feature-dim", "8") == 2
    err = capsys.readouterr().err
    assert err == "error: --seeds must be a comma list of integers >= 0, got ''\n"
    assert not out.exists()


def test_cli_run_non_finite_csv_cell_exits_2_before_writing(tmp_path, capsys):
    data = _gen_csv(tmp_path, "--feature-dim", "8")
    lines = data.read_text().splitlines()
    lines[5] = "nan" + lines[5][lines[5].index(","):]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    code = run_cli("run", "--methods", "naive", "--data", str(data), "--out", str(out),
                   "--feature-dim", "8")
    err = capsys.readouterr().err
    assert code == 2 and "data.csv:6: non-finite feature in column f0: 'nan'" in err
    assert not out.exists()


def test_cli_run_feature_dim_mismatch_exits_2_before_writing(tmp_path, capsys):
    data = _gen_csv(tmp_path, "--feature-dim", "8")
    out = tmp_path / "o"
    code = run_cli("run", "--methods", "naive", "--data", str(data), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2 and "dim 8, expected feature_dim 32" in err and "--feature-dim 8" in err
    assert not out.exists()


def test_cli_run_one_row_experience_exits_2_before_writing(tmp_path, capsys):
    data = tmp_path / "data.csv"
    rows = [f"{i}.5,{i % 2},{e}" for i, e in enumerate([0, 0, 1, 2, 2, 2])]
    data.write_text("f0,label,experience\n" + "\n".join(rows) + "\n")
    out = tmp_path / "o"
    code = run_cli("run", "--methods", "naive", "--data", str(data), "--out", str(out),
                   "--feature-dim", "1")
    err = capsys.readouterr().err
    assert code == 2 and "experience 1 has 1 row" in err
    assert not out.exists()


def test_cli_run_parses_the_csv_once_per_grid(tmp_path, monkeypatch):
    import gemproj.cli as cli

    data = _gen_csv(tmp_path, "--feature-dim", "8")
    calls = []
    monkeypatch.setattr(cli, "read_csv", lambda *a, **k: calls.append(a) or read_csv(*a, **k))
    results = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("GEMPROJ_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert run_cli("run", "--methods", "naive,agem", "--seeds", "0,3", "--data", str(data),
                       "--out", str(out), "--feature-dim", "8") == 0
        doc = json.loads((out / "run_agem_seed3.json").read_text())
        results[workers] = doc["accuracy_matrix"]
    assert len(calls) == 2  # once per grid, not once per cell
    assert results["1"] == results["2"]


def test_cli_method_flag_singular_alias(tmp_path):
    out = tmp_path / "res"
    assert run_cli("run", "--method", "naive", "--seeds", "0", "--out", str(out),
                   "--n-per-experience", "200", "--feature-dim", "8") == 0
    assert (out / "run_naive_seed0.json").exists()


# prefixes of live flags: argparse's allow_abbrev would take each as that flag
ABBREVIATED_FLAGS = [("--seed", "5"), ("--n-exp", "2"), ("--memory", "7")]


@pytest.mark.parametrize("flag,value", ABBREVIATED_FLAGS, ids=[flag for flag, _ in ABBREVIATED_FLAGS])
def test_cli_abbreviated_flag_exits_2_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli("run", flag, value, "--out", str(out))
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gen_data_round_trips(tmp_path):
    path = tmp_path / "stream.csv"
    assert run_cli("gen-data", "--out", str(path), "--n-per-experience", "50",
                   "--feature-dim", "4", "--seed", "9") == 0
    from gemproj.datagen import ingest_csv

    splits = ingest_csv(str(path), n_classes=4, seed=9)
    assert len(splits) == 3
    assert sum(s.n_train + s.n_test for s in splits) == 150


def test_run_help_documents_every_config_flag_with_its_default(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for section, f in SECTION_FIELDS:
        if (section, f.name) not in GRID_OWNED:
            flag = "--" + f.name.replace("_", "-")
            assert f"{flag} {f.name.upper()} default: {f.default}" in text


def test_readme_docstring_and_parser_name_the_same_subcommands():
    import argparse

    import gemproj.cli as cli

    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    in_readme = set(re.findall(r"\bgemproj ([a-z][a-z-]*)", block))
    listing = cli.__doc__.split("Subcommands:\n", 1)[1].split("\n\n", 1)[0]
    in_docstring = {line.split()[0] for line in listing.splitlines()}
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert "run" in in_readme
    assert in_readme == in_docstring == set(sub.choices)
    # every flag a README command line shows is one its subcommand accepts, spelled out
    for line in block.splitlines():
        if (match := re.search(r"\bgemproj ([a-z][a-z-]*)(.*)", line)):
            command, rest = match.groups()
            for flag in re.findall(r"--[a-z][a-z0-9-]*", rest):
                assert flag in sub.choices[command]._option_string_actions, line


def test_cli_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "all")
    assert exc.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err


def test_cli_parallel_workers_match_serial(tmp_path, monkeypatch):
    results = {}
    for tag, workers in (("serial", "1"), ("parallel", "2")):
        monkeypatch.setenv("GEMPROJ_WORKERS", workers)
        out = tmp_path / tag
        assert run_cli("run", "--methods", "naive,igem", "--seeds", "0", "--out", str(out),
                       "--n-per-experience", "200", "--feature-dim", "8") == 0
        doc = json.loads((out / "run_igem_seed0.json").read_text())
        doc["metrics"].pop("mpo")  # wall-clock timing is not deterministic
        doc["environment"].pop("perf_counter_resolution_s")
        results[tag] = json.dumps(doc, sort_keys=True)
    assert results["serial"] == results["parallel"]


def test_cli_lost_grid_worker_costs_only_the_cells_that_kill_it(tmp_path):
    # agem's cells kill their worker; the cells the broken pool loses with
    # them run again, each alone, and finish as a serial run does
    script = """if True:
        import os, sys
        import gemproj.cli as cli
        real = cli.run_experiences
        def dies_on_agem(config, stream, model):
            if config.method == "agem":
                os._exit(9)
            return real(config, stream, model)
        cli.run_experiences = dies_on_agem
        sys.exit(cli.main(sys.argv[1:]))
    """
    grid = ["--seeds", "0,1", "--n-per-experience", "200", "--feature-dim", "8"]
    out, serial = tmp_path / "o", tmp_path / "serial"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "GEMPROJ_WORKERS": "2"}
    proc = subprocess.run([sys.executable, "-c", script, "run", "--methods", "naive,agem,igem",
                           "--out", str(out), *grid], env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 4, proc.stderr
    assert run_cli("run", "--methods", "naive,igem", "--out", str(serial), *grid) == 0
    assert sorted(p.name for p in out.glob("*.failed.json")) == [
        "run_agem_seed0.failed.json", "run_agem_seed1.failed.json"]
    for method in ("naive", "igem"):
        for seed in (0, 1):
            stem = f"run_{method}_seed{seed}.json"
            got, want = (json.loads((d / stem).read_text()) for d in (out, serial))
            assert got["accuracy_matrix"] == want["accuracy_matrix"]
    agg = json.loads((out / "aggregate.json").read_text())
    assert set(agg["methods"]) == {"naive", "igem"}


@pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-3", "²"])
def test_cli_rejects_bad_worker_count(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("GEMPROJ_WORKERS", value)
    assert run_cli("run", "--methods", "naive", "--seeds", "0", "--out", str(tmp_path)) == 2
    assert "GEMPROJ_WORKERS must be an integer >= 1" in capsys.readouterr().err


def test_cli_worker_pool_is_clamped_to_cell_count(tmp_path, monkeypatch):
    import gemproj.cli as cli

    sizes = []

    class RecordingPool:
        """Runs the cells in this process and records the requested size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("GEMPROJ_WORKERS", "64")
    assert run_cli("run", "--methods", "naive,igem", "--seeds", "0", "--out", str(tmp_path),
                   "--n-per-experience", "200", "--feature-dim", "8") == 0
    assert sizes == [2]
    assert (tmp_path / "run_igem_seed0.json").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--train-mb-size", "0", "train_mb_size"),
    ("--eval-mb-size", "0", "eval_mb_size"),
    ("--n-experiences", "0", "n_experiences"),
    ("--stepsize-safety", "5", "stepsize_safety"),
    ("--stepsize-safety", "0", "stepsize_safety"),
    ("--memory-size", "0", "memory_size"),
    ("--patterns-per-exp", "0", "patterns_per_exp"),
    ("--pgd-iterations", "0", "pgd_iterations"),
    ("--n-classes", "0", "n_classes"),
    ("--n-classes", "1", "n_classes"),
    ("--feature-dim", "0", "feature_dim"),
    ("--n-per-experience", "1", "n_per_experience"),
    ("--prior-concentration", "2", "prior_concentration"),
    ("--mean-scale", "nan", "mean_scale"),
    ("--mean-scale", "inf", "mean_scale"),
    ("--mean-scale", "0", "mean_scale"),
    ("--lr", "inf", "lr"),
])
def test_cli_rejects_out_of_range_config_before_writing(tmp_path, capsys, flag, value, field):
    out = tmp_path / "o"
    assert run_cli("run", "--methods", "naive", "--seeds", "0", "--out", str(out), flag, value) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_experiences", ["1", "3"])
@pytest.mark.parametrize("flags", [
    ["--n-classes", "2", "--n-per-experience", "100"],
    ["--feature-dim", "1", "--n-per-experience", "100"],
    ["--n-per-experience", "2"],
    ["--n-classes", "2", "--feature-dim", "1", "--n-per-experience", "2", "--prior-concentration", "0"],
], ids=["n_classes", "feature_dim", "n_per_experience", "all"])
def test_cli_run_trains_at_the_lowest_value_of_every_stream_range(tmp_path, flags, n_experiences):
    # the model's LoRA rank (4) exceeds a layer's width at n_classes 2 or feature_dim 1
    out = tmp_path / "o"
    assert run_cli("run", "--methods", "naive,agem,igem,gem_exact", "--seeds", "0", "--out", str(out),
                   "--n-experiences", n_experiences, *flags) == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert sorted(agg["methods"]) == ["agem", "gem_exact", "igem", "naive"]


def test_cli_rejects_gem_exact_beyond_the_enumeration_limit_before_writing(tmp_path, capsys):
    # 17 past tasks exceed DEFAULT_ENUM_LIMIT; the run must not start
    out = tmp_path / "o"
    assert run_cli("run", "--methods", "gem_exact,naive", "--seeds", "0", "--out", str(out),
                   "--n-experiences", "18", "--n-per-experience", "100", "--feature-dim", "8") == 2
    assert "n_experiences" in capsys.readouterr().err
    assert not out.exists()


def test_cli_diverging_run_exits_3_with_failure_document(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli("run", "--methods", "naive", "--seeds", "0", "--out", str(out),
                   "--lr", "1e300", "--n-per-experience", "200", "--feature-dim", "8")
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("error: run_naive_seed0 diverged: non-finite") and err.count("\n") == 1
    doc = json.loads((out / "run_naive_seed0.failed.json").read_text())
    assert doc["kind"] == "run_failure"
    assert TrainConfig(**doc["config"]).lr == 1e300
    assert doc["diagnostics"] and doc["diagnostics"][-1]["reason"].startswith("non-finite")
    assert not (out / "run_naive_seed0.json").exists()


def test_cli_diverging_run_prints_one_line_without_warnings(tmp_path, capsys):
    # lr 1e300 overflows the first update; lr 1 (default igem, sgd and stream)
    # overflows the forward pass and the constraint rows' norms first
    cases = [["--methods", "naive", "--lr", "1e300", "--n-per-experience", "200", "--feature-dim", "8"],
             ["--lr", "1"]]
    for i, flags in enumerate(cases):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", "--seeds", "0", "--out", str(tmp_path / str(i)), *flags)
        err = capsys.readouterr().err
        assert code == 3, flags
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_run_out_that_cannot_be_a_directory_exits_2_before_any_cell(tmp_path, monkeypatch, capsys):
    cells = record_cells(monkeypatch)
    afile = tmp_path / "afile"
    afile.write_text("x")
    for out in (afile, afile / "sub"):
        assert run_cli("run", "--methods", "naive", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ") and err.count("\n") == 1
    assert not cells and afile.read_text() == "x"


def test_cli_gen_data_out_in_a_missing_directory_exits_2_before_sampling(tmp_path, monkeypatch, capsys):
    import gemproj.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before --out was checked")

    monkeypatch.setattr(cli, "generate_stream", no_sampling)
    out = tmp_path / "missing" / "g.csv"
    assert run_cli("gen-data", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: --out {out}: not a file path in an existing directory\n"
    assert list(tmp_path.iterdir()) == []


def _bad_byte_in_data(path, where):
    # the CSV is larger than one read buffer, so a bad byte in its last row is
    # met by the row parser, not by the header read
    assert run_cli("gen-data", "--out", str(path), "--n-per-experience", "100") == 0
    lines = path.read_bytes().splitlines(keepends=True)
    at = 0 if where == "first" else len(lines) - 1
    lines[at] = b"\xff" + lines[at][1:]
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("where", ["first", "later"])
@pytest.mark.parametrize("flag", ["--data"])
def test_cli_input_that_is_not_utf8_exits_2_naming_the_flag(tmp_path, capsys, flag, where):
    path = tmp_path / "input"
    _bad_byte_in_data(path, where)
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli("run", flag, str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {path}: not UTF-8 text") and err.count("\n") == 1
    assert not out.exists()


def test_cli_other_cells_still_write_when_one_diverges(tmp_path, monkeypatch, capsys):
    import gemproj.trainer as trainer

    real_step = trainer.optimizer_step

    def igem_diverges(phi, g, opt, config):
        if config.method == "igem" and opt.t >= 5:
            raise trainer.NonFiniteLossError("non-finite parameter update")
        return real_step(phi, g, opt, config)

    monkeypatch.setattr(trainer, "optimizer_step", igem_diverges)
    out = tmp_path / "o"
    code = run_cli("run", "--methods", "naive,igem", "--seeds", "0", "--out", str(out),
                   "--optimizer", "adamw", "--n-per-experience", "200", "--feature-dim", "8")
    assert code == 3
    assert "run_igem_seed0 diverged" in capsys.readouterr().err
    assert (out / "run_naive_seed0.json").exists() and (out / "run_naive_seed0_curves.csv").exists()
    assert not (out / "run_igem_seed0.json").exists()
    failed = json.loads((out / "run_igem_seed0.failed.json").read_text())
    assert [(d["step"], d["reason"]) for d in failed["diagnostics"]] == [
        (5, "non-finite parameter update")]
    agg = json.loads((out / "aggregate.json").read_text())
    assert set(agg["methods"]) == {"naive"}


def test_cli_lost_grid_worker_exits_4_and_accounts_for_every_cell(tmp_path):
    # agem's worker dies; whether naive finishes first depends on timing
    script = """if True:
        import os, sys
        import gemproj.cli as cli
        real = cli.run_experiences
        def dies_on_agem(config, stream, model):
            if config.method == "agem":
                os._exit(9)
            return real(config, stream, model)
        cli.run_experiences = dies_on_agem
        sys.exit(cli.main(sys.argv[1:]))
    """
    out = tmp_path / "o"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "GEMPROJ_WORKERS": "2"}
    proc = subprocess.run([sys.executable, "-c", script, "run", "--methods", "naive,agem", "--seeds", "0",
                           "--out", str(out), "--n-per-experience", "200", "--feature-dim", "8"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    finished = set()
    for method in ("naive", "agem"):
        done, failed = (out / f"run_{method}_seed0{ext}" for ext in (".json", ".failed.json"))
        assert done.exists() != failed.exists()
        if done.exists():
            finished.add((method, 0))
    failure = json.loads((out / "run_agem_seed0.failed.json").read_text())
    assert failure["kind"] == "run_failure" and failure["error"].startswith("grid worker lost: ")
    agg = json.loads((out / "aggregate.json").read_text())
    assert {(m, seed) for m, block in agg["methods"].items() for seed in block["seeds"]} == finished
