"""Command-line front end.

Subcommands:
  run       train a (seed x method) grid and write result documents
  verify    run a named property suite (exit 1 on any failure)
  bench     time the projectors over a (m, d_phi, K) grid
  gen-data  sample a synthetic drift stream and dump it as CSV

Flags mirror the TrainConfig and StreamSpec field names.  Worker count
for the run grid comes from the GEMPROJ_WORKERS environment variable
(an integer >= 1, clamped to the number of cells).
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 a run
diverged (its cell writes run_<method>_seed<seed>.failed.json with the
config echo and diagnostics; the other cells still write their documents).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bench as bench_mod
from . import verify as verify_mod
from .datagen import StreamSpec, dump_csv, generate_stream, read_csv, split_table
from .results import (
    build_aggregate,
    build_run_failure,
    build_run_result,
    write_curves_csv,
    write_json,
)
from .trainer import NonFiniteLossError, TrainConfig, prepare_model, run_experiences

VERIFY_FAILURE = 1
USAGE_ERROR = 2
RUN_DIVERGED = 3


class CliError(Exception):
    """Usage-level error (bad config, missing file); exits with code 2."""


def _add_dataclass_args(parser, cls, skip=()):
    for f in dataclasses.fields(cls):
        kind = {"int": int, "float": float, "str": str}.get(f.type)
        if f.name not in skip and kind is not None:  # tuple-typed fields are config-file only
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=kind,
                                default=None, help=f"default: {f.default}")


def _collect_overrides(args, cls, skip=()):
    out = {}
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        val = getattr(args, f.name, None)
        if val is not None:
            out[f.name] = val
    return out


def _load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top level must be a JSON object")
    sections = {"train": dict, "stream": dict, "methods": list, "seeds": list}
    for key, value in doc.items():
        if key not in sections:
            raise CliError(f"{path}: unknown config section {key!r}")
        if not isinstance(value, sections[key]):
            kind = "an object" if sections[key] is dict else "a list"
            raise CliError(f"{path}: section {key!r} must be {kind}, got {value!r}")
    return doc


def _build_cell(train: dict, stream: dict, method: str, seed: int) -> tuple[TrainConfig, StreamSpec]:
    """One grid cell's config and stream spec, both checked (priors included)."""
    try:
        config = TrainConfig(**{**train, "method": method, "seed": seed})
    except (TypeError, ValueError) as e:
        raise CliError(f"invalid train config: {e}") from None
    try:
        spec = StreamSpec(**{**stream, "seed": seed, "n_experiences": config.n_experiences})
        spec.priors()
    except (TypeError, ValueError) as e:
        raise CliError(f"invalid stream config: {e}") from None
    return config, spec


def _read_data(path: str, config: TrainConfig, spec: StreamSpec) -> np.ndarray:
    """Parse the data CSV once for the whole grid and check it against the
    grid's feature count, experience count and split size."""
    table = read_csv(path, n_classes=spec.n_classes)
    dim = table.dtype["x"].shape[0]
    if dim != spec.feature_dim:
        raise CliError(f"{path}: input has dim {dim}, expected feature_dim {spec.feature_dim}"
                       f" (pass --feature-dim {dim})")
    ids, counts = np.unique(table["experience"], return_counts=True)
    if len(ids) != config.n_experiences:
        raise CliError(f"{path}: has {len(ids)} experiences, config expects {config.n_experiences}")
    if counts.min() < 2:
        raise CliError(f"{path}: experience {ids[counts.argmin()]} has 1 row, needs at least 2")
    return table


def execute_run(config: TrainConfig, spec: StreamSpec, table: np.ndarray | None):
    """One (method, seed) cell; top-level so grid workers can pickle it.
    ``table`` is the parsed data CSV (``read_csv``), split here with the
    cell's seed, or None for the synthetic stream.  Returns (result
    document, run log), or (failure document, None) when the run diverged."""
    stream = generate_stream(spec) if table is None else split_table(table, config.seed)
    model = prepare_model(spec, config.seed)
    try:
        matrix, log = run_experiences(config, stream, model)
    except NonFiniteLossError as e:
        return build_run_failure(config, spec, e), None
    return build_run_result(config, spec, matrix, log), log


def cmd_run(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    train_base = dict(file_cfg.get("train", {}))
    train_base.update(_collect_overrides(args, TrainConfig, skip=("method", "seed")))
    stream_base = dict(file_cfg.get("stream", {}))
    stream_base.update(_collect_overrides(args, StreamSpec,
                                          skip=("seed", "n_experiences", "prior_schedule")))
    methods = file_cfg.get("methods", ["igem"]) if args.methods is None else args.methods.split(",")
    seeds = file_cfg.get("seeds", [0]) if args.seeds is None else [int(s) for s in args.seeds.split(",")]

    if args.data is not None and not os.path.exists(args.data):
        raise CliError(f"dataset file not found: {args.data}")
    for name, values in (("method", methods), ("seed", seeds)):
        if not values:
            raise CliError(f"the grid has no {name}: its {name}s list is empty")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise CliError(f"{name} {repeated[0]!r} appears more than once in the grid")

    # every cell, and the data CSV, is checked before the output directory exists
    cells = [_build_cell(train_base, stream_base, method, seed) for method in methods for seed in seeds]
    table = None if args.data is None else _read_data(args.data, *cells[0])

    raw = os.environ.get("GEMPROJ_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise CliError(f"GEMPROJ_WORKERS must be an integer >= 1, got {raw!r}")
    workers = min(int(raw), len(cells))
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(execute_run, *zip(*cells), [table] * len(cells)))
    else:
        outputs = [execute_run(cfg, spec, table) for cfg, spec in cells]

    per_method: dict[str, list[dict]] = {}
    diverged = []
    for (cfg, _), (doc, log) in zip(cells, outputs):
        stem = f"run_{cfg.method}_seed{cfg.seed}"
        if log is None:
            path = os.path.join(out_dir, stem + ".failed.json")
            write_json(path, doc)
            print(f"wrote {stem}.failed.json  {doc['error']}")
            diverged.append(f"{stem} diverged: {doc['error']} (see {path})")
            continue
        write_json(os.path.join(out_dir, stem + ".json"), doc)
        write_curves_csv(os.path.join(out_dir, stem + "_curves.csv"), log)
        per_method.setdefault(cfg.method, []).append(doc)
        print(f"wrote {stem}.json  avg_acc={doc['metrics']['avg_acc']:.4f}")
    write_json(os.path.join(out_dir, "aggregate.json"), build_aggregate(per_method))
    print(f"wrote aggregate.json ({len(cells) - len(diverged)} runs)")
    if diverged:
        raise NonFiniteLossError("; ".join(diverged))
    return 0


def cmd_verify(args) -> int:
    suites = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    any_fail = False
    for suite in suites:
        for result in verify_mod.run_suite(suite):
            print(result.line())
            any_fail |= not result.passed
    return VERIFY_FAILURE if any_fail else 0


def _positive_ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        values = ()
    if not values or min(values) < 1:
        raise CliError(f"{flag} must be a comma list of integers >= 1, got {text!r}")
    return values


def cmd_bench(args) -> int:
    ms, ds, ks = (_positive_ints(f"--{name}", getattr(args, name)) for name in ("ms", "ds", "ks"))
    if args.reps < 1:
        raise CliError(f"--reps must be >= 1, got {args.reps}")
    cell = (ms[0], ds[len(ds) // 2], ks[0])
    n_adjacent = len(bench_mod.adjacent_cells(ms, ds, ks, *cell))
    if n_adjacent < 2:
        raise CliError(f"cell {cell} has {n_adjacent} neighbors in the --ms/--ds/--ks grid;"
                       " the cost fit and the adjacent-cell check need at least 2")
    rows = bench_mod.bench_igem_grid(ms, ds, ks, reps=args.reps)
    a, b, r2 = bench_mod.linear_fit_r2(rows)
    ordering = bench_mod.bench_ordering()
    csv_text = bench_mod.rows_to_csv(rows + list(ordering.values()))
    if args.out:
        from .results import atomic_write_text

        atomic_write_text(args.out, csv_text)
        print(f"wrote {args.out}")
    else:
        print(csv_text, end="")
    print(f"igem cost model: min_s ~ {a:.2e} + {b:.2e} * K*m*d,  R^2 = {r2:.4f}")
    err = bench_mod.adjacent_fit_error(rows, *cell)
    print(f"cell {cell} vs fit from adjacent cells: off by {err:.1%}")
    t = {k: v.mean_s for k, v in ordering.items()}
    ok = t["agem"] < t["igem"] < t["gem_exact"]
    print(
        "MPO ordering agem < igem < gem_exact: "
        + ("OK" if ok else "VIOLATED")
        + f"  (agem={t['agem']:.2e}s igem={t['igem']:.2e}s gem_exact={t['gem_exact']:.2e}s)"
    )
    idle = bench_mod.bench_identity_path()
    print("identity path (m=0) min times: "
          + " ".join(f"{k}={v:.2e}s" for k, v in idle.items()))
    return 0


def cmd_gen_data(args) -> int:
    overrides = _collect_overrides(args, StreamSpec, skip=("prior_schedule",))
    spec = StreamSpec(**overrides)
    stream = generate_stream(spec)
    dump_csv(stream, args.out)
    total = sum(s.n_train + s.n_test for s in stream)
    print(f"wrote {args.out}: {len(stream)} experiences, {total} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gemproj", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train a (seed x method) grid")
    p_run.add_argument("--config", help="JSON config file (sections: train, stream, methods, seeds)")
    p_run.add_argument("--method", "--methods", dest="methods",
                       help="comma list from naive,gem_exact,agem,igem")
    p_run.add_argument("--seeds", help="comma list of integer seeds")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--data", help="external dataset CSV (default: synthetic stream)")
    _add_dataclass_args(p_run, TrainConfig, skip=("method", "seed"))
    _add_dataclass_args(p_run, StreamSpec, skip=("seed", "n_experiences", "prior_schedule"))
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=list(verify_mod.SUITES) + ["all"])
    p_verify.set_defaults(fn=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the projectors")
    p_bench.add_argument("--ms", default=",".join(str(v) for v in bench_mod.DEFAULT_MS))
    p_bench.add_argument("--ds", default=",".join(str(v) for v in bench_mod.DEFAULT_DS))
    p_bench.add_argument("--ks", default=",".join(str(v) for v in bench_mod.DEFAULT_KS))
    p_bench.add_argument("--reps", type=int, default=9)
    p_bench.add_argument("--out", help="write grid CSV here (default: stdout)")
    p_bench.set_defaults(fn=cmd_bench)

    p_gen = sub.add_parser("gen-data", help="dump a synthetic stream as CSV")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    _add_dataclass_args(p_gen, StreamSpec, skip=("prior_schedule",))
    p_gen.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, FileNotFoundError, NonFiniteLossError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUN_DIVERGED if isinstance(e, NonFiniteLossError) else USAGE_ERROR
