"""Command-line front end.

Subcommands:
  run       train a (seed x method) grid and write result documents
  gen-data  sample a synthetic drift stream and dump it as CSV

Flags mirror the TrainConfig and StreamSpec field names but GRID_OWNED's,
and are the only way to give a setting.
Worker count for the run grid comes from the GEMPROJ_WORKERS environment
variable (an integer >= 1, clamped to the number of cells).
Each seed's stream and pretrained base are set up once per process that
runs its cells (the grid runs seed-major), and every cell trains a copy.
Exit codes: 0 success, 2 usage error, 3 a run diverged (its cell writes
run_<method>_seed<seed>.failed.json with the config echo and diagnostics;
the other cells still write their documents), 4 a grid worker was lost
(each cell it left without a result runs once more in a worker of its own,
and a cell whose worker dies again writes a .failed.json naming the loss),
5 a result file could not be written (the error line names its path and
the reason; the other cells and aggregate.json are still written).  When
several apply, the highest code wins.  Code 1 is retired.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .datagen import StreamSpec, dump_csv, generate_stream, read_csv, split_table
from .results import (
    build_aggregate,
    build_run_failure,
    build_run_result,
    write_curves_csv,
    write_json,
)
from .trainer import NonFiniteLossError, TrainConfig, prepare_model, run_experiences

USAGE_ERROR = 2
RUN_DIVERGED = 3
WORKER_LOST = 4
WRITE_FAILED = 5


class CliError(Exception):
    """Usage-level error (bad flag value, missing file); exits with code 2."""


# The fields `run` sets per grid cell, from --methods, --seeds and
# --n-experiences; they get no `run` flag of their own.
GRID_OWNED = {TrainConfig: {"method", "seed"}, StreamSpec: {"seed", "n_experiences"}}


def _add_dataclass_args(parser, cls, skip=()):
    for f in dataclasses.fields(cls):
        if f.name not in skip:
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                                type={"int": int, "float": float, "str": str}[f.type],
                                default=None, help=f"default: {f.default}")


def _collect_overrides(args, cls, skip=()):
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if f.name not in skip and getattr(args, f.name) is not None}


def _ints(name: str, text: str, minimum: int, many: bool = True) -> list[int]:
    """``text`` as a comma list of integers >= ``minimum`` (a single one
    unless ``many``); anything else is a usage error naming ``name``."""
    try:
        values = [int(v) for v in (text.split(",") if many else [text])]
    except ValueError:
        values = []
    if not values or min(values) < minimum:
        kind = "a comma list of integers" if many else "an integer"
        raise CliError(f"{name} must be {kind} >= {minimum}, got {text!r}")
    return values


def _output_file(path: str):
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise CliError(f"--out {path}: not a file path in an existing directory")


def _build_cell(train: dict, stream: dict, method: str, seed: int) -> tuple[TrainConfig, StreamSpec]:
    """One grid cell's config and stream spec, both range-checked."""
    try:
        config = TrainConfig(**{**train, "method": method, "seed": seed})
    except ValueError as e:
        raise CliError(f"invalid train config: {e}") from None
    try:
        spec = StreamSpec(**{**stream, "seed": seed, "n_experiences": config.n_experiences})
    except ValueError as e:
        raise CliError(f"invalid stream config: {e}") from None
    return config, spec


def _read_data(path: str, config: TrainConfig, spec: StreamSpec) -> np.ndarray:
    """Parse the data CSV once for the whole grid and check it against the
    grid's feature count, experience count and split size."""
    try:
        table = read_csv(path, n_classes=spec.n_classes)
    except UnicodeDecodeError as e:
        raise CliError(f"--data {path}: not UTF-8 text"
                       f" (byte 0x{e.object[e.start]:02x}: {e.reason})") from None
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


# The last seed set up in this process: {spec: (stream, pretrained model)},
# one entry at most.  A grid runs its cells seed-major, so the serial path and
# each pool worker set a seed up about once; `_outputs` empties it at the end.
_setups: dict = {}


def _seed_setup(spec: StreamSpec, table: np.ndarray | None):
    """The stream for ``spec`` (``table`` split with its seed, or the synthetic
    stream) and a deep copy of its pretrained model, set up only when the last
    setup in this process was for another spec."""
    if spec not in _setups:
        _setups.clear()  # the old seed's setup is freed before the new one is made
        stream = generate_stream(spec) if table is None else split_table(table, spec.seed)
        _setups[spec] = stream, prepare_model(spec, spec.seed)
    stream, model = _setups[spec]
    return stream, copy.deepcopy(model)


def execute_run(config: TrainConfig, spec: StreamSpec, table: np.ndarray | None):
    """One (method, seed) cell; top-level so grid workers can pickle it.
    ``table`` is the parsed data CSV (``read_csv``), split with the cell's
    seed, or None for the synthetic stream; the cell trains a copy of the
    seed's pretrained model (`_seed_setup`).  Returns (result document,
    run log), or (failure document, None) when the run diverged."""
    stream, model = _seed_setup(spec, table)
    try:
        matrix, log = run_experiences(config, stream, model)
    except NonFiniteLossError as e:
        return build_run_failure(config, spec, str(e), e.diagnostics), None
    return build_run_result(config, spec, matrix, log), log


def _outputs(cells, table, workers: int):
    """Each cell's ``execute_run`` output in grid order, as it becomes
    available.  Cells run seed-major, so each seed is set up once on the
    serial path and about once per worker on a pool.  A cell that a lost
    worker left without a result (its worker died, or the broken pool never
    ran it) runs once more, alone in a fresh one-worker pool that sets its
    seed up again, so a cell that kills its worker costs only itself; if
    that worker dies too, the cell yields its BrokenProcessPool."""
    order = sorted(range(len(cells)), key=lambda i: cells[i][1].seed)
    try:
        if workers == 1:
            done, next_cell = {}, 0
            for i in order:
                done[i] = execute_run(*cells[i], table)
                while next_cell in done:
                    yield done.pop(next_cell)
                    next_cell += 1
            return
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [None] * len(cells)
            for i in order:
                futures[i] = pool.submit(execute_run, *cells[i], table)
            for (cfg, spec), future in zip(cells, futures):
                try:
                    output = future.result()
                except BrokenProcessPool:
                    output = _run_alone(cfg, spec, table)
                yield output
    finally:
        _setups.clear()


def _run_alone(cfg: TrainConfig, spec: StreamSpec, table: np.ndarray | None):
    """``execute_run`` in a worker of its own, or the BrokenProcessPool if it dies."""
    with ProcessPoolExecutor(max_workers=1) as solo:
        try:
            return solo.submit(execute_run, cfg, spec, table).result()
        except BrokenProcessPool as e:
            return e


def cmd_run(args) -> int:
    train_base, stream_base = (_collect_overrides(args, cls, skip=GRID_OWNED[cls])
                               for cls in (TrainConfig, StreamSpec))
    methods = args.methods.split(",")
    seeds = _ints("--seeds", args.seeds, 0)

    if args.data is not None and not os.path.isfile(args.data):
        raise CliError(f"--data {args.data}: not an existing file")
    for name, values in (("method", methods), ("seed", seeds)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise CliError(f"{name} {repeated[0]!r} appears more than once in the grid")

    # every cell, and the data CSV, is checked before the output directory exists
    cells = [_build_cell(train_base, stream_base, method, seed) for method in methods for seed in seeds]
    table = None if args.data is None else _read_data(args.data, *cells[0])

    [workers] = _ints("GEMPROJ_WORKERS", os.environ.get("GEMPROJ_WORKERS", "1"), 1, many=False)
    workers = min(workers, len(cells))
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise CliError(f"--out {out_dir}: cannot make the output directory: {e.strerror}") from None

    per_method: dict[str, list[dict]] = {}
    failures, unwritten, code = [], [], 0

    def wrote(*files) -> bool:
        """Write each (name, writer, payload) into the output directory,
        stopping at the first OSError, which is reported; True if all were."""
        for name, writer, payload in files:
            path = os.path.join(out_dir, name)
            try:
                writer(path, payload)
            except OSError as e:
                unwritten.append(f"cannot write {path}: {e.strerror or e}")
                return False
        return True

    for (cfg, spec), output in zip(cells, _outputs(cells, table, workers)):
        stem = f"run_{cfg.method}_seed{cfg.seed}"
        lost = isinstance(output, BrokenProcessPool)
        doc, log = (build_run_failure(cfg, spec, f"grid worker lost: {output}"), None) if lost else output
        if log is None:
            path = os.path.join(out_dir, stem + ".failed.json")
            failures.append(f"{stem}{'' if lost else ' diverged'}: {doc['error']} (see {path})")
            code = max(code, WORKER_LOST if lost else RUN_DIVERGED)
            if wrote((stem + ".failed.json", write_json, doc)):
                print(f"wrote {stem}.failed.json  {doc['error']}")
        elif wrote((stem + ".json", write_json, doc), (stem + "_curves.csv", write_curves_csv, log)):
            per_method.setdefault(cfg.method, []).append(doc)
            print(f"wrote {stem}.json  avg_acc={doc['metrics']['avg_acc']:.4f}")
    if wrote(("aggregate.json", write_json, build_aggregate(per_method))):
        print(f"wrote aggregate.json ({sum(map(len, per_method.values()))} runs)")
    if unwritten:
        failures, code = failures + unwritten, WRITE_FAILED
    if failures:
        print("error: " + "; ".join(failures), file=sys.stderr)
    return code


def cmd_gen_data(args) -> int:
    _output_file(args.out)
    stream = generate_stream(StreamSpec(**_collect_overrides(args, StreamSpec)))
    try:
        dump_csv(stream, args.out)
    except OSError as e:
        print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
        return WRITE_FAILED
    total = sum(s.n_train + s.n_test for s in stream)
    print(f"wrote {args.out}: {len(stream)} experiences, {total} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gemproj", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train a (seed x method) grid", allow_abbrev=False)
    p_run.add_argument("--method", "--methods", dest="methods", default="igem",
                       help="comma list from naive,gem_exact,agem,igem")
    p_run.add_argument("--seeds", default="0", help="comma list of integer seeds")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--data", help="external dataset CSV (default: synthetic stream)")
    for cls in (TrainConfig, StreamSpec):
        _add_dataclass_args(p_run, cls, skip=GRID_OWNED[cls])
    p_run.set_defaults(fn=cmd_run)

    p_gen = sub.add_parser("gen-data", help="dump a synthetic stream as CSV", allow_abbrev=False)
    p_gen.add_argument("--out", required=True, help="output CSV path")
    _add_dataclass_args(p_gen, StreamSpec)
    p_gen.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
