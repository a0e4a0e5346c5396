"""gemproj benchmark: continual-learning runs and projection calls.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 1

Workloads (see BENCHMARK.json for why each was chosen):
  desk       four methods x data seeds 0, 2, 5, 7, 11 at the default scale
  wide       four methods at adapter scale (d_phi = 53,248), CSV ingest
  projector  direct projector calls over (method, m, d, K) cells

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric from wrapped calls, and the spans are written to
``perfbench/out/``.  End-to-end timings are medians in reference seconds:
measured seconds scaled by how fast a fixed reference kernel ran in the
same run (see ``workloads.Measurement.host_scale``).  Lines above the
result give each timing's raw value, the median, high percentile and
count of its raw samples, the environment and the host load.  The
program is imported from ``src/`` of the checkout and nowhere else.
BLAS threading is left as the environment sets it and is recorded.
The traced per-layer baseline of each workload is in
``perfbench/baseline.json``; the benchmark's own tests run with
``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("desk", "wide", "projector")


def _import_program():
    """Put the checkout's src/ first on the path and check gemproj came from it."""
    sys.path.insert(0, SRC)
    try:
        import gemproj
    except ImportError as exc:
        raise SystemExit(f"cannot import gemproj from {SRC}: {exc}") from None
    if not os.path.abspath(gemproj.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gemproj was imported from {gemproj.__file__}, not from {SRC}")


def host_load() -> dict:
    """Load average and cumulative CPU jiffies (read-only /proc)."""
    out = {}
    try:
        with open("/proc/loadavg") as fh:
            out["loadavg"] = [float(v) for v in fh.read().split()[:3]]
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
        out["cpu_jiffies_total"] = sum(fields[:8])
        out["cpu_jiffies_steal"] = fields[7] if len(fields) > 7 else 0
    except OSError as exc:
        out["error"] = str(exc)
    return out


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def fingerprint() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gemproj")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v, "default") for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _load_delta(start: dict, end: dict) -> dict:
    out = {"start": start, "end": end}
    total = end.get("cpu_jiffies_total", 0) - start.get("cpu_jiffies_total", 0)
    if total > 0:
        out["steal_share"] = (end["cpu_jiffies_steal"] - start["cpu_jiffies_steal"]) / total
    return out


def _print_metrics(workload: str, metrics: dict):
    for name, m in metrics.items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        tail = "  " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                for k, v in extra.items()) if extra else ""
        print(f"{workload:9s} {name:44s} {m['value']:.6g} {m['unit']}{tail}")


def _print_accounting(detail: dict):
    """How much of the traced run_experiences time no wrapped layer claims."""
    v = {k: m["value"] for k, m in detail.items()}
    if not v["trainer.run_s"]:
        return
    unattributed = v["trainer.run_experiences_self_s"] + v["trainer.agem_ref_s"] - v["adapter_model.backward_s.agem_ref"]
    print(f"accounting: traced run_s {v['trainer.run_s']:.4f} s = layer self times "
          f"{v['trainer.run_s'] - unattributed:.4f} s + unattributed {unattributed:.4f} s; "
          f"trace.overhead_s {v['trace.overhead_s']:.4f} s")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from report import end_to_end, per_layer
    from spans import Tracer
    from workloads import WORKLOADS

    load_start = host_load()
    env = fingerprint()
    tracer = Tracer() if trace else None
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}_") as workdir:
        meas = WORKLOADS[name].measure(seconds, seed, tracer, workdir)
    detail = per_layer(meas, tracer.spans) if trace else end_to_end(meas)
    if trace:
        with gzip.open(os.path.join(OUT, f"{name}_seed{seed}_spans.jsonl.gz"), "wt") as fh:
            for i, rec in enumerate(tracer.spans):
                fh.write(json.dumps([i, *rec]) + "\n")
    _print_metrics(name, detail)
    if trace:
        _print_accounting(detail)
    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "host_load": _load_delta(load_start, host_load()),
        "metrics": detail, "errors": meas.errors,
        "host_speed": {"reference_kernel_samples": len(meas.host), "scale": meas.host_scale()},
        "samples": {"setup_s": meas.setup_s, "steps": meas.steps,
                    "traced_steps": meas.traced_steps, "run_s": meas.run_s},
    }
    with open(os.path.join(OUT, f"{name}_seed{seed}_trace{int(trace)}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    print("environment " + json.dumps(env))
    print("host_load " + json.dumps(doc["host_load"]))
    print("host_speed " + json.dumps(doc["host_speed"]))
    for err in meas.errors:
        print(f"FAILED {err}")
    return {
        "correct": meas.failed == 0,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in detail.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own child process, one after another."""
    combined = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workloads": combined}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
