"""The benchmark's workloads: what each runs, how it is timed and checked.

``desk`` and ``wide`` are continual-learning grids (one ``run_experiences``
call per cell); ``projector`` calls the projection rules directly.  Every
workload keeps its inputs from one process, times repeated grid passes
until its time is up, and checks every output it produces.  A check that
fails, or a call that raises, is one failed operation; nothing is dropped.

Training streams use the fixed data seeds below, so the quality metrics
are one reference value per workload; the ``--seed`` argument orders the
cells of each pass and draws the projector instances.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from gemproj import adapter_model, datagen, projector, results, spectral, trainer

from spans import Tracer

TRAIN_METHODS = ("naive", "agem", "igem", "gem_exact")
DESK_SEEDS = (0, 2, 5, 7, 11)
WIDE_SEEDS = (0,)
WIDE_SPEC = datagen.StreamSpec(
    n_classes=64, n_experiences=8, feature_dim=512, n_per_experience=800, mean_scale=4.0
)
WIDE_MODEL = adapter_model.ModelConfig(input_dim=512, hidden_dim=128, n_classes=64, rank=64)

# Projector grid: cold starts, eta = 0.7 / power_iteration, as at a task boundary.
PGD_CELLS = [(m, d, K) for m in (8, 32) for d in (50_000, 200_000) for K in (3, 27)]
EXACT_CELLS = [(4, 50_000), (8, 50_000)]
AGEM_D = 200_000
STEPSIZE_SAFETY = 0.7
POWER_ITERS = 3
# Calls timed back to back per sample for methods whose single call takes
# about a millisecond, so one call's cache misses do not set the sample.
CALLS_PER_SAMPLE = {"naive": 10, "agem": 10}

# About the fastest time of reference_kernel() on a 2-vCPU 2.1 GHz Xeon VM;
# timings are reported in seconds on a host that runs the kernel this fast.
REFERENCE_KERNEL_S = 3.5e-3
_REF_A = np.random.default_rng([0x7E5, 0]).standard_normal((32, 32)) / 8.0
_REF_X = np.random.default_rng([0x7E5, 1]).standard_normal((32, 16))

RESIDUAL_TOL = 1e-9        # a projected step above this leaves a residual
FEASIBILITY_TOL = 1e-9     # exact projections must be feasible to this
RECONSTRUCTION_TOL = 1e-12  # projected_gradient == g + G' lam to this


@dataclass
class Measurement:
    """Raw samples from one workload run, before they become metrics."""

    setup_s: list[float] = field(default_factory=list)
    # step -> repeats over untraced (traced) passes; the steps of a pass are
    # its set-ups and its cells, result writes included.
    steps: dict[str, list[float]] = field(default_factory=dict)
    traced_steps: dict[str, list[float]] = field(default_factory=dict)
    # method -> cell -> repeats of the method's call in that cell.
    run_s: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    # run_s.<method> sums its cells (projector) instead of taking their median.
    sum_cells: bool = False
    # reference_kernel() times, taken before every step of every pass.
    host: list[float] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, none is fatal
            self.fail(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    def tick(self):
        """Time the reference kernel once, between two steps."""
        t0 = time.perf_counter()
        reference_kernel()
        self.host.append(time.perf_counter() - t0)

    def host_scale(self) -> float:
        """Reference seconds per measured second in this run.

        The host is shared: for minutes at a time other tenants slow every
        instruction alike, by a third or more, and a whole run's samples
        move together.  The fixed reference kernel, timed between the steps,
        moves with them, so timings are divided by its median and scaled
        to REFERENCE_KERNEL_S.
        """
        return REFERENCE_KERNEL_S / statistics.median(self.host) if self.host else 1.0


def reference_kernel():
    """Fixed work shaped like a desk training step: an interpreter loop
    and a chain of small dense products.  It touches no gemproj code."""
    s = 0
    for i in range(50_000):
        s += i * i
    y = _REF_X
    for _ in range(150):
        y = np.tanh(_REF_A @ y)
    return s, y


def _order(items, rng_order, pass_index):
    """Seeded base order, reversed on every other pass."""
    seq = [items[i] for i in rng_order]
    return seq if pass_index % 2 == 0 else seq[::-1]


def _passes(seconds: float, traced: bool, run_pass):
    """Run grid passes until ``seconds`` have elapsed (at least one).

    With tracing, passes alternate untraced/traced and at least one of
    each runs, so the traced run also yields its own untraced baseline.
    """
    start = time.perf_counter()
    p = 0
    while p < (2 if traced else 1) or time.perf_counter() - start < seconds:
        run_pass(p, traced and p % 2 == 1)
        p += 1


# --- checks -------------------------------------------------------------------

def check_accuracy_matrix(R: np.ndarray) -> list[str]:
    R = np.asarray(R)
    if not np.all(np.isfinite(R)):
        return ["accuracy matrix has non-finite entries"]
    if R.min() < 0.0 or R.max() > 1.0:
        return ["accuracy matrix leaves [0, 1]"]
    return []


def check_exact_steps(log: trainer.RunLog) -> list[str]:
    worst = max((s.max_violation for s in log.steps if s.projected), default=0.0)
    if worst > FEASIBILITY_TOL:
        return [f"gem_exact step violation {worst:.3e} > {FEASIBILITY_TOL}"]
    return []


def check_projection(g, A: np.ndarray, result: projector.ProjectionResult,
                     feasible: bool) -> list[str]:
    """projected_gradient == g + A' lam, and (when asked) A g~ >= -tol."""
    problems = []
    recon = g + A.T @ result.final_lambda.lam
    err = float(np.max(np.abs(recon - result.projected_gradient)))
    if not err <= RECONSTRUCTION_TOL:
        problems.append(f"projected gradient differs from g + G'lam by {err:.3e}")
    if feasible:
        worst = float(-(A @ result.projected_gradient).min())
        if not worst <= FEASIBILITY_TOL:
            problems.append(f"projection infeasible by {worst:.3e}")
    return problems


# --- training workloads ---------------------------------------------------------

class TrainingWorkload:
    """A grid of (method, data seed) cells, each one ``run_experiences``.

    A pass sets up each data seed's inputs once (stream plus prepared
    model), then runs every method on a copy of that model and writes the
    run's result document and curves, as ``gemproj run`` does.
    """

    def __init__(self, name, seeds, methods=TRAIN_METHODS):
        self.name = name
        self.seeds = tuple(seeds)
        self.methods = tuple(methods)

    def prepare(self, workdir: str):
        """Untimed preparation before any measurement."""

    def setup(self, seed: int, workdir: str):
        """One data seed's inputs: (StreamSpec, stream, prepared model)."""
        raise NotImplementedError

    def config(self, method: str, seed: int, n_experiences: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(method=method, seed=seed, optimizer="adamw",
                                   n_experiences=n_experiences)

    def measure(self, seconds: float, seed: int, tracer: Tracer | None, workdir: str) -> Measurement:
        meas = Measurement(run_s={m: {} for m in self.methods})
        self.prepare(workdir)
        rng = np.random.default_rng([seed, 0x5C4ED])
        seed_order = rng.permutation(len(self.seeds))
        method_order = rng.permutation(len(self.methods))
        reference: dict[tuple, bytes] = {}
        cell_results: dict[tuple, tuple] = {}

        def timed_setup(s, steps=None):
            t0 = time.perf_counter()
            inputs = self.setup(s, workdir)
            elapsed = time.perf_counter() - t0
            meas.setup_s.append(elapsed)
            if steps is not None:
                steps.setdefault(f"setup.seed{s}", []).append(elapsed)
            return inputs

        # Warm-up: every cell once on its first two experiences, untimed.
        for s in self.seeds:
            inputs = meas.op(timed_setup, s)
            if inputs is None:
                continue
            spec, stream, model = inputs
            for method in self.methods:
                cfg = self.config(method, s, 2)
                meas.op(trainer.run_experiences, cfg, stream[:2], copy.deepcopy(model))

        def run_cell(method, s, inputs):
            t_cell = time.perf_counter()
            spec, stream, model = inputs
            cfg = self.config(method, s, len(stream))
            model = copy.deepcopy(model)
            t0 = time.perf_counter()
            R, log = trainer.run_experiences(cfg, stream, model)
            elapsed = time.perf_counter() - t0
            doc = results.build_run_result(cfg, spec, R, log)
            stem = os.path.join(workdir, f"run_{method}_seed{s}")
            results.write_json(stem + ".json", doc)
            results.write_curves_csv(stem + "_curves.csv", log)
            return elapsed, time.perf_counter() - t_cell, R, log, doc

        def run_pass(p, traced):
            steps = meas.traced_steps if traced else meas.steps
            ctx = tracer.patched() if traced else contextlib.nullcontext()
            with ctx, (tracer.span("pass") if traced else contextlib.nullcontext()):
                for block, s in enumerate(_order(self.seeds, seed_order, p)):
                    meas.tick()
                    inputs = meas.op(timed_setup, s, steps)
                    if inputs is None:
                        continue
                    methods = _order(self.methods, method_order, p)
                    k = (block + p) % len(methods)
                    for method in methods[k:] + methods[:k]:
                        meas.tick()
                        out = meas.op(run_cell, method, s, inputs)
                        if out is None:
                            continue
                        elapsed, total, R, log, doc = out
                        problems = self._check(method, s, R.R, log, reference)
                        for msg in problems:
                            meas.fail(f"{method} seed {s}: {msg}")
                        steps.setdefault(f"{method}.seed{s}", []).append(total)
                        if not traced:
                            meas.run_s[method].setdefault(f"seed{s}", []).append(elapsed)
                        cell_results.setdefault((method, s), (doc["metrics"], log))

        _passes(seconds, tracer is not None, run_pass)
        meas.quality = self._quality(cell_results)
        return meas

    def _check(self, method, s, R, log, reference) -> list[str]:
        problems = check_accuracy_matrix(R)
        key = (method, s)
        first = reference.setdefault(key, R.tobytes())
        if first != R.tobytes():
            problems.append("accuracy matrix differs from an earlier repeat of the cell")
        if method == "gem_exact":
            problems += check_exact_steps(log)
        return problems

    def _quality(self, cell_results) -> dict[str, float]:
        quality = {}
        for method in self.methods:
            docs = [cell_results[(method, s)][0] for s in self.seeds if (method, s) in cell_results]
            if docs:
                quality[f"avg_acc.{method}"] = float(np.mean([d["avg_acc"] for d in docs]))
                quality[f"bwt.{method}"] = float(np.mean([d["bwt"] for d in docs]))
        quality["residual_rate.igem"] = residual_rate(
            [log for (method, _), (_, log) in cell_results.items() if method == "igem"]
        )
        return quality


def residual_rate(logs) -> float:
    """Share of projected steps whose max_violation exceeds RESIDUAL_TOL."""
    projected = [s.max_violation for log in logs for s in log.steps if s.projected]
    if not projected:
        return 0.0
    return sum(v > RESIDUAL_TOL for v in projected) / len(projected)


class DeskWorkload(TrainingWorkload):
    """Default StreamSpec and ModelConfig (d_phi = 272) on five data seeds."""

    def setup(self, seed, workdir):
        spec = datagen.StreamSpec(seed=seed)
        stream = datagen.generate_stream(spec)
        model = trainer.prepare_model(spec, seed)
        return spec, stream, model


class WideWorkload(TrainingWorkload):
    """Adapter scale (d_phi = 53,248), read back through the CSV ingest path."""

    def prepare(self, workdir):
        for s in self.seeds:
            stream = datagen.generate_stream(dataclasses.replace(WIDE_SPEC, seed=s))
            datagen.dump_csv(stream, os.path.join(workdir, f"wide_seed{s}.csv"))

    def setup(self, seed, workdir):
        spec = dataclasses.replace(WIDE_SPEC, seed=seed)
        path = os.path.join(workdir, f"wide_seed{seed}.csv")
        stream = datagen.ingest_csv(path, n_classes=spec.n_classes, seed=seed)
        model = trainer.prepare_model(spec, seed, WIDE_MODEL)
        return spec, stream, model


# --- projector workload -----------------------------------------------------------

@dataclass(frozen=True)
class ProjectorCell:
    method: str
    m: int
    d: int
    K: int = 0

    @property
    def name(self) -> str:
        parts = [self.method] + ([f"m{self.m}"] if self.m else []) + [f"d{self.d}"]
        return ".".join(parts + ([f"K{self.K}"] if self.K else []))


PROJECTOR_CELLS = (
    [ProjectorCell("naive", m, d) for m, d in sorted({(m, d) for m, d, _ in PGD_CELLS})]
    + [ProjectorCell("igem", m, d, K) for m, d, K in PGD_CELLS]
    + [ProjectorCell("gem_exact", m, d) for m, d in EXACT_CELLS]
    + [ProjectorCell("agem", 0, AGEM_D)]
)


def projector_instances(seed: int, cells=PROJECTOR_CELLS) -> dict[tuple[int, int], tuple]:
    """Seeded unit-row constraint matrices and gradients, one per (m, d).

    The A-GEM pair (m = 0) gets a reference gradient at an obtuse angle to
    g, so the closed form has work to do.
    """
    out = {}
    for m, d in sorted({(c.m, c.d) for c in cells}):
        rng = np.random.default_rng([seed, m, d])
        g = rng.standard_normal(d)
        if m:
            G = projector.ConstraintMatrix.from_rows(rng.standard_normal((m, d)), normalize=True)
        else:
            ref = rng.standard_normal(d)
            G = -ref if ref.dot(g) > 0.0 else ref
        out[(m, d)] = (G, g)
    return out


def call_cell(cell: ProjectorCell, G, g):
    """One cold-start call of the cell's method, as the trainer makes it."""
    if cell.method == "naive":
        return projector.violation_check(g, G)
    if cell.method == "agem":
        return projector.agem_project(g, G)
    if cell.method == "gem_exact":
        return projector.exact_qp_project(g, G)
    eta = spectral.stepsize(spectral.power_iteration(G, iters=POWER_ITERS), STEPSIZE_SAFETY)
    return projector.pgd_project(g, G, projector.DualState.cold(G.rows), eta, cell.K)


def check_cell(cell: ProjectorCell, G, g, out) -> list[str]:
    if cell.method == "naive":
        worst = float((G.data @ g).min())
        return [] if abs(out[1] - worst) <= RECONSTRUCTION_TOL else ["violation_check disagrees with min(G g)"]
    if cell.method == "agem":
        lam = max(0.0, -g.dot(G) / G.dot(G))
        result = projector.ProjectionResult(out, projector.DualState(np.array([lam])), 0.0, 1, 0.0)
        return check_projection(g, G[None, :], result, feasible=True)
    return check_projection(g, G.data, out, feasible=cell.method == "gem_exact")


def _output_bytes(out) -> bytes:
    if isinstance(out, tuple):
        return repr(out).encode()
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return out.projected_gradient.tobytes() + out.final_lambda.lam.tobytes()


class ProjectorWorkload:
    """Direct projector calls on seeded instances, plus reference cells.

    The reference cells are one desk pass over the methods on data seed
    0, made once and untimed; they give this workload its avg_acc and bwt.
    """

    name = "projector"
    methods = TRAIN_METHODS
    cells = PROJECTOR_CELLS
    setup_repeats = 5

    def measure(self, seconds, seed, tracer: Tracer | None, workdir) -> Measurement:
        meas = Measurement(run_s={m: {} for m in self.methods}, sum_cells=True)
        instances = None
        for _ in range(self.setup_repeats):
            t0 = time.perf_counter()
            instances = meas.op(projector_instances, seed, self.cells)
            meas.setup_s.append(time.perf_counter() - t0)
        if instances is None:
            return meas
        meas.quality = self._reference_quality(meas, workdir)

        order = np.random.default_rng([seed, 0x5C4ED]).permutation(len(self.cells))
        reference: dict[str, bytes] = {}

        residuals: dict[str, bool] = {}

        def run_pass(p, traced, warmup=False):
            ctx = tracer.patched() if traced else contextlib.nullcontext()
            with ctx, (tracer.span("pass") if traced else contextlib.nullcontext()):
                for cell in _order(list(self.cells), order, p):
                    G, g = instances[(cell.m, cell.d)]
                    calls = CALLS_PER_SAMPLE.get(cell.method, 1)
                    meas.tick()
                    # One untimed call first, so the previous cell's data
                    # leaving the caches is not charged to this one.
                    outs = [meas.op(call_cell, cell, G, g)]
                    span = (tracer.span("projector.cell", cell=cell.name, method=cell.method, calls=calls)
                            if traced else contextlib.nullcontext())
                    with span:
                        t0 = time.perf_counter()
                        outs += [meas.op(call_cell, cell, G, g) for _ in range(calls)]
                        elapsed = (time.perf_counter() - t0) / calls
                    if not warmup:
                        (meas.traced_steps if traced else meas.steps).setdefault(cell.name, []).append(elapsed)
                    if not (traced or warmup):
                        meas.run_s[cell.method].setdefault(cell.name, []).append(elapsed)
                    for out in outs:
                        if out is None:
                            continue
                        key = _output_bytes(out)
                        if cell.name not in reference:
                            reference[cell.name] = key
                            problems = check_cell(cell, G, g, out)
                            if cell.method == "igem":
                                residuals[cell.name] = out.max_violation > RESIDUAL_TOL
                        else:
                            problems = [] if key == reference[cell.name] else ["output differs from an earlier call"]
                        for msg in problems:
                            meas.fail(f"{cell.name}: {msg}")

        run_pass(0, False, warmup=True)
        _passes(seconds, tracer is not None, run_pass)
        meas.quality["residual_rate.igem"] = sum(residuals.values()) / max(1, len(residuals))
        return meas

    def _reference_quality(self, meas: Measurement, workdir: str) -> dict[str, float]:
        """One untraced desk pass on data seed 0; its checks count here."""
        ref = DeskWorkload("desk", (0,), self.methods).measure(0.0, 0, None, workdir)
        meas.attempted += ref.attempted
        meas.failed += ref.failed
        meas.errors += [f"reference run: {e}" for e in ref.errors]
        return ref.quality


WORKLOADS = {
    "desk": DeskWorkload("desk", DESK_SEEDS),
    "wide": WideWorkload("wide", WIDE_SEEDS),
    "projector": ProjectorWorkload(),
}
