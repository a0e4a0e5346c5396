"""In-memory span tracing around the calls the benchmark makes into gemproj.

A span is one call of a wrapped function: its name, start and end on the
monotonic clock, the span that was open when it started (its parent) and
a few counters read from its arguments or result.  Wrappers are installed
only inside ``Tracer.patched()``, only in the benchmark's own process, and
on the names where callers look them up: ``trainer`` binds the projectors,
``build_constraint_matrix`` and ``power_iteration`` at import, and
``replay`` binds its own ``backward``, so patching only the defining module
would miss those calls.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import weakref

from gemproj import adapter_model, datagen, projector, replay, results, spectral, trainer

# Span record fields, kept as a list per span so recording stays cheap.
NAME, PARENT, T0, T1, ATTRS = range(5)


def _rows(args, kwargs, out):
    y = args[2] if len(args) > 2 else kwargs["y"]
    return {"rows": len(y)}


def _insert_rows(args, kwargs, out):
    y = args[3] if len(args) > 3 else kwargs["y"]
    return {"rows": len(y)}


def _ingest_rows(args, kwargs, out):
    return {"rows": sum(s.n_train + s.n_test for s in out)}


def _pgd_ops(args, kwargs, out):
    G = args[1]
    K = args[4] if len(args) > 4 else kwargs["K"]
    return {"md_ops": (2 * K + 3) * G.rows * G.dim}


def _exact_subsets(args, kwargs, out):
    return {"subsets": out.iterations_used}


def _bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _run_method(args, kwargs, out):
    return {"method": args[0].method}


# (module, attribute, span name, counter function); one entry per lookup site.
FUNCTIONS = [
    (datagen, "generate_stream", "datagen.generate_stream", None),
    (datagen, "ingest_csv", "datagen.ingest_csv", _ingest_rows),
    (trainer, "prepare_model", "trainer.prepare_model", None),
    (adapter_model, "pretrain_base", "adapter_model.pretrain", None),
    (trainer, "run_experiences", "trainer.run_experiences", _run_method),
    (trainer, "train_step", "trainer.train_step", None),
    (adapter_model, "backward", "adapter_model.backward", _rows),
    (replay, "backward", "adapter_model.backward", _rows),
    (trainer, "build_constraint_matrix", "replay.build", None),
    (trainer, "_agem_reference_gradient", "trainer.agem_ref", None),
    (trainer, "violation_check", "projector.violation_check", None),
    (projector, "violation_check", "projector.violation_check", None),
    (trainer, "pgd_project", "projector.pgd", _pgd_ops),
    (projector, "pgd_project", "projector.pgd", _pgd_ops),
    (trainer, "exact_qp_project", "projector.exact", _exact_subsets),
    (projector, "exact_qp_project", "projector.exact", _exact_subsets),
    (trainer, "agem_project", "projector.agem", None),
    (projector, "agem_project", "projector.agem", None),
    (trainer, "power_iteration", "spectral.power_iteration", None),
    (spectral, "power_iteration", "spectral.power_iteration", None),
    (adapter_model, "get_adapter_params", "adapter_model.phi_copy", None),
    (adapter_model, "set_adapter_params", "adapter_model.phi_copy", None),
    (trainer, "optimizer_step", "trainer.optimizer", None),
    (trainer, "evaluate", "trainer.eval", None),
    (results, "build_run_result", "results.build", None),
    (results, "write_json", "results.write", _bytes),
    (results, "write_curves_csv", "results.write", _bytes),
]
METHODS = [(replay.ReplayBuffer, "insert", "replay.insert", _insert_rows)]

# Projector entry points whose G argument counts a constraint build as used.
_CONSUMERS = {"projector.pgd", "projector.exact"}


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # id(G) -> (weak ref to G, build span); a projector call marks its
        # build useful.  The weak ref guards against id reuse after G dies.
        self._builds: dict[int, tuple] = {}

    def _wrap(self, name, fn, counters):
        spans, stack, builds = self.spans, self._stack, self._builds
        consumes = name in _CONSUMERS
        is_build = name == "replay.build"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            if consumes:
                entry = builds.get(id(args[1]))
                if entry is not None and entry[0]() is args[1]:
                    entry[1][ATTRS] = {"useful": 1}
            rec[T0] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = time.perf_counter()
                stack.pop()
            if counters is not None:
                rec[ATTRS] = counters(args, kwargs, out)
            if is_build:
                rec[ATTRS] = {"useful": 0}
                builds[id(out)] = (weakref.ref(out), rec)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself (a grid pass, a cell)."""
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, attrs or None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[T0] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[T1] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counters in FUNCTIONS + METHODS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counters))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._builds.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[T1] - rec[T0] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[T1] - rec[T0]
    return out


def owners(spans: list[list], names: set[str]) -> list[int]:
    """Index of the nearest ancestor-or-self span named in ``names``, or -1.

    Spans are recorded in start order, so a parent always precedes its
    children and one forward pass suffices.
    """
    out = []
    for i, rec in enumerate(spans):
        if rec[NAME] in names:
            out.append(i)
        elif rec[PARENT] >= 0:
            out.append(out[rec[PARENT]])
        else:
            out.append(-1)
    return out
