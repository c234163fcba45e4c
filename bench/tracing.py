"""Call tracing for the benchmark's traced run.

The tracer wraps the public functions of each paracheb module, in every
module namespace that binds them (``parareal`` binds ``solve_linear``,
``advance``, ``build_operator`` ... by name, ``propagators`` binds
``solve_checked``), plus the problem callables ``f``, ``jacobian`` and
``reference`` that the problems' public ``to_ivp`` returns.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.

Each wrapped call opens a span: name, start, end, the enclosing span and the
thread.  Spans stay in memory and are written out at the end.  The problem
callables run hundreds of thousands of times per pass, so they are counted
and timed against their caller but not kept as spans.

Context does not flow into ``ThreadPoolExecutor`` threads on its own, so
``parareal``'s executor is swapped for one that runs each task in a copy of
the submitter's context: spans opened by ``_fine_sweep``'s pool threads get
the enclosing ``iterate`` span as parent.

A span's self time is its duration minus what its children cover: the sum
of children in its own thread plus the union of children in pool threads.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

_current: contextvars.ContextVar[_Span | None] = contextvars.ContextVar("bench_span", default=None)

#: Wrapped functions, as (module, function); the metric name is "module.function".
TARGETS = (
    ("chebyshev", "build_operator"),
    ("chebyshev", "cg_points"),
    ("collocation", "solve_nonlinear"),
    ("collocation", "picard_sweep"),
    ("collocation", "solve_linear"),
    ("collocation", "solve_checked"),
    ("propagators", "advance"),
    ("propagators", "stability"),
    ("parareal", "run"),
    ("parareal", "initialize"),
    ("parareal", "iterate"),
    ("analysis", "rho_over_interval"),
    ("analysis", "contraction"),
    ("analysis", "m_min"),
    ("cli", "main"),
    ("cli", "write_csv"),
)
_PROBLEM_CLASSES = ("SpdLinearProblem", "KeplerProblem", "BurgersProblem")
_PROBLEM_HOOKS = ("f", "jacobian", "reference")

#: Span names that do one subinterval's fine step inside ``iterate``.
FINE_STEPS = ("collocation.solve_linear", "collocation.solve_nonlinear", "propagators.advance.fine")


class _Span:
    __slots__ = ("id", "name", "layer", "parent", "thread", "start", "end", "child_s", "pool")

    def __init__(self, id_, name, layer, parent, start):
        self.id = id_
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.pool: list[tuple[float, float]] = []


class _ContextPool(ThreadPoolExecutor):
    """Executor whose tasks run in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def union_s(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to ``[lo, hi]``."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Spans and counters of the traced passes; thread-safe.

    ``coarse_spec`` tells coarse ``advance`` calls from fine ones: a call's
    role is coarse when its spec equals the workload's coarse spec.
    """

    def __init__(self, coarse_spec):
        self.coarse_spec = coarse_spec
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.finished: list[list[_Span]] = []

    def begin_pass(self) -> None:
        """Start a new pass: clear counters, keep the spans of earlier passes."""
        self.spans: list[_Span] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.f_calls_by_layer: defaultdict[str, int] = defaultdict(int)
        self.picard_sweeps: list[int] = []
        self.csv_bytes = 0
        self.finished.append(self.spans)

    # -- recording ---------------------------------------------------------

    def _close(self, span: _Span, end: float) -> None:
        span.end = end
        duration = end - span.start
        covered = span.child_s + union_s(span.pool, span.start, end)
        with self._lock:
            self.calls[span.name] += 1
            self.self_s[span.name] += duration - covered
            self._charge(span.parent, span.thread, span.start, end)
            self.spans.append(span)

    def _charge(self, parent, thread, start, end) -> None:
        # Caller holds the lock.
        if parent is None:
            return
        if parent.thread == thread:
            parent.child_s += end - start
        else:
            parent.pool.append((start, end))

    def _span_wrapper(self, name, layer, fn, namer=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(
                next(tracer._ids),
                namer(args, kwargs) if namer else name,
                layer,
                _current.get(),
                perf_counter(),
            )
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                _current.reset(token)
                tracer._close(span, perf_counter())
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        """Count and time a problem callable without keeping a span."""
        tracer = self
        is_f = name == "problems.f"

        def hook(*args):
            parent = _current.get()
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                end = perf_counter()
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += end - start
                    if is_f:
                        tracer.f_calls_by_layer[parent.layer if parent else "none"] += 1
                    tracer._charge(parent, threading.get_ident(), start, end)

        return hook

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _after(self, name):
        if name == "collocation.solve_nonlinear":
            def record(args, kwargs, result):
                with self._lock:
                    self.picard_sweeps.append(result.iterations)
            return record
        if name == "cli.write_csv":
            def record(args, kwargs, result):
                size = os.path.getsize(args[0] if args else kwargs["path"])
                with self._lock:
                    self.csv_bytes += size
            return record
        return None

    def _advance_role(self, args, kwargs) -> str:
        spec = args[0] if args else kwargs["spec"]
        return "propagators.advance." + ("coarse" if spec == self.coarse_spec else "fine")

    def install(self) -> None:
        import paracheb.parareal
        import paracheb.problems

        modules = [m for n, m in list(sys.modules.items())
                   if n == "paracheb" or n.startswith("paracheb.")]
        for layer, attr in TARGETS:
            name = f"{layer}.{attr}"
            original = getattr(sys.modules[f"paracheb.{layer}"], attr)
            namer = self._advance_role if name == "propagators.advance" else None
            wrapper = self._span_wrapper(name, layer, original, namer, self._after(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(paracheb.parareal, "ThreadPoolExecutor", _ContextPool)

        for cls_name in _PROBLEM_CLASSES:
            cls = getattr(paracheb.problems, cls_name)
            self._patch(cls, "to_ivp", self._wrap_to_ivp(cls.to_ivp))

    def _wrap_to_ivp(self, to_ivp):
        tracer = self

        @functools.wraps(to_ivp)
        def wrapper(problem):
            ivp = to_ivp(problem)
            hooks = {
                hook: tracer._leaf_wrapper(f"problems.{hook}", getattr(ivp, hook))
                for hook in _PROBLEM_HOOKS
                if getattr(ivp, hook) is not None
            }
            return dataclasses.replace(ivp, **hooks)

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _parareal_metrics(self) -> dict[str, float]:
        children: defaultdict[int, list[_Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent.id].append(span)

        fine_s = coarse_s = sum_max = sum_mean = serial = parallel = 0.0
        for run in (s for s in self.spans if s.name == "parareal.run"):
            steps = [s for s in children[run.id] if s.name in ("parareal.initialize", "parareal.iterate")]
            run_coarse = sum(
                c.end - c.start
                for s in steps
                for c in children[s.id]
                if c.name == "propagators.advance.coarse"
            )
            fine_spans, run_max = [], 0.0
            for it in (s for s in steps if s.name == "parareal.iterate"):
                fine = [c for c in children[it.id] if c.name in FINE_STEPS]
                if not fine:
                    continue
                durations = [c.end - c.start for c in fine]
                fine_s += union_s([(c.start, c.end) for c in fine])
                run_max += max(durations)
                sum_mean += sum(durations) / len(durations)
                fine_spans.append(durations)
            coarse_s += run_coarse
            sum_max += run_max
            if fine_spans:
                n_sub = len(fine_spans[0])
                mean_fine = sum(map(sum, fine_spans)) / sum(map(len, fine_spans))
                serial += n_sub * mean_fine
                parallel += run_coarse + run_max
        return {
            "parareal.fine_s": fine_s,
            "parareal.coarse_s": coarse_s,
            "parareal.fine_imbalance": sum_max / sum_mean if sum_mean else 0.0,
            "parareal.model_speedup": serial / parallel if parallel else 0.0,
        }

    def metrics(self, pass_s: float, build_operator_misses: int) -> dict[str, float]:
        """Per-layer metrics of the current pass, which took ``pass_s`` seconds."""
        calls, self_s = self.calls, self.self_s
        out: dict[str, float] = {}

        def both(name):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]

        both("chebyshev.build_operator")
        out["chebyshev.build_operator.misses"] = build_operator_misses
        both("chebyshev.cg_points")
        both("collocation.solve_nonlinear")
        both("collocation.picard_sweep")
        sweeps = self.picard_sweeps
        out["collocation.picard_sweeps_per_solve.mean"] = sum(sweeps) / len(sweeps) if sweeps else 0.0
        out["collocation.picard_sweeps_per_solve.max"] = max(sweeps, default=0)
        both("collocation.solve_linear")
        both("collocation.solve_checked")
        both("propagators.advance.fine")
        both("propagators.advance.coarse")
        both("propagators.stability")
        out["problems.f.calls.collocation"] = self.f_calls_by_layer["collocation"]
        out["problems.f.calls.propagators"] = self.f_calls_by_layer["propagators"]
        out["problems.f.self_s"] = self_s["problems.f"]
        both("problems.jacobian")
        both("problems.reference")
        out["parareal.initialize.self_s"] = self_s["parareal.initialize"]
        both("parareal.iterate")
        out.update(self._parareal_metrics())
        both("analysis.rho_over_interval")
        out["analysis.contraction.calls"] = calls["analysis.contraction"]
        both("analysis.m_min")
        out["cli.main.self_s"] = self_s["cli.main"]
        both("cli.write_csv")
        out["cli.write_csv.bytes"] = self.csv_bytes
        # Inclusive share of the pass for the layers each workload stresses.
        for name in (*FINE_STEPS, "propagators.stability"):
            covered = union_s([(s.start, s.end) for s in self.spans if s.name == name])
            out[f"{name}.pass_frac"] = covered / pass_s
        return out

    def write(self, path: str) -> None:
        """Write every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for number, spans in enumerate(self.finished):
                t0 = min((s.start for s in spans), default=0.0)
                for s in spans:
                    fh.write(json.dumps({
                        "pass": number,
                        "id": s.id,
                        "parent": s.parent.id if s.parent else None,
                        "name": s.name,
                        "thread": s.thread,
                        "start": s.start - t0,
                        "end": s.end - t0,
                    }) + "\n")
