"""Predictor-corrector iteration over a uniform coarse time grid.

A cheap coarse propagator G initializes and corrects sequentially; an
accurate fine propagator F runs concurrently on the subintervals.  Each pass
applies

    u[n+1] <- G(T_n, u_new[n]) + F(T_n, u_old[n]) - G(T_n, u_old[n]),

which leaves the first ``k`` grid values identical to the serial fine
trajectory after ``k`` passes, and contracts the remainder at the rate the
analysis module predicts.  The fine sweep is the only concurrent region:
every subinterval reads the shared iterate table and writes its own slot of
a preallocated result list, so results are invariant to the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import MaxIterationsError, SweepError
from .problems import IvpProblem
from .propagators import PropagatorSpec, advance

#: Extra per-iteration metrics: name -> fn(u_table, ref_table) -> float.
MetricFunction = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class PararealConfig:
    T: float
    N: int
    coarse: PropagatorSpec
    fine: PropagatorSpec
    tol: float = 1e-10
    max_k: int = 50
    init: str = "coarse"  # "coarse" | "random"
    seed: int = 0
    workers: int = 1
    metrics: tuple[tuple[str, MetricFunction], ...] = ()

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_k < 1:
            raise ValueError("max_k must be >= 1")
        if self.init not in ("coarse", "random"):
            raise ValueError(f"unknown init policy {self.init!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def dT(self) -> float:
        return self.T / self.N


@dataclass(frozen=True)
class ConvergenceRecord:
    """Errors after one corrector pass, following the usual definitions:
    iteration error ``max_n ||u^{k}_n - u^{k-1}_n||_inf`` and, when a
    reference is available, absolute error ``max_n ||u^k_n - u(T_n)||_inf``.
    """

    k: int
    iter_error: float
    abs_error: float | None = None
    extras: dict[str, float] = field(default_factory=dict)


@dataclass(eq=False)
class PararealState:
    """Iterate table at the coarse grid points plus bookkeeping.

    ``u[n]`` approximates the solution at ``T_n`` for the current pass ``k``;
    ``g_prev[n]`` caches the coarse result from ``u[n]`` so the next
    correction can subtract exactly the value that was added.
    """

    u: np.ndarray
    g_prev: np.ndarray | None
    k: int
    history: list[ConvergenceRecord]
    ref_table: np.ndarray | None = None


def _make_stepper(spec: PropagatorSpec, problem: IvpProblem, dT: float):
    """Bind a propagator spec and problem into a ``(t, u) -> u_next`` callable."""

    def step(t, u):
        return advance(spec, problem.f, t, u, dT, jac=problem.jacobian, linear=problem.linear)

    return step


def _fine_sweep(step, times, u_table, workers: int) -> list[np.ndarray]:
    """Apply the fine propagator on every subinterval, slot results by index.

    Failures are collected rather than aborting sibling subintervals; when
    any occurred the sweep raises afterwards with the offending indices.
    """
    n = len(times)
    results: list[np.ndarray | None] = [None] * n
    failures: dict[int, BaseException] = {}

    def task(i: int):
        return step(times[i], u_table[i])

    if workers == 1:
        for i in range(n):
            try:
                results[i] = task(i)
            except Exception as exc:  # noqa: BLE001 - reported collectively below
                failures[i] = exc
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(task, i) for i in range(n)}
            for i, fut in futures.items():
                try:
                    results[i] = fut.result()
                except Exception as exc:  # noqa: BLE001
                    failures[i] = exc

    if failures:
        first = failures[min(failures)]
        raise SweepError(failures.keys(), first) from first
    return results


def initialize(cfg: PararealConfig, problem: IvpProblem) -> PararealState:
    """Build the pass-0 iterate table.

    The default policy fills it with a sequential coarse sweep (and caches
    the coarse results for the first correction).  The random policy draws
    every interior value i.i.d. uniform in [-1, 1] from the seeded generator,
    which reproduces the randomized-start experiments.
    """
    u0 = problem.u0
    N, dim = cfg.N, u0.size
    u = np.empty((N + 1, dim))
    u[0] = u0
    g_prev: np.ndarray | None = None

    if cfg.init == "coarse":
        step = _make_stepper(cfg.coarse, problem, cfg.dT)
        g_prev = np.empty((N, dim))
        for n in range(N):
            u[n + 1] = step(n * cfg.dT, u[n])
            g_prev[n] = u[n + 1]
    else:
        rng = np.random.default_rng(cfg.seed)
        u[1:] = rng.uniform(-1.0, 1.0, size=(N, dim))

    ref_table = None
    if problem.reference is not None:
        ref_table = np.array([problem.reference(n * cfg.dT) for n in range(N + 1)])
    return PararealState(u=u, g_prev=g_prev, k=0, history=[], ref_table=ref_table)


def iterate(state: PararealState, cfg: PararealConfig, problem: IvpProblem) -> PararealState:
    """One predictor-corrector pass: concurrent fine sweep, sequential correction."""
    fine = _make_stepper(cfg.fine, problem, cfg.dT)
    coarse = _make_stepper(cfg.coarse, problem, cfg.dT)
    N = cfg.N
    times = [n * cfg.dT for n in range(N)]

    fine_results = _fine_sweep(fine, times, state.u, cfg.workers)

    u_new = np.empty_like(state.u)
    u_new[0] = state.u[0]
    g_new = np.empty((N, state.u.shape[1]))
    for n in range(N):
        g_new[n] = coarse(times[n], u_new[n])
        if state.g_prev is not None:
            subtracted = state.g_prev[n]
        else:
            subtracted = coarse(times[n], state.u[n])
        # Summed as fine value plus small coarse increment: near convergence
        # the increment vanishes, so the fine result's bits are preserved.
        u_new[n + 1] = fine_results[n] + (g_new[n] - subtracted)

    iter_error = float(np.max(np.abs(u_new - state.u)))
    abs_error = None
    extras: dict[str, float] = {}
    if state.ref_table is not None:
        abs_error = float(np.max(np.abs(u_new - state.ref_table)))
        for name, fn in cfg.metrics:
            extras[name] = float(fn(u_new, state.ref_table))

    state.u = u_new
    state.g_prev = g_new
    state.k += 1
    state.history.append(
        ConvergenceRecord(k=state.k, iter_error=iter_error, abs_error=abs_error, extras=extras)
    )
    return state


def run(cfg: PararealConfig, problem: IvpProblem) -> tuple[np.ndarray, list[ConvergenceRecord]]:
    """Iterate until the stopping criterion ``iter_error <= tol`` is met.

    Returns the converged iterate table (shape ``(N+1, dim)``) and the full
    convergence history.  Hitting ``max_k`` raises ``MaxIterationsError``
    with the history attached.
    """
    state = initialize(cfg, problem)
    for _ in range(cfg.max_k):
        state = iterate(state, cfg, problem)
        if state.history[-1].iter_error <= cfg.tol:
            return state.u, state.history
    raise MaxIterationsError(
        f"no convergence to tol={cfg.tol:g} within {cfg.max_k} iterations", state.history
    )
