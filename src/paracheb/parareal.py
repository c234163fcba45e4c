"""Predictor-corrector iteration over a uniform coarse time grid.

A cheap coarse propagator G initializes and corrects sequentially; an
accurate fine propagator F runs concurrently on the subintervals.  Each pass
applies

    u[n+1] <- G(T_n, u_new[n]) + F(T_n, u_old[n]) - G(T_n, u_old[n]),

which leaves the first ``k`` grid values identical to the serial fine
trajectory after ``k`` passes, and contracts the remainder at the rate the
analysis module predicts.  The fine sweep advances all subintervals in
stacked calls, one per contiguous chunk of rows; each chunk reads the
shared iterate table and writes its own rows of the result table, and a
row's bits do not depend on the chunking, so results are invariant to the
worker count.
"""

from __future__ import annotations

import functools
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
    #: Cap on the number of row chunks of the fine sweep; each chunk is one
    #: stacked call, and more than one run on a thread pool.
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
    g_prev: np.ndarray
    k: int
    history: list[ConvergenceRecord]
    ref_table: np.ndarray | None = None


def _make_stepper(spec: PropagatorSpec, problem: IvpProblem, dT: float):
    """Bind a propagator spec and problem into a ``(t, u) -> u_next`` callable.

    ``t`` and ``u`` are one start time and state, or a stack of them (see
    ``propagators.advance``).
    """

    def step(t, u):
        return advance(spec, problem.f, t, u, dT, jac=problem.jacobian, linear=problem.linear)

    return step


def _chunks(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous row ranges ``[lo, hi)`` of a sweep over ``n`` rows.

    There are at most ``workers`` ranges, and none has a single row unless
    ``n`` is 1: BLAS computes a one-row stack with matrix-vector kernels
    whose last bits differ from those of the matrix-matrix kernels used for
    taller stacks, while a row of a stack of two or more comes out the same
    whatever the split.
    """
    k = max(1, min(workers, n // 2))
    bounds = [n * i // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _fine_sweep(step, times: np.ndarray, u_table: np.ndarray, workers: int) -> np.ndarray:
    """Apply the fine propagator on every subinterval; returns the ``(N, dim)`` table.

    The rows are split into at most ``workers`` contiguous chunks
    (``_chunks``), each advanced by one stacked ``step`` call; more than one
    chunk run on a thread pool.  Within a call every row stops on its own
    and a failing row leaves the others running.  Afterwards the sweep
    raises ``SweepError`` listing every failed subinterval; an error not
    tied to a row counts against every row of its chunk.
    """
    chunks = _chunks(len(times), workers)
    if len(chunks) == 1:
        outcomes = [functools.partial(step, times, u_table)]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(step, times[lo:hi], u_table[lo:hi]) for lo, hi in chunks]
        outcomes = [fut.result for fut in futures]

    results = np.empty_like(u_table)
    failed: list[int] = []
    causes: list[BaseException] = []
    for (lo, hi), outcome in zip(chunks, outcomes):
        try:
            results[lo:hi] = outcome()
        except SweepError as exc:
            failed += [lo + i for i in exc.indices]
            causes.append(exc.cause)
        except Exception as exc:  # noqa: BLE001 - reported collectively below
            failed += range(lo, hi)
            causes.append(exc)
    if failed:
        raise SweepError(failed, causes[0]) from causes[0]
    return results


def initialize(cfg: PararealConfig, problem: IvpProblem) -> PararealState:
    """Build the pass-0 iterate table.

    The default policy fills it with a sequential coarse sweep.  The random
    policy draws every interior value i.i.d. uniform in [-1, 1] from the
    seeded generator, which reproduces the randomized-start experiments.
    Either way the coarse result from every ``u[n]`` is cached in ``g_prev``
    for the first correction.  Extra ``cfg.metrics`` compare against the
    reference solution, so a problem without one raises ValueError.
    """
    if cfg.metrics and problem.reference is None:
        names = ", ".join(name for name, _ in cfg.metrics)
        raise ValueError(f"metrics {names} need a problem with a reference solution")
    u0 = problem.u0
    N, dim = cfg.N, u0.size
    u = np.empty((N + 1, dim))
    u[0] = u0
    if cfg.init == "random":
        rng = np.random.default_rng(cfg.seed)
        u[1:] = rng.uniform(-1.0, 1.0, size=(N, dim))

    coarse = _make_stepper(cfg.coarse, problem, cfg.dT)
    g_prev = np.empty((N, dim))
    for n in range(N):
        g_prev[n] = coarse(n * cfg.dT, u[n])
        if cfg.init == "coarse":
            u[n + 1] = g_prev[n]

    ref_table = None
    if problem.reference is not None:
        ref_table = np.array([problem.reference(n * cfg.dT) for n in range(N + 1)])
    return PararealState(u=u, g_prev=g_prev, k=0, history=[], ref_table=ref_table)


def iterate(state: PararealState, cfg: PararealConfig, problem: IvpProblem) -> PararealState:
    """One predictor-corrector pass: concurrent fine sweep, sequential correction."""
    fine = _make_stepper(cfg.fine, problem, cfg.dT)
    coarse = _make_stepper(cfg.coarse, problem, cfg.dT)
    N = cfg.N
    times = np.arange(N) * cfg.dT

    fine_results = _fine_sweep(fine, times, state.u[:N], cfg.workers)

    u_new = np.empty_like(state.u)
    u_new[0] = state.u[0]
    g_new = np.empty((N, state.u.shape[1]))
    for n in range(N):
        g_new[n] = coarse(times[n], u_new[n])
        # Summed as fine value plus small coarse increment: near convergence
        # the increment vanishes, so the fine result's bits are preserved.
        u_new[n + 1] = fine_results[n] + (g_new[n] - state.g_prev[n])

    iter_error = float(np.max(np.abs(u_new - state.u)))
    ref = state.ref_table  # present whenever cfg.metrics is (see initialize)
    abs_error = None if ref is None else float(np.max(np.abs(u_new - ref)))
    extras = {name: float(fn(u_new, ref)) for name, fn in cfg.metrics}

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
