"""Predictor-corrector iteration over a uniform coarse time grid.

A cheap coarse propagator G initializes and corrects sequentially; an
accurate fine propagator F runs on all subintervals at once.  Each pass
applies

    u[n+1] <- G(T_n, u_new[n]) + F(T_n, u_old[n]) - G(T_n, u_old[n]),

which leaves the first ``k`` grid values identical to the serial fine
trajectory after ``k`` passes, and contracts the remainder at the rate the
analysis module predicts.  The fine sweep advances its subintervals in one
stacked call, so results do not depend on the ``workers`` value.

A pass reuses every result whose input has not changed bit for bit (the
dependency-driven view of Elwasif et al., MTAGS 2011, and Aubanel, Parallel
Computing 37, 2011): a coarse step from the start value that ``g_prev[n]``
came from returns ``g_prev[n]``, and a fine step from the start value of the
last pass returns that pass's result.  So the exact prefix costs nothing,
about half of the steps of a run that takes ``N`` passes.  The table is the
one a full recomputation gives, bit for bit, as long as a row's fine result
does not depend on the rows stacked with it; the fine stack keeps at least
two rows because a one-row stack may take other BLAS kernels.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor  # unused here; bench/tracing.py patches this name
from dataclasses import dataclass

import numpy as np

from .collocation import check_integer
from .errors import MaxIterationsError, SolverError, SweepError
from .problems import IvpProblem
from .propagators import PropagatorSpec, advance


@dataclass(frozen=True)
class PararealConfig:
    T: float
    N: int
    coarse: PropagatorSpec
    fine: PropagatorSpec
    tol: float = 1e-10
    max_k: int = 100
    init: str = "coarse"  # "coarse" | "random"
    seed: int = 0
    #: Accepted and validated (>= 1) but has no effect: the fine sweep is
    #: one stacked call whatever its value.
    workers: int = 1

    def __post_init__(self):
        check_integer("N", self.N)
        check_integer("max_k", self.max_k)
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 < self.T < math.inf:
            raise ValueError("T must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
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
    ``component_error[i]`` is ``max_n |u^k_n[i] - u(T_n)[i]|``; for another
    metric, loop ``initialize`` / ``iterate`` and read ``state.u``.
    """

    k: int
    iter_error: float
    component_error: tuple[float, ...] | None = None

    @property
    def abs_error(self) -> float | None:
        # np.max, not max: a NaN component makes the whole error NaN.
        return None if self.component_error is None else float(np.max(self.component_error))


@dataclass(eq=False)
class PararealState:
    """Iterate table at the coarse grid points plus bookkeeping.

    ``u[n]`` approximates the solution at ``T_n`` after ``k = len(history)``
    passes; ``g_prev[n]`` caches the coarse result from ``u[n]`` so the next
    correction can subtract exactly the value that was added.  ``f_prev[n]``
    caches the fine result from ``u_prev[n]``, the table the last pass
    started from (both None before the first pass).  A pass reuses
    ``g_prev[n]`` for a corrected start value bitwise equal to ``u[n]``, and
    ``f_prev[n]`` for a ``u[n]`` bitwise equal to ``u_prev[n]``.
    """

    u: np.ndarray
    g_prev: np.ndarray
    history: list[ConvergenceRecord]
    ref_table: np.ndarray | None = None
    f_prev: np.ndarray | None = None
    u_prev: np.ndarray | None = None

    @property
    def k(self) -> int:
        return len(self.history)


def _make_stepper(spec: PropagatorSpec, problem: IvpProblem, dT: float):
    """Bind a propagator spec and problem into a ``(t, u) -> u_next`` callable.

    ``t`` and ``u`` are one start time and state, or a stack of them (see
    ``propagators.advance``).
    """

    def step(t, u):
        return advance(spec, problem.f, t, u, dT, jac=problem.jacobian, linear=problem.linear)

    return step


def initialize(cfg: PararealConfig, problem: IvpProblem) -> PararealState:
    """Build the pass-0 iterate table.

    The default policy fills it with a sequential coarse sweep.  The random
    policy draws every interior value i.i.d. uniform in [-1, 1] from the
    seeded generator, which reproduces the randomized-start experiments.
    Either way the coarse result from every ``u[n]`` is cached in ``g_prev``
    for the first correction.
    """
    u0 = problem.u0
    N, dim = cfg.N, u0.size
    u = np.empty((N + 1, dim))
    u[0] = u0
    if cfg.init == "random":
        rng = np.random.default_rng(cfg.seed)
        u[1:] = rng.uniform(-1.0, 1.0, size=(N, dim))

    coarse = _make_stepper(cfg.coarse, problem, cfg.dT)
    g_prev = np.empty((N, dim))
    try:
        for n in range(N):
            g_prev[n] = coarse(n * cfg.dT, u[n])
            if cfg.init == "coarse":
                u[n + 1] = g_prev[n]
    except SolverError as exc:
        exc.name_coarse_step(n, 0)
        raise

    ref_table = None
    if problem.reference is not None:
        ref_table = np.array([problem.reference(n * cfg.dT) for n in range(N + 1)])
    return PararealState(u=u, g_prev=g_prev, history=[], ref_table=ref_table)


def _fine_results(state: PararealState, fine, times: np.ndarray) -> np.ndarray:
    """The ``fine`` results from ``state.u[n]`` at ``times[n]``, computing only new ones.

    The rows whose start value changed in the last pass go to ``fine`` in
    one stack, with a neighbour when there is just one of them: a one-row
    stack may take other BLAS kernels than a taller one and move the last
    bits.  A failed row raises ``SweepError`` naming its subinterval.
    """
    N = len(times)
    if state.f_prev is None:
        return fine(times, state.u[:N])
    results = state.f_prev.copy()
    # Comparing bytes compares bits, so -0.0 differs from 0.0.
    rows = np.array([n for n in range(N) if state.u[n].tobytes() != state.u_prev[n].tobytes()], dtype=int)
    if len(rows) == 1 and N > 1:
        rows = np.array([rows[0] - 1, rows[0]]) if rows[0] else np.array([0, 1])
    if len(rows):
        try:
            results[rows] = fine(times[rows], state.u[rows])
        except SweepError as exc:
            raise SweepError(rows[exc.indices].tolist(), exc.cause) from exc.cause
    return results


def iterate(state: PararealState, cfg: PararealConfig, problem: IvpProblem) -> PararealState:
    """One predictor-corrector pass: one stacked fine sweep, sequential correction.

    The fine sweep advances every subinterval whose start value changed in
    the last pass in one ``advance`` call, in which each row stops on its
    own and a failing row leaves the others running; failed rows raise the
    ``SweepError`` that names every one of them.  An error not tied to a
    row (a ``ValueError`` from a bad ``linear`` operator, say) propagates
    with its own type.  The correction takes a coarse step only from a
    start value that differs from the cached one's; a failed coarse step
    raises its own error, naming its subinterval and pass.
    """
    fine = _make_stepper(cfg.fine, problem, cfg.dT)
    coarse = _make_stepper(cfg.coarse, problem, cfg.dT)
    N = cfg.N
    times = np.arange(N) * cfg.dT

    fine_results = _fine_results(state, fine, times)

    u_new = np.empty_like(state.u)
    u_new[0] = state.u[0]
    g_new = np.empty((N, state.u.shape[1]))
    try:
        for n in range(N):
            if u_new[n].tobytes() == state.u[n].tobytes():
                g_new[n] = state.g_prev[n]
            else:
                g_new[n] = coarse(times[n], u_new[n])
            # Summed as fine value plus small coarse increment: near convergence
            # the increment vanishes, so the fine result's bits are preserved.
            u_new[n + 1] = fine_results[n] + (g_new[n] - state.g_prev[n])
    except SolverError as exc:
        exc.name_coarse_step(n, state.k + 1)
        raise

    iter_error = float(np.max(np.abs(u_new - state.u)))
    ref = state.ref_table
    component_error = None if ref is None else tuple(np.max(np.abs(u_new - ref), axis=0).tolist())

    state.u_prev, state.u = state.u, u_new
    state.f_prev = fine_results
    state.g_prev = g_new
    state.history.append(ConvergenceRecord(state.k + 1, iter_error, component_error))
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
