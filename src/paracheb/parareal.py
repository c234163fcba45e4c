"""Predictor-corrector iteration over a uniform coarse time grid.

A cheap coarse propagator G initializes and corrects sequentially; an
accurate fine propagator F runs on all subintervals at once.  G is the
paper's: one backward Euler step per subinterval (``COARSE``), the coarse
propagator that the contraction analysis assumes.  Each pass applies

    u[n+1] <- G(T_n, u_new[n]) + F(T_n, u_old[n]) - G(T_n, u_old[n]),

which leaves the first ``k`` grid values identical to the serial fine
trajectory after ``k`` passes, and contracts the remainder at the rate the
analysis module predicts.  The fine sweep advances its subintervals in one
stacked call.

A pass reuses every result whose input has not changed bit for bit (the
dependency-driven view of Elwasif et al., MTAGS 2011, and Aubanel, Parallel
Computing 37, 2011): a coarse step from the start value that ``g_prev[n]``
came from returns ``g_prev[n]``, and a fine step from the start value of the
last pass returns that pass's result.  So the exact prefix costs nothing,
about half of the steps of a run that takes ``N`` passes.

A coarse step from a changed start value ``u_new[n]`` is a warm step from
the cached one, the step from ``u[n]`` to ``g_prev[n]``, with
``stage_inv[n]``, the inverse stage matrix ``S = (I - dT * J)^-1`` at the
initial sweep's result on that subinterval.  It starts at the linearized
predictor ``g_prev[n] + S (u_new[n] - u[n])``, a matrix-vector product:
the stage equation ``x = u + dT f(T_n + dT, x)`` has the start state as
its right-hand side.  Read as a Newton iteration (Gander & Vandewalle,
SIAM J. Sci. Comput. 29(2), 2007), the coarse correction stands in for the
derivative ``G'(u) delta``, and ``S`` is that derivative.  The predictor's
residual is the cached step's plus O(delta**2), so it is tested against
the Newton stop before any update; a step that meets it settles there, and
the others take chord updates with ``S`` (simplified Newton, Hairer &
Wanner, *Solving ODEs II*, Sec. IV.8) in ``propagators.warm_step``.  The
initial sweep has no cached result: it steps cold through ``advance``,
and then builds every subinterval's inverse in one stacked ``jac`` call and
one stacked inversion.  Near convergence a start value barely moves, so
neither does its stage matrix: a warm step calls no Jacobian and solves
nothing, and a row whose chord iteration converges too slowly falls back to
Newton alone.  A nonlinear run from random starts gets no inverses, and a
subinterval whose pass-0 stage matrix was singular a NaN one; their steps
take ``warm_step`` without an inverse, Newton's iteration with at least
one update, from ``g_prev[n] + (u_new[n] - u[n])``
(``propagators._newton_start``): the coarse result of a drawn value says
nothing about the Jacobian where the run goes (a linear problem's is the
same everywhere).  So G is not a pure function of its start value: the result
also depends on the cached pair, and lies within the Newton stop,
``propagators._NEWTON_TOL * (1 + |x|)``, of the cold step's.

Most warm steps settle at their predictors, so the sequential correction
runs as the linearized recurrence itself, verified afterwards: row by row,
each changed start value's step is taken at its ``propagators.predictor``
(a matrix-vector product and a few additions, no ``f`` call) and the next
start value corrected from it; then a chunk of such steps is tested in one
stacked ``propagators.settles`` call, the test a warm step applies first.
The steps before the first one that misses are final; the correction
rewinds to that row and steps it, and every later row until a step lands
on its predictor, where verified chunks start again at one row and double
while every predictor meets the stop.  Outside verified chunks a row steps
through ``_warm_steps`` alone, the step a row-by-row correction takes:
each run's state makes its predictor again and, where that is finite,
steps on from it through ``propagators.warm_step`` with the inverse; a run
without a finite predictor, and a batch's stack without a finite inverse,
steps through ``warm_step`` without one, from ``_newton_start``.  A
missed chunk wastes at most its own predictions.  Values past a miss are
never kept, so the recurrence and its check run under
``np.errstate(all="ignore")``, and an ``f`` that raises in the check is a
miss at the chunk's first row: an error propagates only where the
row-by-row step raises it.
The table is the one a full recomputation under this coarse rule gives,
bit for bit: a row of ``f`` does not depend on the rows stacked with it
(the contract of ``problems.IvpProblem``), so neither does a row's step,
and a step verified in a stack has the bits ``warm_step`` gives it.
``advance`` takes the initial sweep's cold coarse steps only.

Runs that differ in their fine propagator only, as in a comparison of fine
propagators, go as a batch: ``run``, ``initialize`` and
``iterate`` take a sequence of configs (and states) where they take one, and
a single config is the one-run case of the same code.  The batch shares the
initial coarse sweep, which never reads ``fine``, and each pass's
correction: at every subinterval the start values of all runs that need a
coarse step are predicted and checked in one stack and, where missed,
stepped run by run, with the one inverse stage matrix they share (in one
stack without one); ``iterate`` rejects a batch whose states do not share
their ``stage_inv``, as the states of one ``initialize`` call do.  So each run's table and history are its solo
run's, bit for bit.  The correction holds the batch's tables as arrays,
time first (``(N+1, R, dim)`` for ``R`` runs), so each subinterval's
corrected values, its "changed" test and its live runs' starts and guesses
are a few array operations for all runs; one live run steps alone, as a
single state.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor  # unused here; bench/tracing.py patches this name
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MaxIterationsError, SolverError, SweepError, check_integer
from .collocation import _rows, count_nonzero
from .problems import IvpProblem
from .propagators import PropagatorSpec, _newton_start, advance, predictor, settles, stage_inverses, warm_step

#: The coarse propagator G of every run: one backward Euler step per subinterval.
COARSE = PropagatorSpec.backward_euler(1)


@dataclass(frozen=True)
class PararealConfig:
    """The settings of one run.  The grid splits the problem's horizon
    ``problem.T`` into ``N`` subintervals of length ``dT = problem.T / N``;
    ``COARSE`` steps across each, and ``fine`` is the accurate propagator."""

    N: int
    fine: PropagatorSpec
    tol: float = 1e-10
    max_k: int = 100
    init: str = "coarse"  # "coarse" | "random"
    seed: int = 0

    def __post_init__(self):
        check_integer("N", self.N)
        check_integer("max_k", self.max_k)
        check_integer("seed", self.seed)
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_k < 1:
            raise ValueError("max_k must be >= 1")
        if self.init not in ("coarse", "random"):
            raise ValueError(f"unknown init policy {self.init!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    passes; ``g_prev[n]`` caches the coarse result taken from ``u[n]`` (cold
    in pass 0, warm after), so the next correction can subtract exactly
    the value that was added and the next coarse step from a changed
    ``u[n]`` can start from the cached step ``u[n]`` -> ``g_prev[n]``.
    ``stage_inv[n]`` is the coarse stage matrix's inverse at the pass-0
    ``g_prev[n]``, which every later coarse step on subinterval ``n`` takes
    its linearized ``propagators.predictor`` and its chord updates in
    ``propagators.warm_step`` with: built once per run, read-only and
    shared by the states of one ``initialize`` call, which a batch must be.
    It is None for a nonlinear problem from random starts, whose warm steps
    take ``warm_step`` without an inverse, from
    ``propagators._newton_start``; a
    row is NaN where the matrix was singular, and its steps take
    ``warm_step`` without one, from the same start.  ``f_prev[n]``
    caches the fine result from ``u_prev[n]``, the table the last pass
    started from (both None before the first pass).  A pass reuses
    ``g_prev[n]`` for a corrected start value bitwise equal to ``u[n]``, and
    ``f_prev[n]`` for a ``u[n]`` bitwise equal to ``u_prev[n]``.
    """

    u: np.ndarray
    g_prev: np.ndarray
    history: list[ConvergenceRecord]
    stage_inv: np.ndarray | None = None
    ref_table: np.ndarray | None = None
    f_prev: np.ndarray | None = None
    u_prev: np.ndarray | None = None

    @property
    def k(self) -> int:
        return len(self.history)


#: What ``run`` returns for one config: the iterate table and its history.
RunResult = tuple[np.ndarray, list[ConvergenceRecord]]


def _batch(cfg: PararealConfig | Sequence[PararealConfig]) -> list[PararealConfig]:
    """The configs of a batch: ``cfg`` itself, or the sequence it is.

    The configs must agree on everything but ``fine`` (``ValueError``
    otherwise, and for an empty sequence).
    """
    cfgs = [cfg] if isinstance(cfg, PararealConfig) else list(cfg)
    if not cfgs:
        raise ValueError("a batch needs at least one config")
    for other in cfgs[1:]:
        if dataclasses.replace(other, fine=cfgs[0].fine) != cfgs[0]:
            raise ValueError("the configs of a batch may differ in fine only")
    return cfgs


def _make_stepper(spec: PropagatorSpec, problem: IvpProblem, dT: float):
    """Bind a propagator spec and problem into a ``(t, u) -> u_next``
    callable, a cold ``advance`` of one start time and state or a stack."""

    def step(t, u):
        return advance(spec, problem.f, t, u, dT, problem.jacobian, problem.linear)

    return step


def _coarse_failure(exc: SolverError, rows: Sequence[int]) -> tuple[SolverError, int]:
    """The error a failed coarse call raises, and the entry of ``rows`` (one
    per row of the call) it belongs to.

    A stack's failures come as one ``SweepError``, whose cause is the lowest
    failed row's error; an error not tied to a row belongs to the first.
    """
    if isinstance(exc, SweepError):
        return exc.cause, rows[exc.indices[0]]
    return exc, rows[0]


def initialize(
    cfg: PararealConfig | Sequence[PararealConfig], problem: IvpProblem
) -> PararealState | list[PararealState]:
    """Build the pass-0 iterate table.

    The default policy fills it with a sequential coarse sweep.  The random
    policy draws every interior value i.i.d. uniform in [-1, 1] from the
    seeded generator, which reproduces the randomized-start experiments,
    and takes the coarse steps from all ``N`` drawn values in one stacked
    ``advance`` call.  Either way the coarse result from every ``u[n]`` is
    cached in ``g_prev`` for the first correction.  Every step is a cold
    ``advance(COARSE, ...)`` call (there is no cached result to warm-start
    from).  Then one stacked ``stage_inverses`` call builds ``stage_inv``,
    the inverse stage matrix at every ``g_prev[n]``; not for the random
    policy on a nonlinear problem (``problem.linear`` None).

    A batch of configs (see ``run``) gets a list of states, one per config,
    from one sweep: the table does not depend on ``fine``.  A failed coarse
    step raises its own error naming its subinterval, pass 0 and run 0; of
    several failures in the random policy's stack, the lowest subinterval's.
    """
    cfgs = _batch(cfg)
    first = cfgs[0]
    u0 = problem.u0
    N, dim = first.N, u0.size
    dT = problem.T / N
    u = np.empty((N + 1, dim))
    u[0] = u0
    if first.init == "random":
        rng = np.random.default_rng(first.seed)
        u[1:] = rng.uniform(-1.0, 1.0, size=(N, dim))

    coarse = _make_stepper(COARSE, problem, dT)
    g_prev = np.empty((N, dim))
    try:
        if first.init == "random":
            rows = range(N)
            g_prev[:] = coarse(np.arange(N) * dT, u[:N])
        else:
            for n in range(N):
                rows = [n]
                g_prev[n] = coarse(n * dT, u[n])
                u[n + 1] = g_prev[n]
    except SolverError as exc:
        error, n = _coarse_failure(exc, rows)
        error.name_coarse_step(n, 0, 0)
        if error is exc:
            raise
        raise error from None

    # A drawn start's coarse result says nothing about the Jacobian where a
    # nonlinear run goes; a linear problem's Jacobian is the same everywhere.
    inverse = None
    if first.init == "coarse" or problem.linear is not None:
        inverse = stage_inverses(problem.f, np.arange(N) * dT, g_prev, dT, jac=problem.jacobian)
    ref_table = None
    if problem.reference is not None:
        ref_table = problem.reference(np.arange(N + 1) * dT)
    states = [
        PararealState(u=u.copy(), g_prev=g_prev.copy(), history=[], stage_inv=inverse, ref_table=ref_table)
        for _ in cfgs
    ]
    return states[0] if isinstance(cfg, PararealConfig) else states


def _fine_results(state: PararealState, fine, times: np.ndarray) -> np.ndarray:
    """The ``fine`` results from ``state.u[n]`` at ``times[n]``, computing only new ones.

    The rows whose start value changed in the last pass go to ``fine`` in
    one stack.  A failed row raises ``SweepError`` naming its subinterval.
    """
    N = len(times)
    if state.f_prev is None:
        return fine(times, state.u[:N])
    results = state.f_prev.copy()
    # Comparing the words compares bits, so -0.0 differs from 0.0.
    rows = np.flatnonzero((state.u[:N].view(np.uint64) != state.u_prev[:N].view(np.uint64)).any(axis=1))
    if len(rows):
        try:
            results[rows] = fine(times[rows], state.u[rows])
        except SweepError as exc:
            raise SweepError(rows[exc.indices].tolist(), exc.cause) from exc.cause
    return results


def _warm_steps(f, t, u, dT, guess, guess_from, inverse, jac):
    """Warm coarse steps of ``u``, one state or a stack ``(R, dim)``, from
    the cached steps ``guess_from`` -> ``guess``, with the inverse stage
    matrix ``inverse`` (or None) they share; ``t`` is a float or a column
    ``(R, 1)``.

    A stack with a finite inverse steps each row alone, as a single state.
    A single state with an inverse starts at its ``predictor`` and, where
    that is finite, steps from it through ``warm_step`` with the inverse.
    Every other step, and a stack whose inverse is not finite, goes through
    ``warm_step`` without an inverse, from ``propagators._newton_start``.
    Returns the end states, the failures, a dict row -> error (row 0 for a
    single state), and whether every step settled at its predictor, bit
    for bit.
    """
    if inverse is not None and u.ndim == 2:
        if count_nonzero(np.isfinite(inverse)) < inverse.size:
            inverse = None  # no row has a finite predictor
        else:
            y, failures, settled = np.empty_like(u), {}, True
            for i in range(len(u)):
                y[i], lost, at = _warm_steps(f, _rows(t, i), u[i], dT, guess[i], guess_from[i], inverse, jac)
                settled &= at
                if lost:
                    failures[i] = lost[0]
            return y, failures, settled
    if inverse is not None:
        x = predictor(u, guess, guess_from, inverse)
        if count_nonzero(np.isfinite(x)) == x.size:
            y, failures = warm_step(f, t, x, u, dT, inverse, jac)
            return y, failures, y.tobytes() == x.tobytes()
    return *warm_step(f, t, _newton_start(f, t, u, dT, guess, guess_from), u, dT, None, jac), False


def _correct(U, U_old, G, G_old, F, stage_inv, problem, dT, passes) -> None:
    """The sequential coarse correction of one pass over a batch's tables, in place.

    ``U_old`` ``(N + 1, runs, dim)`` and ``G_old`` ``(N, runs, dim)`` are
    the tables the pass started from and ``F`` the fine results, of
    ``G_old``'s shape; ``U`` and ``G`` enter as their copies and leave
    corrected.  Row ``n`` steps the runs whose start value ``U[n]`` differs
    from ``U_old[n]``, and then ``U[n + 1] = F[n] + (G[n] - G_old[n])``.
    With inverse stage matrices, rows are first stepped to their
    ``predictor``s, and a chunk of them is verified in one stacked
    ``settles`` call: the rows before the first miss are final.  The missed
    row and every later one until a step lands on its predictor, and every
    row without inverses, is one ``step``, a ``_warm_steps`` call (see the
    module docstring), the warm steps of ``COARSE``, stopped by the Newton
    limits of ``propagators``.  ``passes[r]`` is run ``r``'s pass, which a
    failed step's error names.
    """
    N, runs, dim = F.shape
    f, jac = problem.f, problem.jacobian
    times_col = np.arange(N)[:, None] * dT
    times = times_col.ravel().tolist()
    U_bits, U_old_bits = U.view(np.uint64), U_old.view(np.uint64)

    def changed(n):
        """The runs whose start value at ``T_n`` differs from the cached one's,
        as an index into the run axis: None, one run, all of them or a mask."""
        # Comparing the words compares bits, so -0.0 differs from 0.0.
        if U[n].tobytes() == U_old[n].tobytes():
            return None
        if runs == 1:
            return 0
        live = np.logical_or.reduce(U_bits[n] != U_old_bits[n], axis=1)
        count = count_nonzero(live)
        return slice(None) if count == runs else int(live.argmax()) if count == 1 else live

    def first_miss(rows, x, u):
        """The index into ``rows`` of the first row whose predictors ``x``
        from the start values ``u`` (one stack per row) do not all settle,
        tested in one stacked call, or None when every one does.  An
        exception from ``f`` misses at the first row."""
        x = np.concatenate(x)
        counts = None if len(x) == len(rows) else [len(a) for a in u]
        t = times_col[rows] if counts is None else np.repeat(times_col[rows], counts, axis=0)
        try:
            ok = settles(f, t, x, np.concatenate(u), dT)
        except Exception:  # which row raised is unknown: the row-by-row step raises it again where it is real
            return 0
        if count_nonzero(ok) == len(ok):
            return None
        return int(ok.argmin() if counts is None else np.repeat(np.arange(len(rows)), counts)[ok.argmin()])

    def speculate(n, live, chunk):
        """Step up to ``chunk`` rows with live runs from row ``n`` on to their
        predictors, then verify them.  Returns the next row, its live runs and
        the next chunk: doubled after a full chunk that met the stop, 0 (one
        row at a time) at the first row that did not, or where ``f``
        raised."""
        rows, lives, x, u = [], [], [], []  # the pending rows, their live runs, predictors and start values
        with np.errstate(all="ignore"):  # no value past a miss is kept
            while n < N:
                if live is not None:
                    if len(rows) == chunk:
                        break
                    G[n, live] = p = predictor(U[n, live], G_old[n, live], U_old[n, live], stage_inv[n])
                    rows.append(n)
                    lives.append(live)
                    x.append(p.reshape(-1, dim))
                    u.append(U[n, live].reshape(-1, dim))
                U[n + 1] = F[n] + (G[n] - G_old[n])
                live = changed(n + 1)
                n += 1
            miss = first_miss(rows, x, u) if rows else None
        if miss is None:
            return n, live, 2 * chunk if len(rows) == chunk else 0
        G[rows[miss]:n] = G_old[rows[miss]:n]
        return rows[miss], lives[miss], 0

    def step(n, live):
        """Row ``n``'s warm coarse steps through ``_warm_steps``.  Returns
        whether every step settled at its predictor.  A failed step raises
        the lowest failed run's error, naming its step."""
        inverse = None if stage_inv is None else stage_inv[n]
        u, guess, guess_from = U[n, live], G_old[n, live], U_old[n, live]
        x, failures, settled = _warm_steps(f, times[n], u, dT, guess, guess_from, inverse, jac)
        if failures:
            i = min(failures)
            r = int(np.atleast_1d(np.arange(runs)[live])[i])
            failures[i].name_coarse_step(n, passes[r], r)
            raise failures[i]
        G[n, live] = x
        return settled

    n, live = 0, None
    chunk = 0 if stage_inv is None else 1
    while n < N:
        if live is not None and chunk:
            n, live, chunk = speculate(n, live, chunk)
            continue
        if live is not None and step(n, live):
            chunk = 1  # the step landed on its predictor: predict again
        # Summed as fine value plus small coarse increment: near convergence
        # the increment vanishes, so the fine result's bits are preserved.
        U[n + 1] = F[n] + (G[n] - G_old[n])
        live = changed(n + 1)
        n += 1


def iterate(
    state: PararealState | Sequence[PararealState],
    cfg: PararealConfig | Sequence[PararealConfig],
    problem: IvpProblem,
) -> PararealState | list[PararealState]:
    """One predictor-corrector pass: stacked fine sweeps, one sequential correction.

    ``state`` and ``cfg`` are one state and its config, or a batch: equally
    long sequences of states and of configs that differ in ``fine`` only
    (see ``run``).  Each state is advanced by one pass and returned as it
    was given, a state or a list.

    Each run's fine sweep advances every subinterval whose start value
    changed in the last pass in one ``advance`` call, in which each row
    stops on its own and a failing row leaves the others running; failed
    rows raise the ``SweepError`` that names every one of them.  An error
    not tied to a row (an exception raised by ``f`` itself, say) propagates
    with its own type.

    The states of a batch must share their ``stage_inv``, as those of one
    ``initialize`` call do (``ValueError`` before any step otherwise).
    The correction walks the subintervals once for the whole batch.  At each
    it takes a coarse step only for the runs whose corrected start value
    differs from the cached one's, a warm ``COARSE`` step from the cached
    step with the subinterval's ``stage_inv`` (see the module docstring).  With
    inverses, the correction is the linearized recurrence, each step taken
    at its predictor, verified a chunk at a time in one stacked ``f`` call;
    a step whose predictor misses the Newton stop, and every step after it
    until one lands on its predictor again, steps on from its predictor
    through ``propagators.warm_step``, each run's state alone, and without
    an inverse, from the cached result plus the change in its start value,
    where the predictor is not finite.  The runs' tables
    are arrays indexed by subinterval and run, so each subinterval's
    bookkeeping is a few array operations for the whole batch.  A failed
    coarse step (its Newton fallback's error) raises its own error, naming
    its subinterval, pass and run (``subinterval``, ``k``, ``run``, the
    run's index in the batch); of several failures in one stack, the
    lowest run's.  An exception from ``f`` on a predicted step past a miss
    never surfaces.  A ``SolverError`` from a fine sweep names its run too.
    """
    cfgs = _batch(cfg)
    states = [state] if isinstance(state, PararealState) else list(state)
    if len(states) != len(cfgs):
        raise ValueError(f"{len(states)} states for {len(cfgs)} configs")
    stage_inv = states[0].stage_inv
    if any(s.stage_inv is not stage_inv for s in states[1:]):
        raise ValueError("the states of a batch must share one stage_inv: those of one initialize call")
    first = cfgs[0]
    N = first.N
    dT = problem.T / N
    times = np.arange(N) * dT

    fine_results = []
    for r, (s, c) in enumerate(zip(states, cfgs)):
        try:
            fine_results.append(_fine_results(s, _make_stepper(c.fine, problem, dT), times))
        except SolverError as exc:
            exc.run = r
            raise

    # The batch's tables, time first: entry n holds every run's row n, one
    # contiguous block.  Rows 1..N of U are overwritten by the correction.
    U_old = np.stack([s.u for s in states], axis=1)
    G_old = np.stack([s.g_prev for s in states], axis=1)
    F = np.stack(fine_results, axis=1)
    U, G = U_old.copy(), G_old.copy()
    _correct(U, U_old, G, G_old, F, stage_inv, problem, dT, [s.k + 1 for s in states])

    for r, (s, fine) in enumerate(zip(states, fine_results)):
        u = U[:, r].copy()
        iter_error = float(np.max(np.abs(u - s.u)))
        ref = s.ref_table
        component_error = None if ref is None else tuple(np.max(np.abs(u - ref), axis=0).tolist())
        s.u_prev, s.u = s.u, u
        s.f_prev = fine
        s.g_prev = G[:, r].copy()
        s.history.append(ConvergenceRecord(s.k + 1, iter_error, component_error))
    return states[0] if isinstance(state, PararealState) else states


def run(
    cfg: PararealConfig | Sequence[PararealConfig], problem: IvpProblem
) -> RunResult | list[RunResult]:
    """Iterate until the stopping criterion ``iter_error <= tol`` is met.

    Returns the converged iterate table (shape ``(N+1, dim)``) and the full
    convergence history.  Hitting ``max_k`` raises ``MaxIterationsError``
    with the history attached.

    A sequence of configs that agree on everything but ``fine`` runs as a
    batch and returns a list of those pairs, one per config; other
    sequences, and an empty one, raise ``ValueError``.  The runs go in
    lockstep, sharing the initial sweep and each pass's coarse steps (see
    ``iterate``), and a run leaves the batch once it has converged.

    The first error stops the whole batch.  Its ``run`` is the index of the
    config it belongs to (0 for the shared initial sweep), and a
    ``MaxIterationsError`` carries that run's history.  Where several runs
    would fail, the batch raises the failure it meets first: the earliest
    pass; within a pass, the fine sweeps (in run order) before the
    correction; within the correction, the lowest subinterval, then the
    lowest run.  Running the configs one after another raises the lowest
    failing run's error instead, so the two differ when a later run fails
    in an earlier pass, or earlier in the same pass, than a lower one; a
    lower run's ``MaxIterationsError`` is such a case, since it comes only
    after ``max_k`` passes.
    """
    cfgs = _batch(cfg)
    first = cfgs[0]
    states = initialize(cfgs, problem)
    live = list(range(len(cfgs)))
    for _ in range(first.max_k):
        try:
            iterate([states[r] for r in live], [cfgs[r] for r in live], problem)
        except SolverError as exc:
            exc.run = live[exc.run]
            raise
        # A NaN iteration error is not convergence.
        live = [r for r in live if not states[r].history[-1].iter_error <= cfgs[r].tol]
        if not live:
            results = [(s.u, s.history) for s in states]
            return results[0] if isinstance(cfg, PararealConfig) else results
    error = MaxIterationsError(
        f"no convergence to tol={first.tol:g} within {first.max_k} iterations", states[live[0]].history
    )
    error.run = live[0]
    raise error
