"""Spectral collocation solver on a single subinterval.

Solves ``u' = f(t, u)`` on ``[a, b]`` with ``u(a) = u_a`` by expanding ``u``
in shifted Chebyshev polynomials and collocating the interpolated right-hand
side at the CG nodes.  Nonlinear problems run fixed-point (Picard) sweeps,

    coefficients  u_hat = U0 + (b - a) * C_alpha @ f(t_nodes, u_prev_nodes),
    node values   u_nodes = T1 @ u_hat,

which converge linearly when the Lipschitz constant times the interval
length is small.  Linear problems ``u' + A u = 0`` with symmetric positive
semidefinite ``A`` are instead solved directly in the eigenbasis of ``A``,
which their ``LinearRhs`` checks and takes once, when it is built:
each eigenvalue ``lambda`` gives one ``(M+1)``-sized shifted system ``I + z
T1_C`` with ``z = lambda * (b - a) >= 0``, the same system whose solution
defines the stability function ``R(z)``, and no such system is singular.
The direct solve stays well defined far outside the fixed-point
convergence region.

A state has shape ``(dim,)`` and its node table ``(M+1, dim)``.  A stack of
``N`` states, one per subinterval of a uniform grid, has shape ``(N, dim)``
with node tables ``(N, M+1, dim)``, on a stacked point set
(``CgPointSet.shifted``); every solve then covers all rows in the same
calls.  ``f`` evaluates a stack of states (the contract stated on
``problems.IvpProblem``), so a sweep over every row's node table is one
call.  On a stack each row stops on its own, by the rules of
``settle_rows``, and a solve with failed rows raises ``SweepError`` naming
every one of them once the others finish.

The collocation matrices depend on ``M`` alone, so each solve takes them
from ``chebyshev.build_operator(points.M)``, which caches them per ``M``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy._core.multiarray import count_nonzero

from .chebyshev import CgPointSet, CollocationOperator, build_operator
from .errors import NonConvergenceError, NonFiniteRhsError, SingularSystemError, check_integer, raise_row_failures

RhsFunction = Callable[[float, np.ndarray], np.ndarray]


def check_limits(tol: float, max_iter: int) -> None:
    """Reject inner-iteration limits no iteration can meet."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    check_integer("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


def _rows(a, rows):
    """Rows ``rows`` of a per-row array; a float, or ``rows`` None, takes all.

    ``getattr`` and not ``np.ndim``, which on a Python float catches an
    ``AttributeError`` and builds an array, on every backtracking step.
    """
    return a if rows is None or getattr(a, "ndim", 0) == 0 else a[rows]


def settle_rows(test, update, state, max_iter: int, stall: str):
    """Run an inner iteration on a stack of rows until each row settles or fails.

    ``state`` is a tuple of arrays with one row per live row.  A round is
    ``test(state)``, giving each live row's norm, the mask of settled rows
    (or None for none, which only a test before the first update may give)
    and a dict live index -> error of failed ones (none settled), then
    ``update(state, norm, rows)``, giving the next state and the rows that
    failed in it.  ``rows`` indexes the live rows in the stack and is None
    while all are live.  There are ``max_iter`` updates and one test more.
    It is the one driver of the Newton stage solves (``propagators._newton``)
    and the Picard sweeps (``solve_nonlinear``).  While every row is live
    and none leaves, a round costs the two calls and one ``count_nonzero``
    of the mask, so a single-state solve pays little for the stack logic.

    A row leaves only at a test: settled, with its state; failed there or
    in the update before, holding NaN with its first error; or, still live
    at the last test, with ``NonConvergenceError(stall, norm)``.  So each
    settled row follows exactly the iterates it would follow alone.
    Returns every row's state, the failures and the updates made.
    """
    failures: dict[int, Exception] = {}
    failed: dict[int, Exception] = {}  # live index -> error, from the last update
    out = rows = None  # every row's state, filled in as rows leave; the live rows
    for it in range(max_iter + 1):
        norm, settled, lost = test(state)
        if lost:
            failed = {**lost, **failed}  # an update's error came first
        if it == max_iter:  # every row still live leaves now
            for i in np.flatnonzero(~settled):
                failed.setdefault(int(i), NonConvergenceError(stall, float(norm[i])))
        # count_nonzero is cheaper than any() and all() on a few rows.
        settling = 0 if settled is None else count_nonzero(settled)
        if rows is None and settling == len(norm):
            return state, failures, it
        if settling or failed:
            leave = np.zeros(len(norm), dtype=bool) if settled is None else settled.copy()
            leave[list(failed)] = True
            ids = np.arange(len(norm)) if rows is None else rows
            if out is None:
                out = tuple(np.full_like(a, np.nan) for a in state)
            if settling:
                for o, a in zip(out, state):
                    o[ids[settled]] = a[settled]
            failures.update((int(ids[i]), exc) for i, exc in failed.items())
            rows = ids[~leave]
            if not len(rows):
                return out, failures, it
            state, norm = tuple(a[~leave] for a in state), norm[~leave]
        state, failed = update(state, norm, rows)


@dataclass(frozen=True, eq=False)
class CollocationSolution:
    """Result of a single-interval solve.

    ``u_hat`` has shape ``(M+2, dim)``, ``u_nodes`` ``(M+1, dim)`` and
    ``u_end`` ``(dim,)``, each with a leading ``N`` axis for a stack.
    ``u_nodes`` is ``T1 @ u_hat``, the node values, computed when read.
    Because every basis polynomial equals one at the right endpoint,
    ``u_end`` is the column sum of ``u_hat``.  ``iterations`` is the sweep
    count, the largest over the rows of a stack.
    """

    u_hat: np.ndarray
    iterations: int

    @property
    def u_nodes(self) -> np.ndarray:
        return build_operator(self.u_hat.shape[-2] - 2).T1 @ self.u_hat

    @property
    def u_end(self) -> np.ndarray:
        return self.u_hat.sum(axis=-2)


def _as_state(u) -> np.ndarray:
    """A state ``(dim,)`` or a stack of states ``(N, dim)`` as a float array."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.ndim > 2:
        raise ValueError(f"state must have shape (dim,) or (N, dim) (got shape {u.shape})")
    return u


def solve_checked(op: CollocationOperator, z, b: np.ndarray) -> np.ndarray:
    """Solve the shifted collocation systems ``(I + z T1_C) x = b`` by LU.

    ``z`` has shape ``(..., k)``: each entry of the leading axes is a
    separate system whose ``k`` diagonal blocks are ``I + z_j T1_C``, and a
    scalar ``z`` is one system of one block.  ``b`` broadcasts against
    ``z.shape + (M+1,)``, one right-hand side per block; it may carry more
    leading axes (the rows of a stack).  So ``solve_linear`` passes the
    eigenvalue shifts of one matrix as a vector (one block-diagonal
    system).  All blocks are solved in one stacked call, one right-hand
    side at a time, so a column's bits do not depend on how many columns
    share the call.

    The shifts of the package are ``z >= 0``: ``solve_linear`` passes
    ``lambda * dT`` for the eigenvalues ``lambda`` of a symmetric positive
    semidefinite ``A``.  On ``z >= 0`` no block is singular, since every
    eigenvalue ``mu`` of ``T1_C`` has a positive real part and so ``|1 + z
    mu| >= 1``; each block is factored as it stands, with no singularity
    test.  A
    non-finite shift raises ``ValueError`` before any factorization, and a
    block LAPACK finds exactly singular (only a shift ``z < 0`` can give
    one) raises ``SingularSystemError``.
    """
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("collocation shifts must be finite")
    K = np.eye(op.M + 1) + z[..., None, None] * op.T1_C
    try:
        return np.linalg.solve(K, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"collocation system is singular: {exc}") from exc


def _nonfinite_rows(F: np.ndarray, t_nodes: np.ndarray) -> dict[int, NonFiniteRhsError]:
    """Rows of a stacked table ``(N, M+1, dim)`` holding a NaN or infinity.

    Each maps to the error naming its first bad node and that node's time;
    ``t_nodes`` broadcasts against ``(N, M+1)``.
    """
    finite = np.isfinite(F).all(axis=-1)
    if finite.all():
        return {}
    t_nodes = np.broadcast_to(t_nodes, finite.shape)
    errors = {}
    for i in np.flatnonzero(~finite.all(axis=-1)):
        m = int(np.argmin(finite[i]))
        errors[int(i)] = NonFiniteRhsError(m, t_nodes[i, m])
    return errors


def _rhs_table(f: RhsFunction, t_nodes: np.ndarray, u_nodes: np.ndarray) -> np.ndarray:
    F = f(t_nodes[..., None], u_nodes)
    if np.shape(F) != u_nodes.shape:
        raise ValueError(f"f returned shape {np.shape(F)}, expected {u_nodes.shape}")
    return F


def _coefficients(op: CollocationOperator, length: float, u_a: np.ndarray, F: np.ndarray) -> np.ndarray:
    """``u_hat = U0 + length * C_alpha @ F`` for a node table or a stack of them."""
    u_hat = np.zeros(F.shape[:-2] + (op.M + 2, F.shape[-1]))
    u_hat[..., 0, :] = u_a
    u_hat += length * (op.C_alpha @ F)
    return u_hat


def picard_sweep(
    f: RhsFunction,
    points: CgPointSet,
    u_a,
    u_prev_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, dict[int, NonFiniteRhsError]]:
    """One fixed-point update; returns the new ``(u_hat, u_nodes, failures)``.

    ``f`` is called once, with ``t`` of shape ``(M+1, 1)`` and the node
    table ``u`` of shape ``(M+1, dim)``, or on a stack with ``points.t[...,
    None]`` and the ``(N, M+1, dim)`` tables.  ``failures`` maps each row
    whose ``f`` values hold a NaN or infinity to the ``NonFiniteRhsError``
    naming its first bad node (row 0 for a single state); that row's
    update is returned as computed.  A node table, or a result of ``f``,
    of the wrong shape raises ``ValueError``.
    """
    op = build_operator(points.M)
    u_a = _as_state(u_a)
    u_prev_nodes = np.asarray(u_prev_nodes, dtype=float)
    expected = u_a.shape[:-1] + (op.M + 1, u_a.shape[-1])
    if u_prev_nodes.shape != expected:
        raise ValueError(f"node table must have shape {expected} (got {u_prev_nodes.shape})")
    F = _rhs_table(f, points.t, u_prev_nodes)
    u_hat = _coefficients(op, points.length, u_a, F)
    return u_hat, op.T1 @ u_hat, _nonfinite_rows(F.reshape((-1,) + expected[-2:]), points.t)


def solve_nonlinear(
    f: RhsFunction,
    points: CgPointSet,
    u_a,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> CollocationSolution:
    """Iterate fixed-point sweeps, starting from the initial value at every
    node, until successive node values settle.

    The stopping metric is the max norm of the node-value difference between
    consecutive sweeps, which must fall below ``tol``.  Hitting ``max_iter``
    sweeps raises ``NonConvergenceError``, a non-finite ``f`` value
    ``NonFiniteRhsError``.  Each sweep is one ``picard_sweep`` call on the
    node tables of every row still sweeping, so ``f`` always sees a stack,
    one row for a single state; ``settle_rows`` decides when a row leaves.
    The sweeps, ``f`` included, run with numpy's overflow and invalid-value
    warnings off, so a diverging solve reports only its typed error.
    """
    check_limits(tol, max_iter)
    M = points.M
    u_a = _as_state(u_a)
    U = u_a if u_a.ndim == 2 else u_a[None]
    t_nodes = np.broadcast_to(points.t, (len(U), M + 1))
    stall = f"fixed-point sweep did not converge in {max_iter} iterations"

    def sweep(state, _norm, rows):
        live = points if rows is None else dataclasses.replace(points, t=t_nodes[rows], a=_rows(points.a, rows))
        u_hat, u_new, failed = picard_sweep(f, live, _rows(U, rows), state[1])
        diff = np.max(np.abs(u_new - state[1]), axis=(-2, -1))
        for i in np.flatnonzero(~np.isfinite(diff)):
            failed.setdefault(int(i), NonConvergenceError(stall, diff[i]))
        return (u_hat, u_new, diff), failed

    # The start is u_a at every node; at an infinite distance no row settles.
    u_hat = np.zeros((len(U), M + 2, U.shape[-1]))
    u_hat[:, 0] = U
    start = (u_hat, np.repeat(U[:, None, :], M + 1, axis=1), np.full(len(U), np.inf))
    # A diverging sweep's infinities and NaNs fail its row with a typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        (u_hat, _, _), failures, sweeps = settle_rows(lambda s: (s[2], s[2] < tol, {}), sweep, start, max_iter, stall)
    raise_row_failures(failures, u_a.ndim == 2)
    return CollocationSolution(u_hat if u_a.ndim == 2 else u_hat[0], sweeps)


@dataclass(frozen=True, eq=False)
class LinearRhs:
    """The right-hand side ``-A u`` of a linear problem ``u' + A u = 0``.

    ``A`` must be a square, finite, symmetric and positive semidefinite
    matrix, and the constructor checks it once, where it enters:
    symmetric means within ``1e-12 * max(1, max|A|)`` of its transpose, and
    positive semidefinite no eigenvalue below ``-dim * eps * max|lam|``, the
    rounding of ``eigh``; each failure raises ``ValueError``.  Its one
    ``eigh`` gives ``A = Q diag(lam) Q^T``, ascending, with the eigenvalues
    in that rounding band taken as 0, so every shift ``lam * dT`` of the
    direct collocation solve is ``>= 0``.
    """

    A: np.ndarray
    lam: np.ndarray = field(init=False, repr=False)
    Q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square (got shape {A.shape})")
        if not np.isfinite(A).all():
            raise ValueError("matrix must be finite")
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise ValueError("matrix must be symmetric")
        lam, Q = np.linalg.eigh(A)  # ascending
        if lam[0] < -len(A) * np.finfo(float).eps * np.abs(lam).max():
            raise ValueError("matrix must be positive semidefinite")
        for name, value in (("A", A), ("lam", np.maximum(lam, 0.0)), ("Q", Q)):
            object.__setattr__(self, name, value)


def solve_linear(linear: LinearRhs, points: CgPointSet, u_a) -> CollocationSolution:
    """Direct collocation solve of ``u' + A u = 0``, the problem of ``linear``.

    With ``A = Q diag(lam) Q^T``, the decomposition ``linear`` holds, the
    node system decouples into one shifted system per eigenvalue, in the
    eigenbasis coordinates ``c = Q^T u_a`` of the initial value:

        (I + lam_i dT T1_C) x_i = c_i 1

    ``dT`` is the interval length, which every row of a stack shares, so
    the systems are built once per call and every row's right-hand sides
    go to ``solve_checked`` in one stacked call.  The coefficients are
    formed in the eigenbasis from ``F = -X lam`` and only then mapped back
    with ``Q^T``.

    Every shift ``lam_i dT`` is ``>= 0``, where no system is singular:
    ``LinearRhs`` checked ``A`` when it was built.  A state whose size is
    not ``A``'s raises ``ValueError``, and a row whose solve overflows to a
    non-finite value ``SingularSystemError``.
    """
    op = build_operator(points.M)
    u_a = _as_state(u_a)
    U = u_a if u_a.ndim == 2 else u_a[None]
    dim = U.shape[-1]
    lam, Q = linear.lam, linear.Q
    if Q.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim} (got shape {Q.shape})")
    dT = points.length

    c = np.vecmat(U, Q)
    X = solve_checked(op, lam * dT, np.repeat(c[:, :, None], op.M + 1, axis=-1))
    failures = {
        int(i): SingularSystemError("collocation system produced non-finite values")
        for i in np.flatnonzero(~np.isfinite(X).all(axis=(-2, -1)))
    }
    raise_row_failures(failures, u_a.ndim == 2)

    F = -X.swapaxes(-1, -2) * lam
    u_hat = _coefficients(op, dT, c, F) @ Q.T
    return CollocationSolution(u_hat if u_a.ndim == 2 else u_hat[0], iterations=0)
