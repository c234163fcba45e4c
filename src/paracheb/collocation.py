"""Spectral collocation solver on a single subinterval.

Solves ``u' = f(t, u)`` on ``[a, b]`` with ``u(a) = u_a`` by expanding ``u``
in shifted Chebyshev polynomials and collocating the interpolated right-hand
side at the CG nodes.  Nonlinear problems run fixed-point (Picard) sweeps,

    coefficients  u_hat = U0 + (b - a) * C_alpha @ f(t_nodes, u_prev_nodes),
    node values   u_nodes = T1 @ u_hat,

which converge linearly when the Lipschitz constant times the interval
length is small.  Linear problems ``u' + A u = g`` with symmetric ``A`` are
instead solved directly in the eigenbasis of ``A``: each eigenvalue
``lambda`` gives one ``(M+1)``-sized shifted system ``I + z T1_C`` with
``z = lambda * (b - a)``, the same system whose solution defines the
stability function ``R(z)``.  The direct solve stays well defined far
outside the fixed-point convergence region.

A state has shape ``(dim,)`` and its node table ``(M+1, dim)``.  A stack of
``N`` states, one per subinterval of a uniform grid, has shape ``(N, dim)``
with node tables ``(N, M+1, dim)``, on a stacked point set
(``CgPointSet.shifted``); every solve then covers all rows in the same
calls.  ``f`` evaluates a stack of states (the contract stated on
``problems.IvpProblem``), so a sweep over every row's node table is one
call.  On a stack each row stops on its own; a failing row is left out
while the others finish, and the solve then raises ``SweepError`` naming
every failed row.

The collocation matrices depend on ``M`` alone, so each solve takes them
from ``chebyshev.build_operator(points.M)``, which caches them per ``M``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebyshev import CgPointSet, CollocationOperator, build_operator
from .errors import NonConvergenceError, NonFiniteRhsError, SingularSystemError, raise_row_failures

RhsFunction = Callable[[float, np.ndarray], np.ndarray]


def check_integer(name: str, value) -> None:
    """Reject a count that is not an integer, naming its field.

    A float count would pass every range check and fail later in ``range``.
    """
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer (got {value!r})") from None


def check_limits(tol: float, max_iter: int) -> None:
    """Reject inner-iteration limits no iteration can meet."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    check_integer("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class CollocationSolution:
    """Result of a single-interval solve.

    ``u_hat`` has shape ``(M+2, dim)``, ``u_nodes`` ``(M+1, dim)`` and
    ``u_end`` ``(dim,)``, each with a leading ``N`` axis for a stack.
    Because every basis polynomial equals one at the right endpoint,
    ``u_end`` is the column sum of ``u_hat``.  ``iterations`` is the sweep
    count, the largest over the rows of a stack.
    """

    u_hat: np.ndarray
    u_nodes: np.ndarray
    iterations: int

    @property
    def u_end(self) -> np.ndarray:
        return self.u_hat.sum(axis=-2)


def _as_state(u) -> np.ndarray:
    """A state ``(dim,)`` or a stack of states ``(N, dim)`` as a float array."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.ndim > 2:
        raise ValueError(f"state must have shape (dim,) or (N, dim) (got shape {u.shape})")
    return u


_SINGULAR_RTOL = 1e-14  # smallest singular value against max(largest, 1)


def _certified(K: np.ndarray) -> bool:
    """Whether Cholesky proves every system in ``K`` far from singular.

    ``K`` has shape ``(S, k, n, n)``: ``S`` systems of ``k`` diagonal blocks.
    Each block is certified when Cholesky succeeds on ``K^T K - tau I`` with

        tau = 4 n gamma_{n+1} ||K||_F^2 + (1e-14 max(F, 1))^2,

    ``gamma_m = m u / (1 - m u)`` and ``F`` the largest block norm
    ``||K||_F`` of its system.  The computed Gram matrix is within
    ``gamma_n ||K||_F^2`` of ``K^T K`` and the factorization's backward
    error is at most ``gamma_{n+1}`` times its squared factor norm (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3),
    so success gives ``sigma_min^2 > (1e-14 max(F, 1))^2`` with room to
    spare.  Since ``F`` bounds every block's largest singular value, the
    singular-value test would pass.  A non-finite entry or a failed
    factorization returns False, and the caller runs that test.
    """
    n = K.shape[-1]
    unit = np.finfo(float).eps / 2
    gamma = (n + 1) * unit / (1 - (n + 1) * unit)
    fro2 = np.einsum("...ij,...ij->...", K, K)
    threshold = _SINGULAR_RTOL * np.maximum(np.sqrt(fro2.max(axis=-1, keepdims=True)), 1.0)
    tau = 4 * n * gamma * fro2 + threshold * threshold
    if not np.isfinite(tau).all():
        return False
    gram = K.swapaxes(-1, -2) @ K
    diag = np.arange(n)
    gram[..., diag, diag] -= tau[..., None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_checked(op: CollocationOperator, z, b: np.ndarray) -> np.ndarray:
    """Solve the shifted collocation systems ``(I + z T1_C) x = b``.

    ``z`` has shape ``(..., k)``: each entry of the leading axes is a
    separate system whose ``k`` diagonal blocks are ``I + z_j T1_C``, and a
    scalar ``z`` is one system of one block.  ``b`` broadcasts against
    ``z.shape + (M+1,)``, one right-hand side per block; it may carry more
    leading axes (the rows of a stack).  So ``solve_linear`` passes the
    eigenvalue shifts of one matrix as a vector (one block-diagonal
    system), and ``stability`` passes a grid of ``z`` as a column (one
    system per ``z``).  All blocks are solved in one stacked call, one
    right-hand side at a time, so a column's bits do not depend on how many
    columns share the call.

    A (near-)singular system, a pole of the rational stability function,
    raises ``SingularSystemError`` instead of returning the amplified
    garbage a backward-stable factorization would produce: a system is
    singular when its smallest singular value, over all its blocks, is at
    most 1e-14 times its largest (or times 1, when that is smaller).  The
    systems have identity-plus-term structure, so unit scale is the natural
    yardstick even when cancellation shrinks them.  A Cholesky certificate
    settles the usual case without the singular values: a successful
    factorization of ``K^T K - tau I``, with
    ``tau = 4 n gamma_{n+1} ||K||_F^2 + (1e-14 max(F, 1))^2`` per block and
    ``F`` the system's largest block norm, proves the system passes the
    test (the bound is derived in ``_certified``).  Only when it fails, or
    an entry is not finite, does the SVD run and decide, so the decision
    is the SVD test's.
    """
    z = np.asarray(z, dtype=float)
    n = op.M + 1
    K = np.eye(n) + z[..., None, None] * op.T1_C
    systems = K.reshape(-1, z.shape[-1] if z.ndim else 1, n, n)
    if not _certified(systems):
        # Singular values come sorted in descending order.
        spectrum = np.linalg.svd(systems, compute_uv=False)
        smallest = spectrum[..., -1].min(axis=-1)
        singular = smallest <= _SINGULAR_RTOL * np.maximum(spectrum[..., 0].max(axis=-1), 1.0)
        if singular.any():
            raise SingularSystemError(
                f"collocation system is singular to working precision "
                f"(smallest singular value {smallest[singular].min():.2e})"
            )
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
) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-point update; returns the new ``(u_hat, u_nodes)`` pair.

    ``f`` is called once, with ``t`` of shape ``(M+1, 1)`` and the node
    table ``u`` of shape ``(M+1, dim)`` (a leading ``N`` axis on both for a
    stack); a result not of ``u``'s shape raises ``ValueError``.  A
    non-finite one raises ``NonFiniteRhsError`` naming the first bad node,
    or on a stack ``SweepError`` naming every row that holds one.
    """
    op = build_operator(points.M)
    u_a = _as_state(u_a)
    u_prev_nodes = np.asarray(u_prev_nodes, dtype=float)
    expected = u_a.shape[:-1] + (op.M + 1, u_a.shape[-1])
    if u_prev_nodes.shape != expected:
        raise ValueError(f"node table must have shape {expected} (got {u_prev_nodes.shape})")
    F = _rhs_table(f, points.t, u_prev_nodes)
    raise_row_failures(_nonfinite_rows(F.reshape((-1,) + expected[-2:]), points.t), u_a.ndim == 2)
    u_hat = _coefficients(op, points.length, u_a, F)
    return u_hat, op.T1 @ u_hat


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
    ``NonFiniteRhsError``.  Each sweep is one call of ``f`` on the node
    tables of every row still sweeping; a row leaves once it settles or
    fails, so each row runs exactly the sweeps it would run alone.
    """
    check_limits(tol, max_iter)
    op = build_operator(points.M)
    u_a = _as_state(u_a)
    U = u_a if u_a.ndim == 2 else u_a[None]
    N, dim = U.shape
    t_nodes = np.broadcast_to(points.t, (N, op.M + 1))
    u_hat_out = np.empty((N, op.M + 2, dim))
    nodes_out = np.empty((N, op.M + 1, dim))
    failures: dict[int, Exception] = {}
    iterations = 0
    stall = f"fixed-point sweep did not converge in {max_iter} iterations"

    def rhs(t_act, nodes):
        if u_a.ndim == 2:
            return _rhs_table(f, t_act, nodes)
        return _rhs_table(f, t_act[0], nodes[0])[None]  # f sees one node table

    rows = np.arange(N)  # rows still sweeping
    U_act, t_act = U, t_nodes
    nodes = np.repeat(U[:, None, :], op.M + 1, axis=1)
    for p in range(1, max_iter + 1):
        F = rhs(t_act, nodes)
        keep = np.ones(len(rows), dtype=bool)
        for i, exc in _nonfinite_rows(F, t_act).items():
            failures[int(rows[i])] = exc
            keep[i] = False
        u_hat = _coefficients(op, points.length, U_act, F)
        u_new = op.T1 @ u_hat
        diff = np.max(np.abs(u_new - nodes), axis=(-2, -1))
        done = keep & (diff < tol)
        if done.any():
            u_hat_out[rows[done]] = u_hat[done]
            nodes_out[rows[done]] = u_new[done]
            iterations = p
        for i in np.flatnonzero(keep & ~np.isfinite(diff)):
            failures[int(rows[i])] = NonConvergenceError(stall, diff[i])
        keep &= np.isfinite(diff) & ~done
        if not keep.all():
            rows, U_act, t_act = rows[keep], U_act[keep], t_act[keep]
            u_new, diff = u_new[keep], diff[keep]
            if not len(rows):
                break
        nodes = u_new
    for i, row in enumerate(rows):
        failures[int(row)] = NonConvergenceError(stall, diff[i])
    raise_row_failures(failures, u_a.ndim == 2)
    if u_a.ndim == 1:
        u_hat_out, nodes_out = u_hat_out[0], nodes_out[0]
    return CollocationSolution(u_hat_out, nodes_out, iterations)


def solve_linear(
    A: np.ndarray,
    g: Callable[[float], np.ndarray] | None,
    points: CgPointSet,
    u_a,
) -> CollocationSolution:
    """Direct collocation solve of ``u' + A u = g(t)`` for symmetric ``A``.

    With ``A = Q diag(lam) Q^T`` the node system decouples into one shifted
    system per eigenvalue, in the eigenbasis coordinates ``c = Q^T u_a`` and
    ``G~ = G Q`` of the initial value and the forcing node values (one call
    ``g(t_nodes[..., None])``):

        (I + lam_i dT T1_C) x_i = c_i + dT * T1_C @ G~[:, i]

    ``dT`` is the interval length, which every row of a stack shares, so
    the systems and their singularity check are built once per call and
    every row's right-hand sides go to ``solve_checked`` in one stacked
    call.  The coefficients are formed in the eigenbasis from
    ``F = G~ - X lam`` and only then mapped back with ``Q^T``.  A singular
    block (the scaled problem sits on a pole of the rational stability
    function) raises ``SingularSystemError`` for the whole call rather than
    being regularized; a non-symmetric ``A`` raises ``ValueError``.
    """
    op = build_operator(points.M)
    u_a = _as_state(u_a)
    U = u_a if u_a.ndim == 2 else u_a[None]
    N, dim = U.shape
    A = np.asarray(A, dtype=float)
    if A.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim} (got shape {A.shape})")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix must be symmetric")
    n = op.M + 1
    dT = points.length
    t_nodes = np.broadcast_to(points.t, (N, n))

    G = np.zeros((N, n, dim))
    failures: dict[int, Exception] = {}
    if g is not None:
        G = _rhs_table(lambda t, _: g(t), t_nodes, G)
        failures = _nonfinite_rows(G, t_nodes)

    lam, Q = np.linalg.eigh(A)
    # One vector-matrix product per row: a one-row matrix product would
    # take another BLAS kernel than a taller one.
    c = (U[:, None, :] @ Q)[:, 0, :]
    G_eig = G @ Q
    X = solve_checked(op, lam * dT, c[:, :, None] + dT * (op.T1_C @ G_eig).swapaxes(-1, -2))
    for i in np.flatnonzero(~np.isfinite(X).all(axis=(-2, -1))):
        failures.setdefault(int(i), SingularSystemError("collocation system produced non-finite values"))
    raise_row_failures(failures, u_a.ndim == 2)

    F = G_eig - X.swapaxes(-1, -2) * lam
    u_hat = _coefficients(op, dT, c, F) @ Q.T
    if u_a.ndim == 1:
        u_hat = u_hat[0]
    return CollocationSolution(u_hat, op.T1 @ u_hat, iterations=0)
