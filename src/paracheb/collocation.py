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

States are arrays of shape ``(dim,)``; node tables are node-major,
``(M+1, dim)``.  ``f`` evaluates a stack of states (the contract stated on
``problems.IvpProblem``), so a sweep's node table is one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebyshev import CgPointSet, CollocationOperator
from .errors import NonConvergenceError, NonFiniteRhsError, SingularSystemError

RhsFunction = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PicardConfig:
    """Stopping rule for the fixed-point sweep, which starts from the
    initial value at every node and raises ``NonConvergenceError`` when
    ``max_iter`` sweeps do not reach ``tol``.
    """

    tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class CollocationSolution:
    """Result of a single-interval solve.

    ``u_hat`` has shape ``(M+2, dim)``, ``u_nodes`` ``(M+1, dim)`` and
    ``u_end`` ``(dim,)``.  Because every basis polynomial equals one at the
    right endpoint, ``u_end`` is the column sum of ``u_hat``.
    """

    u_hat: np.ndarray
    u_nodes: np.ndarray
    u_end: np.ndarray
    iterations: int


def _as_state(u) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.ndim != 1:
        raise ValueError(f"state must be one-dimensional (got shape {u.shape})")
    return u


def solve_checked(op: CollocationOperator, z, b: np.ndarray) -> np.ndarray:
    """Solve the shifted collocation system ``(I + z T1_C) x = b``.

    ``z`` is a scalar, with ``b`` of shape ``(M+1,)``, or a vector of shifts,
    with row ``i`` of ``b`` (shape ``(len(z), M+1)``) the right-hand side for
    ``z[i]``; all systems are solved in one stacked call.  A (near-)singular
    system, a pole of the rational stability function, raises
    ``SingularSystemError`` instead of returning the amplified garbage a
    backward-stable factorization would produce: the smallest singular value
    over the whole stack is compared with the largest.  The systems have
    identity-plus-term structure, so unit scale is the natural yardstick
    even when cancellation shrinks them.
    """
    z = np.asarray(z, dtype=float)
    K = np.eye(op.M + 1) + z[..., None, None] * op.T1_C
    # Each system's singular values come sorted in descending order.  The
    # builtin min/max cost less than array reductions on the one-system
    # path, which the stability analysis runs thousands of times.
    spectrum = np.linalg.svd(K, compute_uv=False)
    smallest = min(spectrum[..., -1].flat)
    if smallest <= 1e-14 * max(max(spectrum[..., 0].flat), 1.0):
        raise SingularSystemError(
            f"collocation system is singular to working precision "
            f"(smallest singular value {smallest:.2e})"
        )
    try:
        return np.linalg.solve(K, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"collocation system is singular: {exc}") from exc


def _rhs_table(f: RhsFunction, points: CgPointSet, u_nodes: np.ndarray) -> np.ndarray:
    F = f(points.t[:, None], u_nodes)
    if np.shape(F) != u_nodes.shape:
        raise ValueError(f"f returned shape {np.shape(F)}, expected {u_nodes.shape}")
    if not np.isfinite(F).all():
        m = int(np.argmin(np.isfinite(F).all(axis=1)))
        raise NonFiniteRhsError(m, points.t[m])
    return F


def picard_sweep(
    op: CollocationOperator,
    f: RhsFunction,
    points: CgPointSet,
    u_a,
    u_prev_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-point update; returns the new ``(u_hat, u_nodes)`` pair.

    ``f`` is called once, with ``t`` of shape ``(M+1, 1)`` and the node
    table ``u`` of shape ``(M+1, dim)``; a result not of ``u``'s shape raises
    ``ValueError``.
    """
    if points.M != op.M:
        raise ValueError(f"operator built for M={op.M} but points have M={points.M}")
    u_a = _as_state(u_a)
    u_prev_nodes = np.asarray(u_prev_nodes, dtype=float)
    if u_prev_nodes.shape != (op.M + 1, u_a.size):
        raise ValueError(
            f"node table must have shape {(op.M + 1, u_a.size)} "
            f"(got {u_prev_nodes.shape})"
        )
    F = _rhs_table(f, points, u_prev_nodes)
    u_hat = np.zeros((op.M + 2, u_a.size))
    u_hat[0] = u_a
    u_hat += points.length * (op.C_alpha @ F)
    return u_hat, op.T1 @ u_hat


def endpoint_value(u_hat: np.ndarray) -> np.ndarray:
    """State at the right endpoint: the componentwise coefficient sum."""
    return np.asarray(u_hat, dtype=float).sum(axis=0)


def solve_nonlinear(
    op: CollocationOperator,
    f: RhsFunction,
    points: CgPointSet,
    u_a,
    cfg: PicardConfig | None = None,
) -> CollocationSolution:
    """Iterate fixed-point sweeps until successive node values settle.

    The stopping metric is the max norm of the node-value difference between
    consecutive sweeps.  Hitting ``cfg.max_iter`` raises
    ``NonConvergenceError``.  Each sweep is one call of ``f`` on the stack
    of node states (see ``picard_sweep``).
    """
    cfg = cfg or PicardConfig()
    u_a = _as_state(u_a)
    u_nodes = np.tile(u_a, (op.M + 1, 1))

    diff = np.inf
    for p in range(1, cfg.max_iter + 1):
        u_hat, u_new = picard_sweep(op, f, points, u_a, u_nodes)
        diff = float(np.max(np.abs(u_new - u_nodes)))
        u_nodes = u_new
        if not np.isfinite(diff):
            break
        if diff < cfg.tol:
            return CollocationSolution(u_hat, u_nodes, endpoint_value(u_hat), iterations=p)
    raise NonConvergenceError(
        f"fixed-point sweep did not converge in {cfg.max_iter} iterations", diff
    )


def solve_linear(
    op: CollocationOperator,
    A: np.ndarray,
    g: Callable[[float], np.ndarray] | None,
    points: CgPointSet,
    u_a,
) -> CollocationSolution:
    """Direct collocation solve of ``u' + A u = g(t)`` for symmetric ``A``.

    With ``A = Q diag(lam) Q^T`` the node system decouples into one shifted
    system per eigenvalue, in the eigenbasis coordinates ``c = Q^T u_a`` and
    ``G~ = G Q`` of the initial value and the forcing node values (one call
    ``g(t_nodes[:, None])``):

        (I + lam_i dT T1_C) x_i = c_i + dT * T1_C @ G~[:, i]

    all solved by ``solve_checked`` in one stacked call.  The coefficients
    are formed in the eigenbasis from ``F = G~ - X lam`` and only then mapped
    back with ``Q^T``.  A singular block (the scaled problem sits on a pole
    of the rational stability function) raises ``SingularSystemError``
    rather than being regularized; a non-symmetric ``A`` raises
    ``ValueError``.
    """
    if points.M != op.M:
        raise ValueError(f"operator built for M={op.M} but points have M={points.M}")
    u_a = _as_state(u_a)
    A = np.asarray(A, dtype=float)
    dim = u_a.size
    if A.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim} (got shape {A.shape})")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix must be symmetric")
    n = op.M + 1
    dT = points.length

    G = np.zeros((n, dim))
    if g is not None:
        G = _rhs_table(lambda t, _: g(t), points, G)

    lam, Q = np.linalg.eigh(A)
    c = u_a @ Q
    G_eig = G @ Q
    X = solve_checked(op, lam * dT, c[:, None] + dT * (op.T1_C @ G_eig).T)
    if not np.all(np.isfinite(X)):
        raise SingularSystemError("collocation system produced non-finite values")

    F = G_eig - X.T * lam
    u_hat = np.zeros((op.M + 2, dim))
    u_hat[0] = c
    u_hat += dT * (op.C_alpha @ F)
    u_hat = u_hat @ Q.T
    return CollocationSolution(u_hat, op.T1 @ u_hat, endpoint_value(u_hat), iterations=0)
