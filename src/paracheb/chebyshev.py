"""Chebyshev polynomials, Chebyshev-Gauss points and collocation matrices.

The collocation scheme expands the solution on one subinterval ``[a, b]`` in
shifted Chebyshev polynomials of degree up to ``M + 1`` and determines the
coefficients from right-hand-side values at the ``M + 1`` Chebyshev-Gauss
(CG) nodes.  Everything the scheme needs is precomputable from ``M`` alone:

* ``T1``, the basis evaluated at the nodes (degrees ``0 .. M+1``),
* ``V`` and ``T2``, the forward discrete Chebyshev transform taking node
  values to interpolation coefficients,
* ``R`` and ``S``, the term-by-term integration recurrence of a Chebyshev
  series together with the row that anchors the series at the left endpoint,
* ``C_alpha = (1/4) R S V T2``, the composite map from right-hand-side node
  values to solution coefficients.

The interval length never enters the matrices; it is applied as an external
``(b - a)`` multiplier at the use site, so a single operator serves every
subinterval of a uniform time grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

_TAU_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CgPointSet:
    """Chebyshev-Gauss nodes on one interval, or on a stack of intervals.

    ``tau`` holds the standard nodes in (-1, 1), ``t`` their affine images:
    shape ``(M+1,)`` on one interval ``(a, a + length)``, and ``(N, M+1)``
    on a stack of ``N`` intervals whose left endpoints ``a`` have shape
    ``(N,)``.  ``length`` is the interval length, one value shared by every
    interval of a stack.  The ``t`` values are the zeros of the shifted
    Chebyshev polynomial of degree ``M + 1``.
    """

    M: int
    tau: np.ndarray
    t: np.ndarray
    a: float | np.ndarray
    length: float

    def shifted(self, starts) -> "CgPointSet":
        """The same nodes moved onto the intervals ``[s, s + length]``.

        ``starts`` is a float or an array of shape ``(N,)``.  Every interval
        keeps exactly this set's ``length``: for a uniform grid ``(s + dT) - s``
        differs from ``dT`` in the last bit, and a stack must share one length.
        """
        starts = np.asarray(starts, dtype=float)
        t = starts[..., None] + (self.t - self.a)
        return CgPointSet(self.M, self.tau, _freeze(t), starts, self.length)


@dataclass(frozen=True, eq=False)
class CollocationOperator:
    """Interval-independent coefficient matrices for ``M + 1`` CG nodes.

    ``T1`` is ``(M+1, M+2)``, ``T2`` is ``(M+1, M+1)``, ``V`` and ``R`` are
    diagonal, ``S`` is ``(M+2, M+1)`` and ``C_alpha = (1/4) R S V T2`` maps
    right-hand-side node values to solution coefficients (up to the external
    interval-length factor).  ``T1_C`` caches ``T1 @ C_alpha``, the node-to-node
    map of the shifted system ``I + z T1_C`` that the direct linear solve and
    the stability function solve.

    All arrays are read-only; instances may be shared across threads.
    """

    M: int
    T1: np.ndarray
    T2: np.ndarray
    V: np.ndarray
    R: np.ndarray
    S: np.ndarray
    C_alpha: np.ndarray
    T1_C: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def cg_points(M: int, a: float, b: float) -> CgPointSet:
    """Chebyshev-Gauss nodes of the degree ``M + 1`` polynomial on ``(a, b)``.

    Raises ValueError for ``M < 0`` or ``b <= a``.
    """
    if M < 0:
        raise ValueError(f"number of collocation points must be >= 1 (got M={M})")
    if not b > a:
        raise ValueError(f"interval endpoints must satisfy b > a (got a={a}, b={b})")
    m = np.arange(M + 1)
    tau = -np.cos((2 * m + 1) * np.pi / (2 * M + 2))
    t = 0.5 * (b - a) * tau + 0.5 * (a + b)
    a, b = float(a), float(b)
    return CgPointSet(M=M, tau=_freeze(tau), t=_freeze(t), a=a, length=b - a)


def chebyshev_eval(l: int, tau: float) -> float:
    """Chebyshev polynomial of the first kind, degree ``l``, at ``tau``.

    Uses the three-term recurrence rather than cos/arccos; the trigonometric
    form loses accuracy near the endpoints.  ``tau`` must lie in [-1, 1] up to
    a 1e-12 slack.
    """
    if l < 0:
        raise ValueError(f"polynomial degree must be nonnegative (got {l})")
    tau = float(tau)
    if abs(tau) > 1.0 + _TAU_TOL:
        raise ValueError(f"argument {tau!r} outside [-1, 1]")
    tau = min(1.0, max(-1.0, tau))
    if l == 0:
        return 1.0
    t_prev, t_cur = 1.0, tau
    for _ in range(l - 1):
        t_prev, t_cur = t_cur, 2.0 * tau * t_cur - t_prev
    return t_cur


@functools.lru_cache(maxsize=None)
def build_operator(M: int) -> CollocationOperator:
    """Assemble the coefficient matrices for ``M + 1`` CG nodes.

    Dense assembly; at the intended scale (M up to a few dozen) the O(M^2)
    storage is negligible and the matrices match their closed-form displays
    entry by entry.  Results are cached per ``M``.
    """
    if M < 0:
        raise ValueError(f"number of collocation points must be >= 1 (got M={M})")
    tau = cg_points(M, -1.0, 1.0).tau

    # Basis at the nodes, degrees 0 .. M+1.  chebvander runs the three-term
    # recurrence but returns a Fortran-ordered table; the products below
    # take other BLAS paths on that layout and move the last bits.
    T1 = np.ascontiguousarray(chebvander(tau, M + 1))

    # Forward transform: coefficients = V @ T2 @ values.
    T2 = T1[:, : M + 1].T.copy()
    V = np.diag(np.concatenate(([1.0], np.full(M, 2.0))) / (M + 1))

    # Integration recurrence.  Row 0 of S reconstructs the left-endpoint
    # anchor coefficient; rows 1 .. M+1 couple neighbouring modes, with the
    # doubled weight on mode 0.
    R = np.diag([1.0] + [1.0 / j for j in range(1, M + 2)])
    S = np.zeros((M + 2, M + 1))
    S[0, 0] = 2.0
    if M >= 1:
        S[0, 1] = -0.5
    for m in range(2, M + 1):
        S[0, m] = (-1.0) ** m * (1.0 / (m + 1) - 1.0 / (m - 1))
    for m in range(1, M + 2):
        S[m, m - 1] = 2.0 if m == 1 else 1.0
        if m + 1 <= M:
            S[m, m + 1] = -1.0

    C_alpha = 0.25 * (R @ S @ V @ T2)
    T1_C = T1 @ C_alpha
    return CollocationOperator(
        M=M,
        T1=_freeze(T1),
        T2=_freeze(T2),
        V=_freeze(V),
        R=_freeze(R),
        S=_freeze(S),
        C_alpha=_freeze(C_alpha),
        T1_C=_freeze(T1_C),
    )
