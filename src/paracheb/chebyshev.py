"""Chebyshev polynomials, Chebyshev-Gauss points and collocation matrices.

The collocation scheme expands the solution on one subinterval ``[a, b]`` in
shifted Chebyshev polynomials of degree up to ``M + 1`` and determines the
coefficients from right-hand-side values at the ``M + 1`` Chebyshev-Gauss
(CG) nodes.  Everything the scheme needs is precomputable from ``M`` alone:

* ``T1``, the basis evaluated at the nodes (degrees ``0 .. M+1``),
* ``C_alpha = (1/4) R S V T2``, the composite map from right-hand-side node
  values to solution coefficients: ``V T2`` is the forward discrete
  Chebyshev transform taking node values to interpolation coefficients,
  and ``R S`` the term-by-term integration recurrence of a Chebyshev series
  together with the row that anchors the series at the left endpoint.

The interval length never enters the matrices; it is applied as an external
``(b - a)`` multiplier at the use site, so a single operator serves every
subinterval of a uniform time grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .errors import check_integer


@dataclass(frozen=True, eq=False)
class CgPointSet:
    """Chebyshev-Gauss nodes on one interval, or on a stack of intervals.

    ``t`` holds the nodes: shape ``(M+1,)`` on one interval ``(a, a +
    length)``, and ``(N, M+1)`` on a stack of ``N`` intervals whose left
    endpoints ``a`` have shape ``(N,)``.  ``length`` is the interval length, one value shared by every
    interval of a stack.  The ``t`` values are the zeros of the shifted
    Chebyshev polynomial of degree ``M + 1``.
    """

    M: int
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
        return CgPointSet(self.M, _freeze(t), starts, self.length)


@dataclass(frozen=True, eq=False)
class CollocationOperator:
    """Interval-independent coefficient matrices for ``M + 1`` CG nodes.

    ``T1`` is ``(M+1, M+2)`` and ``C_alpha``, ``(M+2, M+1)``, maps
    right-hand-side node values to solution coefficients (up to the external
    interval-length factor).  ``T1_C`` caches ``T1 @ C_alpha``, the node-to-node
    map of the shifted system ``I + z T1_C`` that the direct linear solve
    solves.  The stability function does not come from these matrices: it
    has a closed form in exact integers (``propagators.Rational``).

    All arrays are read-only; instances may be shared across threads.
    """

    M: int
    T1: np.ndarray
    C_alpha: np.ndarray
    T1_C: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def cg_points(M: int, a: float, b: float) -> CgPointSet:
    """Chebyshev-Gauss nodes of the degree ``M + 1`` polynomial on ``(a, b)``.

    Raises TypeError for an ``M`` that is not an integer, and ValueError for
    ``M < 0`` or ``b <= a``.
    """
    check_integer("M", M)
    if M < 0:
        raise ValueError(f"number of collocation points must be >= 1 (got M={M})")
    if not b > a:
        raise ValueError(f"interval endpoints must satisfy b > a (got a={a}, b={b})")
    m = np.arange(M + 1)
    tau = -np.cos((2 * m + 1) * np.pi / (2 * M + 2))
    t = 0.5 * (b - a) * tau + 0.5 * (a + b)
    a, b = float(a), float(b)
    return CgPointSet(M=M, t=_freeze(t), a=a, length=b - a)


@functools.lru_cache(maxsize=None, typed=True)
def build_operator(M: int) -> CollocationOperator:
    """Assemble the coefficient matrices for ``M + 1`` CG nodes.

    Dense assembly; at the intended scale (M up to a few dozen) the O(M^2)
    storage is negligible and the matrices match their closed-form displays
    entry by entry.  Results are cached per ``M`` and its type, so a float
    ``M`` reaches the check of ``cg_points`` even after its integer's call.
    """
    tau = cg_points(M, -1.0, 1.0).t

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
    return CollocationOperator(M=M, T1=_freeze(T1), C_alpha=_freeze(C_alpha), T1_C=_freeze(T1_C))
