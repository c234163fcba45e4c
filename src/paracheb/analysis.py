"""Contraction-factor analytics for the predictor-corrector iteration.

With backward Euler fixed as the coarse propagator, the per-iteration error
reduction at a single eigenvalue is governed by the contraction factor

    K(z) = |R_F(z) - 1/(1+z)| / (1 - 1/(1+z)),      z = lambda * dT,

and the convergence factor of a problem with spectrum in ``[0, lambda_max]``
is the maximum of ``K`` over ``z in [0, z_max]``.  The iteration is
considered fast when that maximum stays at or below 1/3; this module finds
the point counts and thresholds that achieve it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PointSearchError
from .propagators import PropagatorSpec, check_z, rational, stability

#: Largest z for which zero interior collocation points keep K <= 1/3.
Z0_STAR = 1.0
#: Largest z for which a single interior collocation point keeps K <= 1/3.
Z1_STAR = 8.0 + 6.0 * math.sqrt(2.0)

_SEARCH_CAP = 512
_RHO_GRID = 2048  # log-spaced samples of K(z) before the maxima are refined
_RHO_XTOL = 1e-8  # absolute tolerance of the refined maxima
_ROOT_XTOL = 1e-10  # bisection tolerance of the threshold roots


class Branch(enum.Enum):
    ZERO = "zero"
    ONE = "one"
    SEARCH = "search"


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Sampled contraction factors over ``[0, z_max]``; ``rho`` is their maximum."""

    z_grid: np.ndarray
    K_values: np.ndarray

    @property
    def rho(self) -> float:
        return float(np.max(self.K_values))


@dataclass(frozen=True)
class MminResult:
    """Minimal CG point count guaranteeing the 1/3 convergence factor.

    ``condition_value`` is ``|R(z_max, m_min)|`` and ``threshold`` the
    endpoint criterion ``(3 + z_max) / (3 (1 + z_max))`` it is tested
    against on the search branch.
    """

    z_max: float
    m_min: int
    branch: Branch
    condition_value: float

    @property
    def threshold(self) -> float:
        return (3.0 + self.z_max) / (3.0 * (1.0 + self.z_max))


def contraction(spec: PropagatorSpec, z):
    """Contraction factor ``K(z)`` of the iteration with fine propagator ``spec``.

    ``z`` is a scalar, giving a float, or an array of any shape, giving an
    array of its shape, each entry equal to its scalar call bit for bit;
    every entry must be nonnegative and finite (``ValueError`` otherwise).
    ``K(0) = 0``.  Every kind evaluates ``K = |Q(z)| / D(z)`` from exact
    integer coefficients, each rounded once (``propagators.Rational``):
    ``Q``'s constant term is exactly 0, so nothing cancels at small ``z``,
    and the error is within about an ulp of the terms' magnitudes, so
    relative to ``K`` it grows only near the zeros of ``K``.  Past a kind's
    largest count (``beuler:1043``, ``tr:1043``, ``gauss4:427``,
    ``cg:979``) a coefficient would overflow a float, and ``ValueError``
    names the spec and that count.
    """
    return rational(spec.kind, spec.count).contraction(check_z(z))


def rho_over_interval(spec: PropagatorSpec, z_max: float) -> ContractionReport:
    """Convergence factor ``max K(z)`` over ``[0, z_max]``.

    Samples ``K`` on a log-spaced grid from ``max(z_max * 1e-6, 1e-8)``
    (or ``z_max`` itself, if smaller) to ``z_max``, plus ``z = 0`` where
    ``K`` is 0, with one ``contraction`` call for the whole grid (Horner's
    rule on exact integer coefficients, ``O(count)`` per ``z``).  It then
    sharpens every local maximum, including the right endpoint, by Brent's
    bounded search (``scipy.optimize.minimize_scalar``, ``xatol`` 1e-8) on
    scalar ``contraction`` calls; a bracket narrower than that tolerance is
    left to its grid point.  Each grid value equals its scalar
    ``contraction`` call bit for bit.  The refined points are merged into
    the returned grid so ``rho`` equals the maximum of ``K_values``.  Every
    kind's ``K`` is exact down to the smallest ``z``, so every positive
    finite ``z_max`` has a report.
    """
    if not 0 < z_max < math.inf:
        raise ValueError("z_max must be positive and finite")
    lo = min(max(z_max * 1e-6, 1e-8), z_max)
    grid = np.geomspace(lo, z_max, _RHO_GRID if lo < z_max else 1)
    zs = np.concatenate(([0.0], grid))
    Ks = contraction(spec, zs)

    extra_z, extra_K = [], []
    brackets = [
        (zs[i - 1], zs[i + 1])
        for i in range(1, len(zs) - 1)
        if Ks[i] >= Ks[i - 1] and Ks[i] >= Ks[i + 1]
    ]
    if Ks[-1] >= Ks[-2]:
        brackets.append((zs[-2], zs[-1]))
    from scipy.optimize import minimize_scalar  # imported here: most commands never load scipy

    for a, b in brackets:
        if b - a < _RHO_XTOL:
            continue  # the grid point is already within the tolerance
        best = minimize_scalar(
            lambda z: -contraction(spec, z), bounds=(a, b), method="bounded",
            options={"xatol": _RHO_XTOL},
        )
        extra_z.append(best.x)
        extra_K.append(-best.fun)

    if extra_z:
        zs = np.concatenate((zs, extra_z))
        Ks = np.concatenate((Ks, extra_K))
        order = np.argsort(zs)
        zs, Ks = zs[order], Ks[order]
    return ContractionReport(z_grid=zs, K_values=Ks)


def _result(z_max: float, M: int, branch: Branch) -> MminResult:
    return MminResult(z_max, M, branch, abs(stability(PropagatorSpec.chebyshev_gauss(M), z_max)))


def m_min(z_max: float) -> MminResult:
    """Smallest CG point count whose convergence factor stays at or below 1/3.

    Below ``Z0_STAR`` no interior refinement is needed; below ``Z1_STAR`` a
    single point suffices.  Beyond that the count is found by incrementing M
    until the endpoint criterion holds, capped at M = 512.
    """
    if not 0 < z_max < math.inf:
        raise ValueError("z_max must be positive and finite")
    if z_max <= Z0_STAR:
        return _result(z_max, 0, Branch.ZERO)
    if z_max <= Z1_STAR:
        return _result(z_max, 1, Branch.ONE)
    for M in range(2, _SEARCH_CAP + 1):
        res = _result(z_max, M, Branch.SEARCH)
        if res.condition_value <= res.threshold:
            return res
    raise PointSearchError(z_max, _SEARCH_CAP, res.condition_value)


def find_threshold_roots() -> tuple[float, float]:
    """Numerically recover the two branch thresholds from the contraction factor.

    The first is the unique positive root of ``K(z) = 1/3`` with zero
    interior points; the second is the largest positive root with one
    interior point.  Both are found by bisection of ``z (K(z) - 1/3) =
    |(1 + z) R(z) - 1| - z/3``, which has the same roots, on bracketing
    intervals.  ``R`` is this module's ``stability``, whose cg:0 and cg:1
    values are the closed forms behind ``Z0_STAR`` and ``Z1_STAR``; the
    roots are an independent check of those constants only when
    ``stability`` is swapped for another evaluator, such as LU solves of
    the collocation systems.
    """
    from scipy.optimize import bisect

    def excess(z: float, M: int) -> float:
        return abs((1.0 + z) * stability(PropagatorSpec.chebyshev_gauss(M), z) - 1.0) - z / 3.0

    # With one interior point K re-crosses 1/3 from below somewhere past
    # z = 8 and increases from there; bracket to the right of the tangency.
    return tuple(float(bisect(excess, a, b, args=(M,), xtol=_ROOT_XTOL)) for M, a, b in ((0, 1e-6, 10.0), (1, 8.5, 1e3)))
