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
_ZOOM = 257  # samples per bracket in each round of the zoom search
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
    relative to ``K`` it grows only near the zeros of ``K``: ``K`` is within
    2.6e-14 relative of its exact value from ``z = 1e-20`` to the float
    maximum for ``beuler``, ``tr`` and ``gauss4`` at 1, 2 and 6 substeps.
    Past a kind's largest count (``beuler:1043``, ``tr:1043``,
    ``gauss4:427``, ``cg:979``) a coefficient would overflow a float, and
    ``ValueError`` names the spec and that count.
    """
    return rational(spec.kind, spec.count).contraction(check_z(z))


def rho_over_interval(spec: PropagatorSpec, z_max: float) -> ContractionReport:
    """Convergence factor ``max K(z)`` over ``[0, z_max]``.

    Samples ``K`` on a log-spaced grid from ``max(z_max * 1e-6, 1e-8)``
    (or ``z_max`` itself, if smaller) to ``z_max``, plus ``z = 0`` where
    ``K`` is 0, with one ``contraction`` call for the whole grid; each grid
    value equals its scalar ``contraction`` call bit for bit.  It then
    sharpens every local maximum, including the right endpoint, by a zoom
    search on all of their brackets at once: each round samples ``K`` at
    ``_ZOOM`` evenly spaced points of every bracket, in one ``contraction``
    call, and narrows each bracket to the two neighbours of its largest
    sample, until it is narrower than 1e-8 or, a few ulps wide above ``z``
    of about 3e7, stops shrinking.  A bracket narrower than 1e-8 is left to
    its grid point.  Each bracket's best sample is merged into the
    returned grid, so ``rho`` equals the maximum of ``K_values``.  Every
    kind's ``K`` is exact down to the smallest ``z``, so every positive
    finite ``z_max`` has a report.
    """
    if not 0 < z_max < math.inf:
        raise ValueError("z_max must be positive and finite")
    lo = min(max(z_max * 1e-6, 1e-8), z_max)
    grid = np.geomspace(lo, z_max, _RHO_GRID if lo < z_max else 1)
    zs = np.concatenate(([0.0], grid))
    Ks = contraction(spec, zs)

    peaks = np.flatnonzero((Ks[1:-1] >= Ks[:-2]) & (Ks[1:-1] >= Ks[2:])) + 1
    a, b = zs[peaks - 1], zs[peaks + 1]
    if Ks[-1] >= Ks[-2]:
        a, b = np.append(a, zs[-2]), np.append(b, zs[-1])
    wide = b - a >= _RHO_XTOL  # a narrower bracket's grid point is within the tolerance
    a, b = a[wide], b[wide]
    steps = np.linspace(0.0, 1.0, _ZOOM)
    best_z, best_K = [], []
    while a.size:
        rows = np.arange(a.size)
        z = np.minimum(a[:, None] + (b - a)[:, None] * steps, b[:, None])
        K = contraction(spec, z)
        j = np.argmax(K, axis=1)
        width = b - a
        a, b = z[rows, np.maximum(j - 1, 0)], z[rows, np.minimum(j + 1, _ZOOM - 1)]
        done = (b - a < _RHO_XTOL) | (b - a >= width)
        best_z.append(z[rows, j][done])
        best_K.append(K[rows, j][done])
        a, b = a[~done], b[~done]

    if best_z:
        best_z, best_K = np.concatenate(best_z), np.concatenate(best_K)
        new = ~np.isin(best_z, zs)  # a best sample on a grid point adds nothing
        zs, Ks = np.concatenate((zs, best_z[new])), np.concatenate((Ks, best_K[new]))
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
    interior point.  Both are found to within 1e-10 by bisection of ``z
    (K(z) - 1/3) = |(1 + z) R(z) - 1| - z/3``, which has the same roots, on
    bracketing intervals.  ``R`` is this module's ``stability``, whose cg:0
    and cg:1 values are the closed forms behind ``Z0_STAR`` and
    ``Z1_STAR``; the roots are an independent check of those constants
    only when ``stability`` is swapped for another evaluator, such as LU
    solves of the collocation systems.
    """
    def excess(z: float, M: int) -> float:
        return abs((1.0 + z) * stability(PropagatorSpec.chebyshev_gauss(M), z) - 1.0) - z / 3.0

    # With one interior point K re-crosses 1/3 from below somewhere past
    # z = 8 and increases from there; bracket to the right of the tangency.
    roots = []
    for M, a, b in ((0, 1e-6, 10.0), (1, 8.5, 1e3)):
        below = excess(a, M) < 0.0
        while b - a > _ROOT_XTOL:
            mid = 0.5 * (a + b)
            if (excess(mid, M) < 0.0) == below:
                a = mid
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return tuple(roots)
