"""Uniform one-interval time integrators for the coarse and fine roles.

Classical one-step methods advance across a subinterval in ``J`` equal
substeps; the collocation propagator covers the subinterval with a single
spectral solve.  Every kind also exposes its linear stability function
``R(z)`` for the decay test equation ``u' = -lambda u`` with ``z = lambda *
dT >= 0``, which is what the contraction analysis consumes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chebyshev import build_operator, cg_points
from .collocation import PicardConfig, RhsFunction, solve_checked, solve_linear, solve_nonlinear
from .errors import NonConvergenceError

_SQRT2 = math.sqrt(2.0)
_TRBDF2_GAMMA = 2.0 - _SQRT2  # standard splitting; the choice is conventional
_GAUSS4_A = np.array(
    [
        [0.25, 0.25 - math.sqrt(3.0) / 6.0],
        [0.25 + math.sqrt(3.0) / 6.0, 0.25],
    ]
)
_GAUSS4_B = np.array([0.5, 0.5])
_GAUSS4_C = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])


class PropagatorKind(str, enum.Enum):
    BACKWARD_EULER = "beuler"
    FORWARD_EULER = "feuler"
    TRAPEZOIDAL = "tr"
    TR_BDF2 = "trbdf2"
    GAUSS4 = "gauss4"
    ERK4 = "erk4"
    CHEBYSHEV_GAUSS = "cg"


@dataclass(frozen=True)
class NewtonConfig:
    """Settings for the nonlinear stage solves of the implicit kinds.

    Stage Jacobians come from the problem's ``jacobian`` hook when one is
    supplied, and from forward differences (step sqrt(eps) * (1+|u|))
    otherwise.
    """

    tol: float = 1e-12
    max_iter: int = 25

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class PropagatorSpec:
    """A named integrator plus the parameters its kind honors.

    ``substeps`` applies to the one-step kinds, ``cg_points`` and ``picard``
    to the collocation kind, ``newton`` to the implicit kinds.
    """

    kind: PropagatorKind
    substeps: int = 1
    cg_points: int = 0
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    picard: PicardConfig = field(default_factory=PicardConfig)

    def __post_init__(self):
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.cg_points < 0:
            raise ValueError("cg_points must be >= 0")

    @property
    def label(self) -> str:
        if self.kind is PropagatorKind.CHEBYSHEV_GAUSS:
            return f"cg_m{self.cg_points}"
        return f"{self.kind.value}_j{self.substeps}"

    @classmethod
    def backward_euler(cls, substeps: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.BACKWARD_EULER, substeps=substeps, **kw)

    @classmethod
    def forward_euler(cls, substeps: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.FORWARD_EULER, substeps=substeps, **kw)

    @classmethod
    def trapezoidal(cls, substeps: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.TRAPEZOIDAL, substeps=substeps, **kw)

    @classmethod
    def tr_bdf2(cls, substeps: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.TR_BDF2, substeps=substeps, **kw)

    @classmethod
    def gauss4(cls, substeps: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.GAUSS4, substeps=substeps, **kw)

    @classmethod
    def erk4(cls, substeps: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.ERK4, substeps=substeps, **kw)

    @classmethod
    def chebyshev_gauss(cls, cg_points: int, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.CHEBYSHEV_GAUSS, cg_points=cg_points, **kw)


def parse_spec(text: str) -> PropagatorSpec:
    """Parse compact spec strings like ``cg:6`` or ``beuler:4``.

    The number is the CG point count for ``cg`` and the substep count for
    every other kind.
    """
    name, _, arg = text.strip().partition(":")
    try:
        kind = PropagatorKind(name.strip())
    except ValueError:
        valid = ", ".join(k.value for k in PropagatorKind)
        raise ValueError(f"unknown propagator {name!r} (expected one of {valid})")
    value = int(arg) if arg else (0 if kind is PropagatorKind.CHEBYSHEV_GAUSS else 1)
    if kind is PropagatorKind.CHEBYSHEV_GAUSS:
        return PropagatorSpec(kind, cg_points=value)
    return PropagatorSpec(kind, substeps=value)


def _fd_jacobian(f: RhsFunction, t: float, u: np.ndarray) -> np.ndarray:
    f0 = np.atleast_1d(np.asarray(f(t, u), dtype=float))
    n = u.size
    J = np.empty((f0.size, n))
    for j in range(n):
        h = math.sqrt(np.finfo(float).eps) * (1.0 + abs(u[j]))
        up = u.copy()
        up[j] += h
        J[:, j] = (np.atleast_1d(np.asarray(f(t, up), dtype=float)) - f0) / h
    return J


def _newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: NewtonConfig,
) -> np.ndarray:
    """Damped Newton iteration for ``residual(x) = 0`` started at ``x0``.

    Steps are backtracked (halved up to 8 times) whenever the full update
    fails to reduce the residual; far-off starting values occur routinely
    under randomized outer iterations.
    """
    x = x0
    res = residual(x)
    for _ in range(cfg.max_iter):
        res_norm = np.max(np.abs(res))
        if res_norm <= cfg.tol * (1.0 + np.max(np.abs(x))):
            return x
        step = np.linalg.solve(jacobian(x), res)
        scale = 1.0
        for _ in range(8):
            x_new = x - scale * step
            res_new = residual(x_new)
            if np.all(np.isfinite(res_new)) and np.max(np.abs(res_new)) < res_norm:
                break
            scale *= 0.5
        if not np.all(np.isfinite(res_new)):
            raise NonConvergenceError("Newton stage solve produced non-finite values", float("inf"))
        x, res = x_new, res_new
    raise NonConvergenceError(
        f"Newton stage solve did not converge in {cfg.max_iter} iterations",
        float(np.max(np.abs(res))),
    )


def _solve_stage(
    f: RhsFunction,
    jac: RhsFunction,
    cfg: NewtonConfig,
    t_stage: float,
    beta_h: float,
    rhs: np.ndarray,
    x0: np.ndarray,
) -> np.ndarray:
    """Newton solve of the scalar-stage equation x = rhs + beta_h * f(t, x)."""
    eye = np.eye(x0.size)

    def residual(y):
        return y - rhs - beta_h * np.atleast_1d(np.asarray(f(t_stage, y), dtype=float))

    def jacobian(y):
        return eye - beta_h * np.asarray(jac(t_stage, y), dtype=float)

    return _newton(residual, jacobian, x0, cfg)


def _step_backward_euler(f, jac, cfg, t, u, h):
    guess = u + h * np.atleast_1d(np.asarray(f(t, u), dtype=float))
    return _solve_stage(f, jac, cfg, t + h, h, u, guess)


def _step_trapezoidal(f, jac, cfg, t, u, h):
    fn = np.atleast_1d(np.asarray(f(t, u), dtype=float))
    rhs = u + 0.5 * h * fn
    guess = u + h * fn
    return _solve_stage(f, jac, cfg, t + h, 0.5 * h, rhs, guess)


def _step_tr_bdf2(f, jac, cfg, t, u, h):
    g = _TRBDF2_GAMMA
    fn = np.atleast_1d(np.asarray(f(t, u), dtype=float))
    rhs1 = u + 0.5 * g * h * fn
    u_mid = _solve_stage(f, jac, cfg, t + g * h, 0.5 * g * h, rhs1, u + g * h * fn)
    rhs2 = (u_mid / g - (1.0 - g) ** 2 / g * u) / (2.0 - g)
    beta = (1.0 - g) / (2.0 - g) * h
    return _solve_stage(f, jac, cfg, t + h, beta, rhs2, u_mid)


def _step_gauss4(f, jac, cfg, t, u, h):
    n = u.size
    ts = t + _GAUSS4_C * h

    def stages_of(K):
        return [u + h * (_GAUSS4_A[i, 0] * K[:n] + _GAUSS4_A[i, 1] * K[n:]) for i in range(2)]

    def residual(K):
        return K - np.concatenate(
            [np.atleast_1d(np.asarray(f(ts[i], s), dtype=float)) for i, s in enumerate(stages_of(K))]
        )

    def jacobian(K):
        J = np.eye(2 * n)
        for i, stage in enumerate(stages_of(K)):
            Jf = np.asarray(jac(ts[i], stage), dtype=float)
            for j in range(2):
                J[i * n : (i + 1) * n, j * n : (j + 1) * n] -= h * _GAUSS4_A[i, j] * Jf
        return J

    K0 = np.concatenate([np.atleast_1d(np.asarray(f(ts[i], u), dtype=float)) for i in range(2)])
    K = _newton(residual, jacobian, K0, cfg)
    return u + h * (_GAUSS4_B[0] * K[:n] + _GAUSS4_B[1] * K[n:])


def _step_forward_euler(f, jac, cfg, t, u, h):
    return u + h * np.atleast_1d(np.asarray(f(t, u), dtype=float))


def _step_erk4(f, jac, cfg, t, u, h):
    k1 = np.atleast_1d(np.asarray(f(t, u), dtype=float))
    k2 = np.atleast_1d(np.asarray(f(t + 0.5 * h, u + 0.5 * h * k1), dtype=float))
    k3 = np.atleast_1d(np.asarray(f(t + 0.5 * h, u + 0.5 * h * k2), dtype=float))
    k4 = np.atleast_1d(np.asarray(f(t + h, u + h * k3), dtype=float))
    return u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {
    PropagatorKind.BACKWARD_EULER: _step_backward_euler,
    PropagatorKind.FORWARD_EULER: _step_forward_euler,
    PropagatorKind.TRAPEZOIDAL: _step_trapezoidal,
    PropagatorKind.TR_BDF2: _step_tr_bdf2,
    PropagatorKind.GAUSS4: _step_gauss4,
    PropagatorKind.ERK4: _step_erk4,
}


def advance(
    spec: PropagatorSpec,
    f: RhsFunction,
    t_n: float,
    u_n,
    dT: float,
    jac: RhsFunction | None = None,
    linear: tuple[np.ndarray, Callable[[float], np.ndarray] | None] | None = None,
) -> np.ndarray:
    """Advance the state from ``t_n`` to ``t_n + dT``.

    One-step kinds take ``spec.substeps`` equal substeps; the collocation
    kind performs a single spectral solve over the subinterval.  ``jac`` is
    the Jacobian of ``f``, called as ``jac(t, u)``; the implicit kinds' stage
    solves use it, or forward differences of ``f`` when it is None.  When
    the problem is linear, callers may pass ``linear=(A, g)`` for ``u' + A u
    = g``; the collocation kind then uses the direct solve, which is defined
    even where the fixed-point sweep diverges.
    """
    if dT <= 0:
        raise ValueError("dT must be positive")
    u = np.atleast_1d(np.asarray(u_n, dtype=float))

    if spec.kind is PropagatorKind.CHEBYSHEV_GAUSS:
        op = build_operator(spec.cg_points)
        points = cg_points(spec.cg_points, t_n, t_n + dT)
        if linear is not None:
            A, g = linear
            return solve_linear(op, A, g, points, u).u_end
        return solve_nonlinear(op, f, points, u, spec.picard).u_end

    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    step = _STEPPERS[spec.kind]
    h = dT / spec.substeps
    for j in range(spec.substeps):
        u = step(f, jac, spec.newton, t_n + j * h, u, h)
    return u


def _one_step_stability(kind: PropagatorKind, z: float) -> float:
    if kind is PropagatorKind.BACKWARD_EULER:
        return 1.0 / (1.0 + z)
    if kind is PropagatorKind.FORWARD_EULER:
        return 1.0 - z
    if kind is PropagatorKind.TRAPEZOIDAL:
        return (1.0 - 0.5 * z) / (1.0 + 0.5 * z)
    if kind is PropagatorKind.TR_BDF2:
        g = _TRBDF2_GAMMA
        r_tr = (1.0 - 0.5 * g * z) / (1.0 + 0.5 * g * z)
        return (r_tr - (1.0 - g) ** 2) / (g * (2.0 - g) + g * (1.0 - g) * z)
    if kind is PropagatorKind.GAUSS4:
        return (z * z - 6.0 * z + 12.0) / (z * z + 6.0 * z + 12.0)
    if kind is PropagatorKind.ERK4:
        return 1.0 - z + z * z / 2.0 - z**3 / 6.0 + z**4 / 24.0
    raise ValueError(f"no one-step stability function for {kind}")


def stability(spec: PropagatorSpec, z: float) -> float:
    """Amplification factor over one coarse interval for ``u' = -lambda u``.

    One-step kinds compose their single-step factor, ``r(z/J)**J``.  The
    collocation kind evaluates the matrix expression

        R(z) = T (I - z C_alpha (I + z T1_C)^{-1} T1) E

    by one linear solve; a singular system (a pole of the rational function)
    raises ``SingularSystemError``.
    """
    z = float(z)
    if z < 0:
        raise ValueError("z must be nonnegative")

    if spec.kind is PropagatorKind.CHEBYSHEV_GAUSS:
        if z == 0.0:
            return 1.0
        op = build_operator(spec.cg_points)
        ones = np.ones(spec.cg_points + 1)  # T1 @ E is the all-ones column
        x = solve_checked(np.eye(spec.cg_points + 1) + z * op.T1_C, ones)
        return 1.0 - z * float((op.C_alpha @ x).sum())

    return _one_step_stability(spec.kind, z / spec.substeps) ** spec.substeps
