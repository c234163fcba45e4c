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
from .errors import NonConvergenceError, SingularSystemError, raise_row_failures

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
    try:
        value = int(arg) if arg else (0 if kind is PropagatorKind.CHEBYSHEV_GAUSS else 1)
    except ValueError:
        raise ValueError(f"propagator spec {text!r}: {arg!r} is not an integer count") from None
    if kind is PropagatorKind.CHEBYSHEV_GAUSS:
        return PropagatorSpec(kind, cg_points=value)
    return PropagatorSpec(kind, substeps=value)


def _fd_jacobian(f: RhsFunction, t, u: np.ndarray) -> np.ndarray:
    """Forward differences at a stack of states ``(..., n)``.

    ``f`` is called once, on ``(..., n+1, n)``: each state followed by its
    ``n`` copies with one component moved by ``h``.
    """
    n = u.shape[-1]
    h = math.sqrt(np.finfo(float).eps) * (1.0 + np.abs(u))
    P = np.repeat(u[..., None, :], n + 1, axis=-2)
    k = np.arange(n)
    P[..., k + 1, k] += h
    F = f(t if np.ndim(t) == 0 else np.asarray(t)[..., None], P)
    return ((F[..., 1:, :] - F[..., :1, :]) / h[..., :, None]).swapaxes(-1, -2)


def _rows(a, rows):
    """Rows ``rows`` of a per-row array; a float, or ``rows`` None, takes all."""
    return a if rows is None or np.ndim(a) == 0 else a[rows]


def _newton(
    residual: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
    x0: np.ndarray,
    cfg: NewtonConfig,
    skip=(),
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Damped Newton iteration for ``residual(x) = 0`` on a stack of rows.

    ``x0`` has shape ``(N, n)``.  ``residual(x, rows)`` and
    ``jacobian(x, rows)`` evaluate the equations of rows ``rows`` of the
    stack (all of them when None) at ``x``.  Each row stops on its own test,
    and its step is halved (up to 8 tries in all) whenever the full update
    fails to reduce that row's residual; far-off starting values occur
    routinely under randomized outer iterations.  A row leaves the stack
    once it settles or fails, so every row follows exactly the iterates it
    would follow alone.  Rows in ``skip`` are left out from the start.

    Returns the solution stack and the failures, a dict row -> error: a
    singular stage matrix gives ``SingularSystemError``, a residual that
    stays non-finite or misses the tolerance ``NonConvergenceError``.
    Failed and skipped rows hold NaN.
    """
    failures: dict[int, Exception] = {}
    out = None  # the result stack, filled in as rows leave
    rows = None  # rows still iterating; None while that is all of them

    def leave(keep):
        nonlocal out, rows
        if out is None:
            out = np.full_like(x0, np.nan)
        rows = np.flatnonzero(keep) if rows is None else rows[keep]

    x = x0
    if len(skip):
        keep = np.ones(len(x0), dtype=bool)
        keep[list(skip)] = False
        leave(keep)
        x = x0[rows]
    res = residual(x, rows)
    for _ in range(cfg.max_iter):
        norm = np.abs(res).max(axis=-1)
        settled = norm <= cfg.tol * (1.0 + np.abs(x).max(axis=-1))
        if settled.any():
            if rows is None and settled.all():
                return x, failures
            ids = np.arange(len(x)) if rows is None else rows
            leave(~settled)
            out[ids[settled]] = x[settled]
            if not len(rows):
                return out, failures
            x, res, norm = x[~settled], res[~settled], norm[~settled]

        J = jacobian(x, rows)
        try:
            step = np.linalg.solve(J, res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # Find the singular rows one by one; the others keep their steps.
            ids = np.arange(len(x)) if rows is None else rows
            step = np.empty_like(x)
            keep = np.ones(len(x), dtype=bool)
            for i in range(len(x)):
                try:
                    step[i] = np.linalg.solve(J[i], res[i])
                except np.linalg.LinAlgError as exc:
                    failures[int(ids[i])] = SingularSystemError(f"Newton stage matrix is singular: {exc}")
                    keep[i] = False
            leave(keep)
            if not len(rows):
                return out, failures
            x, res, norm, step = x[keep], res[keep], norm[keep], step[keep]

        x_new = x - step
        res_new = residual(x_new, rows)
        # A NaN or infinite residual fails the comparison: max propagates NaN.
        ok = np.abs(res_new).max(axis=-1) < norm
        if not ok.all():
            back = np.flatnonzero(~ok)
            scale = 1.0
            for _ in range(7):
                scale *= 0.5
                x_new[back] = x[back] - scale * step[back]
                res_new[back] = residual(x_new[back], back if rows is None else rows[back])
                back = back[~(np.abs(res_new[back]).max(axis=-1) < norm[back])]
                if not len(back):
                    break
            finite = np.isfinite(res_new).all(axis=-1)
            if not finite.all():
                ids = np.arange(len(x)) if rows is None else rows
                for i in np.flatnonzero(~finite):
                    failures[int(ids[i])] = NonConvergenceError(
                        "Newton stage solve produced non-finite values", float("inf")
                    )
                leave(finite)
                if not len(rows):
                    return out, failures
                x_new, res_new = x_new[finite], res_new[finite]
        x, res = x_new, res_new

    ids = np.arange(len(x)) if rows is None else rows
    for i, row in enumerate(ids):
        failures[int(row)] = NonConvergenceError(
            f"Newton stage solve did not converge in {cfg.max_iter} iterations",
            float(np.max(np.abs(res[i]))),
        )
    return np.full_like(x0, np.nan) if out is None else out, failures


def _solve_stage(
    f: RhsFunction,
    jac: RhsFunction,
    cfg: NewtonConfig,
    t_stage,
    beta_h: float,
    rhs: np.ndarray,
    x0: np.ndarray,
    skip=(),
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Newton solve of the stage equations x = rhs + beta_h * f(t, x), row by row."""
    eye = np.eye(x0.shape[-1])

    def residual(y, rows):
        return y - _rows(rhs, rows) - beta_h * f(_rows(t_stage, rows), y)

    def jacobian(y, rows):
        return eye - beta_h * jac(_rows(t_stage, rows), y)

    return _newton(residual, jacobian, x0, cfg, skip)


# Each one-step kind maps a stack of states ``u`` (N, dim) at times ``t`` (a
# float or an (N, 1) column) to the states one substep later, plus the rows
# whose stage solves failed (a dict row -> error).


def _step_backward_euler(f, jac, cfg, t, u, h):
    guess = u + h * f(t, u)
    return _solve_stage(f, jac, cfg, t + h, h, u, guess)


def _step_trapezoidal(f, jac, cfg, t, u, h):
    fn = f(t, u)
    rhs = u + 0.5 * h * fn
    guess = u + h * fn
    return _solve_stage(f, jac, cfg, t + h, 0.5 * h, rhs, guess)


def _step_tr_bdf2(f, jac, cfg, t, u, h):
    g = _TRBDF2_GAMMA
    fn = f(t, u)
    rhs1 = u + 0.5 * g * h * fn
    u_mid, lost = _solve_stage(f, jac, cfg, t + g * h, 0.5 * g * h, rhs1, u + g * h * fn)
    rhs2 = (u_mid / g - (1.0 - g) ** 2 / g * u) / (2.0 - g)
    beta = (1.0 - g) / (2.0 - g) * h
    u_next, lost2 = _solve_stage(f, jac, cfg, t + h, beta, rhs2, u_mid, skip=list(lost))
    return u_next, {**lost2, **lost}


def _step_gauss4(f, jac, cfg, t, u, h):
    # K holds each row's two stage slopes end to end; f and jac see every
    # row's two stages as one (rows, 2, n) stack.
    N, n = u.shape
    ts = (t + _GAUSS4_C * h)[..., None]  # (2, 1), or (N, 2, 1) for per-row times

    def times(rows):
        return ts if np.ndim(t) == 0 else _rows(ts, rows)

    def stages_of(K, rows):
        return _rows(u, rows)[:, None, :] + h * (_GAUSS4_A @ K.reshape(-1, 2, n))

    def residual(K, rows):
        return K - f(times(rows), stages_of(K, rows)).reshape(len(K), 2 * n)

    def jacobian(K, rows):
        # Block (i, j) of row r is h * A[i, j] * Jf[r, i].
        Jf = jac(times(rows), stages_of(K, rows))
        blocks = (h * _GAUSS4_A)[:, :, None, None] * Jf[:, :, None]
        return np.eye(2 * n) - blocks.transpose(0, 1, 3, 2, 4).reshape(-1, 2 * n, 2 * n)

    K0 = f(ts, np.stack((u, u), axis=1)).reshape(N, 2 * n)
    K, lost = _newton(residual, jacobian, K0, cfg)
    return u + h * (_GAUSS4_B[0] * K[:, :n] + _GAUSS4_B[1] * K[:, n:]), lost


def _step_forward_euler(f, jac, cfg, t, u, h):
    return u + h * f(t, u), {}


def _step_erk4(f, jac, cfg, t, u, h):
    k1 = f(t, u)
    k2 = f(t + 0.5 * h, u + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, u + 0.5 * h * k2)
    k4 = f(t + h, u + h * k3)
    return u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), {}


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
    t_n,
    u_n,
    dT: float,
    jac: RhsFunction | None = None,
    linear: tuple[np.ndarray, Callable[[float], np.ndarray] | None] | None = None,
) -> np.ndarray:
    """Advance a stack of states, row ``i`` from ``t_n[i]`` to ``t_n[i] + dT``.

    ``u_n`` has shape ``(N, dim)`` and ``t_n`` shape ``(N,)``, one row per
    subinterval; a single state ``(dim,)`` with a float ``t_n`` is the
    ``N = 1`` case and gives back shape ``(dim,)``.  All rows advance
    together: ``f`` takes a stack of states and ``jac`` a stack of
    Jacobians, as stated on ``problems.IvpProblem``, so each stage, Newton
    iteration or collocation sweep is one call for the whole stack.
    One-step kinds take ``spec.substeps`` equal substeps; the collocation
    kind performs a single spectral solve over each subinterval.  The
    implicit kinds' stage solves use ``jac``, or forward differences of
    ``f`` when it is None.  When the problem is linear, callers may pass
    ``linear=(A, g)`` for ``u' + A u = g``; the collocation kind then uses
    the direct solve, which is defined even where the fixed-point sweep
    diverges.

    Every row stops its inner iterations on its own.  A single state raises
    its typed error.  On a stack a failing row is left out while the others
    finish, and the call then raises ``SweepError`` naming every failed
    row; an error not tied to a row (a singular collocation system, an
    exception from ``f``) propagates as it is.
    """
    if dT <= 0:
        raise ValueError("dT must be positive")
    u = np.atleast_1d(np.asarray(u_n, dtype=float))
    t = np.asarray(t_n, dtype=float)

    if spec.kind is PropagatorKind.CHEBYSHEV_GAUSS:
        op = build_operator(spec.cg_points)
        points = cg_points(spec.cg_points, 0.0, dT).shifted(t)
        if linear is not None:
            return solve_linear(op, *linear, points, u).u_end
        return solve_nonlinear(op, f, points, u, spec.picard).u_end

    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    step = _STEPPERS[spec.kind]
    h = dT / spec.substeps
    stacked = u.ndim == 2
    U = u if stacked else u[None]
    t = t[:, None] if t.ndim else float(t)  # per-row column, or one float
    failures: dict[int, Exception] = {}
    rows = None  # rows still advancing; None while that is all of them
    for j in range(spec.substeps):
        U, lost = step(f, jac, spec.newton, t + j * h, U, h)
        if lost:
            ids = np.arange(len(U)) if rows is None else rows
            failures.update({int(ids[i]): exc for i, exc in lost.items()})
            keep = np.ones(len(U), dtype=bool)
            keep[list(lost)] = False
            rows, U, t = ids[keep], U[keep], _rows(t, keep)
            if not len(rows):
                break
    raise_row_failures(failures, stacked)
    return U if stacked else U[0]


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

    by one shifted-system solve (``collocation.solve_checked``, the solve the
    linear collocation propagator runs once per eigenvalue); a singular
    system (a pole of the rational function) raises ``SingularSystemError``.
    """
    z = float(z)
    if z < 0:
        raise ValueError("z must be nonnegative")

    if spec.kind is PropagatorKind.CHEBYSHEV_GAUSS:
        if z == 0.0:
            return 1.0
        op = build_operator(spec.cg_points)
        ones = np.ones(spec.cg_points + 1)  # T1 @ E is the all-ones column
        x = solve_checked(op, z, ones)
        return 1.0 - z * float((op.C_alpha @ x).sum())

    return _one_step_stability(spec.kind, z / spec.substeps) ** spec.substeps
