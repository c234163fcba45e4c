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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebyshev import build_operator, cg_points
from .collocation import RhsFunction, check_integer, check_limits, solve_checked, solve_linear, solve_nonlinear
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
class PropagatorSpec:
    """A named integrator: its kind, its count and its inner-iteration limits.

    ``count`` is the number in ``kind:number``: collocation points for
    ``cg`` (default 0), substeps otherwise (default 1).  ``tol`` and
    ``max_iter`` stop the kind's inner iteration: Picard sweeps for ``cg``
    (default 100), Newton stage solves for the implicit kinds (default 25).
    """

    kind: PropagatorKind
    count: int | None = None
    tol: float = 1e-12
    max_iter: int | None = None

    def __post_init__(self):
        cg = self.kind is PropagatorKind.CHEBYSHEV_GAUSS
        if self.count is None:
            object.__setattr__(self, "count", 0 if cg else 1)
        if self.max_iter is None:
            object.__setattr__(self, "max_iter", 100 if cg else 25)
        check_integer("count", self.count)
        if self.count < (0 if cg else 1):
            raise ValueError(f"{self.kind.value} count must be >= {0 if cg else 1}")
        check_limits(self.tol, self.max_iter)

    @property
    def label(self) -> str:
        if self.kind is PropagatorKind.CHEBYSHEV_GAUSS:
            return f"cg_m{self.count}"
        return f"{self.kind.value}_j{self.count}"

    @classmethod
    def backward_euler(cls, count: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.BACKWARD_EULER, count, **kw)

    @classmethod
    def forward_euler(cls, count: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.FORWARD_EULER, count, **kw)

    @classmethod
    def trapezoidal(cls, count: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.TRAPEZOIDAL, count, **kw)

    @classmethod
    def tr_bdf2(cls, count: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.TR_BDF2, count, **kw)

    @classmethod
    def gauss4(cls, count: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.GAUSS4, count, **kw)

    @classmethod
    def erk4(cls, count: int = 1, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.ERK4, count, **kw)

    @classmethod
    def chebyshev_gauss(cls, count: int, **kw) -> "PropagatorSpec":
        return cls(PropagatorKind.CHEBYSHEV_GAUSS, count, **kw)


def parse_spec(text: str) -> PropagatorSpec:
    """Parse compact spec strings like ``cg:6`` or ``beuler:4``.

    The number is the spec's ``count``; left out, the kind's default.
    """
    name, _, arg = text.strip().partition(":")
    try:
        kind = PropagatorKind(name.strip())
    except ValueError:
        valid = ", ".join(k.value for k in PropagatorKind)
        raise ValueError(f"unknown propagator {name!r} (expected one of {valid})")
    try:
        count = int(arg) if arg else None
    except ValueError:
        raise ValueError(f"propagator spec {text!r}: {arg!r} is not an integer count") from None
    return PropagatorSpec(kind, count)


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
    spec: PropagatorSpec,
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Damped Newton iteration for ``residual(x) = 0`` on a stack of rows.

    ``x0`` has shape ``(N, n)``.  ``residual(x, rows)`` and
    ``jacobian(x, rows)`` evaluate the equations of rows ``rows`` of the
    stack (all of them when None) at ``x``.  A row's step is halved (up to
    8 tries in all) whenever the full update fails to reduce that row's
    residual; far-off starting values occur routinely under randomized
    outer iterations.  The test at the top of each iteration is the only
    place where a row leaves the stack: a row within the tolerance leaves
    with its value, a row whose residual is NaN or infinite leaves holding
    NaN.  So every row that settles follows exactly the iterates it would
    follow alone.  There are ``spec.max_iter`` updates and one test more, so
    a row that reaches the tolerance on its last update settles.

    Returns the solution stack and the failures, a dict row -> error: a
    singular stage matrix gives ``SingularSystemError`` (the row takes a
    NaN step and leaves at the next test), a residual that turns non-finite
    or misses the tolerance ``NonConvergenceError``.  Failed rows hold NaN.
    """
    failures: dict[int, Exception] = {}
    out = None  # the result stack, filled in as rows leave
    rows = None  # rows still iterating; None while that is all of them
    x, res = x0, residual(x0, None)
    check = True  # a residual may be non-finite: at the start and after backtracking
    for it in range(spec.max_iter + 1):
        norm = np.abs(res).max(axis=-1)
        done = norm <= spec.tol * (1.0 + np.abs(x).max(axis=-1))
        if check and not np.isfinite(norm).all():
            lost = ~np.isfinite(norm)
            ids = np.arange(len(x)) if rows is None else rows
            for i in ids[lost]:
                failures.setdefault(
                    int(i), NonConvergenceError("Newton stage solve produced non-finite values", math.inf)
                )
            x = np.where(lost[:, None], np.nan, x)
            done |= lost
        if done.any():
            if rows is None and done.all():
                return x, failures
            if out is None:
                out = np.full_like(x0, np.nan)
            ids = np.arange(len(x)) if rows is None else rows
            out[ids[done]] = x[done]
            rows = ids[~done]
            if not len(rows):
                return out, failures
            x, res, norm = x[~done], res[~done], norm[~done]
        if it == spec.max_iter:
            break

        J = jacobian(x, rows)
        try:
            step = np.linalg.solve(J, res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # Find the singular rows one by one.  Each takes a NaN step, so
            # it leaves at the next test; the others keep their steps.
            step = np.empty_like(x)
            for i in range(len(x)):
                try:
                    step[i] = np.linalg.solve(J[i], res[i])
                except np.linalg.LinAlgError as exc:
                    row = i if rows is None else rows[i]
                    failures[int(row)] = SingularSystemError(f"Newton stage matrix is singular: {exc}")
                    step[i] = np.nan

        x_new = x - step
        res_new = residual(x_new, rows)
        # A NaN or infinite residual fails the comparison: max propagates NaN.
        ok = np.abs(res_new).max(axis=-1) < norm
        check = not ok.all()
        if check:
            back = np.flatnonzero(~ok & np.isfinite(step).all(axis=-1))  # a NaN step cannot recover
            scale = 1.0
            for _ in range(7):
                if not len(back):
                    break
                scale *= 0.5
                x_new[back] = x[back] - scale * step[back]
                res_new[back] = residual(x_new[back], back if rows is None else rows[back])
                back = back[~(np.abs(res_new[back]).max(axis=-1) < norm[back])]
        x, res = x_new, res_new

    ids = np.arange(len(x)) if rows is None else rows
    for i, row in enumerate(ids):
        failures[int(row)] = NonConvergenceError(
            f"Newton stage solve did not converge in {spec.max_iter} iterations", float(norm[i])
        )
    return np.full_like(x0, np.nan) if out is None else out, failures


def _solve_stage(
    f: RhsFunction,
    jac: RhsFunction,
    spec: PropagatorSpec,
    t_stage,
    beta_h: float,
    rhs: np.ndarray,
    x0: np.ndarray,
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Newton solve of the stage equations x = rhs + beta_h * f(t, x), row by row."""
    eye = np.eye(x0.shape[-1])

    def residual(y, rows):
        return y - _rows(rhs, rows) - beta_h * f(_rows(t_stage, rows), y)

    def jacobian(y, rows):
        return eye - beta_h * jac(_rows(t_stage, rows), y)

    return _newton(residual, jacobian, x0, spec)


# Each one-step kind maps a stack of states ``u`` (N, dim) at times ``t`` (a
# float or an (N, 1) column) to the states one substep later, plus the rows
# whose stage solves failed (a dict row -> error).  A failed row comes out as
# NaN and stays in the stack; a NaN row leaves each later stage solve at its
# first test, and its first error is the one kept.


def _step_backward_euler(f, jac, spec, t, u, h):
    guess = u + h * f(t, u)
    return _solve_stage(f, jac, spec, t + h, h, u, guess)


def _step_trapezoidal(f, jac, spec, t, u, h):
    fn = f(t, u)
    rhs = u + 0.5 * h * fn
    guess = u + h * fn
    return _solve_stage(f, jac, spec, t + h, 0.5 * h, rhs, guess)


def _step_tr_bdf2(f, jac, spec, t, u, h):
    g = _TRBDF2_GAMMA
    fn = f(t, u)
    rhs1 = u + 0.5 * g * h * fn
    u_mid, lost = _solve_stage(f, jac, spec, t + g * h, 0.5 * g * h, rhs1, u + g * h * fn)
    rhs2 = (u_mid / g - (1.0 - g) ** 2 / g * u) / (2.0 - g)
    beta = (1.0 - g) / (2.0 - g) * h
    u_next, lost2 = _solve_stage(f, jac, spec, t + h, beta, rhs2, u_mid)
    return u_next, {**lost2, **lost}


def _step_gauss4(f, jac, spec, t, u, h):
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
    K, lost = _newton(residual, jacobian, K0, spec)
    return u + h * (_GAUSS4_B[0] * K[:, :n] + _GAUSS4_B[1] * K[:, n:]), lost


def _step_forward_euler(f, jac, spec, t, u, h):
    return u + h * f(t, u), {}


def _step_erk4(f, jac, spec, t, u, h):
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
    One-step kinds take ``spec.count`` equal substeps; the collocation
    kind performs a single spectral solve over each subinterval on
    ``spec.count + 1`` CG points, and that solve takes the operator for
    its point count from the cache.  The implicit kinds' stage solves use
    ``jac``, or forward differences of ``f`` when it is None.  When the
    problem is linear, callers may pass ``linear=(A, g)`` for
    ``u' + A u = g``; the collocation kind then uses the direct solve,
    which is defined even where the fixed-point sweep diverges.

    Every row stops its inner iterations on its own.  A failing row carries
    on through the remaining substeps as NaN while the others finish, and
    keeps the first error it met.  A single state then raises that typed
    error; a stack raises ``SweepError`` naming every failed row.  An error
    not tied to a row (a singular collocation system, an exception from
    ``f``) propagates as it is.
    """
    if not 0 < dT < math.inf:
        raise ValueError("dT must be positive and finite")
    u = np.atleast_1d(np.asarray(u_n, dtype=float))
    t = np.asarray(t_n, dtype=float)

    if spec.kind is PropagatorKind.CHEBYSHEV_GAUSS:
        points = cg_points(spec.count, 0.0, dT).shifted(t)
        if linear is not None:
            return solve_linear(*linear, points, u).u_end
        return solve_nonlinear(f, points, u, spec.tol, spec.max_iter).u_end

    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    step = _STEPPERS[spec.kind]
    h = dT / spec.count
    stacked = u.ndim == 2
    U = u if stacked else u[None]
    t = t[:, None] if t.ndim else float(t)  # per-row column, or one float
    failures: dict[int, Exception] = {}
    for j in range(spec.count):
        U, lost = step(f, jac, spec, t + j * h, U, h)
        failures = {**lost, **failures}
    raise_row_failures(failures, stacked)
    return U if stacked else U[0]


def _one_step_stability(kind: PropagatorKind, z: np.ndarray) -> np.ndarray:
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
        zz = z * z
        r = (zz - 6.0 * z + 12.0) / (zz + 6.0 * z + 12.0)
        # Where z * z overflows, the same fraction divided through by z * z.
        big = np.isinf(zz)
        w = 1.0 / np.where(big, z, 1.0)
        return np.where(big, (1.0 - 6.0 * w + 12.0 * w * w) / (1.0 + 6.0 * w + 12.0 * w * w), r)
    if kind is PropagatorKind.ERK4:
        r = 1.0 - z + z * z / 2.0 - _pow(z, 3) / 6.0 + _pow(z, 4) / 24.0
        # Positive for every z (an even Taylor polynomial of exp): inf - inf is +inf.
        return np.where(np.isnan(r), math.inf, r)
    raise ValueError(f"no one-step stability function for {kind}")


def _pow(x: np.ndarray, p: int) -> np.ndarray:
    """``x ** p`` elementwise with Python's float power (the C library's ``pow``).

    numpy's own power loop, vectorized on some CPUs, differs from ``pow`` in
    the last bit for a few percent of arguments; this keeps the values of
    the scalar formulas.  An entry that overflows, where a Python float
    power raises ``OverflowError``, comes out as an infinity with the sign
    of the exact power.
    """

    def power(v: float) -> float:
        try:
            return v**p
        except OverflowError:
            return math.copysign(math.inf, v) if p % 2 else math.inf

    return np.asarray(np.frompyfunc(power, 1, 1)(np.asarray(x, dtype=float)), dtype=float)


#: Matrix elements per stacked solve of the collocation ``R(z)``: caps the
#: memory a long z-grid takes (a block of 12 systems at M = 51).
_BLOCK_ELEMENTS = 2**15


def stability(spec: PropagatorSpec, z):
    """Amplification factor over one coarse interval for ``u' = -lambda u``.

    ``z`` is a scalar, giving a float, or an array of any shape, giving an
    array of its shape; a scalar is the one-element case of the same
    computation, and each entry's bits equal those of its scalar call.
    Every entry must be nonnegative and finite (``ValueError`` otherwise).

    One-step kinds compose their single-step factor, ``r(z/J)**J``, an
    infinity of the exact sign where a power overflows.  The collocation
    kind evaluates the matrix expression

        R(z) = T (I - z C_alpha (I + z T1_C)^{-1} T1) E
             = 1 - z * sum(C_alpha (I + z T1_C)^{-1} 1)

    by shifted-system solves (``collocation.solve_checked``, the solve the
    linear collocation propagator runs once per eigenvalue), one stacked
    call per block of ``z`` values; a block holds at most
    ``_BLOCK_ELEMENTS`` matrix elements.  Each ``z`` is its own system, with
    its own singularity test: a singular system (a pole of the rational
    function) raises ``SingularSystemError``.
    """
    z = np.asarray(z, dtype=float)
    if not ((0.0 <= z) & (z < math.inf)).all():
        raise ValueError("z must be nonnegative and finite")

    if spec.kind is PropagatorKind.CHEBYSHEV_GAUSS:
        op = build_operator(spec.count)
        n = spec.count + 1
        ones = np.ones(n)  # T1 @ E is the all-ones column
        zs = z.reshape(-1)
        sums = np.empty_like(zs)
        block = max(1, _BLOCK_ELEMENTS // (n * n))
        for i in range(0, zs.size, block):
            x = solve_checked(op, zs[i : i + block, None], ones)[:, 0]
            # Each z's own matrix-vector product and sum: summing in another
            # order moves the last bits.
            sums[i : i + block] = (op.C_alpha @ x[..., None])[..., 0].sum(axis=-1)
        R = (1.0 - zs * sums).reshape(z.shape)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an infinity
            r = _one_step_stability(spec.kind, z / spec.count)
            R = _pow(r, spec.count)
    return float(R) if R.ndim == 0 else R
