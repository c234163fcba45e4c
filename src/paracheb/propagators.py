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
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .chebyshev import cg_points
from .collocation import RhsFunction, _rows, count_nonzero, settle_rows
from .collocation import LinearRhs, solve_linear, solve_nonlinear
from .errors import NonConvergenceError, SingularSystemError, check_integer, raise_row_failures

_GAUSS4_A = np.array(
    [
        [0.25, 0.25 - math.sqrt(3.0) / 6.0],
        [0.25 + math.sqrt(3.0) / 6.0, 0.25],
    ]
)
_GAUSS4_B = np.array([0.5, 0.5])
_GAUSS4_C = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])

#: The stop and the update limit of every Newton stage solve, chord
#: iteration and ``settles`` test: a row settles within ``_NEWTON_TOL * (1 +
#: |x|)``, and one still live after ``_NEWTON_MAX_ITER`` updates fails (or,
#: in the chord iteration, falls back).
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 25


class PropagatorKind(str, enum.Enum):
    BACKWARD_EULER = "beuler"
    TRAPEZOIDAL = "tr"
    GAUSS4 = "gauss4"
    CHEBYSHEV_GAUSS = "cg"


@dataclass(frozen=True)
class PropagatorSpec:
    """A named integrator: its kind and its count.

    ``count`` is the number in ``kind:number``: collocation points for
    ``cg`` (default 0), substeps otherwise (default 1).  The limits of the
    kind's inner iteration are constants of the solver that iterates:
    ``collocation._PICARD_TOL`` and ``_PICARD_MAX_ITER`` for the Picard
    sweeps of ``cg``, ``_NEWTON_TOL`` and ``_NEWTON_MAX_ITER`` here for the
    Newton stage solves of the one-step kinds.
    """

    kind: PropagatorKind
    count: int | None = None

    def __post_init__(self):
        cg = self.kind is PropagatorKind.CHEBYSHEV_GAUSS
        if self.count is None:
            object.__setattr__(self, "count", 0 if cg else 1)
        check_integer("count", self.count)
        if self.count < (0 if cg else 1):
            raise ValueError(f"{self.kind.value} count must be >= {0 if cg else 1}")

    @property
    def label(self) -> str:
        if self.kind is PropagatorKind.CHEBYSHEV_GAUSS:
            return f"cg_m{self.count}"
        return f"{self.kind.value}_j{self.count}"

    @classmethod
    def backward_euler(cls, count: int = 1) -> "PropagatorSpec":
        return cls(PropagatorKind.BACKWARD_EULER, count)

    @classmethod
    def trapezoidal(cls, count: int = 1) -> "PropagatorSpec":
        return cls(PropagatorKind.TRAPEZOIDAL, count)

    @classmethod
    def gauss4(cls, count: int = 1) -> "PropagatorSpec":
        return cls(PropagatorKind.GAUSS4, count)

    @classmethod
    def chebyshev_gauss(cls, count: int) -> "PropagatorSpec":
        return cls(PropagatorKind.CHEBYSHEV_GAUSS, count)


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


try:
    from numpy._core.umath import _extobj_contextvar, _make_extobj
    from numpy.linalg._umath_linalg import solve1
except ImportError:  # a numpy that moved them: the public solve, the same LAPACK call

    def _solve(J: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``J^-1 b`` for a stack of matrices and vectors; ``LinAlgError`` if one is singular."""
        return np.linalg.solve(J, b[..., None])[..., 0]

else:

    def _singular(err, flag):
        raise np.linalg.LinAlgError("Singular matrix")

    #: ``np.linalg.solve``'s floating-point error state, built once: LAPACK's
    #: invalid flag on a singular matrix raises ``LinAlgError`` through ``_singular``.
    _SOLVE_ERRORS = _make_extobj(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")

    def _solve(J: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``J^-1 b`` for a stack of matrices and vectors; ``LinAlgError`` if one is singular.

        The gufunc that ``np.linalg.solve`` calls for one right-hand side,
        under the same error state, set as ``np.errstate`` sets it but
        built once: the same bits without the argument checks, the type
        resolution and the error-state set-up.
        """
        token = _extobj_contextvar.set(_SOLVE_ERRORS)
        try:
            return solve1(J, b, signature="dd->d")
        finally:
            _extobj_contextvar.reset(token)


def _newton(
    residual: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
    x0: np.ndarray,
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Damped Newton iteration for ``residual(x) = 0`` on a stack of rows.

    ``x0`` has shape ``(N, n)``.  ``residual(x, rows)`` and
    ``jacobian(x, rows)`` evaluate the equations of rows ``rows`` of the
    stack (all of them when None) at ``x``.  A row's step is halved (up to
    8 tries in all) whenever the full update fails to reduce that row's
    residual; far-off starting values occur routinely under randomized
    outer iterations.  A row settles within ``_NEWTON_TOL * (1 + |x|)``, and
    ``settle_rows`` retires the rows over ``_NEWTON_MAX_ITER`` updates.  Every
    row makes at least one update before it may settle: a start, a guess or
    the explicit predictor, can meet the stop, which is far looser than an
    outer tolerance, and still be off by as much as the stop allows, so the
    test before the first update settles no row.  (The chord steps test
    their start first: it is a linearized predictor, off by O(change**2),
    see ``predictor``.)  A row that met the stop keeps its state when the
    update does not reduce its residual, without halving the step: the
    residual is then at its rounding floor.

    The solve is this function's test and update under ``settle_rows``,
    and each update makes one ``jacobian`` call, one LAPACK call
    (``_solve``) and one ``residual`` call.  Where numpy has them,
    ``_solve`` is the gufunc that ``np.linalg.solve`` calls, ``solve1``,
    under its error state built once, about half the cost of
    ``np.linalg.solve`` on the 16-by-16 matrix of a Burgers Newton update;
    otherwise it is ``np.linalg.solve`` itself.  Row maxima are
    ``np.maximum.reduce``, the reduction of ``ndarray.max`` without its
    Python wrapper, and masks are counted by ``count_nonzero`` (numpy's C
    function where numpy has it), cheaper than ``all()`` on a few rows.

    Returns the solution stack and the failures, a dict row -> error: a
    singular stage matrix gives ``SingularSystemError`` (the row takes a
    NaN step), a residual that turns non-finite or misses the tolerance
    ``NonConvergenceError``.  Failed rows hold NaN.
    """
    tol, max_iter = _NEWTON_TOL, _NEWTON_MAX_ITER
    check = True  # a residual may be non-finite: at the start and after backtracking
    updated = False  # no row may settle before its first update

    # A state is (x, residual, residual norm): each update computes the norms
    # of the residuals it makes, and the next test reads them.
    def test(state):
        x, _, norm = state
        settled = _meets_stop(norm, x, tol) if updated else None
        lost = {}
        if check:
            finite = np.isfinite(norm)
            if count_nonzero(finite) < len(finite):
                if updated:
                    settled &= finite  # an infinite residual at an infinite x
                for i in np.flatnonzero(~finite):
                    lost[int(i)] = NonConvergenceError("Newton stage solve produced non-finite values", math.inf)
        return norm, settled, lost

    def update(state, norm, rows):
        nonlocal check, updated
        updated = True
        x, res, _ = state
        failed = {}
        J = jacobian(x, rows)
        try:
            step = _solve(J, res)
        except np.linalg.LinAlgError:
            # Find the singular rows one by one.  Each takes a NaN step, so
            # it fails the next test; the others keep their steps.
            step = np.empty_like(x)
            for i in range(len(x)):
                try:
                    step[i] = np.linalg.solve(J[i], res[i])
                except np.linalg.LinAlgError as exc:
                    failed[i] = SingularSystemError(f"Newton stage matrix is singular: {exc}")
                    step[i] = np.nan

        x_new = x - step
        res_new = residual(x_new, rows)
        norm_new = np.maximum.reduce(np.abs(res_new), axis=-1)
        # A NaN or infinite residual fails the comparison: max propagates NaN.
        ok = norm_new < norm
        check = count_nonzero(ok) < len(ok)
        if check:
            # Only a first update can start within the stop.
            met = ~ok & _meets_stop(norm, x, tol)
            x_new[met], res_new[met], norm_new[met] = x[met], res[met], norm[met]
            back = np.flatnonzero(~ok & ~met & np.isfinite(step).all(axis=-1))  # a NaN step cannot recover
            for halvings in range(1, 8):
                if not len(back):
                    break
                x_new[back] = x[back] - 0.5**halvings * step[back]
                res_new[back] = residual(x_new[back], back if rows is None else rows[back])
                norm_new[back] = np.maximum.reduce(np.abs(res_new[back]), axis=-1)
                back = back[~(norm_new[back] < norm[back])]
        return (x_new, res_new, norm_new), failed

    stall = f"Newton stage solve did not converge in {max_iter} iterations"
    res0 = residual(x0, None)
    start = (x0, res0, np.maximum.reduce(np.abs(res0), axis=-1))
    (x, _, _), failures, _ = settle_rows(test, update, start, max_iter, stall)
    return x, failures


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The ``n`` by ``n`` identity, built once per size and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


# Each one-step kind maps a stack of states ``u`` (N, dim) at times ``t`` (a
# float or an (N, 1) column) to the states one substep later, plus the rows
# whose stage solves failed (a dict row -> error).  A failed row comes out as
# NaN and stays in the stack; a NaN row leaves each later stage solve at its
# first test, and its first error is the one kept.  ``beuler`` and ``tr`` are
# one stepper, ``_stage_step``; the warm coarse steps of backward Euler are
# ``predictor`` (or ``_newton_start``) and ``warm_step``.


def _newton_stage(f, jac, t_stage, beta_h, rhs, x0):
    """Newton solve of the stage equations ``x = rhs + beta_h * f(t_stage, x)``
    from ``x0``: ``_newton`` on their residual and Jacobian."""
    eye = _identity(x0.shape[-1])

    def residual(y, rows):
        if rows is None:
            return y - rhs - beta_h * f(t_stage, y)
        return y - rhs[rows] - beta_h * f(_rows(t_stage, rows), y)

    def jacobian(y, rows):
        return eye - beta_h * jac(t_stage if rows is None else _rows(t_stage, rows), y)

    return _newton(residual, jacobian, x0)


def _meets_stop(norm, x, tol):
    """Whether residual norms ``norm`` meet the Newton stop at ``x``, ``norm <= tol * (1 + |x|)``, row by row.

    ``|x|`` is each row's largest magnitude; a NaN norm does not meet it.
    Every Newton, chord and predictor test of the one-step kinds is this one.
    """
    return norm <= tol * (1.0 + np.maximum.reduce(np.abs(x), axis=-1))


def _stage_test(f, t_stage, beta_h, rhs, x):
    """The residual ``x - rhs - beta_h * f(t_stage, x)`` of the stage
    equations at ``x``, its row maxima, and whether each row meets the stop."""
    res = x - rhs - beta_h * f(t_stage, x)
    norm = np.maximum.reduce(np.abs(res), axis=-1)
    return res, norm, _meets_stop(norm, x, _NEWTON_TOL)


#: The least factor by which a chord update must cut a row's residual short
#: of the stop: at a slower rate the iteration takes more updates than the
#: Newton iteration it falls back to.
_CHORD_RATE = 0.1


def _chord_state(f, t_stage, beta_h, rhs, x, inverse):
    """Chord (simplified Newton) iteration for ``x = rhs + beta_h * f(t_stage, x)`` from one state ``x``.

    Each update steps by ``inverse @ residual``, one fixed inverse stage
    matrix instead of a Jacobian and a solve per update (Hairer & Wanner,
    *Solving ODEs II*, Sec. IV.8), on 1-D arrays with scalar norms.  The
    state settles within ``_NEWTON_TOL * (1 + |x|)``, and its start, a
    linearized predictor (see ``predictor``), is tested before any update,
    by the residual test that ``settles`` applies to a stack.  It falls
    back when its residual is not finite at the start, when an update does
    not reduce it (a residual that turns non-finite, as a non-finite
    inverse makes it, is never reduced), when an update short of the stop
    cuts it by less than the factor ``_CHORD_RATE``, or when it is still
    live after ``_NEWTON_MAX_ITER`` updates.

    Returns the state and whether it settled: a state that falls back is
    its last iterate that reduced the residual (or its start), where Newton
    takes over.
    """
    res, norm, settled = _stage_test(f, t_stage, beta_h, rhs, x)
    if settled:
        return x, True
    if not norm < math.inf:
        return x, False
    for _ in range(_NEWTON_MAX_ITER):
        x_new = x - np.matvec(inverse, res)
        res_new, norm_new, settled = _stage_test(f, t_stage, beta_h, rhs, x_new)
        # A NaN or infinite residual fails the comparison: max propagates NaN.
        if not norm_new < norm:
            return x, False
        if settled:
            return x_new, True
        # A slower chord iteration would cost more updates than Newton's.
        if not norm_new <= _CHORD_RATE * norm:
            return x_new, False
        x, res, norm = x_new, res_new, norm_new
    return x, False


#: ``beta`` of each kind whose one stage solves ``x = rhs + beta * h * f(t + h, x)`` for the end state.
_BETA = {PropagatorKind.BACKWARD_EULER: 1.0, PropagatorKind.TRAPEZOIDAL: 0.5}


def _stage_rhs(kind, f, t, u, beta_h):
    """The ``rhs`` of the stage equations from the states ``u`` at ``t``, and the slope ``f(t, u)`` it took.

    ``rhs`` is ``u`` for ``beuler``, with no slope (None), and ``u + beta_h
    * f(t, u)`` for ``tr``.
    """
    if kind is PropagatorKind.TRAPEZOIDAL:
        slope = f(t, u)
        return u + beta_h * slope, slope
    return u, None


def predictor(u, guess, guess_from, inverse):
    """The linearized predictor of a warm coarse step from ``u``: ``guess + S (u - guess_from)``.

    ``guess`` is the step's result from ``guess_from``, the cached step,
    and ``inverse`` the inverse stage matrix ``S = (I - dT * J)^-1`` near
    it (``stage_inverses``).  The stage equations ``x = u + dT * f(t + dT,
    x)`` of a backward Euler step have the start state as their right-hand
    side, and ``S`` is the derivative of the end state with respect to it,
    the term that parareal's coarse correction stands in for (Gander &
    Vandewalle, SIAM J. Sci. Comput. 29(2), 2007), so the predictor's
    residual is the cached step's plus O(|u - guess_from|**2).  It makes no
    ``f`` call.  It is not finite where ``S``, ``guess`` or ``guess_from``
    holds a NaN or an infinity; ``_newton_start`` is the start of such a
    step.

    ``u``, ``guess`` and ``guess_from`` are one state or a stack, and a
    row's predictor does not depend on the rows stacked with it.  Returns a
    new array.
    """
    return guess + np.matvec(inverse, u - guess_from)


def _newton_start(f: RhsFunction, t, u, dT: float, guess, guess_from):
    """The start of a warm coarse step of length ``dT`` from ``u`` at ``t`` without a finite predictor.

    The start is ``guess + (u - guess_from)``, the cached result plus the
    change in its start, and the explicit Euler predictor ``u + dT * f(t,
    u)`` in a row where that is not finite; no ``f`` call is made at
    ``guess_from``.  ``u``, ``guess`` and ``guess_from`` are one state or a
    stack; ``warm_step`` without an inverse takes Newton's iteration from
    the start.
    """
    x = guess + (u - guess_from)
    finite = np.isfinite(x)
    if count_nonzero(finite) < finite.size:
        x = np.where(finite.all(axis=-1)[..., None], x, _euler(f, t, u, dT, None))
    return x


def settles(f: RhsFunction, t, x, u, dT: float) -> np.ndarray:
    """Whether each ``predictor`` ``x`` of a warm coarse step from ``u`` at ``t`` is that step's result.

    ``x`` and ``u`` are a stack of rows ``(P, n)`` and ``t`` a float or a
    column ``(P, 1)`` of start times.  One ``f`` call tests every row: a
    row settles when it is finite and the residual of the stage equations
    ``x = u + dT * f(t + dT, x)`` there meets ``_NEWTON_TOL * (1 + |x|)``, the
    test a warm step applies to its predictor before any update, so a row
    that settles is the step's result, bit for bit.
    """
    return np.logical_and.reduce(np.isfinite(x), axis=-1) & _stage_test(f, t + dT, dT, u, x)[2]


def warm_step(f: RhsFunction, t, x, u, dT: float, inverse, jac: RhsFunction | None = None):
    """A warm coarse step of length ``dT`` from ``u`` at ``t``, from its start ``x``.

    The step solves the backward Euler stage equations ``x = u + dT * f(t +
    dT, x)``.  With ``inverse``, an inverse stage matrix, ``x`` is one
    state's finite ``predictor`` and ``t`` a float or a one-element array:
    the start is tested before any update and settles where it meets the
    stop; otherwise the chord iteration (``_chord_state``) runs from it,
    and Newton's iteration from where that falls back.  With ``inverse``
    None, ``x`` is what ``_newton_start`` gave, one state or a stack of
    rows with ``t`` a float or a column ``(N, 1)``, and the rows take one
    Newton solve from their starts, which makes at least one update.  None
    of it is checked.  Newton's iteration uses ``jac``, or forward
    differences of ``f`` when it is None.

    Returns the end states and the failures, a dict row -> the Newton
    iteration's typed error (row 0 for a single state), whose rows hold NaN.
    """
    t_stage = t + dT
    if inverse is not None:
        x, settled = _chord_state(f, t_stage, dT, u, x, inverse)
        if settled:
            return x, {}
    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    if x.ndim == 2:
        return _newton_stage(f, jac, t_stage, dT, u, x)
    x, failures = _newton_stage(f, jac, t_stage, dT, u[None], x[None])
    return x[0], failures


def _euler(f, t, u, h, slope):
    """The explicit Euler predictor ``u + h * f(t, u)``, with the slope ``f(t, u)`` when it was taken (not None)."""
    return u + h * (f(t, u) if slope is None else slope)


def _stage_step(kind, f, jac, t, u, h):
    """One ``kind`` substep, ``beuler`` or ``tr``, of length ``h`` from the stack ``u`` at ``t``: the end states, the failed rows.

    The stage equations ``x = rhs + beta_h * f(t + h, x)``, with ``beta_h``
    ``_BETA[kind] * h`` and ``rhs`` from ``_stage_rhs``, are solved by
    Newton's iteration from the explicit Euler predictor.
    """
    beta_h = _BETA[kind] * h
    rhs, slope = _stage_rhs(kind, f, t, u, beta_h)
    return _newton_stage(f, jac, t + h, beta_h, rhs, _euler(f, t, u, h, slope))


def _step_gauss4(f, jac, t, u, h):
    # K holds each row's two stage slopes end to end; f and jac see every
    # row's two stages as one (rows, 2, n) stack.
    N, n = u.shape
    ts = (t + _GAUSS4_C * h)[..., None]  # (2, 1), or (N, 2, 1) for per-row times

    def times(rows):
        return ts if rows is None or ts.ndim == 2 else ts[rows]

    def stages_of(K, rows):
        return _rows(u, rows)[:, None, :] + h * (_GAUSS4_A @ K.reshape(-1, 2, n))

    def residual(K, rows):
        return K - f(times(rows), stages_of(K, rows)).reshape(len(K), 2 * n)

    def jacobian(K, rows):
        # Block (i, j) of row r is h * A[i, j] * Jf[r, i], built in its
        # (rows, 2, n, 2, n) layout and subtracted from I in place.
        Jf = jac(times(rows), stages_of(K, rows))
        J = ((h * _GAUSS4_A)[:, None, :, None] * Jf[:, :, :, None, :]).reshape(-1, 2 * n, 2 * n)
        return np.subtract(_identity(2 * n), J, out=J)

    K0 = f(ts, np.stack((u, u), axis=1)).reshape(N, 2 * n)
    K, lost = _newton(residual, jacobian, K0)
    return u + h * (_GAUSS4_B[0] * K[:, :n] + _GAUSS4_B[1] * K[:, n:]), lost


_STEPPERS = {
    PropagatorKind.BACKWARD_EULER: functools.partial(_stage_step, PropagatorKind.BACKWARD_EULER),
    PropagatorKind.TRAPEZOIDAL: functools.partial(_stage_step, PropagatorKind.TRAPEZOIDAL),
    PropagatorKind.GAUSS4: _step_gauss4,
}


def advance(
    spec: PropagatorSpec,
    f: RhsFunction,
    t_n,
    u_n,
    dT: float,
    jac: RhsFunction | None = None,
    linear: LinearRhs | None = None,
) -> np.ndarray:
    """Advance a stack of states, row ``i`` from ``t_n[i]`` to ``t_n[i] + dT``.

    ``u_n`` has shape ``(N, dim)``, one row per subinterval, and ``t_n``
    shape ``(N,)``, or is a float that every row shares; a single state
    ``(dim,)`` with a float ``t_n`` is the ``N = 1`` case and gives back
    shape ``(dim,)``.  A state of more axes, or a ``t_n`` of another shape,
    raises ``ValueError`` before ``f`` is called, whatever the kind.  All
    rows advance together: ``f`` takes a stack of states and ``jac`` a
    stack of Jacobians, as stated on ``problems.IvpProblem``, so each
    stage, Newton iteration or collocation sweep is one call for the whole
    stack.
    One-step kinds take ``spec.count`` equal substeps; the collocation
    kind performs a single spectral solve over each subinterval on
    ``spec.count + 1`` CG points, and that solve takes the operator for
    its point count from the cache.  The one-step kinds' stage solves use
    ``jac``, or forward differences of ``f`` when it is None.  When the
    problem is linear, callers may pass its ``LinearRhs`` as ``linear``
    (``u' + A u = 0``, with ``A`` checked and decomposed when that was
    built); the collocation kind then uses the direct solve, which is
    defined even where the fixed-point sweep diverges.

    Every step is cold: ``beuler`` and ``tr`` start each substep's Newton
    stage solve at the explicit Euler predictor (``_stage_step``), and a
    Newton stage solve is ``_newton_stage`` (the stage residual and
    Jacobian), ``_newton`` and ``settle_rows``.  A warm coarse step, a
    backward Euler step from a cached one, is ``parareal._warm_steps``: its
    ``predictor`` and ``warm_step`` with an inverse stage matrix, or
    ``_newton_start`` and ``warm_step`` without one.

    Every row stops its inner iterations on its own (``settle_rows``).  A
    failing row carries on through the remaining substeps as NaN while the
    others finish, and keeps the first error it met.  A single state then
    raises that typed error; a stack raises ``SweepError`` naming every
    failed row.  An error not tied to a row (a state whose size is not
    ``linear``'s, an exception from ``f``) propagates as it is.
    """
    if not 0 < dT < math.inf:
        raise ValueError("dT must be positive and finite")
    u = np.asarray(u_n, dtype=float)
    if u.ndim > 2:
        raise ValueError(f"state must have shape (dim,) or (N, dim) (got shape {u.shape})")
    # The start times as a float, or as a per-row column (N, 1).
    if isinstance(t_n, float):  # a Python or numpy float
        t = float(t_n)
    else:
        t = np.asarray(t_n, dtype=float)
        if t.ndim and t.shape != u.shape[:-1]:
            expected = f"a scalar or shape {u.shape[:-1]}" if u.ndim == 2 else "a scalar"
            raise ValueError(f"t_n has shape {t.shape}, expected {expected}")
        t = t[:, None] if t.ndim else float(t)

    step = _STEPPERS.get(spec.kind)
    if step is None:  # the collocation kind
        points = cg_points(spec.count, 0.0, dT).shifted(t_n)
        if linear is not None:
            return solve_linear(linear, points, u).u_end
        return solve_nonlinear(f, points, u).u_end

    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    stacked = u.ndim == 2
    h = dT / spec.count
    U = u if stacked else u.reshape(1, -1)
    failures: dict[int, Exception] = {}
    for j in range(spec.count):
        U, lost = step(f, jac, t + j * h, U, h)
        if lost:
            failures = {**lost, **failures}
    raise_row_failures(failures, stacked)
    return U if stacked else U[0]


def stage_inverses(f: RhsFunction, t_n, x, dT: float, jac: RhsFunction | None = None):
    """The inverse stage matrices ``(I - dT * J(t_n + dT, x))^-1`` of a stack of end states ``x``.

    Row ``n`` is the ``inverse`` of ``predictor`` and ``warm_step`` for the
    warm coarse steps from ``t_n[n]``, with ``t_n`` the start times ``(N,)``
    and ``x`` ``(N, dim)``, in one ``jac`` call (forward differences of
    ``f`` when it is None) and one stacked inversion.  A singular or
    non-finite row comes out NaN: its predictors are not finite, and its
    steps take Newton's iteration.  The array is read-only.
    """
    x = np.asarray(x, dtype=float)
    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    S = _identity(x.shape[-1]) - dT * jac(np.asarray(t_n, dtype=float)[:, None] + dT, x)
    try:
        inverse = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        inverse = np.empty_like(S)
        for i, s in enumerate(S):
            try:
                inverse[i] = np.linalg.inv(s)
            except np.linalg.LinAlgError:
                inverse[i] = np.nan
    inverse.flags.writeable = False
    return inverse


#: Each kind's largest count whose ``K`` coefficients fit a float, and a
#: one-step kind's substep factor ``r(w) = num(w) / den(w)``, ``w = z / J``:
#: integer coefficients, lowest power first, the numerator as long as the denominator.
_KINDS = {
    PropagatorKind.BACKWARD_EULER: (1043, (1, 0), (1, 1)),
    PropagatorKind.TRAPEZOIDAL: (1043, (2, -1), (2, 1)),
    PropagatorKind.GAUSS4: (427, (12, -6, 1), (12, 6, 1)),
    PropagatorKind.CHEBYSHEV_GAUSS: (979, None, None),
}


class Rational(NamedTuple):
    """A propagator's ``R(z)`` and ``K(z)`` as rational functions with exact integer coefficients.

    Every kind is a small integer rational ``r = num / den`` taken ``J``
    times.  With ``w = z / J``, ``r`` is ``1 / (1 + w)`` for ``beuler``,
    ``(2 - w) / (2 + w)`` for ``tr`` and ``(12 - 6 w + w**2) / (12 + 6 w +
    w**2)`` for ``gauss4``, ``J`` the count of substeps; for ``M + 1`` CG
    points it is ``D(-z) / D(z)`` with ``J = 1``, by Nørsett's theorem
    (Hairer & Wanner, *Solving ODEs II*, Thm. IV.3.10), where with ``s = M +
    1``

        D(z) = sum_j 2**(s-j) T_s^(s-j)(1) z**j,
        T_s^(k)(1) = prod_{i<k} (s**2 - i**2) / (2 i + 1).

    ``R(z) = r(z / J)**J``, evaluated on ``r``: expanded, ``tr:6``'s
    numerator ``(12 - z)**6`` would lose digits near its 6-fold zero.  The
    contraction factor against a backward Euler coarse step is ``K(z) = |R
    (1 + z) - 1| / z = |Q(z)| / D(z)``, where ``N`` and ``D`` are ``J**(g J)
    num(z / J)**J`` and ``J**(g J) den(z / J)**J`` (``g`` the degree of
    ``den``), both integer polynomials, and ``Q(z) = ((1 + z) N(z) - D(z)) /
    z``.  Every kind is consistent, ``r(w) = 1 - w + O(w**2)``, so ``Q``'s
    constant term, ``N_0 + N_1 - D_1``, is exactly 0, and ``K`` has nothing
    to cancel at small ``z``.

    ``R`` holds ``(scale, num, den)`` and ``K`` ``(scale, Q, D)``: the
    coefficients of ``y = z / scale``, lowest power first, each the exact
    integer ratio ``coefficient * 2**(p j) / den_0`` rounded once, and
    ``scale = J * 2**p`` for ``r`` and ``2**p`` for ``K``, where ``2**p`` is
    near the geometric mean of the magnitudes of the denominator's roots.
    That keeps ``K``'s coefficients within float range up to the kind's
    largest count (``beuler:1043``, ``tr:1043``, ``gauss4:427`` and
    ``cg:979``); past it a one-step kind's ``K`` is None.
    """

    kind: PropagatorKind
    count: int
    J: int
    R: tuple[float, tuple[float, ...], tuple[float, ...]]
    K: tuple[float, tuple[float, ...], tuple[float, ...]] | None

    def stability(self, z: np.ndarray):
        """``R(z)`` for a checked ``z``: a float for a 0-d array, else an array.

        With ``J = 1`` there is no power to take.  Otherwise it is Python's
        float power (the C library's ``pow``), also elementwise on an array:
        numpy's own power loop, vectorized on some CPUs, differs from ``pow``
        in the last bit for a few percent of arguments, and each entry of a
        stack must equal its scalar call.
        """
        r, J = _ratio(*self.R, z), self.J
        return r if J == 1 else r**J if isinstance(r, float) else np.frompyfunc(lambda v: v**J, 1, 1)(r).astype(float)

    def contraction(self, z: np.ndarray):
        """``K(z)`` for a checked ``z``; ValueError past the kind's largest count."""
        if self.K is None:
            name = self.kind.value
            raise ValueError(f"K(z) is tabulated up to {name}:{_KINDS[self.kind][0]} (got {name}:{self.count})")
        return abs(_ratio(*self.K, z))


def _ratio(scale: float, num: tuple[float, ...], den: tuple[float, ...], z: np.ndarray):
    """``num(z) / den(z)`` for a checked ``z``: a float for a 0-d array, else an array.

    Horner in ``y = z / scale`` where ``y <= 1``, and above, both
    polynomials divided by ``y**g``, Horner in ``1 / y``, so no power
    overflows.  A scalar runs on Python floats, an array on numpy's
    elementwise operations: the same arithmetic, so each entry's bits
    equal those of its scalar call.
    """
    if z.ndim == 0:
        y = float(z) / scale
        return _horner_ratio(num, den, y) if y <= 1.0 else _horner_ratio(num[::-1], den[::-1], 1.0 / y)
    y = z / scale  # a new array: each entry is overwritten by its ratio
    low = y <= 1.0
    y[~low] = _horner_ratio(num[::-1], den[::-1], 1.0 / y[~low])
    y[low] = _horner_ratio(num, den, y[low])
    return y


def _horner_ratio(num, den, v):
    """``num(v) / den(v)`` by Horner's rule; coefficients lowest power first."""
    p, q = num[-1], den[-1]
    for a, b in zip(num[-2::-1], den[-2::-1]):
        p, q = p * v + a, q * v + b
    return p / q


def _scaled(num: Sequence[int], den: Sequence[int], J: int = 1):
    """``(scale, num, den)`` of ``num(z / J) / den(z / J)``: see ``Rational``."""
    p = round((den[0].bit_length() - den[-1].bit_length()) / (len(den) - 1))
    return J * 2.0**p, *(tuple(c * 2 ** (p * j) / den[0] for j, c in enumerate(a)) for a in (num, den))


def _poly_pow(p: list[int], n: int) -> list[int]:
    """``p(z)**n`` for integer coefficients ``p``, lowest power first, with ``p[0] != 0``.

    J. C. P. Miller's recurrence (Knuth, *TAOCP* Vol. 2, 4.7): each
    coefficient from the ones below it, ``O(n g**2)`` operations on exact
    integers for ``p`` of degree ``g``, each division exact.
    """
    if n == 1:
        return p  # the recurrence would cost O(g**2): the collocation kind's g is up to 980
    a = [p[0] ** n]
    for k in range(1, n * (len(p) - 1) + 1):
        a.append(sum(((n + 1) * i - k) * p[i] * a[k - i] for i in range(1, min(k, len(p) - 1) + 1)) // (k * p[0]))
    return a


@functools.lru_cache(maxsize=None)
def rational(kind: PropagatorKind, count: int) -> Rational:
    """The ``Rational`` of ``kind:count``, cached per kind and count.

    Past the kind's largest count a coefficient of ``K`` would overflow: a
    one-step kind's ``R`` reads only ``r`` and keeps working, and the
    collocation kind, whose ``r`` is its ``K``'s ``D(-z) / D(z)``, raises
    ValueError.
    """
    (largest, num, den), J = _KINDS[kind], count
    if num is None:  # the collocation kind
        if count > largest:
            raise ValueError(f"the collocation R(z) and K(z) are tabulated up to cg:{largest} (got cg:{count})")
        s = count + 1
        # T_s^(k)(1) for k = 0 .. s; each floor division is exact.
        T = itertools.accumulate(range(s), lambda t, i: t * (s * s - i * i) // (2 * i + 1), initial=1)
        den = [2**k * t for k, t in enumerate(T)][::-1]
        J, num = 1, [(-1) ** j * d for j, d in enumerate(den)]
    K = None
    if count <= largest:
        N, D = (_poly_pow([c * J ** (len(a) - 1 - i) for i, c in enumerate(a)], J) for a in (num, den))
        # Q_k = N_k + N_(k+1) - D_(k+1) is the coefficient of z**(k+1) in (1 + z) N - D.
        K = _scaled([n + a - b for n, a, b in zip(N, N[1:] + [0], D[1:] + [0])], D)
    return Rational(kind, count, J, _scaled(num, den, J), K)


def check_z(z) -> np.ndarray:
    """``z`` as a float array, each entry checked nonnegative and finite (``ValueError``)."""
    z = np.asarray(z, dtype=float)
    if not ((0.0 <= z) & (z < math.inf)).all():
        raise ValueError("z must be nonnegative and finite")
    return z


def stability(spec: PropagatorSpec, z):
    """Amplification factor over one coarse interval for ``u' = -lambda u``.

    ``z`` is a scalar, giving a float, or an array of any shape, giving an
    array of its shape; a scalar is the one-element case of the same
    computation, and each entry's bits equal those of its scalar call.
    Every entry must be nonnegative and finite (``ValueError`` otherwise).

    Every kind's factor is ``r(z/J)**J``, its small integer rational ``r``
    taken ``J`` times: ``J`` substeps for the one-step kinds, and for the
    collocation kind ``J = 1`` and Nørsett's closed form ``r(z) = D(-z) /
    D(z)`` (Hairer & Wanner, *Solving ODEs II*, Thm. IV.3.10; see
    ``Rational``), from a coefficient table built once per kind and count:
    ``O(1)`` work per ``z`` and a power for the one-step kinds, ``O(M)``
    for the collocation kind.  Every coefficient of ``r``'s
    denominator is positive, so ``R`` has no pole on ``z >= 0``, the domain
    of the paper's analysis: the decay equation with ``A`` symmetric
    positive semidefinite.  Every kind is A-stable: ``|R| <= 1`` on all of
    that domain.  Past ``cg:979`` a collocation coefficient would overflow
    a float (``ValueError``); a one-step kind's ``R`` works at every count.
    """
    return rational(spec.kind, spec.count).stability(check_z(z))
