"""The one-step kinds against a reference copy of their stage-solve chain.

``advance`` reaches its Newton stage solves through one flat chain: the
stepper, ``_solve_stage`` (start, residual and Jacobian), ``_newton`` (test
and update) and ``collocation.settle_rows``.  The reference below is the
chain as it stood before it was flattened (``_start``, ``_solve_stage``,
``_newton`` and ``settle_rows`` as separate layers, ``np.linalg.solve``'s
error state built per call, ``ndarray.max`` reductions and a zeros mask
for the first test).  Each case asserts the same bits, the same typed
errors and messages, and the same ``f`` and ``jac`` calls.

A warm coarse step, a ``beuler:1`` step from a cached one, goes through
``predictor`` and ``warm_step`` (``warm_start.warm_advance``, the way
``parareal``'s correction takes it).  Without an inverse stage matrix it
is the reference's Newton step from the guess, bit for bit.  With one it
starts at the linearized predictor and takes chord updates instead of
Newton updates; the reference's Newton step from the same guess is the
yardstick the chord steps must land within the Newton stop of.  A stack
steps each row alone.  The reference for that is one chord loop that
retires each row as it leaves, the rows that settle at their predictors
first, then one stacked Newton solve of the rows without a finite
predictor and of the rows that fell back.  Random stacks must give its
bits and its errors.

``parareal``'s correction takes its rows at their predictors and verifies
them in stacked chunks; ``ref_correction`` is the loop it replaced, one
warm step per subinterval through ``ref_warm_advance``, a copy of the warm
branch of ``advance`` as it stood before that moved to ``predictor`` and
``warm_step``.  Random runs, batches and failures must give its tables,
errors and warnings.
"""

import copy
import dataclasses
import functools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from paracheb import BurgersProblem, IvpProblem, KeplerProblem, PararealConfig, SolverError, SweepError, advance
from paracheb import initialize, iterate, parse_spec, spd_catalog
from paracheb import parareal, propagators
from paracheb.errors import NonConvergenceError, SingularSystemError, raise_row_failures
from paracheb.propagators import _BETA, _GAUSS4_A, _GAUSS4_B, _GAUSS4_C, PropagatorKind, _fd_jacobian, stage_inverses
from paracheb.propagators import _chord_state, _newton_stage, _stage_rhs
from warm_start import record_row_steps, warm_advance


def ref_rows(a, rows):
    return a if rows is None or np.ndim(a) == 0 else a[rows]


def ref_settle_rows(test, update, state, max_iter, stall):
    failures = {}
    failed = {}
    out = rows = None
    for it in range(max_iter + 1):
        norm, settled, lost = test(state)
        failed = {**lost, **failed}
        if it == max_iter:
            for i in np.flatnonzero(~settled):
                failed.setdefault(int(i), NonConvergenceError(stall, float(norm[i])))
        settling = np.count_nonzero(settled)
        if rows is None and settling == len(norm):
            return state, failures, it
        if settling or failed:
            leave = settled.copy()
            leave[list(failed)] = True
            ids = np.arange(len(norm)) if rows is None else rows
            if out is None:
                out = tuple(np.full_like(a, np.nan) for a in state)
            for o, a in zip(out, state):
                o[ids[settled]] = a[settled]
            failures.update((int(ids[i]), exc) for i, exc in failed.items())
            rows = ids[~leave]
            if not len(rows):
                return out, failures, it
            state, norm = tuple(a[~leave] for a in state), norm[~leave]
        state, failed = update(state, norm, rows)


def ref_solve(J, b):
    return np.linalg.solve(J, b[..., None])[..., 0]


def ref_newton(residual, jacobian, x0):
    tol, max_iter = propagators._NEWTON_TOL, propagators._NEWTON_MAX_ITER
    check = True
    first = True

    def test(state):
        nonlocal first
        x, _, norm = state
        settled = np.zeros(len(norm), dtype=bool) if first else norm <= tol * (1.0 + np.abs(x).max(axis=-1))
        first = False
        lost = {}
        if check:
            finite = np.isfinite(norm)
            if np.count_nonzero(finite) < len(finite):
                settled &= finite
                for i in np.flatnonzero(~finite):
                    lost[int(i)] = NonConvergenceError("Newton stage solve produced non-finite values", math.inf)
        return norm, settled, lost

    def update(state, norm, rows):
        nonlocal check
        x, res, _ = state
        failed = {}
        J = jacobian(x, rows)
        try:
            step = ref_solve(J, res)
        except np.linalg.LinAlgError:
            step = np.empty_like(x)
            for i in range(len(x)):
                try:
                    step[i] = np.linalg.solve(J[i], res[i])
                except np.linalg.LinAlgError as exc:
                    failed[i] = SingularSystemError(f"Newton stage matrix is singular: {exc}")
                    step[i] = np.nan
        x_new = x - step
        res_new = residual(x_new, rows)
        norm_new = np.abs(res_new).max(axis=-1)
        ok = norm_new < norm
        check = np.count_nonzero(ok) < len(ok)
        if check:
            met = ~ok & (norm <= tol * (1.0 + np.abs(x).max(axis=-1)))
            x_new[met], res_new[met], norm_new[met] = x[met], res[met], norm[met]
            back = np.flatnonzero(~ok & ~met & np.isfinite(step).all(axis=-1))
            for halvings in range(1, 8):
                if not len(back):
                    break
                x_new[back] = x[back] - 0.5**halvings * step[back]
                res_new[back] = residual(x_new[back], back if rows is None else rows[back])
                norm_new[back] = np.abs(res_new[back]).max(axis=-1)
                back = back[~(norm_new[back] < norm[back])]
        return (x_new, res_new, norm_new), failed

    stall = f"Newton stage solve did not converge in {max_iter} iterations"
    res0 = residual(x0, None)
    (x, _, _), failures, _ = ref_settle_rows(test, update, (x0, res0, np.abs(res0).max(axis=-1)), max_iter, stall)
    return x, failures


def ref_solve_stage(f, jac, t_stage, beta_h, rhs, x0):
    eye = np.eye(x0.shape[-1])

    def residual(y, rows):
        return y - ref_rows(rhs, rows) - beta_h * f(ref_rows(t_stage, rows), y)

    def jacobian(y, rows):
        return eye - beta_h * jac(ref_rows(t_stage, rows), y)

    return ref_newton(residual, jacobian, x0)


def ref_start(guess, predict):
    if guess is None:
        return predict()
    finite = np.isfinite(guess)
    if np.count_nonzero(finite) == finite.size:
        return guess
    return np.where(finite.all(axis=-1)[:, None], guess, predict())


def ref_backward_euler(f, jac, t, u, h, guess=None):
    return ref_solve_stage(f, jac, t + h, h, u, ref_start(guess, lambda: u + h * f(t, u)))


def ref_trapezoidal(f, jac, t, u, h, guess=None):
    fn = f(t, u)
    rhs = u + 0.5 * h * fn
    return ref_solve_stage(f, jac, t + h, 0.5 * h, rhs, ref_start(guess, lambda: u + h * fn))


def ref_gauss4_matrix(h, Jf):
    """gauss4's Newton matrices from the stage Jacobians ``Jf`` ``(rows, 2,
    n, n)`` as first built: blocks ``(rows, 2, 2, n, n)`` by a broadcast
    product, a transposed copy into ``(rows, 2n, 2n)`` and a subtraction
    from ``I``."""
    n = Jf.shape[-1]
    blocks = (h * _GAUSS4_A)[:, :, None, None] * Jf[:, :, None]
    return np.eye(2 * n) - blocks.transpose(0, 1, 3, 2, 4).reshape(-1, 2 * n, 2 * n)


def ref_gauss4(f, jac, t, u, h):
    N, n = u.shape
    ts = (t + _GAUSS4_C * h)[..., None]

    def times(rows):
        return ts if np.ndim(t) == 0 else ref_rows(ts, rows)

    def stages_of(K, rows):
        return ref_rows(u, rows)[:, None, :] + h * (_GAUSS4_A @ K.reshape(-1, 2, n))

    def residual(K, rows):
        return K - f(times(rows), stages_of(K, rows)).reshape(len(K), 2 * n)

    def jacobian(K, rows):
        return ref_gauss4_matrix(h, jac(times(rows), stages_of(K, rows)))

    K0 = f(ts, np.stack((u, u), axis=1)).reshape(N, 2 * n)
    K, lost = ref_newton(residual, jacobian, K0)
    return u + h * (_GAUSS4_B[0] * K[:, :n] + _GAUSS4_B[1] * K[:, n:]), lost


REF_STEPPERS = {
    PropagatorKind.BACKWARD_EULER: ref_backward_euler,
    PropagatorKind.TRAPEZOIDAL: ref_trapezoidal,
    PropagatorKind.GAUSS4: ref_gauss4,
}


def ref_advance(spec, f, t_n, u_n, dT, jac=None, guess=None):
    """The one-step branch of ``advance`` on the reference chain."""
    u = np.atleast_1d(np.asarray(u_n, dtype=float))
    t = np.asarray(t_n, dtype=float)
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    step = REF_STEPPERS[spec.kind]
    h = dT / spec.count
    stacked = u.ndim == 2
    U = u if stacked else u[None]
    t = t[:, None] if t.ndim else float(t)
    start = {}
    warm = spec.kind in (PropagatorKind.BACKWARD_EULER, PropagatorKind.TRAPEZOIDAL)
    if guess is not None and spec.count == 1 and warm:
        start["guess"] = guess if stacked else guess[None]
    failures = {}
    for j in range(spec.count):
        U, lost = step(f, jac, t + j * h, U, h, **start)
        failures = {**lost, **failures}
    raise_row_failures(failures, stacked)
    return U if stacked else U[0]


def ref_chord(f, t_stage, beta_h, rhs, x, inverse):
    """The chord iteration of a stack with row retirement, from a start that
    is tested first: every row's state and the rows that fall back, each
    where Newton takes over."""
    tol = propagators._NEWTON_TOL
    res = x - rhs - beta_h * f(t_stage, x)
    norm = np.abs(res).max(axis=-1)
    out = x.copy()
    live = ~(norm <= tol * (1.0 + np.abs(x).max(axis=-1)))
    back = np.flatnonzero(live & ~(norm < math.inf)).tolist()
    ids = np.flatnonzero(live & (norm < math.inf))
    x, res, norm = x[ids], res[ids], norm[ids]
    for _ in range(propagators._NEWTON_MAX_ITER):
        if not len(ids):
            return out, back
        t, b = ref_rows(t_stage, ids), rhs[ids]
        x_new = x - np.matvec(inverse, res)
        res_new = x_new - b - beta_h * f(t, x_new)
        norm_new = np.abs(res_new).max(axis=-1)
        ok = norm_new < norm
        done = ok & (norm_new <= tol * (1.0 + np.abs(x_new).max(axis=-1)))
        slow = ok & ~done & ~(norm_new <= 0.1 * norm)
        out[ids[~ok]] = x[~ok]
        out[ids[done | slow]] = x_new[done | slow]
        back.extend(ids[~ok | slow].tolist())
        keep = ok & ~done & ~slow
        ids, x, res, norm = ids[keep], x_new[keep], res_new[keep], norm_new[keep]
    out[ids] = x
    back.extend(ids.tolist())
    return out, back


def ref_chord_advance(spec, f, t_n, U, dT, jac, guess, guess_from, inverse):
    """A stacked ``beuler:1`` or ``tr:1`` step from the cached step
    ``guess_from`` -> ``guess`` with one ``inverse``: ``ref_chord`` from the
    linearized predictor on the rows where it is finite, then one stacked
    Newton solve of the other rows, from the cached result plus the change
    in their start (or the explicit predictor), and of the rows that fell
    back."""
    t = np.asarray(t_n, dtype=float)[:, None]
    beta_h, slope = dT, None
    if spec.kind is PropagatorKind.TRAPEZOIDAL:
        beta_h, slope = 0.5 * dT, f(t, U)

    def rhs_of(u, slope):
        return u if slope is None else u + beta_h * slope

    rhs = rhs_of(U, slope)
    t_stage = t + dT
    rhs_from = rhs_of(guess_from, None if slope is None else f(t, guess_from))
    predictor = guess + np.matvec(inverse, rhs - rhs_from)
    chord = np.flatnonzero(np.isfinite(predictor).all(axis=-1))
    x = guess + (U - guess_from)
    cold = ~np.isfinite(x).all(axis=-1)
    if cold.any():
        x[cold] = (U + dT * (f(t, U) if slope is None else slope))[cold]
    x[chord], back = ref_chord(f, t_stage[chord], beta_h, rhs[chord], predictor[chord], inverse)
    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    rows = np.array(sorted(set(range(len(U))) - set(chord.tolist()) | set(chord[back].tolist())), dtype=int)
    failures = {}
    if len(rows):
        x[rows], lost = ref_solve_stage(f, jac, t_stage[rows], beta_h, rhs[rows], x[rows])
        failures = {int(rows[i]): exc for i, exc in lost.items()}
    raise_row_failures(failures, True)
    return x


def counted(fn, calls):
    """``fn``, recording the shape of the state stack of each call."""

    def wrapped(t, u):
        calls.append(np.shape(u))
        return fn(t, u)

    return wrapped


def outcome(run, f, jac):
    """What ``run(f, jac)`` returns or raises, with the ``f`` and ``jac`` calls it made."""
    f_calls, jac_calls = [], []
    try:
        result = run(counted(f, f_calls), None if jac is None else counted(jac, jac_calls))
    except SolverError as exc:
        result = exc
    return result, f_calls, jac_calls


def assert_same_outcome(spec, f, t, U, dT, jac=None, guess=None):
    """``advance``, or with a ``guess`` and ``beuler:1``, the coarse
    propagator, the warm step from the cached step ``U`` -> ``guess``, and
    the reference chain give the same bits or the same typed error, and
    make the same ``f`` and ``jac`` calls.  Every other spec steps cold,
    whatever the guess."""
    if guess is None or (spec.kind, spec.count) != (PropagatorKind.BACKWARD_EULER, 1):
        guess = None
        got = outcome(lambda f, jac: advance(spec, f, t, U, dT, jac=jac), f, jac)
    else:
        got = outcome(lambda f, jac: warm_advance(f, t, U, dT, guess, jac=jac), f, jac)
    ref = outcome(lambda f, jac: ref_advance(spec, f, t, U, dT, jac=jac, guess=guess), f, jac)
    (result, f_calls, jac_calls), (expected, ref_f_calls, ref_jac_calls) = got, ref
    assert (f_calls, jac_calls) == (ref_f_calls, ref_jac_calls)
    assert_same_result(result, expected)
    return expected


def assert_same_result(result, expected):
    """The same bits, or the same typed error: for a ``SweepError``, the same
    failed rows and the same cause."""
    if isinstance(expected, Exception):
        assert type(result) is type(expected) and str(result) == str(expected)
        if isinstance(expected, SweepError):
            assert result.indices == expected.indices
            assert type(result.cause) is type(expected.cause) and str(result.cause) == str(expected.cause)
        return
    assert isinstance(result, np.ndarray), result
    assert result.shape == expected.shape and result.tobytes() == expected.tobytes()


SPECS = ["beuler:1", "beuler:3", "tr:1", "gauss4:2"]

PROBLEMS = {
    "burgers": (lambda: BurgersProblem(0.05, 16).to_ivp(), 4.0 / 128),
    "kepler": (lambda: KeplerProblem().to_ivp(), 50.0 / 200),
    "laplacian-1d": (lambda: spd_catalog("laplacian-1d", m=24).to_ivp(), 0.1 / 16),
}


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("text", SPECS)
def test_catalog_steps_match_reference(text, name):
    # Single states and stacks, with the jac hook and with forward
    # differences, cold and from a guess of the end state: the cold result,
    # which meets the stop, that result moved by 1e-7, and the same with a
    # NaN in its last row (that row starts at the predictor).
    make, dT = PROBLEMS[name]
    ivp, spec = make(), parse_spec(text)
    rng = np.random.default_rng(5)
    times = rng.uniform(0.0, 1.0, 4)
    U = ivp.u0 * rng.uniform(0.9, 1.1, (4, ivp.dim))
    for jac in (ivp.jacobian, None):
        for t, u in ((times[0], U[0]), (times, U)):
            cold = assert_same_outcome(spec, ivp.f, t, u, dT, jac=jac)
            assert_same_outcome(spec, ivp.f, t, u, dT, jac=jac, guess=cold)
            guess = cold * (1.0 + 1e-7)
            assert_same_outcome(spec, ivp.f, t, u, dT, jac=jac, guess=guess)
            guess.reshape(-1, ivp.dim)[-1, 0] = np.nan  # the last row's first component
            assert_same_outcome(spec, ivp.f, t, u, dT, jac=jac, guess=guess)


def cubic(t, u):
    return -(u**3)


#: The coarse propagator, the one kind that takes warm steps.
WARM = pytest.mark.parametrize("text", ["beuler:1"])


@pytest.mark.parametrize("hook", [True, False], ids=["jac", "differences"])
@WARM
def test_warm_step_without_an_inverse_is_the_reference_newton_step(text, hook):
    # _newton_start starts each row at guess + (u - guess_from), or at
    # the explicit Euler predictor where that is not finite, and
    # warm_step without an inverse takes Newton's iteration from
    # there.  For a single state and a stack, with the jac hook or forward
    # differences: the reference chain's bits and Jacobian calls from that
    # start as its guess, no f call at a guess_from other than u, and one
    # update (one Jacobian call) from a start that already meets the stop,
    # the cold result from u.
    spec, dT = parse_spec(text), 0.5
    U = np.array([[0.5, 1.0], [2.0, -1.0], [1.5, 0.25]])
    cold = advance(spec, cubic, 0.0, U, dT)
    before = U * (1.0 + 1e-3)
    cached = advance(spec, cubic, 0.0, before, dT)
    nan_from = before.copy()
    nan_from[1, 0] = np.nan
    seen = []

    def f(t, u):
        seen.extend(row.tobytes() for row in u.reshape(-1, 2))
        return cubic(t, u)

    def counting(calls):
        def jac(t, u):
            calls.append(u.shape)
            return cubic_jacobian(t, u)

        return jac

    for guess, guess_from in ((cold, U), (cached, before), (cached, nan_from)):
        start = guess + (U - guess_from)
        for rows in (slice(None), 0, 1):
            u, g, g_from = U[rows], guess[rows], guess_from[rows]
            seen.clear()
            calls, ref_calls = [], []
            jac, ref_jac = (counting(calls), counting(ref_calls)) if hook else (None, None)
            x = propagators._newton_start(f, 0.0, u, dT, g, g_from)
            got, failures = propagators.warm_step(f, 0.0, x, u, dT, None, jac)
            expected = ref_advance(spec, cubic, 0.0, u, dT, jac=ref_jac, guess=start[rows])
            assert failures == {} and got.tobytes() == expected.tobytes()
            assert [shape[-2:] for shape in calls] == [shape[-2:] for shape in ref_calls]
            if guess_from is not U:  # else the slope at u is one at guess_from
                assert not set(seen) & {row.tobytes() for row in g_from.reshape(-1, 2)}
            if guess is cold and hook:
                assert len(calls) == 1
            euler = U[1] + dT * cubic(0.0, U[1])
            if guess_from is nan_from and rows != 0:
                assert x.reshape(-1, 2)[-1 if rows == 1 else 1].tobytes() == euler.tobytes()


@pytest.mark.parametrize("height", [1, 3, 200])
def test_gauss4_newton_matrices_match_the_transposed_copy(height, monkeypatch):
    # gauss4's Newton matrix is built in its (rows, 2, n, 2, n) layout and
    # subtracted from I in place.  Each matrix a stacked step solves with,
    # for every row or for the rows still live, has the bits of the
    # transposed-copy reference built from that update's stage Jacobians.
    # States of the cubic problem spread from 0.1 to 2 settle after
    # different numbers of updates, so later matrices are of row subsets.
    rng = np.random.default_rng(height)
    U, dT = rng.uniform(0.1, 2.0, (height, 2)), 0.5
    times = rng.uniform(0.0, 1.0, height)
    pairs = []
    solve = propagators._solve

    def jac(t, u):
        Jf = cubic_jacobian(t, u)
        pairs.append([Jf])
        return Jf

    def solving(J, b):
        pairs[-1].append(J.copy())
        return solve(J, b)

    monkeypatch.setattr(propagators, "_solve", solving)
    spec = parse_spec("gauss4:2")
    advance(spec, cubic, times, U, dT, jac=jac)
    for Jf, J in pairs:
        expected = ref_gauss4_matrix(dT / spec.count, Jf)
        assert J.shape == expected.shape and J.tobytes() == expected.tobytes()
    heights = sorted({len(Jf) for Jf, _ in pairs})
    assert heights[-1] == height and (height == 1 or heights[0] < height)


@pytest.mark.parametrize("text", SPECS)
def test_backtracking_steps_match_reference(text):
    # At dT = 10 the far rows take damped steps; rows 1 and 2 need more
    # updates than rows 0 and 3, so the live rows are indexed.
    spec = parse_spec(text)
    U = np.array([[0.1], [2.0], [4.0], [0.5]])
    jac = lambda t, u: -3.0 * u[..., :, None] ** 2  # noqa: E731
    with np.errstate(over="ignore", invalid="ignore"):
        for j in (jac, None):
            assert_same_outcome(spec, cubic, np.zeros(4), U, 10.0, jac=j)
            assert_same_outcome(spec, cubic, 0.0, U[2], 10.0, jac=j)
            assert_same_outcome(spec, cubic, np.zeros(4), U, 10.0, jac=j, guess=U)


@pytest.mark.parametrize("text", SPECS)
def test_singular_stage_matrix_matches_reference(text):
    # u' = c(t) u with c = 1 before t = 5 and 1/2 after: row 0's first
    # stage matrix 1 - beta_h is exactly zero for beuler:1 at dT = 1, tr:1
    # at 2 and beuler:3 at 3.
    def f(t, u):
        return np.where(t < 5.0, 1.0, 0.5) * u

    def jac(t, u):
        return np.where(t < 5.0, 1.0, 0.5)[..., None] * np.ones(u.shape + (1,))

    U = np.array([[1.0], [2.0], [3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        for dT in (1.0, 2.0, 3.0):
            assert_same_outcome(parse_spec(text), f, np.array([0.0, 10.0, 20.0]), U, dT, jac=jac)
            assert_same_outcome(parse_spec(text), f, 0.0, U[0], dT, jac=jac)


@pytest.mark.parametrize("text", SPECS)
def test_nonfinite_and_stalled_rows_match_reference(text, monkeypatch):
    # f is infinite above 0.5: rows starting there fail at once, the others
    # decay towards 0.  With a cap of 2 Newton updates the far rows of
    # -(u**3) stall.
    def f(t, u):
        return np.where(u > 0.5, np.inf, -u)

    spec = parse_spec(text)
    U = np.array([[0.2], [0.9], [-0.7], [0.6], [0.1]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_outcome(spec, f, np.zeros(5), U, 0.5)
        assert_same_outcome(spec, f, 0.0, U[1], 0.5)
        monkeypatch.setattr(propagators, "_NEWTON_MAX_ITER", 2)
        assert_same_outcome(spec, cubic, np.zeros(3), np.array([[0.1], [20.0], [3.0]]), 0.2)


@pytest.mark.parametrize("name", PROBLEMS)
@WARM
def test_chord_steps_land_within_the_newton_stop(text, name):
    # With the inverse stage matrices at the cold results, as parareal
    # builds them after its initial sweep, a step from a guess takes chord
    # updates.  From the cold result moved by 1e-7 and by 1e-4, each row
    # lands within the Newton stop, tol * (1 + |x|), of the reference
    # chain's Newton step from the same guess, and so does a stack sharing
    # one row's matrix.  From the cached step of a start moved by the same,
    # each row's predictor lands there too.
    make, dT = PROBLEMS[name]
    ivp, spec = make(), parse_spec(text)
    rng = np.random.default_rng(5)
    times = rng.uniform(0.0, 1.0, 4)
    U = ivp.u0 * rng.uniform(0.9, 1.1, (4, ivp.dim))
    for jac in (ivp.jacobian, None):
        cold = advance(spec, ivp.f, times, U, dT, jac=jac)
        inverse = stage_inverses(ivp.f, times, cold, dT, jac=jac)
        reference = ref_advance(spec, ivp.f, times, U, dT, jac=jac)
        for move in (1e-7, 1e-4):
            guess = cold * (1.0 + move)
            newton = ref_advance(spec, ivp.f, times, U, dT, jac=jac, guess=guess)
            stop = propagators._NEWTON_TOL * (1.0 + np.abs(newton).max(axis=-1))
            for t, u, g, inv, expected, s in zip(times, U, guess, inverse, newton, stop):
                assert np.abs(warm_advance(ivp.f, t, u, dT, g, inverse=inv, jac=jac) - expected).max() <= s
            for inv in inverse:
                chord = warm_advance(ivp.f, times, U, dT, guess, inverse=inv, jac=jac)
                assert (np.abs(chord - newton).max(axis=-1) <= stop).all()
            before = U * (1.0 + move)
            cached = advance(spec, ivp.f, times, before, dT, jac=jac)
            for t, u, g, g_from, inv, expected, s in zip(times, U, cached, before, inverse, reference, stop):
                got = warm_advance(ivp.f, t, u, dT, g, g_from, inv, jac)
                assert np.abs(got - expected).max() <= s


def cubic_jacobian(t, u):
    return -3.0 * u[..., :, None] ** 2 * np.eye(u.shape[-1])


FUZZ = {
    "burgers-0.05": PROBLEMS["burgers"],
    "burgers-0.005": (lambda: BurgersProblem(0.005, 16).to_ivp(), 4.0 / 128),
    "kepler": PROBLEMS["kepler"],
    "cubic": (lambda: SimpleNamespace(f=cubic, jacobian=cubic_jacobian, u0=np.array([0.5, -1.5])), 0.5),
}


@pytest.mark.parametrize("name", FUZZ)
@WARM
def test_random_stacks_match_the_retiring_chord(text, name, monkeypatch):
    # Random stacks at random times, each row's cached step a cold step
    # from its start moved by 0 to 1e-3, its result moved by up to 1e-6 in
    # some rows and NaN in its result or its start in others; one inverse
    # stage matrix for the stack, at one row's cold result: as built, NaN,
    # negated or scaled; a cap of 1 to 3 updates; the jac hook or forward
    # differences.  Each stacked step, each row a single-state chord
    # iteration, gives ref_chord_advance's bits or its SweepError, and some
    # rows settle in the chord iteration while others fall back to Newton.
    make, dT = FUZZ[name]
    ivp = make()
    exits = []
    chord = propagators._chord_state

    def recorded(*args):
        x, settled = chord(*args)
        exits.append(settled)
        return x, settled

    monkeypatch.setattr(propagators, "_chord_state", recorded)
    rng = np.random.default_rng(list(FUZZ).index(name) * 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(60):
            n = int(rng.integers(2, 6))
            times = rng.uniform(0.0, 1.0, n)
            U = ivp.u0 * rng.uniform(0.8, 1.2, (n, len(ivp.u0)))
            spec = parse_spec(text)
            cold = advance(spec, ivp.f, times, U, dT, jac=ivp.jacobian)
            cap = int(rng.integers(1, 4))
            k = int(rng.integers(n))
            inverse = stage_inverses(ivp.f, times[k : k + 1], cold[k : k + 1], dT, jac=ivp.jacobian)[0].copy()
            change = rng.choice(["none"] * 4 + ["nan", "negated", "scaled"])
            if change == "nan":
                inverse[:] = np.nan
            elif change == "negated":
                inverse *= -1.0
            elif change == "scaled":
                inverse *= rng.choice([0.5, 0.97, 1.3])
            before = U * (1.0 + rng.choice([0.0, 1e-9, 1e-6, 1e-3]) * rng.standard_normal(U.shape))
            guess = advance(spec, ivp.f, times, before, dT, jac=ivp.jacobian)
            for i in range(n):
                row = rng.choice(["none"] * 6 + ["moved", "nan guess", "nan from"])
                if row == "moved":
                    guess[i] *= 1.0 + 1e-6 * rng.standard_normal(len(ivp.u0))
                elif row == "nan guess":
                    guess[i, rng.integers(len(ivp.u0))] = np.nan
                elif row == "nan from":
                    before[i, rng.integers(len(ivp.u0))] = np.nan
            jac = ivp.jacobian if rng.random() < 0.5 else None

            def step(f, j):
                return warm_advance(f, times, U, dT, guess, before, inverse, j)

            with monkeypatch.context() as m:
                m.setattr(propagators, "_NEWTON_MAX_ITER", cap)
                got = outcome(step, ivp.f, jac)
                ref = outcome(lambda f, j: ref_chord_advance(spec, f, times, U, dT, j, guess, before, inverse), ivp.f, jac)
            assert_same_result(got[0], ref[0])
    assert True in exits and False in exits


def ref_warm_step(f, t, x, rhs, dT, inverse, jac):
    """``warm_step`` of one state as it stood before it took steps without an inverse."""
    t_stage = t + dT
    x, settled = _chord_state(f, t_stage, dT, rhs, x, inverse)
    if settled:
        return x, {}
    x, failures = _newton_stage(f, jac, t_stage, dT, rhs[None], x[None])
    return x[0], failures


def ref_warm_stage_step(f, jac, t, u, h, guess, guess_from, inverse):
    """The warm branch of ``_stage_step`` for ``beuler:1`` as it stood before warm steps
    moved to ``predictor`` and ``warm_step``: a single state with an inverse
    from its finite linearized predictor, a stack with a finite inverse and
    some finite row alone row by row, every other row by Newton's iteration
    from ``guess + (u - guess_from)`` or the explicit Euler predictor."""
    kind = PropagatorKind.BACKWARD_EULER
    beta_h = _BETA[kind] * h
    rhs = None
    if inverse is not None:
        if u.ndim == 1:
            rhs, slope = _stage_rhs(kind, f, t, u, beta_h)
            x = guess + np.matvec(inverse, rhs - _stage_rhs(kind, f, t, guess_from, beta_h)[0])
            if np.count_nonzero(np.isfinite(x)) == x.size:
                return ref_warm_step(f, t, x, rhs, h, inverse, jac)
        else:
            finite = np.isfinite(guess) & np.isfinite(guess_from)
            if np.count_nonzero(np.isfinite(inverse)) == inverse.size and finite.all(axis=-1).any():
                y, failures = np.empty_like(u), {}
                for i in range(len(u)):
                    y[i], lost = ref_warm_stage_step(f, jac, ref_rows(t, i), u[i], h, guess[i], guess_from[i], inverse)
                    if lost:
                        failures[i] = lost[0]
                return y, failures
    if rhs is None:
        rhs, slope = _stage_rhs(kind, f, t, u, beta_h)
    x = guess + (u - guess_from)
    finite = np.isfinite(x)
    if np.count_nonzero(finite) < finite.size:
        x = np.where(finite.all(axis=-1)[..., None], x, u + h * (f(t, u) if slope is None else slope))
    if u.ndim == 1:
        x, failures = _newton_stage(f, jac, t + h, beta_h, rhs[None], x[None])
        return x[0], failures
    return _newton_stage(f, jac, t + h, beta_h, rhs, x)


def ref_warm_advance(f, t_n, u, dT, jac, guess, guess_from, inverse):
    """``advance`` of a ``beuler:1`` state or stack from the cached
    step ``guess_from`` -> ``guess`` as it stood before warm steps moved to
    ``predictor`` and ``warm_step``: a single state without an inverse as its
    one-row stack."""
    t = np.asarray(t_n, dtype=float)
    t = t[:, None] if t.ndim else float(t)
    if jac is None:
        jac = functools.partial(_fd_jacobian, f)
    stacked = u.ndim == 2
    if stacked or inverse is not None:
        x, failures = ref_warm_stage_step(f, jac, t, u, dT, guess, guess_from, inverse)
    else:
        x, failures = ref_warm_stage_step(f, jac, t, u[None], dT, guess[None], guess_from[None], inverse)
        x = x[0]
    raise_row_failures(failures, stacked)
    return x


def ref_correction(U, U_old, G, G_old, F, stage_inv, problem, dT, passes):
    """``parareal._correct`` as one loop over the subintervals: each row's
    live runs take one warm step (``ref_warm_advance``), one state alone and
    several as a stack, and a failed step names its subinterval, pass and run."""
    N = len(F)
    f, jac = problem.f, problem.jacobian
    U_bits, U_old_bits = U.view(np.uint64), U_old.view(np.uint64)
    one_run = U.shape[1] == 1
    live = ()
    try:
        for n, t in enumerate((np.arange(N) * dT).tolist()):
            inverse = None if stage_inv is None else stage_inv[n]
            if len(live) == 1:
                r = live[0]
                G[n, r] = ref_warm_advance(f, t, U[n, r], dT, jac, G_old[n, r], U_old[n, r], inverse)
            elif len(live):
                G[n, live] = ref_warm_advance(
                    f, np.full(len(live), t), U[n, live], dT, jac, G_old[n, live], U_old[n, live], inverse
                )
            U[n + 1] = F[n] + (G[n] - G_old[n])
            if U[n + 1].tobytes() == U_old[n + 1].tobytes():
                live = ()
            elif one_run:
                live = (0,)
            else:
                live = np.flatnonzero((U_bits[n + 1] != U_old_bits[n + 1]).any(axis=1))
    except SolverError as exc:
        error, r = parareal._coarse_failure(exc, live)
        error.name_coarse_step(n, passes[r], int(r))
        if error is exc:
            raise
        raise error from None


def cubic_problem():
    return IvpProblem(f=cubic, u0=np.array([0.5, -1.5]), T=2.0, jacobian=cubic_jacobian)


#: Problems of the correction fuzz: (problem, the init policies it takes).
CORRECTION_PROBLEMS = {
    "cubic": (cubic_problem, ("coarse", "random")),
    "burgers": (lambda: BurgersProblem(0.05, 8, T=0.5).to_ivp(), ("coarse", "random")),
    "kepler": (lambda: KeplerProblem(T=5.0).to_ivp(), ("coarse",)),
    "laplacian-1d": (lambda: spd_catalog("laplacian-1d", m=6, T=0.5).to_ivp(), ("coarse", "random")),
}

#: How a fuzz case changes ``f`` once the initial sweep is done: not at all;
#: a jump of 1e-3 where one component passes a threshold, which the
#: predictors that cross it miss; or, at the grid times only, where the
#: coarse stages are and no collocation or gauss4 node, an infinity there
#: or an exception.
CHANGES = ["none", "jump", "jump", "infinite", "raises"]


def outcome_of_passes(states, cfgs, problem, passes):
    """Up to ``passes`` calls of ``iterate``, each run leaving once it has
    converged, as ``run`` does: per pass the bits of every live run's table,
    cache and record, then the first error's type, message and step, and the
    warnings raised on the way."""
    out = []
    live = list(range(len(cfgs)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(passes):
            try:
                iterate([states[r] for r in live], [cfgs[r] for r in live], problem)
            except Exception as exc:
                out.append((type(exc), str(exc), getattr(exc, "subinterval", None), getattr(exc, "k", None),
                            getattr(exc, "run", None)))
                break
            out.append([(r, states[r].u.tobytes(), states[r].g_prev.tobytes(), repr(states[r].history[-1]))
                        for r in live])
            live = [r for r in live if not states[r].history[-1].iter_error <= cfgs[r].tol]
            if not live:
                break
    return out, sorted(str(w.message) for w in caught)


@WARM
def test_correction_matches_the_row_by_row_loop(text, monkeypatch):
    # Random cases: a problem, linear or not, from the coarse or a random
    # start; one to three runs whose fine propagators differ, so the batch
    # loses runs as they converge; a Newton cap of 25 or 2 updates, for the
    # initial sweep and every pass (with 2, a single cg:4 run, whose fine
    # sweep the cap does not stop); an f that changes
    # after the initial sweep (see CHANGES), where a predictor misses, a
    # step fails, or f raises, on a row that counts or on one past a miss;
    # and a NaN row of stage_inv, as a singular stage matrix leaves it.  Every pass gives the tables,
    # the caches, the records, the errors and the warnings of
    # ref_correction, and the cases see misses after a hit in the same
    # chunk, failed steps, exceptions from f and NaN rows, and rows
    # replayed from their predictors through warm_step with their
    # inverse, of one run and of a batch, some whose Newton fallback
    # fails and raises the pass's error.  A batch's row step is one
    # _warm_steps call on its stack, which steps each run alone.
    checks, replays = [], []
    settles, warm_step = parareal.settles, parareal.warm_step
    row_steps = record_row_steps(monkeypatch)

    def recorded(*args):
        ok = settles(*args)
        checks.append(ok.copy())
        return ok

    def replayed(f, t, x, u, dT, inverse, *args):
        y, failures = warm_step(f, t, x, u, dT, inverse, *args)
        replays.append((row_steps[-1] > 1, inverse is not None, bool(failures)))
        return y, failures

    monkeypatch.setattr(parareal, "settles", recorded)
    monkeypatch.setattr(parareal, "warm_step", replayed)
    rng = np.random.default_rng(7)
    seen = set()
    for case in range(48):
        name = list(CORRECTION_PROBLEMS)[case % len(CORRECTION_PROBLEMS)]
        make, inits = CORRECTION_PROBLEMS[name]
        base = make()
        active, change = [False], CHANGES[int(rng.integers(len(CHANGES)))]
        j = int(rng.integers(base.dim))
        threshold = [math.inf]
        N = int(rng.integers(4, 24))
        dT = base.T / N

        def f(t, u, base_f=base.f, change=change, j=j, dT=dT):
            value = base_f(t, u)
            if not active[0] or change == "none":
                return value
            over = u[..., j : j + 1] > threshold[0]
            if change in ("infinite", "raises"):
                r = np.asarray(t) / dT
                over = over & (np.abs(r - np.round(r)) < 1e-9)
            if change == "raises":
                if over.any():
                    raise ValueError("f raised above the threshold")
                return value
            return value + np.where(over, 1e-3 if change == "jump" else np.inf, 0.0)

        problem = dataclasses.replace(base, f=f)
        cap = int(rng.choice([25, 25, 2]))
        monkeypatch.setattr(propagators, "_NEWTON_MAX_ITER", cap)
        init = inits[int(rng.integers(len(inits)))]
        fines = ["cg:4", "gauss4:1"] if change in ("infinite", "raises") else ["cg:4", "beuler:2", "gauss4:1", "tr:2"]
        runs = rng.choice(fines, size=int(rng.integers(1, len(fines) + 1)), replace=False)
        if cap == 2:  # the cap stops the fine one-step kinds' stage solves too
            runs = ["cg:4"]
        cfgs = [PararealConfig(N=N, fine=parse_spec(str(fine)), init=init, seed=case) for fine in runs]
        with np.errstate(all="ignore"):
            try:
                states = initialize(cfgs, problem)
            except SolverError:
                continue
        if states[0].stage_inv is not None and rng.random() < 0.3:
            stage_inv = states[0].stage_inv.copy()
            stage_inv[int(rng.integers(len(stage_inv)))] = np.nan
            for state in states:
                state.stage_inv = stage_inv
            seen.add("nan row")
        threshold[0] = float(np.quantile(states[0].u[1:, j], rng.uniform(0.2, 0.8)))
        active[0] = True
        replays.clear()
        got = outcome_of_passes(copy.deepcopy(states), cfgs, problem, 6)
        with monkeypatch.context() as m:
            m.setattr(parareal, "_correct", ref_correction)
            expected = outcome_of_passes(copy.deepcopy(states), cfgs, problem, 6)
        assert got == expected, (case, name, change)
        error = got[0][-1]
        if isinstance(error, tuple):
            seen.add("step failed" if error[2] is not None else error[0].__name__)
        seen.update("replay failed" for _, _, failed in replays if failed)
        seen.update(("solo", "batch")[stacked] + " replay" for stacked, inverse, failed in replays if inverse and not failed)
        if any(failed for _, _, failed in replays):
            # A replay's Newton fallback failed: its error is the pass's.
            assert isinstance(error, tuple) and error[2] is not None
    assert {"nan row", "step failed", "ValueError", "solo replay", "batch replay", "replay failed"} <= seen, seen
    assert any(not ok.all() and ok[0] for ok in checks)


@pytest.mark.parametrize("poison", ["raises", "infinite"])
@WARM
def test_rows_past_a_miss_do_not_surface(text, poison, monkeypatch):
    # A jump of 1e-3 in f, once the initial sweep is done, where the first
    # Burgers component passes its median: the predictors that cross it
    # miss in mid-chunk.  The predictors past a miss, which no row-by-row
    # step evaluates, are recorded; then f raises, or is infinite, at those
    # states only.  The passes give the tables and caches of the unpoisoned
    # row-by-row loop, with no error and no warning, though f was called
    # there.
    base = BurgersProblem(0.05, 8, T=0.5).to_ivp()
    cfg = PararealConfig(N=32, fine=parse_spec("cg:4"))
    active, poisoned, threshold, hits = [False], set(), [0.0], []

    def f(t, u):
        value = base.f(t, u)
        if not active[0]:
            return value
        value = value + np.where(u[..., :1] > threshold[0], 1e-3, 0.0)
        hit = np.array([row.tobytes() in poisoned for row in u.reshape(-1, base.dim)]).reshape(u.shape[:-1])
        if hit.any():
            hits.append(int(hit.sum()))
            if poison == "raises":
                raise ValueError("f raised at a state past a miss")
            value[hit] = np.inf
        return value

    problem = dataclasses.replace(base, f=f)
    states = initialize([cfg], problem)
    threshold[0] = float(np.median(states[0].u[1:, 0]))
    active[0] = True
    settles = parareal.settles

    def recorded(f, t, x, u, dT):
        ok = settles(f, t, x, u, dT)
        if not ok.all():
            past = np.ravel(t) > np.ravel(t)[np.argmin(ok)]
            poisoned.update(row.tobytes() for row in x[past])
        return ok

    with monkeypatch.context() as m:
        m.setattr(parareal, "settles", recorded)
        outcome_of_passes(copy.deepcopy(states), [cfg], problem, 4)
    assert poisoned
    got = outcome_of_passes(copy.deepcopy(states), [cfg], problem, 4)
    assert hits
    with monkeypatch.context() as m:
        m.setattr(parareal, "_correct", ref_correction)
        expected = outcome_of_passes(copy.deepcopy(states), [cfg], problem, 4)
    assert got == expected
    assert expected[1] == [] and len(expected[0]) == 4 and all(isinstance(p, list) for p in expected[0])
