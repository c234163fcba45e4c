import csv
import dataclasses
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from paracheb import (
    BurgersProblem,
    KeplerProblem,
    LinearRhs,
    PararealConfig,
    NonConvergenceError,
    NonFiniteRhsError,
    PropagatorKind,
    PropagatorSpec,
    SingularSystemError,
    SolverError,
    SweepError,
    advance,
    parse_spec,
    run,
    spd_catalog,
    stability,
)
from paracheb import analysis, collocation, parareal, propagators
from paracheb.chebyshev import build_operator, cg_points
from paracheb.cli import console
from paracheb.collocation import solve_checked
from paracheb.propagators import _fd_jacobian, _identity, _newton
from warm_start import warm_advance

ALL_SPECS = [
    PropagatorSpec.backward_euler(3),
    PropagatorSpec.trapezoidal(2),
    PropagatorSpec.gauss4(2),
    PropagatorSpec.chebyshev_gauss(20),
]

IMPLICIT_KINDS = [
    PropagatorKind.BACKWARD_EULER,
    PropagatorKind.TRAPEZOIDAL,
    PropagatorKind.GAUSS4,
]


NONFINITE = pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])

#: The coarse propagator that takes warm steps, the one of every parareal run.
WARM = pytest.mark.parametrize("text", ["beuler:1"])


def decay(lam):
    return lambda t, u: -lam * u


class TestAdvance:
    def test_backward_euler_single_step(self):
        got = advance(PropagatorSpec.backward_euler(1), decay(1.0), 0.0, np.array([1.0]), 1.0)
        assert got[0] == pytest.approx(0.5, abs=1e-12)

    def test_trapezoidal_single_step(self):
        got = advance(PropagatorSpec.trapezoidal(1), decay(1.0), 0.0, np.array([1.0]), 1.0)
        assert got[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_gauss4_two_substeps(self):
        # Two half-steps of the two-stage Gauss method compose its one-step
        # rational factor r(z) = (z^2 - 6z + 12) / (z^2 + 6z + 12).
        r_half = (0.25 - 3.0 + 12.0) / (0.25 + 3.0 + 12.0)
        got = advance(PropagatorSpec.gauss4(2), decay(1.0), 0.0, np.array([1.0]), 1.0)
        assert got[0] == pytest.approx(r_half**2, abs=1e-12)

    def test_substep_time_grid(self):
        # A time-dependent RHS checks that substeps advance the clock: each
        # backward Euler substep evaluates f at its start (the predictor)
        # and at its end (the stage).
        seen = []

        def f(t, u):
            seen.append(t)
            return 0.0 * u

        advance(PropagatorSpec.backward_euler(4), f, 2.0, np.array([1.0]), 1.0)
        assert sorted(set(seen)) == [2.0, 2.25, 2.5, 2.75, 3.0]

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            advance(PropagatorSpec.backward_euler(1), decay(1.0), 0.0, np.array([1.0]), 0.0)

    @NONFINITE
    @pytest.mark.parametrize("text", ["beuler:1", "cg:3"])
    def test_rejects_nonfinite_step(self, text, value):
        # Unchecked, a NaN step surfaces as a Newton failure and an
        # infinite one as a run of NaN sweeps.
        with pytest.raises(ValueError, match="finite"):
            advance(parse_spec(text), decay(1.0), 0.0, np.array([1.0]), value)

    @pytest.mark.parametrize("kind", IMPLICIT_KINDS, ids=lambda k: k.value)
    def test_newton_nonconvergence_raises(self, kind, monkeypatch):
        monkeypatch.setattr(propagators, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            advance(PropagatorSpec(kind), lambda t, u: -(u**3), 0.0, np.array([2.0]), 10.0)

    @pytest.mark.parametrize("kind", IMPLICIT_KINDS, ids=lambda k: k.value)
    def test_newton_nonfinite_raises(self, kind):
        # With dT = 10 every kind's starting guess lands where f is
        # infinite, so no damped update can bring the residual back.
        def f(t, u):
            return np.where(np.abs(u) > 1.5, np.inf, -u)

        with np.errstate(invalid="ignore"):
            with pytest.raises(NonConvergenceError, match="non-finite values"):
                advance(PropagatorSpec(kind), f, 0.0, np.array([1.0]), 10.0)

    @pytest.mark.parametrize("kind", IMPLICIT_KINDS, ids=lambda k: k.value)
    def test_overflowing_guess_does_not_settle(self, kind):
        # From u = 1e200 backward Euler's explicit guess overflows to -inf,
        # and so does its residual: an infinite residual must not pass the
        # tolerance test relative to an infinite iterate.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergenceError, match="non-finite values"):
                advance(PropagatorSpec(kind), lambda t, u: -(u**3), 0.0, np.array([1e200]), 1.0)

    def test_newton_settles_on_its_last_update(self, monkeypatch):
        # From u = 5 with dT = 10 the stage equation 10 x^3 + x - 5 = 0
        # takes all 25 updates: the last one reaches the tolerance, and the
        # test after it counts.  One update fewer is not enough.
        def f(t, u):
            return -(u**3)

        x = advance(PropagatorSpec.backward_euler(1), f, 0.0, np.array([5.0]), 10.0)[0]
        assert abs(10.0 * x**3 + x - 5.0) <= 1e-12 * (1.0 + abs(x))
        monkeypatch.setattr(propagators, "_NEWTON_MAX_ITER", 24)
        with pytest.raises(NonConvergenceError, match="did not converge in 24 iterations"):
            advance(PropagatorSpec.backward_euler(1), f, 0.0, np.array([5.0]), 10.0)

    @pytest.mark.parametrize("text, solves", [("beuler:1", 1), ("tr:1", 1), ("gauss4:1", 1)])
    def test_start_meeting_the_stop_still_makes_one_update(self, text, solves):
        # With f = 0 every predictor meets the stop; each stage solve still
        # makes one update (one Jacobian call), which finds no lower
        # residual and keeps the start.
        calls = []

        def jac(t, u):
            calls.append(u.shape)
            return np.zeros(u.shape + u.shape[-1:])

        U = np.array([[1.0, -2.5, 0.3], [0.1, 7.0, -1e-3]])
        got = advance(parse_spec(text), lambda t, u: np.zeros_like(u), np.zeros(2), U, 0.1, jac=jac)
        assert len(calls) == solves
        assert got.tobytes() == U.tobytes()

    @pytest.mark.parametrize("text, dT", [("beuler:3", 3.0)])
    def test_failed_row_keeps_its_first_error(self, text, dT):
        # u' = c(t) u with c = 1 before t = 5 and 1/2 after.  Row 0's first
        # stage matrix 1 - c * beta_h is exactly zero (beuler's first
        # substep); rows 1 and 2 start past t = 5 and finish.  Row 0
        # carries on as NaN through the later substeps, whose non-finite
        # residuals must not replace its error,
        # and no call of f is spent on failed rows alone (no damped retries
        # of a NaN step).
        seen = []

        def c(t):
            return np.where(t < 5.0, 1.0, 0.5)

        def f(t, u):
            seen.append(np.isfinite(u).any())
            return c(t) * u

        def jac(t, u):
            return c(t)[..., None] * np.ones(u.shape + (1,))

        U = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(SweepError) as err:
            advance(parse_spec(text), f, np.array([0.0, 10.0, 20.0]), U, dT, jac=jac)
        assert err.value.indices == [0]
        assert isinstance(err.value.cause, SingularSystemError)
        assert all(seen)

    @pytest.mark.parametrize("kind, dT", [("beuler", 1.0), ("tr", 2.0)])
    def test_singular_stage_matrix_raises(self, kind, dT):
        # For u' = u the stage matrix I - beta_h * I is exactly zero here.
        spec = parse_spec(f"{kind}:1")
        with pytest.raises(SingularSystemError, match="Newton stage matrix is singular"):
            advance(spec, lambda t, u: u, 0.0, np.array([1.0]), dT, jac=lambda t, u: np.ones(u.shape + (1,)))

    def test_analytic_jacobian_accepted(self):
        calls = []

        def jac(t, u):
            calls.append(t)
            return -np.ones(u.shape + (1,))

        spec = PropagatorSpec.backward_euler(1)
        got = advance(spec, decay(1.0), 0.0, np.array([1.0]), 1.0, jac=jac)
        assert got[0] == pytest.approx(0.5, abs=1e-13)
        assert calls

    @pytest.mark.parametrize("kind", IMPLICIT_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "ivp, dT",
        [(KeplerProblem().to_ivp(), 0.25), (BurgersProblem(0.05, 16).to_ivp(), 1.0 / 32.0)],
        ids=["kepler", "burgers"],
    )
    def test_problem_jacobian_agrees_with_differences(self, kind, ivp, dT):
        spec = PropagatorSpec(kind, 6)
        hook = advance(spec, ivp.f, 0.0, ivp.u0, dT, jac=ivp.jacobian)
        fd = advance(spec, ivp.f, 0.0, ivp.u0, dT, jac=None)
        assert np.max(np.abs(hook - fd)) <= 1e-13 * np.max(np.abs(fd))

    def test_fd_jacobian_is_one_stacked_call(self):
        # One call on [u; u + diag(h)] gives the same columns as one call
        # per perturbed state.
        f = KeplerProblem().to_ivp().f
        calls = []

        def counted(t, u):
            calls.append(u.shape)
            return f(t, u)

        u = KeplerProblem().u0
        J = _fd_jacobian(counted, 0.0, u)
        assert calls == [(7, 6)]
        h = math.sqrt(np.finfo(float).eps) * (1.0 + np.abs(u))
        columns = [(f(0.0, u + h[j] * np.eye(6)[j]) - f(0.0, u)) / h[j] for j in range(6)]
        np.testing.assert_array_equal(J, np.array(columns).T)

    def test_collocation_linear_route(self):
        got = advance(
            PropagatorSpec.chebyshev_gauss(1),
            None,
            0.0,
            np.array([1.0]),
            1.0,
            linear=LinearRhs(np.array([[1.0]])),
        )
        assert got[0] == pytest.approx(9.0 / 25.0, abs=1e-13)


def per_row(spec, f, times, U, dT, **kw):
    """Reference: one single-state ``advance`` call per row, as the fine
    sweep made them before it was stacked."""
    return np.array([advance(spec, f, t, u, dT, **kw) for t, u in zip(times, U)])


def perturbed_stack(ivp, n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0, n), ivp.u0 * rng.uniform(0.9, 1.1, (n, ivp.dim))


ONE_STEP_SPECS = ["beuler:3", "tr:3", "gauss4:3"]


def assert_stack_is_rows(ivp, text, jac, times, U, dT):
    """A stacked ``advance`` gives every row the bits its own call gives:
    ``f`` and ``jacobian`` compute each row on its own, whatever the stack
    height.  ``jac`` is ``"hook"`` for the problem's hook, ``"fd"`` for
    forward differences."""
    kw = {"jac": ivp.jacobian if jac == "hook" else None, "linear": ivp.linear}
    got = advance(parse_spec(text), ivp.f, times, U, dT, **kw)
    np.testing.assert_array_equal(got, per_row(parse_spec(text), ivp.f, times, U, dT, **kw))


class TestStackedAdvance:
    @pytest.mark.parametrize("jac", ["hook", "fd"])
    @pytest.mark.parametrize("text", ONE_STEP_SPECS + ["cg:6"])
    def test_kepler_stack_is_bit_identical_to_rows(self, text, jac):
        # dT = 0.3 is not a binary fraction.
        ivp = KeplerProblem().to_ivp()
        assert_stack_is_rows(ivp, text, jac, *perturbed_stack(ivp, 7, 1), 0.3)

    @pytest.mark.parametrize("text", ONE_STEP_SPECS + ["cg:8"])
    def test_burgers_stack_agrees_with_rows(self, text):
        # Burgers' f multiplies each state by a matrix on its own, so the
        # stack height moves no bit.
        ivp = BurgersProblem(0.05, 16).to_ivp()
        for jac in ("hook", "fd"):
            assert_stack_is_rows(ivp, text, jac, *perturbed_stack(ivp, 7, 2), 0.03)

    @pytest.mark.parametrize("jac", ["hook", "fd"])
    @pytest.mark.parametrize("text", ONE_STEP_SPECS + ["cg:8"])
    def test_spd_stack_is_bit_identical_to_rows(self, text, jac):
        # At dimension 24 one matrix product over the stack would give a
        # row other bits at another stack height.
        ivp = spd_catalog("laplacian-1d", m=24).to_ivp()
        rng = np.random.default_rng(4)
        times, U = rng.uniform(0.0, 2.0, 7), rng.uniform(-1.0, 1.0, (7, 24))
        assert_stack_is_rows(ivp, text, jac, times, U, 1e-3)

    def test_linear_collocation_stack_is_bit_identical_to_rows(self):
        # Each row gets its own vector-matrix product and its own
        # one-column solve, so the shared systems change no bit.
        A = spd_catalog("laplacian-1d", m=24).A
        rng = np.random.default_rng(3)
        U = rng.uniform(-1.0, 1.0, (16, 24))
        times = np.arange(16) * (0.1 / 16)
        spec = parse_spec("cg:12")
        got = advance(spec, None, times, U, 0.1 / 16, linear=LinearRhs(A))
        np.testing.assert_array_equal(got, per_row(spec, None, times, U, 0.1 / 16, linear=LinearRhs(A)))

    def test_single_state_is_the_one_row_stack(self):
        ivp = KeplerProblem().to_ivp()
        spec = parse_spec("tr:2")
        single = advance(spec, ivp.f, 0.5, ivp.u0, 0.25, jac=ivp.jacobian)
        stack = advance(spec, ivp.f, np.array([0.5]), ivp.u0[None], 0.25, jac=ivp.jacobian)
        assert single.shape == (6,) and stack.shape == (1, 6)
        np.testing.assert_array_equal(single, stack[0])

    @pytest.mark.parametrize("text", ["beuler:2", "gauss4:1", "cg:4"])
    def test_failing_rows_named_and_typed(self, text):
        # f is infinite above 0.5: rows starting there fail at once, rows
        # starting below decay towards 0 and finish.
        def f(t, u):
            return np.where(u > 0.5, np.inf, -u)

        U = np.array([[0.2], [0.9], [-0.7], [0.6], [0.1]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(SweepError) as err:
                advance(parse_spec(text), f, np.zeros(5), U, 0.5)
        assert err.value.indices == [1, 3]
        if text == "cg:4":
            assert isinstance(err.value.cause, NonFiniteRhsError) and err.value.cause.node == 0
        else:
            assert isinstance(err.value.cause, NonConvergenceError)
        surviving = advance(parse_spec(text), f, np.zeros(3), U[[0, 2, 4]], 0.5)
        assert np.all(np.isfinite(surviving))

    def test_newton_rows_backtrack_on_their_own(self):
        # With dT = 10 the far rows need damped steps and more iterations
        # than the near ones; each row still lands on its own solve.
        def f(t, u):
            return -(u**3)

        spec = parse_spec("beuler:1")
        U = np.array([[0.1], [2.0], [4.0], [0.5]])
        got = advance(spec, f, np.zeros(4), U, 10.0)
        np.testing.assert_array_equal(got, per_row(spec, f, np.zeros(4), U, 10.0))

    @pytest.mark.parametrize("text, max_iter", [("cg:4", 10), ("beuler:1", 3)])
    def test_settled_nonfinite_and_stalled_rows(self, text, max_iter, monkeypatch):
        # -(u**2) takes more inner iterations the larger u is: alone, row 0
        # needs fewer than max_iter (6 sweeps, 2 Newton updates) and row 2
        # more (17, 4).  Row 1 starts where f is infinite.
        def f(t, u):
            return np.where(u > 10.0, np.inf, -(u**2))

        spec = parse_spec(text)
        cg = spec.kind is PropagatorKind.CHEBYSHEV_GAUSS
        monkeypatch.setattr(*((collocation, "_PICARD_MAX_ITER") if cg else (propagators, "_NEWTON_MAX_ITER")), max_iter)
        U = np.array([[0.1], [20.0], [3.0]])
        with np.errstate(invalid="ignore", over="ignore"):
            alone = advance(spec, f, 0.0, U[0], 0.2)
            errors = []
            for u in U[1:]:
                with pytest.raises(SolverError) as err:
                    advance(spec, f, 0.0, u, 0.2)
                errors.append(err.value)
            with pytest.raises(SweepError) as err:
                advance(spec, f, np.zeros(3), U, 0.2)
            # The same call with row failures recorded instead of raised.
            raised = []
            for module in (collocation, propagators):
                monkeypatch.setattr(module, "raise_row_failures", lambda failures, _: raised.append(failures))
            got = advance(spec, f, np.zeros(3), U, 0.2)
        nonfinite = NonFiniteRhsError if text == "cg:4" else NonConvergenceError
        assert type(errors[0]) is nonfinite and "non-finite" in str(errors[0])
        assert type(errors[1]) is NonConvergenceError
        assert f"did not converge in {max_iter} iterations" in str(errors[1])
        assert err.value.indices == [1, 2]
        assert type(err.value.cause) is nonfinite and str(err.value.cause) == str(errors[0])
        [failures] = raised
        assert sorted(failures) == [1, 2] and [str(failures[i]) for i in (1, 2)] == [str(e) for e in errors]
        np.testing.assert_array_equal(got[0], alone)
        assert np.isnan(got[1:]).all()

    @pytest.mark.parametrize("text", ["beuler:1", "gauss4:1", "cg:2"])
    def test_state_of_three_axes_rejected(self, text):
        # A one-step kind would take it for one row of all its entries.
        with pytest.raises(ValueError, match=r"state must have shape \(dim,\) or \(N, dim\) \(got shape \(2, 2, 2\)\)"):
            advance(parse_spec(text), lambda t, u: -u, 0.0, np.ones((2, 2, 2)), 0.1)

    @pytest.mark.parametrize("text", ["beuler:1", "tr:1", "gauss4:1", "cg:4"])
    def test_times_of_another_shape_rejected(self, text):
        # 3 states at 2 times once stepped as a (3, 2) stack, and one state
        # at 2 times ended in numpy's broadcast error for cg; each is
        # rejected before f is called.
        calls = []

        def f(t, u):
            calls.append(t)
            return -u

        cases = [
            (np.ones((3, 2)), np.zeros(2), r"t_n has shape \(2,\), expected a scalar or shape \(3,\)"),
            (np.ones((3, 2)), np.zeros((3, 1)), r"t_n has shape \(3, 1\), expected a scalar or shape \(3,\)"),
            (np.ones(2), np.zeros(2), r"t_n has shape \(2,\), expected a scalar$"),
            (np.ones(2), np.zeros(1), r"t_n has shape \(1,\), expected a scalar$"),
        ]
        for u, t, message in cases:
            with pytest.raises(ValueError, match=message):
                advance(parse_spec(text), f, t, u, 0.5)
        assert calls == []

    @pytest.mark.parametrize("text", ["cg:4", "beuler:1"])
    def test_empty_stack(self, text):
        got = advance(parse_spec(text), lambda t, u: -u, np.zeros(0), np.zeros((0, 2)), 0.5)
        assert got.shape == (0, 2)

    def test_rows_settling_together_are_never_indexed(self):
        # A linear stage equation: every row settles on the first update,
        # so each residual and Jacobian call covers the whole stack
        # (rows None), the path of every single-state coarse step.
        seen = []
        b = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])

        def residual(x, rows):
            seen.append(rows)
            return 2.0 * x - b

        def jacobian(x, rows):
            seen.append(rows)
            return np.broadcast_to(2.0 * np.eye(2), (len(x), 2, 2))

        x, failures = _newton(residual, jacobian, np.zeros((3, 2)))
        assert failures == {} and seen == [None] * 3
        np.testing.assert_array_equal(x, b / 2.0)


def cubic(t, u):
    return -(u**3)


def counting_cubic_jacobian(calls):
    """The Jacobian of ``cubic``, recording the rows of each call."""

    def jac(t, u):
        calls.append(len(u))
        return -3.0 * u[..., :, None] ** 2 * np.eye(u.shape[-1])

    return jac


def assert_rows_step_alone(f, U, dT, guess, inverse=None, jac=None, guess_from=None):
    """A warm step (``warm_advance``) of the stack ``U`` (at times 0)
    against each row's single-state step with its guess and ``guess_from``
    and the stack's inverse: the same bits, or, where the stack raises, the
    lowest failed row's own error and no error for a row that did not fail.
    Returns the stack's result or its ``SweepError``."""

    def step(u, g, g_from):
        t = np.zeros(len(u)) if u.ndim == 2 else 0.0
        try:
            return warm_advance(f, t, u, dT, g, g_from, inverse, jac)
        except SolverError as exc:
            return exc

    got = step(U, guess, guess_from)
    for i in range(len(U)):
        alone = step(U[i], guess[i], None if guess_from is None else guess_from[i])
        if isinstance(got, SweepError):
            if i == got.indices[0]:
                assert type(alone) is type(got.cause) and str(alone) == str(got.cause)
            assert isinstance(alone, SolverError) is (i in got.indices)
        else:
            assert isinstance(alone, np.ndarray) and alone.tobytes() == got[i].tobytes()
    return got


class TestWarmStart:
    @WARM
    def test_guess_meeting_the_stop_still_makes_one_update(self, text):
        # The cold result meets the residual test; started there without an
        # inverse stage matrix, the Newton stage solve still makes exactly
        # one update.
        spec, u = parse_spec(text), np.array([[2.0, -1.0]])
        cold_calls, warm_calls = [], []
        cold = advance(spec, cubic, 0.0, u, 0.5, jac=counting_cubic_jacobian(cold_calls))
        warm = warm_advance(cubic, 0.0, u, 0.5, cold, jac=counting_cubic_jacobian(warm_calls))
        assert len(cold_calls) > 1 and warm_calls == [1]
        np.testing.assert_allclose(warm, cold, rtol=0, atol=propagators._NEWTON_TOL * (1.0 + np.abs(cold).max()))

    @NONFINITE
    @WARM
    def test_nonfinite_guess_row_starts_cold(self, text, value):
        # The middle row's guess holds a NaN or an infinity, so it starts at
        # the explicit predictor and follows its cold iterates; the rows
        # around it start at their guesses and leave after one update.
        spec, dT = parse_spec(text), 0.5
        U = np.array([[0.5, 1.0], [2.0, -1.0], [1.5, 0.25]])
        cold = np.array([advance(spec, cubic, 0.0, u, dT) for u in U])
        guess = cold * (1.0 + 1e-6)
        guess[1, 0] = value
        calls, solo_calls = [], []
        got = warm_advance(cubic, np.zeros(3), U, dT, guess, jac=counting_cubic_jacobian(calls))
        advance(spec, cubic, 0.0, U[1], dT, jac=counting_cubic_jacobian(solo_calls))
        assert calls == [3] + [1] * (len(solo_calls) - 1)
        np.testing.assert_array_equal(got[1], advance(spec, cubic, 0.0, U[1], dT, jac=counting_cubic_jacobian([])))
        for i in (0, 2):
            alone = warm_advance(cubic, 0.0, U[i], dT, guess[i], jac=counting_cubic_jacobian([]))
            np.testing.assert_array_equal(got[i], alone)
        # With an inverse stage matrix the middle row has no finite
        # predictor: it takes the Newton steps it takes alone from the
        # explicit predictor, and each row gets the bits of its single-state
        # step, whichever row's matrix the stack shares.
        for inverse in propagators.stage_inverses(cubic, np.zeros(3), cold, dT):
            got = assert_rows_step_alone(cubic, U, dT, guess, inverse)
            np.testing.assert_array_equal(got[1], advance(spec, cubic, 0.0, U[1], dT))

    @WARM
    def test_guess_from_moves_the_guess_by_the_change_in_start(self, text):
        # Without an inverse stage matrix, the result of a step from
        # guess_from starts Newton's iteration at that result plus the
        # change in the start value, the same bits as that sum as a guess.
        spec, dT = parse_spec(text), 0.5
        U = np.array([[0.5, 1.0], [2.0, -1.0], [1.5, 0.25]])
        before = U * (1.0 + 1e-3)
        cached = advance(spec, cubic, np.zeros(3), before, dT)
        got = warm_advance(cubic, np.zeros(3), U, dT, cached, before)
        np.testing.assert_array_equal(got, warm_advance(cubic, np.zeros(3), U, dT, cached + (U - before)))
        assert_rows_step_alone(cubic, U, dT, cached, guess_from=before)


class TestChord:
    """A warm step from a guess with an inverse stage matrix (``predictor``
    and ``warm_step``): a start at the linearized predictor, tested before
    any update, then chord updates, and a row that falls back restarts
    alone on the Newton iteration."""

    U = np.array([[0.5, 1.0], [2.0, -1.0], [1.5, 0.25]])
    dT = 0.5

    def start(self, text, jac=None):
        """The spec, the cold results, a guess near them and writeable
        copies of the inverse stage matrices at them, one per row."""
        spec = parse_spec(text)
        cold = advance(spec, cubic, np.zeros(3), self.U, self.dT)
        jac = jac or counting_cubic_jacobian([])
        inverse = propagators.stage_inverses(cubic, np.zeros(3), cold, self.dT, jac)
        assert not inverse.flags.writeable
        return spec, cold, cold * (1.0 + 1e-6), inverse.copy()

    def near(self, spec):
        """Three states near ``U[1]``, their cold results and the inverse
        stage matrix at the first, which the three share: the stack of a
        batch's runs on one subinterval."""
        V = self.U[1] * np.array([[1.0], [1.0 + 1e-6], [1.0 - 1e-6]])
        cold = advance(spec, cubic, np.zeros(3), V, self.dT)
        return V, cold, propagators.stage_inverses(cubic, np.zeros(1), cold[:1], self.dT)[0]

    @WARM
    def test_chord_step_calls_no_jacobian(self, text):
        spec = parse_spec(text)
        V, cold, inverse = self.near(spec)
        guess = cold * (1.0 + 1e-6)
        calls = []
        jac = counting_cubic_jacobian(calls)
        got = warm_advance(cubic, np.zeros(3), V, self.dT, guess, inverse=inverse, jac=jac)
        assert calls == []
        newton = warm_advance(cubic, np.zeros(3), V, self.dT, guess)
        np.testing.assert_allclose(got, newton, rtol=0, atol=propagators._NEWTON_TOL * (1.0 + np.abs(newton).max()))
        assert got.tobytes() != newton.tobytes()
        for i in range(3):
            alone = warm_advance(cubic, 0.0, V[i], self.dT, guess[i], inverse=inverse)
            np.testing.assert_array_equal(got[i], alone)
            # A single state's time as a 0-d array gives the same state.
            again = warm_advance(cubic, np.array(0.0), V[i], self.dT, guess[i], inverse=inverse)
            assert again.shape == alone.shape and again.tobytes() == alone.tobytes()

    @WARM
    def test_predictor_meeting_the_stop_settles_without_an_update(self, text):
        # Each row's cached step is a cold step from its start moved by
        # 1e-8.  The predictor, that result plus S times the change in the
        # start, the stage equation's right-hand side, is off by O(1e-16):
        # it meets the stop, and every row settles there without an update
        # or a Jacobian, within the stop of its cold step.  Each row makes
        # one f call, for its residual.
        spec = parse_spec(text)
        V, cold, inverse = self.near(spec)
        before = V * (1.0 + 1e-8)
        cached = advance(spec, cubic, np.zeros(3), before, self.dT)
        f_calls, calls = [], []

        def f(t, x):
            f_calls.append(x.shape)
            return cubic(t, x)

        jac = counting_cubic_jacobian(calls)
        got = warm_advance(f, np.zeros(3), V, self.dT, cached, before, inverse, jac)
        # Each row alone, with no stacked call: its residual at its predictor.
        assert f_calls == [(2,)] * 3 and calls == []
        np.testing.assert_array_equal(got, cached + np.matvec(inverse, V - before))
        np.testing.assert_allclose(got, cold, rtol=0, atol=propagators._NEWTON_TOL * (1.0 + np.abs(cold).max()))
        assert_rows_step_alone(cubic, V, self.dT, cached, inverse, jac, guess_from=before)
        # Started at its cold result, which meets the stop, a row keeps it
        # with one f call, its residual there.
        f_calls.clear()
        for i in range(3):
            kept, _ = propagators.warm_step(f, 0.0, cold[i], V[i], self.dT, inverse)
            np.testing.assert_array_equal(kept, cold[i])
        assert f_calls == [(2,)] * 3

    def first_update(self, guess, inverse):
        """The chord iterate one update from ``guess``, for the middle row."""
        h, u = self.dT, self.U[1]
        return guess - np.matvec(inverse, guess - u - h * cubic(h, guess))

    @pytest.mark.parametrize("cause", ["no reduction", "nan inverse", "singular", "slow"])
    @WARM
    def test_stacked_step_equals_its_rows_when_one_falls_back(self, text, cause):
        # The stack shares row 1's inverse stage matrix.  Rows 0 and 2 start
        # at their cold results and settle there.  Row 1 starts 1e-6 off and
        # falls back: its update increases the residual (the matrix
        # negated), or cuts it by about 2, less than _CHORD_RATE asks (the
        # matrix halved).  It then takes the Newton steps it takes alone
        # from its last iterate that reduced its residual (its start, or its
        # first update), and calls the jacobian for itself only.  A NaN
        # matrix, given or built where the stage matrix was singular (the
        # inverses are then taken row by row, and that row's comes out NaN),
        # leaves every row without a predictor: each takes the Newton steps
        # it takes alone from its guess.
        def singular(t, u):
            J = counting_cubic_jacobian([])(t, u)
            J[1] = np.eye(2) / self.dT
            return J

        spec, cold, guess, inverses = self.start(text, singular if cause == "singular" else None)
        guess[[0, 2]] = cold[[0, 2]]
        inverse = inverses[1]
        restart = guess[1]
        if cause == "no reduction":
            inverse *= -1.0
        elif cause == "nan inverse":
            inverse[:] = np.nan
        elif cause == "singular":
            assert np.isnan(inverse).all()
            for i in (0, 2):
                jac = counting_cubic_jacobian([])
                alone = propagators.stage_inverses(cubic, np.zeros(1), cold[i : i + 1], self.dT, jac)
                np.testing.assert_array_equal(inverses[i], alone[0])
        else:
            inverse *= 0.5
            restart = self.first_update(guess[1], inverse)
        calls = []
        got = warm_advance(cubic, np.zeros(3), self.U, self.dT, guess, inverse=inverse, jac=counting_cubic_jacobian(calls)
        )
        jac = counting_cubic_jacobian([])
        if cause in ("nan inverse", "singular"):
            assert calls[0] == 3
            np.testing.assert_array_equal(got, warm_advance(cubic, np.zeros(3), self.U, self.dT, guess, jac=jac))
        else:
            assert calls and calls == [1] * len(calls)
            np.testing.assert_array_equal(got[[0, 2]], cold[[0, 2]])
            np.testing.assert_array_equal(got[1], warm_advance(cubic, 0.0, self.U[1], self.dT, restart, jac=jac))
        assert_rows_step_alone(cubic, self.U, self.dT, guess, inverse, jac)

    def test_nan_inverse_falls_back_from_a_start_within_the_stop(self):
        # A NaN inverse leaves no predictor, even where the guess meets the
        # stop: every row takes Newton's iteration from its guess, which
        # makes one update, with one stacked Jacobian call.
        spec, cold, _, inverses = self.start("beuler:1")
        inverse = np.full_like(inverses[1], np.nan)
        calls = []
        jac = counting_cubic_jacobian(calls)
        got = warm_advance(cubic, np.zeros(3), self.U, self.dT, cold, inverse=inverse, jac=jac)
        assert calls == [3]
        newton = warm_advance(cubic, np.zeros(3), self.U, self.dT, cold, jac=counting_cubic_jacobian([]))
        np.testing.assert_array_equal(got, newton)
        np.testing.assert_array_equal(assert_rows_step_alone(cubic, self.U, self.dT, cold, inverse), got)

    @WARM
    def test_row_still_live_after_max_iter_falls_back(self, text, monkeypatch):
        # With a cap of 1 update, rows 0 and 2 start at their cold results and
        # settle there; row 1 starts 1% off, and its one update, with its
        # own inverse stage matrix, which the stack shares, cuts the residual
        # fast but not to the stop.  It restarts on Newton from that update
        # and stalls there too: the stack raises the error it raises alone.
        spec, cold, guess, inverses = self.start(text)
        monkeypatch.setattr(propagators, "_NEWTON_MAX_ITER", 1)
        inverse = inverses[1]
        guess = cold.copy()
        guess[1] *= 1.01
        with pytest.raises(SweepError) as err:
            warm_advance(cubic, np.zeros(3), self.U, self.dT, guess, inverse=inverse)
        restart = self.first_update(guess[1], inverse)
        with pytest.raises(NonConvergenceError) as alone:
            warm_advance(cubic, 0.0, self.U[1], self.dT, restart)
        assert err.value.indices == [1] and str(err.value.cause) == str(alone.value)
        assert_rows_step_alone(cubic, self.U, self.dT, guess, inverse)
        with pytest.raises(NonConvergenceError) as from_guess:
            warm_advance(cubic, 0.0, self.U[1], self.dT, guess[1])
        assert str(from_guess.value) != str(alone.value)

    @NONFINITE
    def test_failing_row_raises_its_newton_error(self, value):
        # Row 1 starts where f is non-finite: it falls back before its first
        # update, and its Newton iteration raises the error it raises alone.
        # No update reaches the non-finite row, and the predictor makes no f
        # call, so there is no warning.
        def f(t, u):
            return np.where(u > 1.8, value, -(u**3))

        spec, cold, guess, inverses = self.start("beuler:1")
        guess[[0, 2]] = cold[[0, 2]]
        guess[1, 0] = 1.9
        with warnings.catch_warnings(record=True) as caught, pytest.raises(SweepError) as err:
            warnings.simplefilter("always")
            warm_advance(f, np.zeros(3), self.U, self.dT, guess, inverse=inverses[1])
        assert caught == []
        with pytest.raises(NonConvergenceError) as alone:
            warm_advance(f, 0.0, self.U[1], self.dT, guess[1])
        assert err.value.indices == [1] and str(err.value.cause) == str(alone.value)
        with np.errstate(invalid="ignore"):
            assert isinstance(assert_rows_step_alone(f, self.U, self.dT, guess, inverses[1]), SweepError)

    @pytest.mark.parametrize("path", ["kept start", "settled", "fallback"])
    @WARM
    def test_single_state_step_returns_a_new_array(self, text, path):
        # u' = 0: the guess u is the root, so its residual is 0 and the
        # start settles, as a new array.  The other exits return new arrays
        # too, and neither the guess nor u changes.
        spec, cold, guess, inverse = self.start(text)
        u, f, guess, inverse = self.U[1].copy(), cubic, guess[1], inverse[1]
        if path == "kept start":
            f, guess = (lambda t, x: np.zeros_like(x)), u
        elif path == "fallback":
            inverse = np.full_like(inverse, np.nan)
        before = u.copy(), guess.copy()
        got = warm_advance(f, 0.0, u, self.dT, guess, inverse=inverse)
        assert not np.shares_memory(got, u) and not np.shares_memory(got, guess)
        np.testing.assert_array_equal(u, before[0])
        np.testing.assert_array_equal(guess, before[1])
        if path == "kept start":
            np.testing.assert_array_equal(got, u)

    @WARM
    def test_stacked_rows_step_alone(self, text):
        # Three states near U[1] share one inverse stage matrix.  Started at
        # their cold results, every row settles at its start; started 1e-7
        # off, every row settles on the first update.  Either way each row
        # of the stack takes its single-state step, with its own f calls
        # and no stacked one, and has that step's bits.
        spec = parse_spec(text)
        V, cold, inverse = self.near(spec)
        f_calls = []

        def f(t, x):
            f_calls.append(x.shape)
            return cubic(t, x)

        for guess, updates in ((cold, 0), (cold * (1.0 + 1e-7), 1)):
            alone = [warm_advance(cubic, 0.0, V[i], self.dT, guess[i], inverse=inverse) for i in range(3)]
            f_calls.clear()
            got = warm_advance(f, np.zeros(3), V, self.dT, guess, inverse=inverse)
            assert f_calls == [(2,)] * 3 * (1 + updates)
            for i in range(3):
                assert got[i].tobytes() == alone[i].tobytes()

    @NONFINITE
    @WARM
    def test_warm_step_from_the_predictor_is_advance(self, text, value):
        # warm_step from the predictor of each row of a stack, with that
        # row's start as the stage right-hand side: row 0 settles at its
        # start, row 1 takes chord updates, and row 2 falls back to Newton
        # and fails as advance does, NaN with the error advance raises for
        # that state.
        def f(t, u):
            return np.where(u > 2.5, value, -(u**3))

        spec, cold, guess, inverses = self.start(text)
        guess[0] = cold[0]
        guess[2, 0] = 3.0
        inverse = inverses[1]
        x = propagators.predictor(self.U, guess, self.U, inverse)
        for i in range(3):
            alone, lost = propagators.warm_step(f, 0.0, x[i], self.U[i], self.dT, inverse)
            assert list(lost) == [0] * (i == 2) and (alone.tobytes() == x[i].tobytes()) is (i == 0)
            if i < 2:
                expected = warm_advance(f, 0.0, self.U[i], self.dT, guess[i], inverse=inverse)
                assert alone.tobytes() == expected.tobytes()
                continue
            assert np.isnan(alone).all()
            with pytest.raises(NonConvergenceError) as err:
                warm_advance(f, 0.0, self.U[i], self.dT, guess[i], inverse=inverse)
            assert type(lost[0]) is NonConvergenceError and str(lost[0]) == str(err.value)

    def test_stage_inverses_invert_the_backward_euler_stage_matrices(self):
        # Row n is (I - dT J(t_n + dT, x_n))^-1, from one stacked jac call,
        # as the inversion of each row's matrix alone gives it; read-only.
        times = np.array([0.0, 0.25, 0.5])
        calls = []
        inverse = propagators.stage_inverses(cubic, times, self.U, self.dT, counting_cubic_jacobian(calls))
        assert calls == [3] and not inverse.flags.writeable
        for t, x, inv in zip(times, self.U, inverse):
            J = counting_cubic_jacobian([])(t + self.dT, x[None])[0]
            expected = np.linalg.inv(np.eye(2) - self.dT * J)
            assert inv.tobytes() == expected.tobytes()


class TestStability:
    @pytest.mark.parametrize("z", [0.01, 0.1, 1.0, 2.0, 10.0, 100.0])
    def test_collocation_closed_forms(self, z):
        r0 = stability(PropagatorSpec.chebyshev_gauss(0), z)
        assert r0 == pytest.approx((2.0 - z) / (2.0 + z), abs=1e-12)
        r1 = stability(PropagatorSpec.chebyshev_gauss(1), z)
        assert r1 == pytest.approx((z * z - 8 * z + 16) / (z * z + 8 * z + 16), abs=1e-12)

    def test_collocation_specific_values(self):
        assert stability(PropagatorSpec.chebyshev_gauss(0), 1.0) == pytest.approx(1 / 3, abs=1e-14)
        assert stability(PropagatorSpec.chebyshev_gauss(1), 2.0) == pytest.approx(1 / 9, abs=1e-14)

    def test_collocation_spectral_limit(self):
        for z in (0.5, 1.0, 3.0):
            r = stability(PropagatorSpec.chebyshev_gauss(20), z)
            assert abs(r - math.exp(-z)) < 1e-10

    def test_backward_euler_composition(self):
        assert stability(PropagatorSpec.backward_euler(4), 2.0) == pytest.approx((2 / 3) ** 4, abs=1e-14)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_amplification_at_zero_is_one(self, spec):
        assert abs(stability(spec, 0.0) - 1.0) <= 1e-14

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_advance_realizes_stability_function(self, spec):
        for z in (0.1, 0.5, 1.0, 2.0, 5.0):
            got = advance(spec, decay(z), 0.0, np.array([1.0]), 1.0)[0]
            assert got == pytest.approx(stability(spec, z), abs=1e-10)

    def test_a_stable_kinds_contract(self):
        zs = np.geomspace(1e-2, 1e6, 40)
        specs = [
            PropagatorSpec.backward_euler(1),
            PropagatorSpec.trapezoidal(2),
            PropagatorSpec.gauss4(2),
        ] + [PropagatorSpec.chebyshev_gauss(M) for M in (0, 1, 2, 4, 8, 16, 32)]
        for spec in specs:
            for z in zs:
                assert abs(stability(spec, z)) < 1.0
        # Every kind, out to the float maximum, past where gauss4's z * z
        # overflows: |R| <= 1 and a finite contraction factor.
        far = np.array([0.0, 1e-8, 1.0, 1e3, 1e100, 1e154, 1.4e154, 1e200, 1e307, 1.7e308])
        for text in ["beuler:1", "beuler:6", "tr:1", "tr:6", "gauss4:1", "gauss4:6", "cg:0", "cg:5", "cg:51"]:
            spec = parse_spec(text)
            for R in (stability(spec, far), [stability(spec, z) for z in far.tolist()]):
                assert np.all(np.abs(R) <= 1.0), text
            for K in (analysis.contraction(spec, far), [analysis.contraction(spec, z) for z in far.tolist()]):
                assert np.all(np.isfinite(K)), text

    def test_collocation_limit_magnitude(self):
        for M in (0, 1, 2, 4, 20):
            r = stability(PropagatorSpec.chebyshev_gauss(M), 1e8)
            assert abs(abs(r) - 1.0) < 1e-3

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            stability(PropagatorSpec.backward_euler(1), -0.5)

    @NONFINITE
    def test_rejects_nonfinite_argument(self, value):
        with pytest.raises(ValueError, match="finite"):
            stability(PropagatorSpec.backward_euler(1), value)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_stack_is_bit_identical_to_scalar_calls(self, spec):
        # z = 0 entries, tr's sign change at z = 2 per substep, and values
        # on both sides of the collocation kind's switch from Horner in
        # z/scale to Horner in scale/z.
        zs = np.concatenate(([0.0, 0.0], np.linspace(1.5, 40.0, 60), np.geomspace(1e-3, 1e4, 300), [0.0]))
        scalar = np.array([stability(spec, z) for z in zs])
        stacked = stability(spec, zs)
        np.testing.assert_array_equal(stacked, scalar)
        assert stacked.shape == zs.shape
        np.testing.assert_array_equal(stability(spec, zs.reshape(3, -1)), scalar.reshape(3, -1))
        assert type(stability(spec, zs[5])) is float

    @pytest.mark.parametrize("text, z_big", [("gauss4:1", 1e200), ("gauss4:2", 1e300)])
    def test_gauss4_past_the_square_overflow(self, text, z_big):
        # Far past where z * z overflows (about 1.3e154), Horner in 1 / z
        # keeps every value within 1e-15 of the exact fraction.
        spec = parse_spec(text)
        zs = [0.5, 3.0, 1e100, 1e154, z_big]
        R = stability(spec, np.array(zs))
        for z, got in zip(zs, R):
            x = Fraction(z) / spec.count
            exact = ((x * x - 6 * x + 12) / (x * x + 6 * x + 12)) ** spec.count
            assert got == pytest.approx(float(exact), rel=1e-15)
            assert stability(spec, z) == got

    def test_large_point_count_stack_equals_scalar_calls(self):
        # 201 coefficients per polynomial, z on both sides of scale = 256.
        spec = PropagatorSpec.chebyshev_gauss(200)
        zs = np.array([0.0, 0.7, 30.0, 1e5])
        np.testing.assert_array_equal(stability(spec, zs), [stability(spec, z) for z in zs])

    def test_largest_tabulated_point_count(self, tmp_path, capsys, monkeypatch):
        # cg:979's coefficients fit a float; cg:980's would overflow.
        R = stability(PropagatorSpec.chebyshev_gauss(979), np.array([0.0, 1.0, 1e8]))
        assert R[0] == 1.0 and np.isfinite(R).all()
        with pytest.raises(ValueError, match="up to cg:979 "):
            stability(PropagatorSpec.chebyshev_gauss(980), 1.0)
        # A one-step kind's K expands r**J, whose coefficients fit a float up
        # to its largest count; its R reads only r, at every count.
        zs = np.array([0.0, 1e-8, 1.0, 1e8, 1.7e308])
        for kind, largest in (("beuler", 1043), ("tr", 1043), ("gauss4", 427), ("cg", 979)):
            top = parse_spec(f"{kind}:{largest}")
            assert np.isfinite(analysis.contraction(top, zs)).all()
            with monkeypatch.context() as m:  # one count further, a coefficient overflows
                m.setitem(propagators._KINDS, top.kind, (largest + 1, *propagators._KINDS[top.kind][1:]))
                with pytest.raises(OverflowError):
                    propagators.rational.__wrapped__(top.kind, largest + 1)
            if kind == "cg":
                continue
            past = parse_spec(f"{kind}:{largest + 1}")
            assert np.isfinite(stability(past, zs)).all() and stability(past, 0.0) == 1.0
            with pytest.raises(ValueError, match=rf"up to {kind}:{largest} \(got {kind}:{largest + 1}\)"):
                analysis.contraction(past, 1.0)
        out = tmp_path / "a.csv"
        assert console(["analyze", "--set", "specs=gauss4:500", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "paracheb: error: K(z) is tabulated up to gauss4:427 (got gauss4:500)\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_stack_with_one_bad_entry_rejected(self, spec, bad):
        zs = np.linspace(0.0, 5.0, 11)
        zs[7] = bad
        with pytest.raises(ValueError, match="finite"):
            stability(spec, zs)


def lu_stability(M, z):
    """The collocation ``R(z)`` by LU solves of ``I + z T1_C``.

    ``R(z) = 1 - z * sum(C_alpha (I + z T1_C)^{-1} 1)``, one
    ``solve_checked`` call per block of at most 2**15 matrix elements and
    each z's own matrix-vector product and sum: an evaluator independent of
    ``stability``'s closed form.
    """
    op = build_operator(M)
    n = M + 1
    zs = np.asarray(z, dtype=float).reshape(-1)
    sums = np.empty_like(zs)
    block = max(1, 2**15 // (n * n))
    for i in range(0, zs.size, block):
        x = solve_checked(op, zs[i : i + block, None], np.ones(n))[:, 0]
        sums[i : i + block] = (op.C_alpha @ x[..., None])[..., 0].sum(axis=-1)
    return (1.0 - zs * sums).reshape(np.shape(z))


def exact_lu_stability(M, z):
    """``R(z)`` of the rounded ``T1_C`` and ``C_alpha`` in exact rational arithmetic."""
    op = build_operator(M)
    n = M + 1
    z = Fraction(z)
    c = [sum(map(Fraction, column)) for column in op.C_alpha.T.tolist()]
    rows = [[int(i == j) + z * Fraction(v) for j, v in enumerate(row)] + [Fraction(1)]
            for i, row in enumerate(op.T1_C.tolist())]
    for k in range(n):  # exact elimination without pivoting: a zero pivot would raise
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return 1 - z * sum(ci * xi for ci, xi in zip(c, x))


DATA = os.path.join(os.path.dirname(__file__), "data")
WIDE_Z = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 400)))


def norsett_D(M):
    """Integer coefficients, lowest power first, of ``D(z) = sum_j 2**(s-j)
    T_s^(s-j)(1) z**j`` with ``s = M + 1``: ``R(z) = D(-z) / D(z)`` for the
    decay equation.  ``T_s`` comes from the three-term recurrence on integer
    power-basis coefficients and its derivatives by differentiating them."""
    s = M + 1
    prev, T = [1], [0, 1]
    for _ in range(s - 1):
        prev, T = T, [2 * a - b for a, b in itertools.zip_longest([0] + T, prev, fillvalue=0)]
    at_one = []  # T_s^(k)(1), k = 0 .. s
    for _ in range(s + 1):
        at_one.append(sum(T))
        T = [n * c for n, c in enumerate(T)][1:]
    return [2 ** (s - j) * at_one[s - j] for j in range(s + 1)]


class TestCollocationProduct:
    """The closed-form collocation ``R(z)`` of ``stability`` against exact
    values of the formula and against LU solves of the collocation systems."""

    @pytest.mark.parametrize("M", [*range(52), 100, 164, 256])
    def test_matches_exact_formula(self, M):
        zs = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 97)))
        R = stability(PropagatorSpec.chebyshev_gauss(M), zs)
        D = norsett_D(M)
        for z, got in zip(zs.tolist(), R.tolist()):
            # d**s D(-n/d) and d**s D(n/d) for z = n/d, by Horner in integers.
            n, d = z.as_integer_ratio()
            minus = plus = 0
            for k, c in enumerate(reversed(D)):
                minus, plus = minus * -n + c * d**k, plus * n + c * d**k
            assert abs(Fraction(got) - Fraction(minus, plus)) <= 4.5e-16, z

    @pytest.mark.parametrize("M", range(52))
    def test_matches_lu_reference(self, M):
        R = stability(PropagatorSpec.chebyshev_gauss(M), WIDE_Z)
        assert np.abs(R - lu_stability(M, WIDE_Z)).max() <= 2e-13

    @pytest.mark.parametrize("M", [100, 164, 256])
    def test_matches_lu_reference_at_large_counts(self, M):
        R = stability(PropagatorSpec.chebyshev_gauss(M), WIDE_Z)
        assert np.abs(R - lu_stability(M, WIDE_Z)).max() <= 1e-12

    @pytest.mark.parametrize("M", range(4))
    def test_matches_exact_lu_of_the_rounded_operator(self, M):
        zs = np.geomspace(1e-8, 1e8, 33)
        R = stability(PropagatorSpec.chebyshev_gauss(M), zs)
        for z, got in zip(zs.tolist(), R.tolist()):
            assert abs(Fraction(got) - exact_lu_stability(M, z)) <= 2e-15, z

    @pytest.mark.parametrize("M", [0, 1])
    def test_closed_forms_within_an_ulp(self, M):
        # Against R exactly, the closed form is within 1.5 units in the
        # last place of 1 at every z, and its largest error over the grid is
        # below the LU solves' (0.7 and 0.9 units against 2.8 and 4.8).
        zs = np.geomspace(1e-8, 1e8, 801)
        R = stability(PropagatorSpec.chebyshev_gauss(M), zs)
        lu = lu_stability(M, zs)
        worst = worst_lu = 0
        for z, got, ref in zip(zs.tolist(), R.tolist(), lu.tolist()):
            x = Fraction(z)
            exact = (2 - x) / (2 + x) if M == 0 else ((4 - x) / (4 + x)) ** 2
            error = abs(Fraction(got) - exact)
            assert error <= 1.5 * np.finfo(float).eps, z
            worst, worst_lu = max(worst, error), max(worst_lu, abs(Fraction(ref) - exact))
        assert worst < worst_lu

    @pytest.mark.parametrize("M", range(52))
    def test_zeros_are_the_negated_poles(self, M):
        # The closed form has R(-z) R(z) = 1, the symmetry of the CG nodes;
        # the LU solves, which do not assume it, show it on the rounded
        # operator (every pole has |z| >= 2).
        zs = np.geomspace(1e-3, 1.0, 9)
        assert np.abs(lu_stability(M, zs) * lu_stability(M, -zs) - 1.0).max() <= 1e-14

    def test_golden_tables_match_lu_reference(self, monkeypatch):
        # The committed tables, written by the closed form, stay within
        # 5e-14 of the LU solves in R, and within that bound carried
        # through K(z) = |R - 1/(1+z)| / (1 - 1/(1+z)) in K.
        with open(os.path.join(DATA, "analyze_golden.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        table = np.array(rows[1:], dtype=float)
        zs = table[:, 0]
        checked = 0
        for j, name in enumerate(rows[0]):
            if name.startswith("absR_cg_m"):
                R = lu_stability(int(name[len("absR_cg_m") :]), zs)
                assert np.abs(table[:, j] - np.abs(R)).max() <= 5e-14, name
                K = np.abs(R - 1.0 / (1.0 + zs)) / (1.0 - 1.0 / (1.0 + zs))
                assert (np.abs(table[:, j + 1] - K) <= 5e-14 * (1 + zs) / zs).all(), rows[0][j + 1]
                checked += 1
        assert checked == 4

        cg = PropagatorKind.CHEBYSHEV_GAUSS
        monkeypatch.setattr(
            analysis, "stability",
            lambda spec, z: float(lu_stability(spec.count, z)) if spec.kind is cg else stability(spec, z),
        )
        with open(os.path.join(DATA, "mmin_golden.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for row in rows:
            ref = analysis.m_min(float(row["z_max"]))
            assert (int(row["m_min"]), row["branch"]) == (ref.m_min, ref.branch.value)
            assert abs(float(row["condition_value"]) - ref.condition_value) <= 5e-14

    def test_threshold_roots_from_lu_solves(self, monkeypatch):
        # With cg:0 and cg:1 from LU solves, the bisection finds the same
        # thresholds as on the closed forms, within its tolerance.
        closed = analysis.find_threshold_roots()
        counts = []

        def lu(spec, z):
            counts.append(spec.count)
            return float(lu_stability(spec.count, z))

        monkeypatch.setattr(analysis, "stability", lu)
        roots = analysis.find_threshold_roots()
        assert sorted(set(counts)) == [0, 1]
        assert np.abs(np.subtract(roots, closed)).max() <= analysis._ROOT_XTOL
        assert abs(roots[1] - (8.0 + 6.0 * math.sqrt(2.0))) <= 1e-9


def exact_K(D, z):
    """``K(z) = |(1 + z) D(-z) - D(z)| / (z D(z))`` in exact rational arithmetic,
    and ``|Q|(z) / D(z)``, ``Q(z) = ((1 + z) D(-z) - D(z)) / z`` with each
    coefficient taken by its magnitude: the scale of a Horner evaluation's
    rounding error."""
    n, d = z.as_integer_ratio()

    def scaled(coeffs, x):  # d**deg p(x/d), by Horner in integers
        out = 0
        for k, c in enumerate(reversed(coeffs)):
            out = out * x + c * d**k
        return out

    D_neg = [(-1) ** j * c for j, c in enumerate(D)]
    Q = [a + b - c for a, b, c in itertools.zip_longest(D_neg, [0] + D_neg, D, fillvalue=0)]
    assert Q[0] == 0
    at = scaled(D, n)
    return (Fraction(abs((d + n) * scaled(D, -n) - d * at), n * at),
            Fraction(scaled([abs(c) for c in Q[1:]], n), at))


class TestExactCollocationContraction:
    """The collocation K(z) against exact values of Nørsett's closed form.

    Through ``|R - 1/(1+z)| / (1 - 1/(1+z))`` both differences cancel: K
    of cg:1 comes out 122% off at z = 1e-8.  ``|Q(z)| / D(z)`` has nothing to
    cancel at small z.  Near a zero of K, where the terms of Q cancel,
    the error is Horner's, within a unit in the last place of ``|Q|(z) /
    D(z)``: there no floating-point evaluation keeps a relative bound (on a
    dip of cg:164, K(5012) = 5e-5 comes out 2.7e-13 off relative).
    """

    @pytest.mark.parametrize("M", [0, 1, 2, 5, 16, 51])
    def test_small_z(self, M):
        spec, D = PropagatorSpec.chebyshev_gauss(M), norsett_D(M)
        for z in np.geomspace(1e-12, 1e-2, 41).tolist():
            got, (exact, _) = analysis.contraction(spec, z), exact_K(D, z)
            assert abs(Fraction(got) - exact) <= 1e-15 * exact, z

    @pytest.mark.parametrize("M", [0, 1, 5, 16, 51, 164])
    def test_wide_range(self, M):
        zs = np.geomspace(1e-10, 1e8, 181)
        K = analysis.contraction(PropagatorSpec.chebyshev_gauss(M), zs)
        D = norsett_D(M)
        for z, got in zip(zs.tolist(), K.tolist()):
            exact, scale = exact_K(D, z)
            assert abs(Fraction(got) - exact) <= 1e-13 * exact + np.finfo(float).eps * scale, z

    def test_norsett_coefficients(self):
        # R(z) = (2 - z)/(2 + z) and ((4 - z)/(4 + z))**2 for one and two points.
        assert norsett_D(0) == [2, 1] and norsett_D(1) == [16, 8, 1]


class TestSpecPlumbing:
    def test_parse_round_trip(self):
        spec = parse_spec("cg:6")
        assert spec.kind is PropagatorKind.CHEBYSHEV_GAUSS and spec.count == 6
        spec = parse_spec("beuler:4")
        assert spec.kind is PropagatorKind.BACKWARD_EULER and spec.count == 4
        assert parse_spec("tr:2").label == "tr_j2"
        assert parse_spec("cg:0").label == "cg_m0"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_spec("rk45:3")

    @pytest.mark.parametrize("text", ["feuler:2", "erk4:1", "trbdf2:1"])
    def test_parse_rejects_the_kinds_no_experiment_runs(self, text):
        # The paper's comparison runs cg, tr and beuler, and kepler-compare
        # adds gauss4: no other kind parses.
        assert [k.value for k in PropagatorKind] == ["beuler", "tr", "gauss4", "cg"]
        with pytest.raises(ValueError, match=r"unknown propagator .* \(expected one of beuler, tr, gauss4, cg\)$"):
            parse_spec(text)

    @pytest.mark.parametrize("text", ["beuler:x", "cg:2.5"])
    def test_parse_rejects_non_integer_count(self, text):
        with pytest.raises(ValueError, match=f"'{text}'.*not an integer"):
            parse_spec(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PropagatorSpec.backward_euler(0)
        with pytest.raises(ValueError):
            PropagatorSpec.chebyshev_gauss(-1)

    def test_kind_derived_defaults(self):
        assert parse_spec("cg") == PropagatorSpec.chebyshev_gauss(0)
        assert PropagatorSpec.backward_euler(2) == parse_spec("beuler:2")
        assert (parse_spec("cg").count, parse_spec("beuler").count) == (0, 1)
        for kind in PropagatorKind:
            assert PropagatorSpec(kind) == parse_spec(kind.value)

    @pytest.mark.parametrize("kind", list(PropagatorKind), ids=lambda k: k.value)
    def test_count_below_the_kind_minimum_rejected(self, kind):
        least = 0 if kind is PropagatorKind.CHEBYSHEV_GAUSS else 1
        assert PropagatorSpec(kind, least).count == least
        with pytest.raises(ValueError, match=f"{kind.value} count must be >= {least}"):
            PropagatorSpec(kind, least - 1)

    def test_spec_is_kind_count_and_limits(self):
        # A spec is its kind and count; the limits of its inner iterations
        # are constants of the module that iterates.
        assert [f.name for f in dataclasses.fields(PropagatorSpec)] == ["kind", "count"]
        assert (propagators._NEWTON_TOL, propagators._NEWTON_MAX_ITER) == (1e-12, 25)
        assert (collocation._PICARD_TOL, collocation._PICARD_MAX_ITER) == (1e-12, 100)

    def test_limits_reach_the_picard_sweeps(self, monkeypatch):
        # u' = -u over dT = 0.5 with 9 nodes takes more than 3 sweeps to
        # settle to 1e-12; a loose stop ends the same sweeps early.
        f, u = decay(1.0), np.array([1.0])
        tight = advance(parse_spec("cg:8"), f, 0.0, u, 0.5)
        monkeypatch.setattr(collocation, "_PICARD_MAX_ITER", 3)
        with pytest.raises(NonConvergenceError, match="fixed-point sweep did not converge in 3 iterations"):
            advance(parse_spec("cg:8"), f, 0.0, u, 0.5)
        monkeypatch.setattr(collocation, "_PICARD_MAX_ITER", 100)
        monkeypatch.setattr(collocation, "_PICARD_TOL", 1e-4)
        loose = advance(parse_spec("cg:8"), f, 0.0, u, 0.5)
        np.testing.assert_array_equal(loose, collocation.solve_nonlinear(f, cg_points(8, 0.0, 0.5), u).u_end)
        assert not np.array_equal(loose, tight)

    def test_each_limit_has_one_source(self, monkeypatch):
        # The stop and the cap of each inner iteration are constants of the
        # module that iterates, read at each call: Newton's (25 updates) for
        # the cold steps of every one-step kind, warm_step and settles, and
        # Picard's (100 sweeps) for cg.
        one, five = np.array([1.0]), np.array([5.0])

        def rootless(t, u):  # the stage equation x = 1 + x**2 + 1 has no real root
            return u**2 + 1.0

        def warm(f, u, dT):
            # warm_step without an inverse from the cold step's start, the
            # explicit Euler predictor: the cold step's stage solve.
            x, failures = propagators.warm_step(f, 0.0, u + dT * f(0.0, u), u, dT, None)
            if failures:
                raise failures[0]
            return x

        def stalls(newton, picard):
            for step in (
                lambda: advance(parse_spec("beuler:1"), rootless, 0.0, one, 1.0),
                lambda: advance(parse_spec("gauss4:1"), rootless, 0.0, one, 1.0),
                lambda: warm(rootless, one, 1.0),
            ):
                with pytest.raises(NonConvergenceError, match=f"Newton stage solve did not converge in {newton} "):
                    step()
            # u' = -8 u over dT = 1 on 9 nodes: the sweeps contract too slowly for 100.
            with pytest.raises(NonConvergenceError, match=f"fixed-point sweep did not converge in {picard} "):
                advance(parse_spec("cg:8"), decay(8.0), 0.0, one, 1.0)

        def stops():
            # The cubic step from 5 over dT = 10 takes all 25 updates, cold
            # or warm; the decay step's stage solution is 1/2, and 1e-6 off
            # it the residual is 2e-6; u' = -u over 0.5 takes more sweeps
            # than a loose stop.
            cold = advance(parse_spec("beuler:1"), cubic, 0.0, five, 10.0)
            np.testing.assert_array_equal(warm(cubic, five, 10.0), cold)
            near = propagators.settles(decay(1.0), 0.0, np.array([[0.5 + 1e-6]]), np.array([[1.0]]), 1.0)
            picard = advance(parse_spec("cg:8"), decay(1.0), 0.0, one, 0.5)
            return cold, bool(near[0]), picard

        stalls(25, 100)
        cold, near, picard = stops()
        assert not near
        monkeypatch.setattr(propagators, "_NEWTON_TOL", 1e-5)
        monkeypatch.setattr(collocation, "_PICARD_TOL", 1e-4)
        loose, near, loose_picard = stops()
        assert near and loose[0] != cold[0] and abs(10.0 * loose[0] ** 3 + loose[0] - 5.0) <= 1e-5 * (1.0 + abs(loose[0]))
        assert loose_picard[0] != picard[0]
        monkeypatch.setattr(propagators, "_NEWTON_MAX_ITER", 3)
        monkeypatch.setattr(collocation, "_PICARD_MAX_ITER", 3)
        stalls(3, 3)


def test_stage_identity_is_built_once_and_read_only():
    eye = _identity(4)
    assert _identity(4) is eye
    np.testing.assert_array_equal(eye, np.eye(4))
    with pytest.raises(ValueError, match="read-only"):
        eye[0, 0] = 2.0


#: The numpy internals the fast paths import, each with a public fallback.
PRIVATE_NUMPY = [
    ("numpy._core.multiarray", "count_nonzero"),
    ("numpy._core.umath", "_extobj_contextvar"),
    ("numpy._core.umath", "_make_extobj"),
    ("numpy.linalg._umath_linalg", "solve1"),
]

# Hides PRIVATE_NUMPY while paracheb is imported, then runs Burgers from the
# coarse sweep and from random starts (Newton steps throughout) and prints
# each run's k and table.
_FALLBACK_RUN = """
import importlib, json, sys
import numpy as np
hidden = []
for path, name in json.loads(sys.argv[1]):
    try:
        module = importlib.import_module(path)
    except ImportError:
        continue
    if hasattr(module, name):
        hidden.append((module, name, getattr(module, name)))
        delattr(module, name)
from paracheb import BurgersProblem, PararealConfig, collocation, parse_spec, propagators, run
for module, name, value in hidden:
    setattr(module, name, value)
assert collocation.count_nonzero is np.count_nonzero and propagators.count_nonzero is np.count_nonzero
assert not hasattr(propagators, "_SOLVE_ERRORS")
prob = BurgersProblem(0.05, 8, T=0.5).to_ivp()
out = []
for init in ("coarse", "random"):
    cfg = PararealConfig(N=16, fine=parse_spec("cg:4"), init=init)
    u, history = run(cfg, prob)
    out.append([len(history), u.tolist()])
print(json.dumps(out))
"""


def test_public_numpy_fallbacks_keep_the_iteration_counts():
    # In a process whose numpy lacks the internal names, count_nonzero and
    # the Newton solve fall back to np.count_nonzero and np.linalg.solve,
    # and a Burgers run keeps its k and its bits (the same LAPACK call);
    # here, where numpy has them, the fast paths are the ones imported.
    src = os.path.dirname(os.path.dirname(propagators.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _FALLBACK_RUN, json.dumps(PRIVATE_NUMPY)],
        env=env, capture_output=True, text=True, check=True,
    )
    fallback = json.loads(proc.stdout.splitlines()[-1])
    prob = BurgersProblem(0.05, 8, T=0.5).to_ivp()
    for init, (k, table) in zip(("coarse", "random"), fallback):
        cfg = PararealConfig(N=16, fine=parse_spec("cg:4"), init=init)
        u, history = run(cfg, prob)
        assert k == len(history)
        np.testing.assert_array_equal(table, u)
    modules = {path: importlib.import_module(path) for path, _ in PRIVATE_NUMPY}
    if hasattr(modules["numpy._core.multiarray"], "count_nonzero"):
        assert collocation.count_nonzero is modules["numpy._core.multiarray"].count_nonzero
    if all(hasattr(modules[path], name) for path, name in PRIVATE_NUMPY[1:]):
        assert hasattr(propagators, "_SOLVE_ERRORS")
