import dataclasses
import math

import numpy as np
import pytest

from paracheb import (
    BurgersProblem,
    ConvergenceRecord,
    IvpProblem,
    KeplerProblem,
    LinearRhs,
    NonConvergenceError,
    NonFiniteRhsError,
    MaxIterationsError,
    PararealConfig,
    PropagatorKind,
    PropagatorSpec,
    SingularSystemError,
    SweepError,
    initialize,
    iterate,
    run,
    parse_spec,
    spd_catalog,
)
from paracheb import advance, parareal
from paracheb.analysis import contraction
from paracheb.parareal import _make_stepper
from paracheb.propagators import stage_inverses
from warm_start import record_row_steps, warm_advance

BE = PropagatorSpec.backward_euler(1)


def diag_problem(T=1.0):
    return spd_catalog("diag-spectrum", m=3, lambda_min=1.0, lambda_max=100.0, T=T).to_ivp()


def infinite_inside(dT):
    """A right-hand side ``-u``, infinite above ``u = 0.5`` at every time
    strictly inside a subinterval of length ``dT``: the backward Euler
    coarse step, which evaluates it at the grid points only, never fails."""

    def f(t, u):
        r = np.asarray(t) / dT
        return np.where((u > 0.5) & (np.abs(r - np.round(r)) > 1e-9), np.inf, -u)

    return f


def serial_trajectory(spec, problem, N, dT):
    step = _make_stepper(spec, problem, dT)
    u = np.empty((N + 1, problem.dim))
    u[0] = problem.u0
    for n in range(N):
        u[n + 1] = step(n * dT, u[n])
    return u


def reference_run(cfg, problem):
    """``run`` without the fine reuse, the reference for it: every pass
    recomputes every fine step, in one stack of all ``N`` rows.  The coarse
    rule is the one ``iterate`` states: a start value with unchanged bits
    returns ``g_prev[n]``, a changed one is stepped from the cached step,
    from ``u[n]`` to ``g_prev[n]``, with the inverse stage matrix at the
    initial sweep's result: its start is the linearized predictor, tested
    before any chord update."""
    state = initialize(cfg, problem)
    dT = problem.T / cfg.N
    fine = _make_stepper(cfg.fine, problem, dT)
    times = np.arange(cfg.N) * dT
    u, g_prev, history = state.u, state.g_prev, []
    inverse = stage_inverses(problem.f, times, g_prev, dT, jac=problem.jacobian)
    for k in range(1, cfg.max_k + 1):
        fine_results = fine(times, u[: cfg.N])
        u_new = u.copy()
        g_new = g_prev.copy()
        for n in range(cfg.N):
            if u_new[n].tobytes() != u[n].tobytes():
                g_new[n] = warm_advance(parareal.COARSE, problem.f, times[n], u_new[n], dT, g_prev[n], u[n],
                                        inverse[n], problem.jacobian)
            u_new[n + 1] = fine_results[n] + (g_new[n] - g_prev[n])
        iter_error = float(np.max(np.abs(u_new - u)))
        component_error = None
        if state.ref_table is not None:
            component_error = tuple(np.max(np.abs(u_new - state.ref_table), axis=0).tolist())
        history.append(ConvergenceRecord(k, iter_error, component_error))
        u, g_prev = u_new, g_new
        if iter_error <= cfg.tol:
            return u, history
    raise MaxIterationsError("no convergence", history)


@pytest.fixture
def advance_calls(monkeypatch):
    """``(spec, rows)`` of each ``advance`` call that parareal makes."""
    calls = []
    advance = parareal.advance

    def counting(spec, f, t, u, *args, **kwargs):
        calls.append((spec, len(u) if np.ndim(u) == 2 else 1))
        return advance(spec, f, t, u, *args, **kwargs)

    monkeypatch.setattr(parareal, "advance", counting)
    return calls


@pytest.fixture
def warm_steps(monkeypatch):
    """``(spec, rows)`` of each ``warm_step`` call of parareal's correction:
    one state from its predictor, or without an inverse one state alone
    or several runs as a stack."""
    calls = []
    warm_step = parareal.warm_step

    def counting(spec, f, t, x, *args):
        calls.append((spec, len(x) if np.ndim(x) == 2 else 1))
        return warm_step(spec, f, t, x, *args)

    monkeypatch.setattr(parareal, "warm_step", counting)
    return calls


@pytest.fixture
def row_steps(monkeypatch):
    """``(spec, rows)`` of each row step of parareal's correction, a
    ``_warm_steps`` call from ``_correct``."""
    return record_row_steps(monkeypatch)


@pytest.fixture
def checks(monkeypatch):
    """``(rows, kept)`` of each stacked ``settles`` call of parareal's
    correction: the steps it tests at their predictors, and those the table
    keeps, every one before the first row with a step that does not
    settle."""
    calls = []
    settles = parareal.settles

    def counting(spec, f, t, x, u, dT):
        ok = settles(spec, f, t, x, u, dT)
        t = np.ravel(t)
        missed = t[~ok]
        calls.append((len(x), int(np.count_nonzero(t < missed.min())) if len(missed) else len(x)))
        return ok

    monkeypatch.setattr(parareal, "settles", counting)
    return calls


def coarse_rows(calls, checks, warm):
    """``(calls, rows)`` of the backward Euler steps in ``calls``, ``checks``
    and ``warm``: each ``advance`` call, each stacked check and each warm
    step is a call, and its rows, or the check's kept rows, are steps."""
    coarse = [rows for spec, rows in calls + warm if spec == BE]
    return len(coarse) + len(checks), sum(coarse) + sum(kept for _, kept in checks)


class TestInitialize:
    def test_single_interval(self):
        prob = diag_problem(T=0.3)
        cfg = PararealConfig(N=1, fine=PropagatorSpec.chebyshev_gauss(4))
        state = initialize(cfg, prob)
        expected = _make_stepper(BE, prob, 0.3)(0.0, prob.u0)
        np.testing.assert_array_equal(state.u[0], prob.u0)
        np.testing.assert_array_equal(state.u[1], expected)

    def test_zero_rhs_keeps_initial_state(self):
        prob = IvpProblem(f=lambda t, u: 0.0 * u, u0=np.array([1.0, -2.0]), T=1.0)
        cfg = PararealConfig(N=5, fine=PropagatorSpec.gauss4(2))
        state = initialize(cfg, prob)
        np.testing.assert_array_equal(state.u, np.tile(prob.u0, (6, 1)))

    def test_coarse_sweep_matches_resolvent_powers(self):
        prob = diag_problem(T=0.4)
        cfg = PararealConfig(N=4, fine=PropagatorSpec.chebyshev_gauss(4))
        state = initialize(cfg, prob)
        A = np.diag([1.0, 10.0, 100.0])
        resolvent = np.linalg.inv(np.eye(3) + 0.1 * A)
        for n in range(5):
            expected = np.linalg.matrix_power(resolvent, n) @ prob.u0
            np.testing.assert_allclose(state.u[n], expected, atol=1e-12)

    def test_random_policy_is_seeded(self):
        prob = diag_problem()
        cfg = lambda seed: PararealConfig(
            N=6, fine=PropagatorSpec.chebyshev_gauss(4), init="random", seed=seed
        )
        a = initialize(cfg(7), prob)
        b = initialize(cfg(7), prob)
        c = initialize(cfg(8), prob)
        np.testing.assert_array_equal(a.u, b.u)
        assert not np.array_equal(a.u, c.u)
        np.testing.assert_array_equal(a.u[0], prob.u0)
        assert np.all(np.abs(a.u[1:]) <= 1.0)


    @pytest.mark.parametrize("init, calls", [("coarse", [1] * 6), ("random", [6])], ids=["coarse", "random"])
    def test_initial_sweep_passes_the_coarse_spec_to_advance(self, advance_calls, init, calls):
        # The benchmark's tracer labels an advance call as coarse when its
        # spec equals beuler:1: that is the coarse propagator, and the spec
        # of every cold step of the initial sweep, one single-state call per
        # subinterval from the coarse sweep, one stacked call from random
        # starts.
        assert parareal.COARSE == parse_spec("beuler:1")
        cfg = PararealConfig(N=6, fine=PropagatorSpec.chebyshev_gauss(4), init=init, seed=7)
        initialize(cfg, BurgersProblem(0.05, 8, T=0.5).to_ivp())
        assert advance_calls == [(parse_spec("beuler:1"), rows) for rows in calls]

    def test_random_policy_takes_one_stacked_coarse_call(self, advance_calls):
        # The drawn values do not depend on each other: one cold stacked
        # step, each row within the Newton stop of its single-state step.
        prob = diag_problem()
        cfg = PararealConfig(N=6, fine=PropagatorSpec.chebyshev_gauss(4), init="random", seed=7)
        state = initialize(cfg, prob)
        assert advance_calls == [(BE, 6)]
        dT = prob.T / cfg.N
        coarse = _make_stepper(BE, prob, dT)
        for n in range(cfg.N):
            alone = coarse(n * dT, state.u[n])
            np.testing.assert_allclose(state.g_prev[n], alone, rtol=0, atol=BE.tol * (1.0 + np.abs(alone).max()))

    def test_random_policy_raises_the_lowest_failing_subinterval(self):
        # f is infinite above 0.5, so every coarse step from a drawn value
        # above 0.5 fails; the stack raises the lowest one's own error.
        prob = IvpProblem(f=lambda t, u: np.where(u > 0.5, np.inf, -u), u0=np.zeros(1), T=1.0)
        cfg = PararealConfig(N=12, fine=parse_spec("cg:4"), init="random", seed=4)
        drawn = np.random.default_rng(4).uniform(-1.0, 1.0, size=(12, 1))
        failing = [n for n in range(1, 12) if drawn[n - 1, 0] > 0.5]
        assert len(failing) > 1
        with np.errstate(invalid="ignore"), pytest.raises(NonConvergenceError) as err:
            initialize(cfg, prob)
        assert not isinstance(err.value, SweepError)
        assert (err.value.run, err.value.subinterval, err.value.k) == (0, failing[0], 0)
        assert str(err.value).startswith(f"coarse step on subinterval {failing[0]} in pass 0: Newton stage solve")


class TestIterate:
    def test_identical_propagators_telescope(self):
        # With the coarse propagator as the fine one, the initial sweep is
        # the serial fine trajectory: the first pass changes no start value
        # and reproduces it bit for bit.
        prob = diag_problem(T=0.5)
        cfg = PararealConfig(N=5, fine=parareal.COARSE)
        state = initialize(cfg, prob)
        state = iterate(state, cfg, prob)
        np.testing.assert_array_equal(state.u, serial_trajectory(parareal.COARSE, prob, 5, 0.1))
        assert state.history[-1].iter_error == 0.0

    def test_first_interval_exact_after_one_pass(self):
        prob = IvpProblem(
            f=lambda t, u: -2.0 * u,
            u0=np.array([1.0]),
            T=1.0,
            linear=LinearRhs(np.array([[2.0]])),
        )
        fine = PropagatorSpec.chebyshev_gauss(8)
        cfg = PararealConfig(N=2, fine=fine)
        state = iterate(initialize(cfg, prob), cfg, prob)
        direct = _make_stepper(fine, prob, 0.5)(0.0, prob.u0)
        np.testing.assert_array_equal(state.u[1], direct)

    def test_prefix_exactness(self):
        # After k passes the first k grid values equal the serial fine run,
        # bit for bit: the stacked and the one-state collocation solves agree.
        prob = diag_problem(T=0.06)
        fine = PropagatorSpec.chebyshev_gauss(8)
        cfg = PararealConfig(N=6, fine=fine)
        fine_serial = serial_trajectory(fine, prob, 6, 0.01)
        state = initialize(cfg, prob)
        for k in range(1, 7):
            state = iterate(state, cfg, prob)
            np.testing.assert_array_equal(state.u[: k + 1], fine_serial[: k + 1])

    def test_prefix_exactness_nonlinear(self):
        prob = IvpProblem(f=lambda t, u: -(u**2), u0=np.array([1.0]), T=1.0)
        fine = PropagatorSpec.chebyshev_gauss(10)
        cfg = PararealConfig(N=4, fine=fine)
        fine_serial = serial_trajectory(fine, prob, 4, 0.25)
        state = initialize(cfg, prob)
        for k in range(1, 5):
            state = iterate(state, cfg, prob)
            np.testing.assert_array_equal(state.u[: k + 1], fine_serial[: k + 1])

    @pytest.mark.parametrize(
        "prob, fine, init",
        [
            (spd_catalog("laplacian-1d", m=8, T=0.5).to_ivp(), "cg:6", "random"),
            (BurgersProblem(0.05, 8, T=0.5).to_ivp(), "cg:8", "coarse"),
            (KeplerProblem(T=5.0).to_ivp(), "gauss4:2", "coarse"),
            (spd_catalog("laplacian-1d", m=8, T=0.5).to_ivp(), "tr:2", "random"),
        ],
        ids=["linear", "picard", "gauss4", "linear-tr2"],
    )
    def test_prefix_exactness_bit_for_bit(self, prob, fine, init):
        # The rows the next pass reuses are exactly these: every pass leaves
        # one more grid value on the serial fine trajectory.
        cfg = PararealConfig(N=8, fine=parse_spec(fine), init=init, seed=2)
        fine_serial = serial_trajectory(cfg.fine, prob, 8, prob.T / 8)
        state = initialize(cfg, prob)
        for k in range(1, 9):
            state = iterate(state, cfg, prob)
            np.testing.assert_array_equal(state.u[: k + 1], fine_serial[: k + 1])

    def test_cached_coarse_agrees_with_recomputation(self):
        # The correction subtracts g_prev[n], so it must be exactly the
        # coarse step that pass took from the current iterate u[n],
        # whichever way the pass-0 table was filled: cold in pass 0, then
        # chord steps from the last pass's cached step (or its result
        # itself where u[n] kept its bits), with the inverse stage matrices
        # at the pass-0 results.  A cold step from u[n] lands within the
        # Newton stop of it.
        prob = diag_problem(T=0.5)
        for init in ("coarse", "random"):
            cfg = PararealConfig(
                N=5, fine=PropagatorSpec.chebyshev_gauss(6), init=init
            )
            dT = prob.T / cfg.N
            coarse = _make_stepper(BE, prob, dT)
            state = initialize(cfg, prob)
            for n in range(cfg.N):
                np.testing.assert_array_equal(state.g_prev[n], coarse(n * dT, state.u[n]))
            inverse = stage_inverses(prob.f, np.arange(cfg.N) * dT, state.g_prev, dT, jac=prob.jacobian)
            np.testing.assert_array_equal(state.stage_inv, inverse)
            for k in range(3):
                u_old, g_old = state.u.copy(), state.g_prev.copy()
                state = iterate(state, cfg, prob)
                for n in range(cfg.N):
                    warm = g_old[n]
                    if state.u[n].tobytes() != u_old[n].tobytes():
                        warm = warm_advance(BE, prob.f, n * dT, state.u[n], dT, g_old[n], u_old[n], inverse[n],
                                            prob.jacobian)
                    np.testing.assert_array_equal(state.g_prev[n], warm)
                    cold = coarse(n * dT, state.u[n])
                    stop = BE.tol * (1.0 + np.abs(cold).max())
                    assert np.abs(state.g_prev[n] - cold).max() <= stop

    def test_failing_fine_subinterval_reported(self):
        # One collocation node with z = 5 puts the fixed-point sweep far
        # outside its convergence region on every subinterval.
        prob = IvpProblem(f=lambda t, u: -5.0 * u, u0=np.array([1.0]), T=2.0)
        cfg = PararealConfig(N=2, fine=PropagatorSpec.chebyshev_gauss(0))
        state = initialize(cfg, prob)
        with pytest.raises(SweepError) as err:
            iterate(state, cfg, prob)
        assert err.value.indices == [0, 1]

    @pytest.mark.parametrize("fine", ["beuler:2", "cg:4"])
    def test_only_failing_rows_reported(self, fine):
        # f is infinite above 0.5 inside the subintervals, so exactly the
        # fine steps from the random starts above 0.5 fail: the midpoint of
        # beuler:2 and every CG node are interior.  The backward Euler
        # coarse step evaluates f at the grid points only, and never fails.
        prob = IvpProblem(f=infinite_inside(1.0 / 12), u0=np.zeros(1), T=1.0)
        cfg = PararealConfig(N=12, fine=parse_spec(fine), init="random", seed=4)
        with np.errstate(invalid="ignore", over="ignore"):
            state = initialize(cfg, prob)
            expected = [n for n in range(12) if state.u[n, 0] > 0.5]
            assert 0 < len(expected) < 11
            with pytest.raises(SweepError) as err:
                iterate(state, cfg, prob)
        assert err.value.indices == expected
        if fine == "cg:4":
            assert isinstance(err.value.cause, NonFiniteRhsError) and err.value.cause.node == 0
        else:
            assert isinstance(err.value.cause, NonConvergenceError)

    def test_call_wide_fine_error_keeps_its_type(self):
        # A non-symmetric A is rejected for the whole problem when its
        # LinearRhs is built, before any step: the error is a ValueError,
        # not a SweepError.
        with pytest.raises(ValueError, match="symmetric") as err:
            LinearRhs(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert not isinstance(err.value, SweepError)

    def test_indefinite_linear_matrix_rejected_for_the_call(self):
        # A negative eigenvalue is outside the collocation solve's domain,
        # for the whole problem: the error comes when its LinearRhs is
        # built, and it is a ValueError, not a SweepError.
        with pytest.raises(ValueError, match="positive semidefinite") as err:
            LinearRhs(np.diag([1.0, -2.0]))
        assert not isinstance(err.value, SweepError)

    def test_singular_coarse_stage_raises_typed_error(self):
        # Backward Euler on u' = u with dT = 1 has the stage matrix 1 - 1 = 0.
        prob = IvpProblem(f=lambda t, u: u, u0=np.array([1.0]), T=2.0)
        cfg = PararealConfig(N=2, fine=PropagatorSpec.chebyshev_gauss(4))
        with pytest.raises(SingularSystemError) as err:
            run(cfg, prob)
        assert (err.value.subinterval, err.value.k) == (0, 0)
        assert str(err.value).startswith("coarse step on subinterval 0 in pass 0: Newton stage matrix is singular")

    def test_coarse_failure_names_a_later_subinterval(self):
        # From uniform [-1, 1] random starts the backward Euler stage
        # equation of this Burgers case has no real solution on subinterval
        # 1; subinterval 0 starts from the smooth initial profile.
        prob = BurgersProblem(0.005, 8).to_ivp()
        cfg = PararealConfig(
            N=8, fine=parse_spec("cg:8"), init="random", seed=1,
        )
        with pytest.raises(NonConvergenceError) as err:
            run(cfg, prob)
        assert (err.value.subinterval, err.value.k) == (1, 0)
        assert str(err.value).startswith("coarse step on subinterval 1 in pass 0: Newton stage solve did not")
        assert err.value.residual > 0.1  # the error's own data is kept

    def test_coarse_failure_names_its_pass(self):
        # A NaN cached coarse value makes the corrected start of subinterval
        # 3 NaN, so the first coarse step to fail is that one, in pass 1.
        prob = diag_problem(T=0.8)
        cfg = PararealConfig(N=8, fine=PropagatorSpec.chebyshev_gauss(4))
        state = initialize(cfg, prob)
        state.g_prev[2] = np.nan
        with pytest.raises(NonConvergenceError, match="^coarse step on subinterval 3 in pass 1: ") as err:
            iterate(state, cfg, prob)
        assert (err.value.subinterval, err.value.k) == (3, 1)


class TestRun:
    def test_zero_rhs_converges_immediately(self):
        prob = IvpProblem(f=lambda t, u: 0.0 * u, u0=np.array([2.0]), T=1.0)
        u, history = run(
            PararealConfig(N=4, fine=PropagatorSpec.gauss4(1)), prob
        )
        assert len(history) == 1
        assert history[0].iter_error == 0.0
        np.testing.assert_array_equal(u, np.full((5, 1), 2.0))

    def test_contraction_rate_on_spd_problem(self):
        # dT = 0.25 puts the largest eigenvalue at z = 25; three interior
        # nodes keep the convergence factor at or below one third.
        prob = diag_problem(T=10.0)
        cfg = PararealConfig(
            N=40, fine=PropagatorSpec.chebyshev_gauss(3),
            tol=1e-10, max_k=60, init="random", seed=7,
        )
        u, history = run(cfg, prob)
        errs = [r.iter_error for r in history]
        assert all(a >= b for a, b in zip(errs[1:], errs[2:]))  # monotone tail
        ratios = [b / a for a, b in zip(errs, errs[1:]) if b > 1e-13]
        window = ratios[2:]
        gmean = math.exp(sum(math.log(r) for r in window) / len(window))
        assert gmean <= 0.35

    @pytest.mark.parametrize(
        "name, params, T, N, fine",
        [
            ("diag-spectrum", dict(m=3, lambda_min=1.0, lambda_max=100.0), 40.0, 40, "cg:5"),
            ("laplacian-1d", dict(m=16), 0.2, 16, "cg:1"),
        ],
        ids=["diag-spectrum", "laplacian-1d"],
    )
    def test_contraction_bound_per_component(self, name, params, T, N, fine):
        # With e^k the error against the serial fine run and R_G = 1/(1+z)
        # the backward Euler factor, each eigencomponent obeys
        #   e^{k+1}_{n+1} = R_G e^{k+1}_n + (R_F - R_G) e^k_n,
        # so every pass shrinks max_n |e_i| by K(lambda_i dT) at least.
        # Slack: the coarse Newton stops at a residual of 1e-12 (1 + |x|),
        # which moves a step's eigencomponents by at most sqrt(m) times that,
        # and rounding adds a few ulps per step; both enter each pass twice
        # and are summed by the factor 1 / (1 - R_G) of the recursion.
        # Error floor: none, every pass and component is compared; where an
        # error is within the slack (1e-11 to 2e-10 here) the slack decides.
        spd = spd_catalog(name, T=T, **params)
        prob = spd.to_ivp()
        cfg = PararealConfig(N=N, fine=parse_spec(fine), init="random", seed=4)
        lam, Q = np.linalg.eigh(spd.A)
        z = lam * (T / N)
        K = np.array([contraction(cfg.fine, zi) for zi in z])
        fine_serial = serial_trajectory(cfg.fine, prob, N, T / N)
        state = initialize(cfg, prob)
        scale = 1.0 + max(np.abs(fine_serial).max(), np.abs(state.u).max())
        step_error = math.sqrt(len(lam)) * 1e-12 * scale + 8 * np.finfo(float).eps * scale
        slack = 2.0 * step_error / (1.0 - 1.0 / (1.0 + z))

        def component_errors(u):
            return np.max(np.abs((u - fine_serial) @ Q), axis=0)

        errors = [component_errors(state.u)]
        while not (state.history and state.history[-1].iter_error <= cfg.tol):
            state = iterate(state, cfg, prob)
            errors.append(component_errors(state.u))
        before, after = np.array(errors[:-1]), np.array(errors[1:])
        assert len(before) > 10
        assert np.all(after <= K * before + slack)
        # The bound is sharp: some pass takes nearly all of it.
        measured = before > 1e-9
        assert np.max(after[measured] / (K * before)[measured]) > 0.9

    def test_history_records_reference_error(self):
        prob = diag_problem(T=0.5)
        u, history = run(
            PararealConfig(N=5, fine=PropagatorSpec.chebyshev_gauss(8)), prob
        )
        assert history[0].abs_error is not None
        ref = np.array([prob.reference(0.1 * n) for n in range(6)])
        assert history[-1].abs_error == pytest.approx(np.max(np.abs(u - ref)), abs=1e-15)
        assert [r.k for r in history] == list(range(1, len(history) + 1))

    def test_component_errors_give_both_kepler_errors(self):
        prob = KeplerProblem(T=5.0).to_ivp()
        cfg = PararealConfig(N=4, fine=PropagatorSpec.chebyshev_gauss(6))
        u, history = run(cfg, prob)
        ref = np.array([prob.reference(1.25 * n) for n in range(5)])
        rec = history[-1]
        assert len(rec.component_error) == 6
        assert rec.abs_error == float(np.max(np.abs(u - ref)))
        # The position-block error of the kepler-compare table, as once computed
        # from the full tables.
        position = float(np.max(np.abs(u[:, :3] - ref[:, :3])))
        assert max(rec.component_error[:3]) == position

    def test_no_component_error_without_reference(self):
        prob = IvpProblem(f=lambda t, u: -u, u0=np.array([1.0, 2.0]), T=1.0)
        cfg = PararealConfig(N=2, fine=PropagatorSpec.chebyshev_gauss(4))
        _, history = run(cfg, prob)
        assert all(r.component_error is None and r.abs_error is None for r in history)

    def test_nan_component_makes_abs_error_nan(self):
        rec = ConvergenceRecord(k=1, iter_error=0.0, component_error=(1.0, math.nan, 2.0))
        assert math.isnan(rec.abs_error)

    def test_initialize_iterate_loop_matches_run(self):
        # The route to a per-pass metric of one's own: loop and read state.u.
        prob = diag_problem(T=2.0)
        cfg = PararealConfig(N=8, fine=PropagatorSpec.chebyshev_gauss(6),
                             init="random", seed=4)
        u, history = run(cfg, prob)
        state = initialize(cfg, prob)
        end_values = []
        while not (state.history and state.history[-1].iter_error <= cfg.tol):
            state = iterate(state, cfg, prob)
            end_values.append(float(state.u[-1, 0]))
        np.testing.assert_array_equal(state.u, u)
        assert state.history == history
        assert len(end_values) == len(history)

    def test_one_fine_call_per_pass(self, advance_calls, checks, warm_steps, monkeypatch):
        # Pass k reuses the k grid values the earlier passes made exact: its
        # coarse steps start from the other 16 - k, each predicted once and
        # kept by a stacked check (a linear problem's predictors are exact),
        # and its one fine call stacks the 17 - k rows whose start value
        # moved in pass k - 1.
        calls = advance_calls
        fine = parse_spec("cg:6")
        prob = spd_catalog("laplacian-1d", m=8, T=2.0).to_ivp()
        cfg = PararealConfig(N=16, fine=fine, init="random", seed=5)
        dT = prob.T / cfg.N
        predicted = []
        predictor = parareal.predictor

        def counting(u, guess, guess_from, inverse):
            # The row whose start value the pass began at guess_from.
            predicted.append([row.tobytes() for row in state.u].index(guess_from.tobytes()))
            return predictor(u, guess, guess_from, inverse)

        monkeypatch.setattr(parareal, "predictor", counting)
        state = initialize(cfg, prob)
        for k in (1, 2, 3):
            calls.clear()
            checks.clear()
            predicted.clear()
            warm_steps.clear()
            state = iterate(state, cfg, prob)
            assert [rows for spec, rows in calls if spec == fine] == [17 - k]
            assert predicted == list(range(k, 16))
            assert coarse_rows(calls, checks, warm_steps)[1] == 16 - k and all(rows == kept for rows, kept in checks)
            assert [spec for spec, _ in calls].count(BE) == 0 and warm_steps == []

    @pytest.mark.parametrize(
        "prob, N, fine, init",
        [
            (spd_catalog("laplacian-1d", m=8, T=0.5).to_ivp(), 16, "cg:6", "random"),
            (diag_problem(T=2.0), 16, "cg:6", "random"),
            (BurgersProblem(0.05, 8, T=0.5).to_ivp(), 8, "cg:8", "coarse"),
            (KeplerProblem(T=5.0).to_ivp(), 8, "gauss4:2", "coarse"),
            (diag_problem(T=0.5), 1, "cg:6", "coarse"),
            (diag_problem(T=0.5), 2, "cg:6", "random"),
        ],
        ids=["laplacian-1d", "diag-spectrum", "burgers", "kepler-gauss4", "N1", "N2"],
    )
    def test_reuse_matches_full_recomputation(self, prob, N, fine, init):
        cfg = PararealConfig(N=N, fine=parse_spec(fine), init=init, seed=3)
        u, history = run(cfg, prob)
        u_ref, history_ref = reference_run(cfg, prob)
        np.testing.assert_array_equal(u, u_ref)
        assert history == history_ref

    def test_warm_start_cuts_coarse_newton_updates(self, warm_steps, monkeypatch):
        # Each coarse step of a pass starts from the cached result plus the
        # change in its start value: fewer Newton updates (one Jacobian
        # each) than from the explicit predictor, in as many passes.  The
        # cold passes take every warm step, which warm_step would start at
        # its predictor, cold from its start value (backward Euler's stage
        # right-hand side).
        jacobians = []
        burgers = BurgersProblem(0.05, 8, T=0.5).to_ivp()

        def jacobian(t, u):
            jacobians.append(len(u))
            return burgers.jacobian(t, u)

        prob = dataclasses.replace(burgers, jacobian=jacobian)
        cfg = PararealConfig(N=16, fine=parse_spec("cg:8"))
        jacobians.clear()
        _, history = run(cfg, prob)
        warm = len(jacobians)
        assert warm_steps

        def cold(spec, f, t, x, u, dT, inverse, jac):
            return advance(spec, f, t, u, dT, jac), {}

        monkeypatch.setattr(parareal, "warm_step", cold)
        jacobians.clear()
        _, history_cold = run(cfg, prob)
        assert len(history) == len(history_cold) > 2
        assert warm < len(jacobians)

    @pytest.mark.parametrize("nu", [0.05, 0.005])
    def test_warm_coarse_steps_call_no_jacobian(self, nu):
        # The initial sweep's Newton solves call the jacobian, and so does
        # the one stacked call that builds every subinterval's inverse stage
        # matrix; each later coarse step takes chord updates with its
        # subinterval's inverse and calls none.
        jacobians = []
        burgers = BurgersProblem(nu, 8, T=0.5).to_ivp()

        def jacobian(t, u):
            jacobians.append(len(u))
            return burgers.jacobian(t, u)

        prob = dataclasses.replace(burgers, jacobian=jacobian)
        cfg = PararealConfig(N=16, fine=parse_spec("cg:8"))
        state = initialize(cfg, prob)
        assert jacobians[-1] == 16
        jacobians.clear()
        while not (state.history and state.history[-1].iter_error <= cfg.tol):
            state = iterate(state, cfg, prob)
        assert state.k >= 2 and jacobians == []

    def test_random_starts_build_inverses_for_linear_problems_only(self):
        # The coarse result from a drawn start tells nothing about the
        # Jacobian where a nonlinear run goes: its coarse steps take Newton
        # updates from their guesses.  A linear problem's Jacobian is the
        # same everywhere, so its chord steps converge as Newton's do.
        burgers = BurgersProblem(0.05, 8, T=0.5).to_ivp()
        for prob, built in ((burgers, False), (diag_problem(T=0.5), True)):
            cfg = PararealConfig(N=8, fine=parse_spec("cg:8"), init="random", seed=3)
            assert (initialize(cfg, prob).stage_inv is not None) is built
            coarse_cfg = dataclasses.replace(cfg, init="coarse")
            assert initialize(coarse_cfg, prob).stage_inv is not None

    def test_singular_pass_0_stage_matrix_falls_back_to_newton(self):
        # u' = -u, with a jacobian that is exactly singular for backward
        # Euler (1/dT) at the pass-0 result of subinterval 2 only: the
        # initial sweep's Newton solves evaluate it at their predictors.
        # That subinterval's inverse comes out NaN, the others are each
        # their own matrix's inverse, and its coarse steps fall back to
        # Newton, which meets the exact Jacobian -1 at its guesses.
        base = IvpProblem(f=lambda t, u: -u, u0=np.ones(1), T=1.0)
        cfg = PararealConfig(N=5, fine=parse_spec("cg:4"))
        dT = base.T / cfg.N
        singular_at = initialize(cfg, base).g_prev[2]

        def jacobian(t, u):
            return np.where(u == singular_at, 1.0 / dT, -1.0)[..., None]

        prob = dataclasses.replace(base, jacobian=jacobian)
        state = initialize(cfg, prob)
        assert np.isnan(state.stage_inv[2]).all()
        for n in (0, 1, 3, 4):
            np.testing.assert_array_equal(state.stage_inv[n], np.linalg.inv(np.eye(1) + dT * np.eye(1)))
        u, history = run(cfg, prob)
        u_ref, history_ref = reference_run(cfg, prob)
        np.testing.assert_array_equal(u, u_ref)
        assert history == history_ref
        assert [len(h) for _, h in (run(cfg, base), (u, history))] == [len(history)] * 2

    def test_singular_pass_0_row_steps_newton_from_the_cached_result_plus_the_change(self):
        # The subinterval without a finite inverse has no predictor: its
        # warm steps take Newton's iteration from g_prev[n] + (u_new[n] -
        # u[n]), with at least one update, as without an inverse.  The
        # others take their predictors.
        base = IvpProblem(f=lambda t, u: -u, u0=np.ones(1), T=1.0)
        cfg = PararealConfig(N=5, fine=parse_spec("cg:4"))
        dT = base.T / cfg.N
        singular_at = initialize(cfg, base).g_prev[2]
        jacobians = []

        def jacobian(t, u):
            jacobians.append(np.ravel(u).tolist())
            return np.where(u == singular_at, 1.0 / dT, -1.0)[..., None]

        prob = dataclasses.replace(base, jacobian=jacobian)
        state = initialize(cfg, prob)
        assert np.isnan(state.stage_inv[2]).all()
        steps = 0
        while not (state.history and state.history[-1].iter_error <= cfg.tol):
            u_old, g_old = state.u.copy(), state.g_prev.copy()
            jacobians.clear()
            state = iterate(state, cfg, prob)
            if state.u[2].tobytes() != u_old[2].tobytes():
                steps += 1
                start = g_old[2] + (state.u[2] - u_old[2])
                newton = warm_advance(BE, prob.f, 2 * dT, state.u[2], dT, start, jac=prob.jacobian)
                np.testing.assert_array_equal(state.g_prev[2], newton)
                assert jacobians and jacobians[0] == start.tolist()
            else:
                assert jacobians == []
        assert steps >= 2

    def test_warm_kepler_coarse_steps_make_one_f_call(self, monkeypatch):
        # The kepler-compare batch: every warm coarse step, of one run or of
        # several, settles at its linearized predictor, so none steps
        # through warm_step, the predictors call nothing, and each chunk of
        # predicted steps costs one stacked f call, the residuals there: no
        # chord update, no Jacobian.  advance takes the initial sweep's cold
        # coarse steps only.
        kepler = KeplerProblem().to_ivp()
        calls = []

        def f(t, u):
            calls.append(("f", len(u)))
            return kepler.f(t, u)

        def jacobian(t, u):
            calls.append(("jacobian", len(u)))
            return kepler.jacobian(t, u)

        prob = dataclasses.replace(kepler, f=f, jacobian=jacobian)
        warm, cold, predicted, verified = [], [], [], []
        advance_, predictor, settles = parareal.advance, parareal.predictor, parareal.settles
        warm_step = parareal.warm_step

        def advancing(spec, f, t, u, *args):
            if spec == BE:
                cold.append(len(u) if np.ndim(u) == 2 else 1)
            return advance_(spec, f, t, u, *args)

        def replaying(spec, *args):
            warm.append(spec)
            return warm_step(spec, *args)

        def predicting(u, *args):
            calls.clear()
            x = predictor(u, *args)
            predicted.append((np.size(u) // u.shape[-1], list(calls)))
            return x

        def verifying(spec, f, t, x, *args):
            calls.clear()
            ok = settles(spec, f, t, x, *args)
            verified.append((len(x), bool(ok.all()), list(calls)))
            return ok

        monkeypatch.setattr(parareal, "advance", advancing)
        monkeypatch.setattr(parareal, "warm_step", replaying)
        monkeypatch.setattr(parareal, "predictor", predicting)
        monkeypatch.setattr(parareal, "settles", verifying)
        cfgs = [
            PararealConfig(N=round(kepler.T / 0.25), fine=parse_spec(fine))
            for fine in ("cg:6", "beuler:6", "tr:6", "gauss4:6")
        ]
        results = run(cfgs, prob)
        assert [len(h) for _, h in results] == [3] * 4
        assert cold == [1] * cfgs[0].N
        assert warm == [] and len(predicted) > 100 and all(made == [] for _, made in predicted)
        assert verified == [(rows, True, [("f", rows)]) for rows, _, _ in verified]
        assert sum(rows for rows, _, _ in verified) == sum(rows for rows, _ in predicted)

    def test_warm_coarse_differences_match_cold_steps(self):
        # The CI Burgers run on 16 subintervals: its warm steps start at
        # their predictors, and each pass's coarse increment G(u_new) -
        # G(u_old) matches that of two cold steps within two Newton stops,
        # tol * (1 + |x|), one for each step, in as many passes as before.
        prob = BurgersProblem(0.05, 8, T=0.5).to_ivp()
        cfg = PararealConfig(N=16, fine=parse_spec("cg:4"))
        dT = prob.T / cfg.N
        cold = _make_stepper(BE, prob, dT)
        state = initialize(cfg, prob)
        worst = 0.0
        while not (state.history and state.history[-1].iter_error <= cfg.tol):
            u_old, g_old = state.u.copy(), state.g_prev.copy()
            state = iterate(state, cfg, prob)
            for n in range(cfg.N):
                if state.u[n].tobytes() != u_old[n].tobytes():
                    new, old = cold(n * dT, state.u[n]), cold(n * dT, u_old[n])
                    stop = BE.tol * (1.0 + max(np.abs(new).max(), np.abs(old).max()))
                    got = state.g_prev[n] - g_old[n]
                    worst = max(worst, np.abs(got - (new - old)).max() / stop)
        assert state.k == 5
        assert 0.0 < worst <= 2.0

    def test_reuse_to_the_end_of_the_table(self, advance_calls, checks, warm_steps):
        # Pass N has one changed start value, stepped alone at its
        # predictor; pass N + 1 has none, so it steps and checks nothing and
        # changes nothing.
        calls = advance_calls
        fine = parse_spec("cg:6")
        prob = diag_problem(T=0.4)
        for N, fine_rows, coarse_steps in [(4, [4, 3, 2, 1, 0], [3, 2, 1, 0, 0]), (1, [1, 0], [0, 0])]:
            cfg = PararealConfig(N=N, fine=fine, init="random", seed=1)
            state = initialize(cfg, prob)
            rows, coarse = [], []
            for _ in range(N + 1):
                calls.clear()
                checks.clear()
                warm_steps.clear()
                state = iterate(state, cfg, prob)
                rows.append(sum(r for spec, r in calls if spec == fine))
                coarse.append(coarse_rows(calls, checks, warm_steps)[1])
                assert BE not in [spec for spec, _ in calls + warm_steps] and (len(checks) > 0) == (coarse[-1] > 0)
            assert (rows, coarse) == (fine_rows, coarse_steps)
            assert state.history[-1].iter_error == 0.0
            np.testing.assert_array_equal(state.u, serial_trajectory(fine, prob, N, prob.T / N))

    def test_reuse_follows_the_table_not_the_pass(self):
        # A start value changed by hand is a changed input: its fine step
        # runs again, and a failure names its subinterval, not its row of
        # the smaller stack.
        def f(t, u):
            return np.where(u > 0.5, np.inf, -u)

        prob = IvpProblem(f=f, u0=np.zeros(1), T=1.0)
        cfg = PararealConfig(N=12, fine=parse_spec("beuler:2"))
        state = iterate(initialize(cfg, prob), cfg, prob)
        assert state.history[-1].iter_error == 0.0
        state.u[5] = 0.9
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(SweepError) as err:
            iterate(state, cfg, prob)
        assert err.value.indices == [5]
        assert str(err.value).startswith("fine propagator failed on subintervals [5]: ")
        assert isinstance(err.value.cause, NonConvergenceError)

    def test_iteration_cap_carries_history(self):
        prob = diag_problem(T=4.0)
        cfg = PararealConfig(
            N=16, fine=PropagatorSpec.chebyshev_gauss(4),
            tol=1e-16, max_k=3,
        )
        with pytest.raises(MaxIterationsError) as err:
            run(cfg, prob)
        assert len(err.value.history) == 3

    def test_config_owns_the_stopping_defaults(self):
        # The CLI passes tol and max_k only when they are set.
        cfg = PararealConfig(N=2, fine=PropagatorSpec.chebyshev_gauss(4))
        assert (cfg.tol, cfg.max_k) == (1e-10, 100)

    def test_config_validation(self):
        fine = PropagatorSpec.chebyshev_gauss(4)
        with pytest.raises(ValueError):
            PararealConfig(N=0, fine=fine)
        with pytest.raises(ValueError):
            PararealConfig(N=2, fine=fine, init="guess")
        # numpy's SeedSequence would reject it only when init="random" draws.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            PararealConfig(N=2, fine=fine, seed=-1)

    @pytest.mark.parametrize(
        "field, build",
        [
            ("N", lambda: PararealConfig(N=2.5, fine=BE)),
            ("max_k", lambda: PararealConfig(N=2, fine=BE, max_k=2.5)),
            ("seed", lambda: PararealConfig(N=2, fine=BE, seed=1.5)),
            ("seed", lambda: PararealConfig(N=2, fine=BE, seed="3")),
            ("count", lambda: PropagatorSpec(PropagatorKind.BACKWARD_EULER, 2.5)),
            ("max_iter", lambda: PropagatorSpec(PropagatorKind.BACKWARD_EULER, 1, max_iter=2.5)),
        ],
        ids=["N", "max_k", "seed", "seed-str", "count", "max_iter"],
    )
    def test_float_counts_rejected_when_built(self, field, build):
        # Each of these counts reaches a range() later; a float failed there.
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            build()

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["T", "tol"])
    def test_config_rejects_nonfinite(self, field, value):
        # The horizon is the problem's, and is rejected where it is set.
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            if field == "T":
                KeplerProblem(T=value).to_ivp()
            else:
                PararealConfig(N=2, fine=PropagatorSpec.chebyshev_gauss(4), tol=value)


class TestBatch:
    """Configs that differ in ``fine`` only run as one batch; each run's solo
    ``run`` is the reference."""

    @pytest.mark.parametrize(
        "prob",
        [
            KeplerProblem(T=5.0).to_ivp(),
            BurgersProblem(0.05, 8, T=0.5).to_ivp(),
            spd_catalog("laplacian-1d", m=24, T=0.1).to_ivp(),
        ],
        ids=["kepler", "burgers", "spd"],
    )
    def test_batch_matches_solo_runs_bit_for_bit(self, advance_calls, checks, row_steps, prob):
        # A row of f does not depend on the rows stacked with it, so a
        # stacked coarse step, or a stacked check of predicted ones, gives
        # each row the bits it gets alone.
        cfgs = [
            PararealConfig(N=8, fine=parse_spec(fine))
            for fine in ("cg:6", "beuler:6", "tr:6", "gauss4:6")
        ]
        solo = []
        for cfg in cfgs:
            advance_calls.clear()
            checks.clear()
            row_steps.clear()
            solo.append((run(cfg, prob), coarse_rows(advance_calls, checks, row_steps)))
        advance_calls.clear()
        checks.clear()
        row_steps.clear()
        batch = run(cfgs, prob)
        assert len(batch) == len(cfgs)
        for (u, history), ((u_solo, history_solo), _) in zip(batch, solo):
            np.testing.assert_array_equal(u, u_solo)
            assert history == history_solo
        # The same coarse steps, less the three repeated initial sweeps, in
        # at most one call (an advance call, a check or a row step) per
        # subinterval and pass.
        calls, rows = coarse_rows(advance_calls, checks, row_steps)
        assert rows == sum(r for _, (_, r) in solo) - 3 * 8
        assert calls <= 8 * (1 + max(len(h) for _, h in batch))
        assert calls < sum(c for _, (c, _) in solo) - 3 * 8

    def test_runs_leave_the_batch_on_convergence(self, advance_calls, checks, warm_steps):
        # These runs take 1, 10, 15 and 17 passes; each returns its own history.
        prob = spd_catalog("diag-spectrum", m=3, lambda_min=1.0, lambda_max=100.0, T=2.0).to_ivp()
        cfgs = [
            PararealConfig(N=16, fine=parse_spec(f))
            for f in ("beuler:1", "beuler:2", "cg:4", "gauss4:1")
        ]
        solo = [run(cfg, prob) for cfg in cfgs]
        assert [len(h) for _, h in solo] == [1, 10, 15, 17]
        advance_calls.clear()
        checks.clear()
        warm_steps.clear()
        batch = run(cfgs, prob)
        for (u, history), (u_solo, history_solo) in zip(batch, solo):
            np.testing.assert_array_equal(u, u_solo)
            assert history == history_solo
        # One initial sweep, then at most one coarse call (an advance call, a
        # check or a warm step) per subinterval and pass.
        assert coarse_rows(advance_calls, checks, warm_steps)[0] <= 16 * (1 + 17)
        # The fine calls: one per live run and pass (the last pass of the
        # 17-pass run has no changed start value left to step).
        fine_calls = [spec for spec, _ in advance_calls if spec != BE]
        assert len(fine_calls) <= 1 + 10 + 15 + 17

    def test_one_config_batch_makes_the_solo_calls(self, advance_calls, warm_steps):
        prob = spd_catalog("laplacian-1d", m=8, T=2.0).to_ivp()
        cfg = PararealConfig(N=16, fine=parse_spec("cg:6"), init="random", seed=5)
        u, history = run(cfg, prob)
        solo_calls = list(advance_calls), list(warm_steps)
        advance_calls.clear()
        warm_steps.clear()
        [(u_batch, history_batch)] = run([cfg], prob)
        assert (advance_calls, warm_steps) == solo_calls
        np.testing.assert_array_equal(u_batch, u)
        assert history_batch == history

    def test_initialize_and_iterate_take_a_batch(self):
        prob = diag_problem(T=2.0)
        cfgs = [PararealConfig(N=8, fine=parse_spec(f), init="random", seed=4)
                for f in ("cg:2", "cg:6")]
        states = initialize(cfgs, prob)
        assert [type(s) for s in states] == [parareal.PararealState] * 2
        np.testing.assert_array_equal(states[0].u, initialize(cfgs[1], prob).u)
        assert states[0].u is not states[1].u
        for _ in range(3):
            states = iterate(states, cfgs, prob)
        for cfg, state in zip(cfgs, states):
            solo = initialize(cfg, prob)
            for _ in range(3):
                solo = iterate(solo, cfg, prob)
            np.testing.assert_array_equal(state.u, solo.u)
            assert state.history == solo.history

    def test_states_that_do_not_share_their_inverses(self):
        # The states of one initialize call share one array of inverse stage
        # matrices, and every coarse stack takes one of its matrices.
        # States from separate calls hold equal copies, and a state without
        # inverses none: a batch of either is rejected before any step.
        prob = BurgersProblem(0.05, 8, T=0.5).to_ivp()
        cfgs = [PararealConfig(N=8, fine=parse_spec(f)) for f in ("cg:4", "cg:6")]
        shared = initialize(cfgs, prob)
        apart = [initialize(cfg, prob) for cfg in cfgs]
        newton = [initialize(cfg, prob) for cfg in cfgs]
        assert shared[0].stage_inv is shared[1].stage_inv and apart[0].stage_inv is not apart[1].stage_inv
        newton[1].stage_inv = None
        for states in (apart, newton):
            before = [s.u.copy() for s in states]
            with pytest.raises(ValueError, match="the states of a batch must share one stage_inv"):
                iterate(states, cfgs, prob)
            for state, u in zip(states, before):
                assert state.k == 0 and state.u.tobytes() == u.tobytes()
        for state in (newton[0], newton[1]):  # alone, each state is a batch of one
            iterate(state, cfgs[0], prob)
        iterate(shared, cfgs, prob)

    def test_a_run_live_alone_in_a_batch_steps_as_its_solo_run(self):
        # Run 0's fine propagator is the coarse one, so its fine results are
        # its initial sweep's coarse results bit for bit: its table never
        # changes and it is never live, while run 1 takes every coarse step
        # of every pass alone, as a single state.  Each table and history
        # is the solo run's, bit for bit.
        prob = BurgersProblem(0.05, 8, T=0.5).to_ivp()
        cfgs = [PararealConfig(N=8, fine=parse_spec(f)) for f in ("beuler:1", "cg:4")]
        solo = [initialize(cfg, prob) for cfg in cfgs]
        shared = initialize(cfgs, prob)
        for _ in range(4):
            solo = [iterate(state, cfg, prob) for state, cfg in zip(solo, cfgs)]
            shared = iterate(shared, cfgs, prob)
        assert [r.iter_error for r in solo[0].history] == [0.0] * 4
        assert all(r.iter_error > 0.0 for r in solo[1].history)
        for state, alone in zip(shared, solo):
            np.testing.assert_array_equal(state.u, alone.u)
            np.testing.assert_array_equal(state.g_prev, alone.g_prev)
            assert state.history == alone.history

    def test_failure_names_its_run_subinterval_and_pass(self):
        # u' = -12 u on dT = 1/4 (z = 3), with f NaN at t = T_4 = 1 for u
        # between 0.002 and 0.0035.  Before the coarse steps of pass 2, no
        # step evaluates f at T_4 in that band: the initial sweep ends there
        # at 1/256, pass 1's coarse steps below 0, and the fine steps of
        # tr:2 at 0.00196 or below (beuler:1 and tr:2 end at T_4; the nodes
        # of cg:4 are interior).  In pass 2 the coarse steps of subinterval
        # 3 start, in one stack, at the predictors 0.00303 (tr:2) and
        # 0.00203 (cg:4), where f is NaN.  The first run (fine equal to
        # coarse) has left after pass 1, so the stack's lower run is run 1
        # of the batch.
        def f(t, u):
            return np.where((t == 1.0) & (u > 0.002) & (u < 0.0035), np.nan, -12.0 * u)

        prob = IvpProblem(f=f, u0=np.ones(1), T=1.0)
        cfgs = [
            PararealConfig(N=4, fine=parse_spec(f)) for f in ("beuler:1", "tr:2", "cg:4")
        ]
        message = "^coarse step on subinterval 3 in pass 2: Newton stage solve produced non-finite values"
        with pytest.raises(NonConvergenceError, match=message) as err:
            run(cfgs, prob)
        assert (err.value.run, err.value.subinterval, err.value.k) == (1, 3, 2)

    def test_lowest_run_of_a_stacked_failure_is_raised(self):
        # Both later runs get a NaN corrected start at subinterval 3 of pass 1,
        # which one stacked coarse call takes.
        prob = diag_problem(T=0.8)
        cfgs = [PararealConfig(N=8, fine=parse_spec(f)) for f in ("cg:2", "cg:4", "cg:6")]
        states = initialize(cfgs, prob)
        for state in states[1:]:
            state.g_prev[2] = np.nan
        with pytest.raises(NonConvergenceError, match="^coarse step on subinterval 3 in pass 1: ") as err:
            iterate(states, cfgs, prob)
        assert (err.value.run, err.value.subinterval, err.value.k) == (1, 3, 1)
        assert not isinstance(err.value, SweepError)

    def test_fine_failure_names_its_run(self):
        # The first run's fine steps, like the coarse steps, evaluate f at
        # the grid points only; the second run's fail at their midpoints.
        prob = IvpProblem(f=infinite_inside(1.0 / 12), u0=np.zeros(1), T=1.0)
        cfgs = [
            PararealConfig(N=12, fine=parse_spec(fine), init="random", seed=4)
            for fine in ("beuler:1", "beuler:2")
        ]
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(SweepError) as err:
            iterate(initialize(cfgs, prob), cfgs, prob)
        assert err.value.run == 1

    def test_iteration_cap_carries_the_failing_runs_history(self):
        # The first run converges in its first pass; the second cannot reach
        # this tolerance in three.
        prob = diag_problem(T=4.0)
        cfgs = [
            PararealConfig(N=16, fine=parse_spec(f), tol=1e-16, max_k=3)
            for f in ("beuler:1", "cg:4")
        ]
        with pytest.raises(MaxIterationsError, match="within 3 iterations") as err:
            run(cfgs, prob)
        with pytest.raises(MaxIterationsError) as solo:
            run(cfgs[1], prob)
        assert err.value.run == 1
        assert err.value.history == solo.value.history
        assert len(err.value.history) == 3

    def test_initial_sweep_failure_belongs_to_run_0(self):
        prob = BurgersProblem(0.005, 8).to_ivp()
        cfgs = [PararealConfig(N=8, fine=parse_spec(f), init="random", seed=1)
                for f in ("cg:8", "cg:4")]
        with pytest.raises(NonConvergenceError) as err:
            run(cfgs, prob)
        assert (err.value.run, err.value.subinterval, err.value.k) == (0, 1, 0)

    @pytest.mark.parametrize(
        "change",
        [
            dict(N=8),
            dict(tol=1e-8),
            dict(init="random"),
            dict(seed=1),
            dict(max_k=5),
        ],
        ids=["N", "tol", "init", "seed", "max_k"],
    )
    def test_configs_may_differ_in_fine_only(self, change):
        prob = diag_problem(T=1.0)
        base = PararealConfig(N=4, fine=parse_spec("cg:2"))
        other = dataclasses.replace(base, fine=parse_spec("cg:4"), **change)
        for call in (lambda: run([base, other], prob), lambda: initialize([base, other], prob)):
            with pytest.raises(ValueError, match="differ in fine only"):
                call()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one config"):
            run([], diag_problem())

    def test_one_state_per_config(self):
        prob = diag_problem(T=1.0)
        cfgs = [PararealConfig(N=4, fine=parse_spec(f)) for f in ("cg:2", "cg:4")]
        states = initialize(cfgs, prob)
        with pytest.raises(ValueError, match="2 states for 1 configs"):
            iterate(states, cfgs[:1], prob)
