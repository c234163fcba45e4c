import math

import numpy as np
import pytest

from paracheb import (
    IvpProblem,
    NonConvergenceError,
    NonFiniteRhsError,
    MaxIterationsError,
    PararealConfig,
    PropagatorSpec,
    SingularSystemError,
    SweepError,
    build_burgers,
    initialize,
    iterate,
    run,
    parse_spec,
    spd_catalog,
)
from paracheb.parareal import _chunks, _make_stepper

BE = PropagatorSpec.backward_euler(1)


def diag_problem(T=1.0):
    return spd_catalog("diag-spectrum", m=3, lambda_min=1.0, lambda_max=100.0, T=T).to_ivp()


def serial_trajectory(spec, problem, N, dT):
    step = _make_stepper(spec, problem, dT)
    u = np.empty((N + 1, problem.dim))
    u[0] = problem.u0
    for n in range(N):
        u[n + 1] = step(n * dT, u[n])
    return u


class TestInitialize:
    def test_single_interval(self):
        prob = diag_problem(T=0.3)
        cfg = PararealConfig(T=0.3, N=1, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4))
        state = initialize(cfg, prob)
        expected = _make_stepper(BE, prob, 0.3)(0.0, prob.u0)
        np.testing.assert_array_equal(state.u[0], prob.u0)
        np.testing.assert_array_equal(state.u[1], expected)

    def test_zero_rhs_keeps_initial_state(self):
        prob = IvpProblem(dim=2, f=lambda t, u: 0.0 * u, u0=np.array([1.0, -2.0]), T=1.0)
        cfg = PararealConfig(T=1.0, N=5, coarse=BE, fine=PropagatorSpec.erk4(2))
        state = initialize(cfg, prob)
        np.testing.assert_array_equal(state.u, np.tile(prob.u0, (6, 1)))

    def test_coarse_sweep_matches_resolvent_powers(self):
        prob = diag_problem(T=0.4)
        cfg = PararealConfig(T=0.4, N=4, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4))
        state = initialize(cfg, prob)
        A = np.diag([1.0, 10.0, 100.0])
        resolvent = np.linalg.inv(np.eye(3) + 0.1 * A)
        for n in range(5):
            expected = np.linalg.matrix_power(resolvent, n) @ prob.u0
            np.testing.assert_allclose(state.u[n], expected, atol=1e-12)

    def test_random_policy_is_seeded(self):
        prob = diag_problem()
        cfg = lambda seed: PararealConfig(
            T=1.0, N=6, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4), init="random", seed=seed
        )
        a = initialize(cfg(7), prob)
        b = initialize(cfg(7), prob)
        c = initialize(cfg(8), prob)
        np.testing.assert_array_equal(a.u, b.u)
        assert not np.array_equal(a.u, c.u)
        np.testing.assert_array_equal(a.u[0], prob.u0)
        assert np.all(np.abs(a.u[1:]) <= 1.0)


class TestIterate:
    def test_identical_propagators_telescope(self):
        prob = diag_problem(T=0.5)
        spec = PropagatorSpec.chebyshev_gauss(6)
        cfg = PararealConfig(T=0.5, N=5, coarse=spec, fine=spec)
        state = initialize(cfg, prob)
        state = iterate(state, cfg, prob)
        np.testing.assert_array_equal(state.u, serial_trajectory(spec, prob, 5, 0.1))
        state = iterate(state, cfg, prob)
        assert state.history[-1].iter_error == 0.0

    def test_first_interval_exact_after_one_pass(self):
        prob = IvpProblem(
            dim=1,
            f=lambda t, u: -2.0 * u,
            u0=np.array([1.0]),
            T=1.0,
            linear=(np.array([[2.0]]), None),
        )
        fine = PropagatorSpec.chebyshev_gauss(8)
        cfg = PararealConfig(T=1.0, N=2, coarse=BE, fine=fine)
        state = iterate(initialize(cfg, prob), cfg, prob)
        direct = _make_stepper(fine, prob, 0.5)(0.0, prob.u0)
        np.testing.assert_array_equal(state.u[1], direct)

    def test_prefix_exactness(self):
        # After k passes the first k grid values equal the serial fine run.
        prob = diag_problem(T=0.06)
        fine = PropagatorSpec.chebyshev_gauss(8)
        cfg = PararealConfig(T=0.06, N=6, coarse=BE, fine=fine)
        fine_serial = serial_trajectory(fine, prob, 6, 0.01)
        state = initialize(cfg, prob)
        for k in range(1, 7):
            state = iterate(state, cfg, prob)
            np.testing.assert_allclose(state.u[: k + 1], fine_serial[: k + 1], atol=1e-12)

    def test_prefix_exactness_nonlinear(self):
        prob = IvpProblem(dim=1, f=lambda t, u: -(u**2), u0=np.array([1.0]), T=1.0)
        fine = PropagatorSpec.chebyshev_gauss(10)
        cfg = PararealConfig(T=1.0, N=4, coarse=BE, fine=fine)
        fine_serial = serial_trajectory(fine, prob, 4, 0.25)
        state = initialize(cfg, prob)
        for k in range(1, 5):
            state = iterate(state, cfg, prob)
            np.testing.assert_allclose(state.u[: k + 1], fine_serial[: k + 1], atol=1e-11)

    def test_cached_coarse_agrees_with_recomputation(self):
        # The correction subtracts g_prev[n], so it must be exactly the
        # coarse step from the current iterate u[n], whichever way the
        # pass-0 table was filled.
        prob = diag_problem(T=0.5)
        for init in ("coarse", "random"):
            cfg = PararealConfig(
                T=0.5, N=5, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(6), init=init
            )
            coarse = _make_stepper(BE, prob, cfg.dT)
            state = initialize(cfg, prob)
            for k in range(4):
                if k > 0:
                    state = iterate(state, cfg, prob)
                for n in range(cfg.N):
                    np.testing.assert_array_equal(state.g_prev[n], coarse(n * cfg.dT, state.u[n]))

    def test_failing_fine_subinterval_reported(self):
        # One collocation node with z = 5 puts the fixed-point sweep far
        # outside its convergence region on every subinterval.
        prob = IvpProblem(dim=1, f=lambda t, u: -5.0 * u, u0=np.array([1.0]), T=2.0)
        cfg = PararealConfig(T=2.0, N=2, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(0))
        state = initialize(cfg, prob)
        with pytest.raises(SweepError) as err:
            iterate(state, cfg, prob)
        assert err.value.indices == [0, 1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # pool threads see the inf rows
    @pytest.mark.parametrize("fine", ["beuler:2", "cg:4"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_only_failing_rows_reported(self, fine, workers):
        # f is infinite above 0.5, so exactly the random starts above 0.5
        # fail; forward Euler as the coarse step carries them silently.
        def f(t, u):
            return np.where(u > 0.5, np.inf, -u)

        prob = IvpProblem(dim=1, f=f, u0=np.zeros(1), T=1.0)
        cfg = PararealConfig(
            T=1.0, N=12, coarse=parse_spec("feuler:1"), fine=parse_spec(fine),
            init="random", seed=4, workers=workers,
        )
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

    def test_singular_coarse_stage_raises_typed_error(self):
        # Backward Euler on u' = u with dT = 1 has the stage matrix 1 - 1 = 0.
        prob = IvpProblem(dim=1, f=lambda t, u: u, u0=np.array([1.0]), T=2.0)
        cfg = PararealConfig(T=2.0, N=2, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4))
        with pytest.raises(SingularSystemError) as err:
            run(cfg, prob)
        assert (err.value.subinterval, err.value.k) == (0, 0)
        assert str(err.value).startswith("coarse step on subinterval 0 in pass 0: Newton stage matrix is singular")

    def test_coarse_failure_names_a_later_subinterval(self):
        # From uniform [-1, 1] random starts the backward Euler stage
        # equation of this Burgers case has no real solution on subinterval
        # 1; subinterval 0 starts from the smooth initial profile.
        prob = build_burgers(0.005, 8).to_ivp()
        cfg = PararealConfig(
            T=prob.T, N=8, coarse=BE, fine=parse_spec("cg:8"), init="random", seed=1,
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
        cfg = PararealConfig(T=0.8, N=8, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4))
        state = initialize(cfg, prob)
        state.g_prev[2] = np.nan
        with pytest.raises(NonConvergenceError, match="^coarse step on subinterval 3 in pass 1: ") as err:
            iterate(state, cfg, prob)
        assert (err.value.subinterval, err.value.k) == (3, 1)


class TestRun:
    def test_zero_rhs_converges_immediately(self):
        prob = IvpProblem(dim=1, f=lambda t, u: 0.0 * u, u0=np.array([2.0]), T=1.0)
        u, history = run(
            PararealConfig(T=1.0, N=4, coarse=BE, fine=PropagatorSpec.erk4(1)), prob
        )
        assert len(history) == 1
        assert history[0].iter_error == 0.0
        np.testing.assert_array_equal(u, np.full((5, 1), 2.0))

    def test_contraction_rate_on_spd_problem(self):
        # dT = 0.25 puts the largest eigenvalue at z = 25; three interior
        # nodes keep the convergence factor at or below one third.
        prob = diag_problem(T=10.0)
        cfg = PararealConfig(
            T=10.0, N=40, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(3),
            tol=1e-10, max_k=60, init="random", seed=7,
        )
        u, history = run(cfg, prob)
        errs = [r.iter_error for r in history]
        assert all(a >= b for a, b in zip(errs[1:], errs[2:]))  # monotone tail
        ratios = [b / a for a, b in zip(errs, errs[1:]) if b > 1e-13]
        window = ratios[2:]
        gmean = math.exp(sum(math.log(r) for r in window) / len(window))
        assert gmean <= 0.35

    def test_history_records_reference_error(self):
        prob = diag_problem(T=0.5)
        u, history = run(
            PararealConfig(T=0.5, N=5, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(8)), prob
        )
        assert history[0].abs_error is not None
        ref = np.array([prob.reference(0.1 * n) for n in range(6)])
        assert history[-1].abs_error == pytest.approx(np.max(np.abs(u - ref)), abs=1e-15)
        assert [r.k for r in history] == list(range(1, len(history) + 1))

    def test_worker_count_invariance(self):
        prob = diag_problem(T=2.0)
        base = dict(
            T=2.0, N=16, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(6),
            init="random", seed=3, max_k=30,
        )
        u1, h1 = run(PararealConfig(**base, workers=1), prob)
        u4, h4 = run(PararealConfig(**base, workers=4), prob)
        np.testing.assert_array_equal(u1, u4)
        assert [r.iter_error for r in h1] == [r.iter_error for r in h4]

    @pytest.mark.parametrize("name", ["diag-spectrum", "laplacian-1d"])
    def test_worker_count_invariance_linear_path(self, name):
        # workers = 16 asks for one-row chunks, whose BLAS kernels differ
        # in the last bit from taller stacks.
        prob = spd_catalog(name, m=8, T=2.0).to_ivp()
        base = dict(T=2.0, N=16, coarse=BE, fine=parse_spec("cg:6"), init="random", seed=5)
        tables = {}
        for workers in (1, 2, 8, 16):
            cfg = PararealConfig(**base, workers=workers)
            state = initialize(cfg, prob)
            for _ in range(3):
                state = iterate(state, cfg, prob)
            tables[workers] = state
        for state in tables.values():
            np.testing.assert_array_equal(state.u, tables[1].u)
            assert state.history == tables[1].history

    @pytest.mark.parametrize(
        "prob, fine, init",
        [
            (spd_catalog("laplacian-1d", m=8, T=0.5).to_ivp(), "tr:2", "random"),
            (build_burgers(0.05, 16).to_ivp(), "cg:8", "coarse"),
        ],
        ids=["newton", "picard"],
    )
    def test_worker_count_invariance_nonlinear_paths(self, prob, fine, init):
        base = dict(T=0.5, N=16, coarse=BE, fine=parse_spec(fine), init=init, seed=6)
        states = []
        for workers in (1, 16):
            cfg = PararealConfig(**base, workers=workers)
            state = initialize(cfg, prob)
            for _ in range(3):
                state = iterate(state, cfg, prob)
            states.append(state)
        np.testing.assert_array_equal(states[0].u, states[1].u)
        assert states[0].history == states[1].history

    def test_chunks_never_split_off_one_row(self):
        for n in range(1, 40):
            for workers in (1, 2, 3, 8, 16, 64):
                chunks = _chunks(n, workers)
                assert chunks[0][0] == 0 and chunks[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
                assert len(chunks) <= workers
                assert n == 1 or all(hi - lo >= 2 for lo, hi in chunks)

    def test_iteration_cap_carries_history(self):
        prob = diag_problem(T=4.0)
        cfg = PararealConfig(
            T=4.0, N=16, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4),
            tol=1e-16, max_k=3,
        )
        with pytest.raises(MaxIterationsError) as err:
            run(cfg, prob)
        assert len(err.value.history) == 3

    def test_metrics_without_reference_rejected(self):
        prob = IvpProblem(dim=1, f=lambda t, u: -u, u0=np.array([1.0]), T=1.0)
        cfg = PararealConfig(
            T=1.0, N=2, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4),
            metrics=(("pos_error", lambda u, ref: 0.0),),
        )
        with pytest.raises(ValueError, match="pos_error"):
            run(cfg, prob)

    def test_config_owns_the_stopping_defaults(self):
        # The CLI passes tol and max_k only when they are set.
        cfg = PararealConfig(T=1.0, N=2, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4))
        assert (cfg.tol, cfg.max_k) == (1e-10, 100)

    def test_config_validation(self):
        fine = PropagatorSpec.chebyshev_gauss(4)
        with pytest.raises(ValueError):
            PararealConfig(T=1.0, N=0, coarse=BE, fine=fine)
        with pytest.raises(ValueError):
            PararealConfig(T=-1.0, N=2, coarse=BE, fine=fine)
        with pytest.raises(ValueError):
            PararealConfig(T=1.0, N=2, coarse=BE, fine=fine, init="guess")
        with pytest.raises(ValueError):
            PararealConfig(T=1.0, N=2, coarse=BE, fine=fine, workers=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["T", "tol"])
    def test_config_rejects_nonfinite(self, field, value):
        kw = {"T": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            PararealConfig(N=2, coarse=BE, fine=PropagatorSpec.chebyshev_gauss(4), **kw)
