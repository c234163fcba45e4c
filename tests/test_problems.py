import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import lu_factor, lu_solve

import paracheb.problems as problems
from paracheb import (
    BurgersProblem,
    IvpProblem,
    KeplerProblem,
    LinearRhs,
    PararealConfig,
    SolverError,
    SpdLinearProblem,
    burgers_exact,
    kepler_reference,
    parse_spec,
    run,
    spd_catalog,
)


def newton_root(t):
    """``brentq`` stand-in for ``kepler_reference`` at time ``t``: the
    bisection-safeguarded Newton iteration it ran before Brent's method,
    from the same initial guess and inside the same expanded bracket."""
    r0, v0 = np.array(problems._KEPLER_R0), np.array(problems._KEPLER_V0)
    r0n = float(np.linalg.norm(r0))
    vr0 = float(r0 @ v0) / r0n
    alpha = 2.0 / r0n - float(v0 @ v0) / problems.MU_EARTH
    sqrt_mu = math.sqrt(problems.MU_EARTH)

    def slope(chi):
        z = alpha * chi * chi
        C, S = problems._stumpff(z)
        return r0n * vr0 / sqrt_mu * chi * (1.0 - z * S) + (1.0 - alpha * r0n) * chi * chi * C + r0n

    def root(residual, lo, hi, **kwargs):
        chi = sqrt_mu * abs(alpha) * t if abs(alpha) > 1e-12 else sqrt_mu * t / r0n
        for _ in range(60):
            res = residual(chi)
            if res < 0.0:
                lo = chi
            else:
                hi = chi
            chi_new = chi - res / slope(chi)
            if not lo < chi_new < hi:
                chi_new = 0.5 * (lo + hi)
            if abs(chi_new - chi) <= 1e-13 * max(1.0, abs(chi_new)):
                return chi_new, SimpleNamespace(converged=True)
            chi = chi_new
        return chi, SimpleNamespace(converged=False)

    return root


def hand_circulant(n, main, sup, sub):
    """Reference periodic tridiagonal matrix, built entry by entry."""
    C = np.diag(np.full(n, main))
    C += np.diag(np.full(n - 1, sup), 1) + np.diag(np.full(n - 1, sub), -1)
    C[0, -1] = sub
    C[-1, 0] = sup
    return C


class TestSpdCatalog:
    def test_scalar_reference(self):
        prob = spd_catalog("diag-spectrum", m=1, lambda_min=1.0, lambda_max=1.0, T=2.0).to_ivp()
        for t in (0.0, 0.5, 2.0):
            assert prob.reference(t)[0] == pytest.approx(math.exp(-t), abs=1e-14)

    def test_log_spaced_spectrum(self):
        prob = spd_catalog("diag-spectrum", m=3, lambda_min=1.0, lambda_max=100.0)
        np.testing.assert_allclose(np.diag(prob.A), [1.0, 10.0, 100.0], rtol=1e-12)
        ivp = prob.to_ivp()
        t = 0.1
        np.testing.assert_allclose(
            ivp.reference(t), [math.exp(-0.1), math.exp(-1.0), math.exp(-10.0)], atol=1e-14
        )

    def test_laplacian_extreme_eigenvalue(self):
        prob = spd_catalog("laplacian-1d", m=32)
        lam_max = np.linalg.eigvalsh(prob.A).max()
        dx = 1.0 / 33.0
        formula = (2.0 / dx) ** 2 * math.sin(math.pi * 32.0 / 66.0) ** 2
        assert lam_max == pytest.approx(formula, abs=1e-8)

    def test_reference_solves_system(self):
        ivp = spd_catalog("laplacian-1d", m=8).to_ivp()
        t, h = 0.05, 1e-7
        du = (ivp.reference(t + h) - ivp.reference(t - h)) / (2 * h)
        np.testing.assert_allclose(du, ivp.f(t, ivp.reference(t)), rtol=1e-5, atol=1e-7)

    def test_linear_metadata(self):
        ivp = spd_catalog("diag-spectrum", m=2).to_ivp()
        A = ivp.linear.A
        u = np.array([1.0, 2.0])
        np.testing.assert_allclose(ivp.f(0.0, u), -A @ u)
        np.testing.assert_allclose(ivp.jacobian(0.0, u), -A)

    def test_rejects_unknown_names_and_params(self):
        with pytest.raises(ValueError):
            spd_catalog("heat-2d")
        with pytest.raises(ValueError):
            spd_catalog("diag-spectrum", m=3, gamma=2.0)
        with pytest.raises(ValueError):
            spd_catalog("diag-spectrum", m=0)

    @pytest.mark.parametrize(
        "bounds",
        [{"lambda_max": math.inf}, {"lambda_min": math.nan}, {"lambda_max": math.nan}],
        ids=["max-inf", "min-nan", "max-nan"],
    )
    def test_rejects_nonfinite_bounds(self, bounds):
        # inf once ended in LinAlgError from eigvalsh, NaN in "A must be symmetric".
        with pytest.raises(ValueError, match="lambda_max < inf"):
            spd_catalog("diag-spectrum", m=3, **bounds)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_nonfinite_matrix_rejected_before_symmetry(self, value):
        with pytest.raises(ValueError, match="matrix must be finite"):
            SpdLinearProblem(A=np.diag([1.0, value]), u0=np.ones(2), T=1.0)

    @pytest.mark.parametrize("name", ["diag-spectrum", "laplacian-1d"])
    def test_count_must_be_an_integer(self, name):
        # int(2.5) would build a 2-point problem without a word.
        with pytest.raises(TypeError, match=r"m must be an integer \(got 2.5\)"):
            spd_catalog(name, m=2.5)
        assert spd_catalog(name, m=np.int64(2)).dim == 2

    def test_spd_validation(self):
        with pytest.raises(ValueError):
            SpdLinearProblem(A=np.array([[1.0, 2.0], [0.0, 1.0]]), u0=np.ones(2), T=1.0)
        with pytest.raises(ValueError):
            SpdLinearProblem(A=np.array([[-1.0]]), u0=np.ones(1), T=1.0)


class TestKepler:
    def test_reference_identity_at_zero(self):
        np.testing.assert_array_equal(kepler_reference(0.0), KeplerProblem().u0)

    def test_conservation_laws(self):
        mu = problems.MU_EARTH
        r0, v0 = np.array(problems._KEPLER_R0), np.array(problems._KEPLER_V0)
        energy0 = 0.5 * v0 @ v0 - mu / np.linalg.norm(r0)
        momentum0 = np.cross(r0, v0)
        for t in (5.0, 17.3, 50.0, 400.0):
            s = kepler_reference(t)
            r, v = s[:3], s[3:]
            energy = 0.5 * v @ v - mu / np.linalg.norm(r)
            assert abs(energy - energy0) / abs(energy0) < 1e-9
            np.testing.assert_allclose(np.cross(r, v), momentum0, rtol=1e-9)

    def test_batch_run_evaluates_the_reference_once_per_grid_point(self, monkeypatch):
        # kepler-compare runs its four fine propagators as one batch, which
        # builds one reference table: N + 1 calls, with no cache behind them.
        calls = []

        def counting(t):
            calls.append(t)
            return kepler_reference(t)

        monkeypatch.setattr(problems, "kepler_reference", counting)
        kp = KeplerProblem(T=2.0)
        ivp = kp.to_ivp()
        N, coarse = 8, parse_spec("beuler:1")
        cfgs = [PararealConfig(N=N, coarse=coarse, fine=parse_spec(fine))
                for fine in ("cg:6", "beuler:6", "tr:6", "gauss4:6")]
        results = run(cfgs, ivp)
        assert calls == [n * (kp.T / N) for n in range(N + 1)]
        table = np.array([kepler_reference(t) for t in calls])
        for u, history in results:
            last = np.max(np.abs(u - table), axis=0)
            assert history[-1].component_error == tuple(last.tolist())

    def test_against_brute_force_integration(self):
        # Classical fourth-order Runge-Kutta with a very small step is the
        # independent oracle for the analytic propagation.  It runs on plain
        # floats with its own two-body right-hand side, checked against the
        # problem's at the start and end states.
        ivp = KeplerProblem().to_ivp()
        mu = problems.MU_EARTH

        def rhs(u):
            x, y, z, vx, vy, vz = u
            c = -mu / math.sqrt(x * x + y * y + z * z) ** 3
            return vx, vy, vz, c * x, c * y, c * z

        h = 1e-4
        steps = int(round(50.0 / h))
        u = tuple(ivp.u0.tolist())
        for _ in range(steps):
            k1 = rhs(u)
            k2 = rhs([a + 0.5 * h * b for a, b in zip(u, k1)])
            k3 = rhs([a + 0.5 * h * b for a, b in zip(u, k2)])
            k4 = rhs([a + h * b for a, b in zip(u, k3)])
            u = tuple(a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(u, k1, k2, k3, k4))
        for state in (ivp.u0, np.array(u)):
            np.testing.assert_allclose(rhs(state.tolist()), ivp.f(50.0, state), rtol=1e-15, atol=0.0)
        ref = kepler_reference(50.0)
        assert np.max(np.abs(np.array(u[:3]) - ref[:3])) < 1e-6

    def test_rhs_consistent_with_reference(self):
        ivp = KeplerProblem().to_ivp()
        h = 1e-3
        for t in (1.0, 20.0, 45.0):
            du = (ivp.reference(t + h) - ivp.reference(t - h)) / (2 * h)
            f = ivp.f(t, ivp.reference(t))
            assert np.max(np.abs(du - f)) / np.max(np.abs(f)) < 1e-6

    def test_analytic_jacobian_matches_differences(self):
        ivp = KeplerProblem().to_ivp()
        u = ivp.u0
        J = ivp.jacobian(0.0, u)
        Jfd = np.empty((6, 6))
        for j in range(6):
            h = 1e-4 * max(1.0, abs(u[j]))
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            Jfd[:, j] = (ivp.f(0.0, up) - ivp.f(0.0, um)) / (2 * h)
        np.testing.assert_allclose(J, Jfd, rtol=1e-5, atol=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            kepler_reference(-1.0)

    def test_brent_matches_newton_reference(self, monkeypatch):
        # The kepler-compare grid (N = 200 steps of 0.25 s) and a few far times.
        times = [*(n * 0.25 for n in range(201)), 5.0, 17.3, 50.0, 400.0]
        states = [kepler_reference(t) for t in times]
        for t, state in zip(times, states):
            monkeypatch.setattr(scipy.optimize, "brentq", newton_root(t))
            reference = kepler_reference(t)
            assert np.max(np.abs(state - reference)) <= 1e-13 * np.linalg.norm(reference)

    def test_unconverged_anomaly_raises_naming_t(self, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "brentq", functools.partial(scipy.optimize.brentq, maxiter=1))
        with pytest.raises(SolverError, match="did not converge at t=17.3"):
            kepler_reference(17.3)


class TestBurgers:
    def test_exact_boundary_values(self):
        p = BurgersProblem(0.05, 8)
        for t in (0.0, 1.0, 4.0):
            assert burgers_exact(p, 0.0, t) == 0.0
            assert abs(burgers_exact(p, 1.0, t)) < 1e-16

    def test_exact_direct_substitution(self):
        p = BurgersProblem(0.05, 8)
        assert burgers_exact(p, 0.5, 0.0) == pytest.approx(0.05 * math.pi, abs=1e-15)

    def test_grid_size_must_be_an_integer(self):
        # A float Nx once failed inside numpy's zeros.
        with pytest.raises(TypeError, match=r"Nx must be an integer \(got 8.0\)"):
            BurgersProblem(0.05, 8.0)

    def test_initial_condition_matches_exact(self):
        p = BurgersProblem(0.005, 16)
        np.testing.assert_allclose(p.u0, burgers_exact(p, p.x, 0.0))

    def test_difference_operators_annihilate_constants(self):
        p = BurgersProblem(0.05, 16)
        c = np.full(16, 3.7)
        assert np.max(np.abs(p.A1 @ c)) < 1e-12
        assert np.max(np.abs(p.A2 @ c)) < 1e-12
        ivp = p.to_ivp()
        assert np.max(np.abs(ivp.f(0.0, c))) < 1e-12

    def test_fourth_order_derivative_accuracy(self):
        errs = []
        for Nx in (64, 128):
            p = BurgersProblem(0.05, Nx)
            got = p.A2 @ np.sin(np.pi * p.x)
            errs.append(np.max(np.abs(got - np.pi * np.cos(np.pi * p.x))))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 25.0  # halving dx cuts the error ~16x

    def test_mean_is_conserved_by_rhs(self):
        p = BurgersProblem(0.05, 32)
        ivp = p.to_ivp()
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = rng.uniform(-1.0, 1.0, 32)
            assert abs(np.mean(ivp.f(0.0, u))) < 1e-12

    def test_semidiscrete_solution_tracks_exact(self):
        # Fine serial integration stays within the spatial discretization
        # error of the closed-form solution.
        from paracheb import PropagatorSpec
        from paracheb.parareal import _make_stepper

        ivp = BurgersProblem(0.05, 64).to_ivp()
        dT = 1.0 / 64.0
        step = _make_stepper(PropagatorSpec.chebyshev_gauss(8), ivp, dT)
        u = ivp.u0.copy()
        for n in range(64):
            u = step(n * dT, u)
        assert np.max(np.abs(u - ivp.reference(1.0))) < 1e-5

    def test_analytic_jacobian_matches_differences(self):
        ivp = BurgersProblem(0.05, 8).to_ivp()
        rng = np.random.default_rng(4)
        u = rng.uniform(-0.5, 0.5, 8)
        J = ivp.jacobian(0.0, u)
        Jfd = np.empty((8, 8))
        for j in range(8):
            h = 1e-6
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            Jfd[:, j] = (ivp.f(0.0, up) - ivp.f(0.0, um)) / (2 * h)
        np.testing.assert_allclose(J, Jfd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("Nx", [4, 5, 8, 16, 64])
    def test_operators_equal_hand_built_stencils(self, Nx):
        p = BurgersProblem(0.05, Nx)
        P1 = hand_circulant(Nx, 5.0 / 6.0, 1.0 / 12.0, 1.0 / 12.0)
        Q1 = hand_circulant(Nx, -2.0, 1.0, 1.0)
        P2 = hand_circulant(Nx, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
        Q2 = hand_circulant(Nx, 0.0, 1.0, -1.0)
        A1 = -(p.nu / p.dx**2) * lu_solve(lu_factor(P1), Q1)
        A2 = (1.0 / (2.0 * p.dx)) * lu_solve(lu_factor(P2), Q2)
        np.testing.assert_array_equal(p.A1, A1)
        np.testing.assert_array_equal(p.A2, A2)
        # f gives each state the bits it gets alone, at every stack height
        # and for the state as a vector.
        f = p.to_ivp().f
        u = np.random.default_rng(Nx).uniform(-0.5, 0.5, (130, Nx))
        full = f(0.0, u).view(np.uint64)
        for m in range(1, 131):
            np.testing.assert_array_equal(f(0.0, u[:m]).view(np.uint64), full[:m])
        for row, want in zip(u, full):
            np.testing.assert_array_equal(f(0.0, row).view(np.uint64), want)

    def test_build_validation(self):
        with pytest.raises(ValueError, match="Nx must be >= 4"):
            BurgersProblem(0.05, 3)
        for nu in (-0.1, 0.0):
            with pytest.raises(ValueError, match="nu must be positive"):
                BurgersProblem(nu, 8)

    def test_replace_rebuilds_operators(self):
        # The grid and operators follow nu and Nx, so a replaced problem
        # cannot keep the ones built for the old values.
        base = BurgersProblem(0.05, 16)
        np.testing.assert_array_equal(
            dataclasses.replace(base, nu=0.005).A1, BurgersProblem(0.005, 16).A1
        )
        regrid, fresh = dataclasses.replace(base, Nx=32), BurgersProblem(0.05, 32)
        for name in ("x", "A1", "A2"):
            np.testing.assert_array_equal(getattr(regrid, name), getattr(fresh, name))
        assert regrid.dx == fresh.dx == 2.0 / 32

    def test_operators_are_derived_and_read_only(self):
        with pytest.raises(TypeError):
            BurgersProblem(0.05, 16, dx=0.1)
        p = BurgersProblem(0.05, 16)
        assert isinstance(p.nu, float)
        for arr in (p.x, p.A1, p.A2):
            assert not arr.flags.writeable


class TestLinearHook:
    def test_rhs_disagreeing_with_linear_rejected(self):
        # The fine collocation solve would use linear, the coarse steps f.
        with pytest.raises(ValueError, match="disagrees"):
            IvpProblem(f=lambda t, u: u, u0=np.ones(2), T=1.0, linear=LinearRhs(np.diag([1.0, 4.0])))

    def test_forcing_disagreeing_with_linear_rejected(self):
        # f is -A u off by a constant.
        A = np.diag([1.0, 4.0])
        with pytest.raises(ValueError, match="disagrees"):
            IvpProblem(f=lambda t, u: 1.0 - u @ A.T, u0=np.ones(2), T=1.0, linear=LinearRhs(A))

    def test_disagreement_away_from_u0_rejected(self):
        # f and -A u both vanish at u0 = 0; they differ on u0 + e_i.
        with pytest.raises(ValueError, match="disagrees"):
            IvpProblem(f=lambda t, u: u, u0=np.zeros(2), T=1.0, linear=LinearRhs(np.diag([1.0, 4.0])))

    def test_forcing_disagreeing_at_the_horizon_rejected(self):
        # f = g(t) - A u with g(t) = t agrees with -A u at t = 0 only.
        A = np.diag([1.0, 4.0])

        def g(t):
            return t

        with pytest.raises(ValueError, match="disagrees"):
            IvpProblem(f=lambda t, u: g(t) - u @ A.T, u0=np.ones(2), T=2.0, linear=LinearRhs(A))

    def test_linear_of_another_type_rejected(self):
        # The (A, g) tuple that a LinearRhs replaced is not one.
        with pytest.raises(TypeError, match=r"linear must be a LinearRhs or None \(got tuple\)"):
            IvpProblem(f=lambda t, u: -u, u0=np.ones(2), T=1.0, linear=(np.eye(2), None))

    def test_agreement_check_is_one_extra_call(self):
        calls = []
        A = spd_catalog("laplacian-1d", m=5).A

        def f(t, u):
            calls.append(np.shape(u))
            return -(u @ A.T)

        IvpProblem(f=f, u0=np.ones(5), T=1.0, linear=LinearRhs(A))
        assert calls == [(2, 5), (6, 5)]

    @pytest.mark.parametrize("A", [np.eye(3), np.ones(2), np.ones((2, 3))])
    def test_matrix_of_wrong_shape_rejected(self, A):
        # A square matrix of another size is rejected by the problem, a
        # matrix that is not square when its LinearRhs is built.
        with pytest.raises(ValueError, match=r"expected \(2, 2\)|matrix must be square"):
            IvpProblem(f=lambda t, u: -u, u0=np.ones(2), T=1.0, linear=LinearRhs(A))

    def test_agreement_up_to_rounding_accepted(self):
        # f forms A u in another order than u A^T; the two differ in the
        # last bits only.
        A = spd_catalog("laplacian-1d", m=8).A
        u0 = np.linspace(0.1, 2.3, 8)
        f = lambda t, u: -np.einsum("ij,...j->...i", A, u)  # noqa: E731
        ivp = IvpProblem(f=f, u0=u0, T=1.0, linear=LinearRhs(A))
        assert ivp.linear.A is A


class TestIvpMetadata:
    def test_dimension_and_initial_state_consistency(self):
        for ivp in (
            spd_catalog("diag-spectrum", m=3).to_ivp(),
            KeplerProblem().to_ivp(),
            BurgersProblem(0.05, 8).to_ivp(),
        ):
            assert ivp.u0.shape == (ivp.dim,)
            assert np.all(np.isfinite(ivp.f(0.0, ivp.u0)))

    def test_dimension_is_the_size_of_u0(self):
        ivp = IvpProblem(f=lambda t, u: -u, u0=2.0, T=1.0)  # a scalar is one component
        assert ivp.dim == 1 and ivp.u0.shape == (1,)
        assert IvpProblem(f=lambda t, u: -u, u0=[1.0, 2.0, 3.0], T=1.0).dim == 3

    @pytest.mark.parametrize("u0", [np.ones(0), np.ones((2, 2))], ids=["empty", "matrix"])
    def test_u0_must_be_a_nonempty_vector(self, u0):
        with pytest.raises(ValueError, match="nonempty vector"):
            IvpProblem(f=lambda t, u: -u, u0=u0, T=1.0)

    def test_spd_u0_must_match_the_matrix(self):
        with pytest.raises(ValueError, match=r"shape \(3,\), but A is 2x2"):
            SpdLinearProblem(A=np.eye(2), u0=np.ones(3), T=1.0)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(ValueError, match="finite"):
            IvpProblem(f=lambda t, u: -u, u0=np.ones(1), T=T)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_spd_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(ValueError, match="finite"):
            spd_catalog("diag-spectrum", T=T)


STACK_CASES = {
    "burgers": lambda: BurgersProblem(0.05, 16).to_ivp(),
    "kepler": lambda: KeplerProblem().to_ivp(),
    "spd": lambda: spd_catalog("laplacian-1d", m=8).to_ivp(),
}


class TestRhsContract:
    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_stack_agrees_row_by_row(self, case):
        ivp = STACK_CASES[case]()
        rng = np.random.default_rng(5)
        shift = 0.1 * np.max(np.abs(ivp.u0)) * rng.uniform(-1.0, 1.0, (5, ivp.dim))
        U = ivp.u0 * rng.uniform(0.5, 1.5, (5, ivp.dim)) + shift
        t = rng.uniform(0.0, 2.0, 5)
        F = ivp.f(t[:, None], U)
        assert F.shape == U.shape
        rows = np.array([ivp.f(t[i], U[i]) for i in range(5)])
        assert np.max(np.abs(F - rows)) <= 1e-14 * np.max(np.abs(rows))

    def test_rhs_ignoring_the_stack_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            IvpProblem(f=lambda t, u: np.ones(2), u0=np.ones(2), T=1.0)


JACOBIAN_CASES = {
    "burgers": lambda: BurgersProblem(0.05, 16).to_ivp(),
    "kepler": lambda: KeplerProblem().to_ivp(),
    "spd": lambda: spd_catalog("laplacian-1d", m=8).to_ivp(),
}


class TestJacobianContract:
    @pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
    def test_stack_agrees_row_by_row(self, case):
        ivp = JACOBIAN_CASES[case]()
        rng = np.random.default_rng(6)
        shift = 0.1 * np.max(np.abs(ivp.u0)) * rng.uniform(-1.0, 1.0, (5, ivp.dim))
        U = ivp.u0 * rng.uniform(0.5, 1.5, (5, ivp.dim)) + shift
        t = rng.uniform(0.0, 2.0, 5)
        J = ivp.jacobian(t[:, None], U)
        assert J.shape == (5, ivp.dim, ivp.dim)
        rows = np.array([ivp.jacobian(t[i], U[i]) for i in range(5)])
        assert np.max(np.abs(J - rows)) <= 1e-14 * np.max(np.abs(rows))

    def test_jacobian_ignoring_the_stack_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2, 2\)"):
            IvpProblem(
                f=lambda t, u: -u, u0=np.ones(2), T=1.0, jacobian=lambda t, u: -np.eye(2)
            )

    def test_nonfinite_jacobian_rejected(self):
        def jac(t, u):
            return np.full(u.shape + (1,), np.nan)

        with pytest.raises(ValueError, match="not finite"):
            IvpProblem(f=lambda t, u: -u, u0=np.ones(1), T=1.0, jacobian=jac)
