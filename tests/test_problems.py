import math

import numpy as np
import pytest

from paracheb import (
    IvpProblem,
    KeplerProblem,
    SpdLinearProblem,
    build_burgers,
    burgers_exact,
    kepler_reference,
    spd_catalog,
)


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
        A, g = ivp.linear
        assert g is None
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

    def test_spd_validation(self):
        with pytest.raises(ValueError):
            SpdLinearProblem(A=np.array([[1.0, 2.0], [0.0, 1.0]]), u0=np.ones(2), T=1.0)
        with pytest.raises(ValueError):
            SpdLinearProblem(A=np.array([[-1.0]]), u0=np.ones(1), T=1.0)


class TestKepler:
    def test_reference_identity_at_zero(self):
        kp = KeplerProblem()
        np.testing.assert_array_equal(kepler_reference(kp, 0.0), kp.u0)

    def test_conservation_laws(self):
        kp = KeplerProblem()
        r0, v0 = kp.u0[:3], kp.u0[3:]
        energy0 = 0.5 * v0 @ v0 - kp.mu / np.linalg.norm(r0)
        momentum0 = np.cross(r0, v0)
        for t in (5.0, 17.3, 50.0, 400.0):
            s = kepler_reference(kp, t)
            r, v = s[:3], s[3:]
            energy = 0.5 * v @ v - kp.mu / np.linalg.norm(r)
            assert abs(energy - energy0) / abs(energy0) < 1e-9
            np.testing.assert_allclose(np.cross(r, v), momentum0, rtol=1e-9)

    def test_against_brute_force_integration(self):
        # Classical fourth-order Runge-Kutta with a very small step is the
        # independent oracle for the analytic propagation.
        kp = KeplerProblem()
        ivp = kp.to_ivp()
        h = 1e-4
        steps = int(round(50.0 / h))
        u = ivp.u0.copy()
        t = 0.0
        f = ivp.f
        for _ in range(steps):
            k1 = f(t, u)
            k2 = f(t + 0.5 * h, u + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, u + 0.5 * h * k2)
            k4 = f(t + h, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        ref = kepler_reference(kp, 50.0)
        assert np.max(np.abs(u[:3] - ref[:3])) < 1e-6

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
            kepler_reference(KeplerProblem(), -1.0)


class TestBurgers:
    def test_exact_boundary_values(self):
        p = build_burgers(0.05, 8)
        for t in (0.0, 1.0, 4.0):
            assert burgers_exact(p, 0.0, t) == 0.0
            assert abs(burgers_exact(p, 1.0, t)) < 1e-16

    def test_exact_direct_substitution(self):
        p = build_burgers(0.05, 8)
        assert burgers_exact(p, 0.5, 0.0) == pytest.approx(0.05 * math.pi, abs=1e-15)

    def test_initial_condition_matches_exact(self):
        p = build_burgers(0.005, 16)
        np.testing.assert_allclose(p.u0, burgers_exact(p, p.x, 0.0))

    def test_difference_operators_annihilate_constants(self):
        p = build_burgers(0.05, 16)
        c = np.full(16, 3.7)
        assert np.max(np.abs(p.A1 @ c)) < 1e-12
        assert np.max(np.abs(p.A2 @ c)) < 1e-12
        ivp = p.to_ivp()
        assert np.max(np.abs(ivp.f(0.0, c))) < 1e-12

    def test_fourth_order_derivative_accuracy(self):
        errs = []
        for Nx in (64, 128):
            p = build_burgers(0.05, Nx)
            got = p.A2 @ np.sin(np.pi * p.x)
            errs.append(np.max(np.abs(got - np.pi * np.cos(np.pi * p.x))))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 25.0  # halving dx cuts the error ~16x

    def test_mean_is_conserved_by_rhs(self):
        p = build_burgers(0.05, 32)
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

        ivp = build_burgers(0.05, 64).to_ivp()
        dT = 1.0 / 64.0
        step = _make_stepper(PropagatorSpec.chebyshev_gauss(8), ivp, dT)
        u = ivp.u0.copy()
        for n in range(64):
            u = step(n * dT, u)
        assert np.max(np.abs(u - ivp.reference(1.0))) < 1e-5

    def test_analytic_jacobian_matches_differences(self):
        ivp = build_burgers(0.05, 8).to_ivp()
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

    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_burgers(0.05, 3)
        with pytest.raises(ValueError):
            build_burgers(-0.1, 8)


class TestIvpMetadata:
    def test_dimension_and_initial_state_consistency(self):
        for ivp in (
            spd_catalog("diag-spectrum", m=3).to_ivp(),
            KeplerProblem().to_ivp(),
            build_burgers(0.05, 8).to_ivp(),
        ):
            assert ivp.u0.shape == (ivp.dim,)
            assert np.all(np.isfinite(ivp.f(0.0, ivp.u0)))

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(ValueError, match="finite"):
            IvpProblem(dim=1, f=lambda t, u: -u, u0=np.ones(1), T=T)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_spd_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(ValueError, match="finite"):
            spd_catalog("diag-spectrum", T=T)


STACK_CASES = {
    "burgers": lambda: build_burgers(0.05, 16).to_ivp(),
    "kepler": lambda: KeplerProblem().to_ivp(),
    "spd": lambda: spd_catalog("laplacian-1d", m=8).to_ivp(),
    "spd-forced": lambda: SpdLinearProblem(
        A=spd_catalog("laplacian-1d", m=8).A,
        u0=np.ones(8),
        T=1.0,
        g=lambda t: np.sin(t) * np.ones(8),
    ).to_ivp(),
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
            IvpProblem(dim=2, f=lambda t, u: np.ones(2), u0=np.ones(2), T=1.0)


JACOBIAN_CASES = {
    "burgers": lambda: build_burgers(0.05, 16).to_ivp(),
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
                dim=2, f=lambda t, u: -u, u0=np.ones(2), T=1.0, jacobian=lambda t, u: -np.eye(2)
            )

    def test_nonfinite_jacobian_rejected(self):
        def jac(t, u):
            return np.full(u.shape + (1,), np.nan)

        with pytest.raises(ValueError, match="not finite"):
            IvpProblem(dim=1, f=lambda t, u: -u, u0=np.ones(1), T=1.0, jacobian=jac)
