import dataclasses
import math

import numpy as np
import pytest
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


def _orbit():
    r0, v0 = np.array(problems._KEPLER_R0), np.array(problems._KEPLER_V0)
    r0n = float(np.linalg.norm(r0))
    vr0 = float(r0 @ v0) / r0n
    alpha = 2.0 / r0n - float(v0 @ v0) / problems.MU_EARTH
    return r0, v0, r0n, vr0, alpha, math.sqrt(problems.MU_EARTH)


def scalar_stumpff(z):
    """Stumpff functions C(z) and S(z) of a float, on ``math``."""
    if abs(z) < 1e-6:
        return 1 / 2 - z / 24 + z * z / 720 - z**3 / 40320, 1 / 6 - z / 120 + z * z / 5040 - z**3 / 362880
    if z > 0:
        sz = math.sqrt(z)
        return (1.0 - math.cos(sz)) / z, (sz - math.sin(sz)) / sz**3
    sz = math.sqrt(-z)
    return (math.cosh(sz) - 1.0) / (-z), (math.sinh(sz) - sz) / sz**3


def newton_root(t):
    """Reference universal anomaly of the ``KeplerProblem`` orbit at time
    ``t > 0``, independent of ``kepler_reference``'s eccentric-anomaly
    solve: a bisection-safeguarded Newton iteration on the universal-variable
    Kepler equation, on plain floats, inside a bracket expanded from
    ``[0, max(guess, 1)]``."""
    r0, v0, r0n, vr0, alpha, sqrt_mu = _orbit()

    def residual(chi):
        C, S = scalar_stumpff(alpha * chi * chi)
        return r0n * vr0 / sqrt_mu * chi * chi * C + (1.0 - alpha * r0n) * chi**3 * S + r0n * chi - sqrt_mu * t

    def slope(chi):
        z = alpha * chi * chi
        C, S = scalar_stumpff(z)
        return r0n * vr0 / sqrt_mu * chi * (1.0 - z * S) + (1.0 - alpha * r0n) * chi * chi * C + r0n

    chi = sqrt_mu * abs(alpha) * t if abs(alpha) > 1e-12 else sqrt_mu * t / r0n
    lo, hi = 0.0, max(chi, 1.0)
    while residual(hi) < 0.0:
        hi *= 2.0
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
            return chi_new
        chi = chi_new
    raise AssertionError(f"the Newton reference did not converge at t={t}")


def lagrange_state(t, chi):
    """State of the ``KeplerProblem`` orbit at time ``t`` and anomaly ``chi``, on plain floats."""
    r0, v0, r0n, vr0, alpha, sqrt_mu = _orbit()
    z = alpha * chi * chi
    C, S = scalar_stumpff(z)
    F = 1.0 - chi * chi * C / r0n
    G = t - chi**3 * S / sqrt_mu
    r = F * r0 + G * v0
    rn = math.sqrt(float(r @ r))
    Fdot = sqrt_mu / (rn * r0n) * chi * (z * S - 1.0)
    Gdot = 1.0 - chi * chi * C / rn
    return np.concatenate((r, Fdot * r0 + Gdot * v0))


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
        # builds one reference table: one call on the N + 1 grid times, with
        # no cache behind it.
        calls = []

        def counting(t):
            calls.append(t)
            return kepler_reference(t)

        monkeypatch.setattr(problems, "kepler_reference", counting)
        kp = KeplerProblem(T=2.0)
        ivp = kp.to_ivp()
        N = 8
        cfgs = [PararealConfig(N=N, fine=parse_spec(fine)) for fine in ("cg:6", "beuler:6", "tr:6", "gauss4:6")]
        results = run(cfgs, ivp)
        assert len(calls) == 1
        assert calls[0].tolist() == [n * (kp.T / N) for n in range(N + 1)]
        table = np.array([kepler_reference(t) for t in calls[0].tolist()])
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

    @pytest.mark.parametrize("t", [math.inf, math.nan, np.array([1.0, -1.0]), np.ones((2, 2))],
                             ids=["inf", "nan", "negative-row", "matrix"])
    def test_rejects_bad_times(self, t):
        with pytest.raises(ValueError, match="t must be"):
            kepler_reference(t)

    def test_brent_matches_newton_reference(self):
        # The kepler-compare grid (N = 200 steps of 0.25 s) and a few far
        # times, as one table against the Newton anomaly time by time.
        times = np.concatenate((np.arange(201) * 0.25, [5.0, 17.3, 50.0, 400.0]))
        table = kepler_reference(times)
        assert table.shape == (len(times), 6)
        np.testing.assert_array_equal(table[0], KeplerProblem().u0)
        for t, state in zip(times[1:].tolist(), table[1:]):
            reference = lagrange_state(t, newton_root(t))
            assert np.max(np.abs(state - reference)) <= 1e-13 * np.linalg.norm(reference)

    def test_unconverged_anomaly_raises_naming_t(self, monkeypatch):
        # At t = 1e20 the anomaly, about 9e18, has lost the digits that
        # F*Gdot - Fdot*G = 1 needs: the check fails at that row.
        with pytest.raises(SolverError, match=r"identity violated at t=1e\+20"):
            kepler_reference(np.array([17.3, 1e20]))
        # With one Newton update allowed, t = 0 settles (its update is 0)
        # and t = 17.3, still moving, is the first row to fail.
        monkeypatch.setattr(problems, "_KEPLER_MAX_ITER", 1)
        with pytest.raises(SolverError, match="Kepler's equation did not converge at t=17.3"):
            kepler_reference(np.array([0.0, 17.3, 50.0]))

    def test_tiny_times_give_the_start_state(self):
        # A tiny or subnormal t settles at an anomaly on its own scale.
        states = kepler_reference(np.array([1e-300, 5e-324]))
        np.testing.assert_allclose(states, np.tile(KeplerProblem().u0, (2, 1)), rtol=1e-15)

    def test_stacked_reference_equals_each_time(self):
        # A table of times gives each row the bits of its time's own call.
        cases = [
            (KeplerProblem().to_ivp(), np.arange(201) * 0.25),
            # Far times, about 18 orbits: a time that kept updating after it
            # settled would drift from its own call's bits.
            (KeplerProblem().to_ivp(), np.linspace(0.0, 1e5, 1001)),
            (BurgersProblem(0.05, 16).to_ivp(), np.arange(129) * (4.0 / 128)),
            (spd_catalog("laplacian-1d", m=24, T=0.1).to_ivp(), np.arange(17) * (0.1 / 16)),
            (spd_catalog("diag-spectrum", m=3, lambda_max=1e16).to_ivp(), np.arange(11) * 0.1),
        ]
        for ivp, times in cases:
            table = ivp.reference(times)
            assert table.shape == (len(times), ivp.dim)
            np.testing.assert_array_equal(table, [ivp.reference(t) for t in times.tolist()])
            assert ivp.reference(times[:1]).shape == (1, ivp.dim)


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

    @pytest.mark.parametrize("shape", [(16,), (5, 16), (128, 9, 16)])
    def test_rhs_matches_the_unfused_formula(self, shape):
        # f negates, multiplies and subtracts in place: every state, the
        # exact zeros and -0.0 among them, has the bits of -A1 u - u * (A2 u)
        # as separate array operations.
        p = BurgersProblem(0.05, 16)
        A1u, A2u = problems._matvec(p.A1), problems._matvec(p.A2)
        u = np.random.default_rng(len(shape)).uniform(-0.5, 0.5, shape)
        flat = u.reshape(-1, 16)
        flat[:, 3] = 0.0
        flat[:, 5] = -0.0
        if len(flat) > 1:
            flat[0] = 0.0
            flat[1] = -0.0
        zeros = []
        for v in [u] if u.ndim > 1 else [u, np.zeros(16), np.full(16, -0.0)]:
            got = p.to_ivp().f(0.0, v)
            expected = -A1u(v) - v * A2u(v)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            zeros.extend(np.signbit(expected[expected == 0.0]))
        assert True in zeros and False in zeros

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
