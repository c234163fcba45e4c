import math

import numpy as np
import pytest

from paracheb import (
    NonConvergenceError,
    NonFiniteRhsError,
    SingularSystemError,
    CollocationSolution,
    SweepError,
    build_operator,
    cg_points,
    picard_sweep,
    solve_linear,
    solve_nonlinear,
    spd_catalog,
)
from paracheb import collocation
from paracheb.collocation import solve_checked


def endpoint(u_hat):
    """The right-endpoint state of a solution with coefficients ``u_hat``."""
    return CollocationSolution(u_hat, None, 0).u_end


def series_eval(coeffs, tau):
    # Direct sum via the recurrence; robust reference for small degree.
    total, t_prev, t_cur = 0.0, 1.0, tau
    for l, c in enumerate(coeffs):
        if l == 0:
            total += c * 1.0
        elif l == 1:
            total += c * tau
        else:
            t_prev, t_cur = t_cur, 2.0 * tau * t_cur - t_prev
            total += c * t_cur
    return total


def kronecker_solve(op, A, g, points, u_a):
    """Reference direct solve: the node values of all components as one
    dense system ``(I + dT kron(T1_C, A)) u = 1 u_a + dT T1_C G``."""
    n, dim, dT = op.M + 1, u_a.size, points.length
    G = np.zeros((n, dim)) if g is None else np.array([g(t) for t in points.t])
    K = np.eye(n * dim) + dT * np.kron(op.T1_C, A)
    rhs = np.tile(u_a, (n, 1)) + dT * (op.T1_C @ G)
    U = np.linalg.solve(K, rhs.reshape(-1)).reshape(n, dim)
    u_hat = np.zeros((op.M + 2, dim))
    u_hat[0] = u_a
    u_hat += dT * (op.C_alpha @ (G - U @ A.T))
    return u_hat, u_hat.sum(axis=0)


class TestPicardSweep:
    def test_zero_rhs_preserves_constants(self):
        pts = cg_points(3, 0.0, 1.0)
        u_hat, u_nodes = picard_sweep(lambda t, u: 0.0 * u, pts, 2.5, np.full((4, 1), 2.5))
        np.testing.assert_allclose(u_hat[0], [2.5])
        np.testing.assert_allclose(u_hat[1:], 0.0, atol=1e-16)
        np.testing.assert_allclose(u_nodes[:, 0], 2.5)

    def test_constant_rhs_integrates_exactly(self):
        pts = cg_points(4, 0.0, 1.0)
        u_prev = np.zeros((5, 1))
        _, u_nodes = picard_sweep(lambda t, u: np.ones_like(u), pts, 0.0, u_prev)
        np.testing.assert_allclose(u_nodes[:, 0], pts.t, atol=1e-12)

    def test_fixed_point_matches_coarsest_stability_value(self):
        # Repeated sweeps for u' = -u over a unit interval with a single node
        # settle on the endpoint value (2-z)/(2+z) = 1/3 at z = 1.
        pts = cg_points(0, 0.0, 1.0)
        u_nodes = np.ones((1, 1))
        for _ in range(80):
            u_hat, u_nodes = picard_sweep(lambda t, u: -u, pts, 1.0, u_nodes)
        assert endpoint(u_hat)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_nonfinite_rhs_reports_node(self):
        pts = cg_points(3, 0.0, 1.0)

        def f(t, u):
            return np.where(t > pts.t[1], np.nan, -u)

        with pytest.raises(NonFiniteRhsError) as err:
            picard_sweep(f, pts, 1.0, np.ones((4, 1)))
        assert err.value.node == 2

    def test_nonfinite_rhs_on_a_stack_names_every_row(self):
        points = cg_points(3, 0.0, 0.5).shifted(np.array([0.0, 0.5, 1.0]))

        def f(t, u):
            return np.where(t > 0.5, np.nan, -u)  # rows 1 and 2 reach past t = 0.5

        with pytest.raises(SweepError) as err:
            picard_sweep(f, points, np.ones((3, 1)), np.ones((3, 4, 1)))
        assert err.value.indices == [1, 2]
        assert isinstance(err.value.cause, NonFiniteRhsError)

    def test_rhs_ignoring_the_stack_rejected(self):
        pts = cg_points(3, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"\(4, 2\)"):
            picard_sweep(lambda t, u: np.ones(2), pts, np.ones(2), np.ones((4, 2)))

    def test_stack_sweeps_every_row_in_one_call(self):
        points = cg_points(4, 0.0, 0.5).shifted(np.array([0.0, 0.5, 1.0]))
        f = lambda t, u: -t * u**2
        u_a = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        nodes = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 5, 2))
        u_hat, u_nodes = picard_sweep(f, points, u_a, nodes)
        for i in range(3):
            one = cg_points(4, 0.0, 0.5).shifted(points.a[i])
            hat_i, nodes_i = picard_sweep(f, one, u_a[i], nodes[i])
            np.testing.assert_array_equal(u_hat[i], hat_i)
            np.testing.assert_array_equal(u_nodes[i], nodes_i)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="node table"):
            picard_sweep(lambda t, u: -u, cg_points(3, 0.0, 1.0), 1.0, np.ones((3, 1)))


class TestSolveNonlinear:
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_tol_must_be_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            solve_nonlinear(lambda t, u: -u, cg_points(2, 0.0, 1.0), 1.0, tol=value)

    def test_exponential_decay(self):
        pts = cg_points(16, 0.0, 0.5)
        sol = solve_nonlinear(lambda t, u: -u, pts, 1.0, tol=1e-13)
        assert sol.u_end[0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_single_node_endpoint(self):
        pts = cg_points(0, 0.0, 1.0)
        sol = solve_nonlinear(lambda t, u: -u, pts, 1.0, tol=1e-13)
        assert sol.u_end[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_one_rhs_call_per_sweep(self):
        pts = cg_points(8, 0.0, 0.5)
        shapes = []

        def f(t, u):
            shapes.append((t.shape, u.shape))
            return -u

        sol = solve_nonlinear(f, pts, 1.0, tol=1e-13)
        assert shapes == [((9, 1), (9, 1))] * sol.iterations

    def test_stack_rows_stop_on_their_own(self):
        # Rows further from equilibrium need more sweeps.  Each sweep is one
        # f call on the rows still sweeping, every row ends on its own
        # single-state solve, and the reported count is the largest.
        f = lambda t, u: -(u**2)
        U = np.array([[0.01], [1.0], [3.0]])
        points = cg_points(8, 0.0, 0.2).shifted(np.zeros(3))
        heights = []

        def counted(t, u):
            heights.append(len(u))
            return f(t, u)

        sol = solve_nonlinear(counted, points, U)
        rows = [solve_nonlinear(f, cg_points(8, 0.0, 0.2), u) for u in U]
        counts = [r.iterations for r in rows]
        assert len(set(counts)) == 3
        assert sol.iterations == max(counts) == len(heights)
        assert heights == sorted(heights, reverse=True) and heights[0] == 3
        for i, r in enumerate(rows):
            np.testing.assert_array_equal(sol.u_hat[i], r.u_hat)
            np.testing.assert_array_equal(sol.u_end[i], r.u_end)

    def test_divergence_detected(self):
        # With one node the sweep multiplies errors by z/2; z = 4 diverges.
        pts = cg_points(0, 0.0, 1.0)
        with pytest.raises(NonConvergenceError):
            solve_nonlinear(lambda t, u: -4.0 * u, pts, 1.0)

    def test_polynomial_rhs_integrated_exactly(self):
        # RHS p(t) of degree <= M is reproduced through its antiderivative.
        pts = cg_points(4, 0.3, 0.9)
        poly = lambda t: 3.0 * t**2 - 2.0 * t + 1.0
        anti = lambda t: t**3 - t**2 + t
        sol = solve_nonlinear(lambda t, u: poly(t) * np.ones_like(u), pts, anti(0.3))
        np.testing.assert_allclose(sol.u_nodes[:, 0], anti(pts.t), atol=1e-11)
        assert sol.u_end[0] == pytest.approx(anti(0.9), abs=1e-11)

    def test_linear_convergence_rate_below_one(self):
        # Lipschitz constant times interval length 0.2 < 1/4.
        pts = cg_points(6, 0.0, 0.2)
        u_nodes = np.ones((7, 1))
        diffs = []
        for _ in range(8):
            _, u_new = picard_sweep(lambda t, u: -u, pts, 1.0, u_nodes)
            diffs.append(np.max(np.abs(u_new - u_nodes)))
            u_nodes = u_new
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if b > 1e-15]
        assert all(r < 1.0 for r in ratios)

    def test_spectral_endpoint_accuracy(self):
        errors = []
        for M in (4, 6, 8, 10, 12):
            pts = cg_points(M, 0.0, 1.0)
            sol = solve_nonlinear(lambda t, u: -u, pts, 1.0, tol=1e-14, max_iter=200)
            errors.append(abs(sol.u_end[0] - math.exp(-1.0)))
        for e_coarse, e_fine in zip(errors, errors[1:]):
            if e_coarse < 1e-14:
                break
            assert e_fine < e_coarse / 5.0


class TestSolveLinear:
    def test_coarsest_closed_form(self):
        pts = cg_points(0, 0.0, 1.0)
        sol = solve_linear(np.array([[1.0]]), None, pts, 1.0)
        assert sol.u_end[0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_two_node_closed_form(self):
        pts = cg_points(1, 0.0, 1.0)
        sol = solve_linear(np.array([[1.0]]), None, pts, 1.0)
        assert sol.u_end[0] == pytest.approx(9.0 / 25.0, abs=1e-14)

    def test_diagonal_system_decouples(self):
        pts = cg_points(20, 0.0, 0.7)
        sol = solve_linear(np.diag([1.0, 2.0]), None, pts, np.array([1.0, 1.0]))
        np.testing.assert_allclose(sol.u_end, [math.exp(-0.7), math.exp(-1.4)], atol=1e-10)

    def test_forced_scalar_problem(self):
        # u' + u = 1, u(0) = 0 has solution 1 - exp(-t).
        pts = cg_points(16, 0.0, 1.0)
        sol = solve_linear(np.array([[1.0]]), lambda t: np.ones_like(t), pts, 0.0)
        assert sol.u_end[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_node_values_consistent_with_coefficients(self):
        op = build_operator(6)
        pts = cg_points(6, 0.0, 0.5)
        sol = solve_linear(np.array([[2.0]]), None, pts, 1.0)
        np.testing.assert_allclose(sol.u_nodes, op.T1 @ sol.u_hat, atol=1e-14)
        np.testing.assert_allclose(sol.u_end, sol.u_hat.sum(axis=0), atol=1e-14)

    def test_singular_system_flagged(self):
        # A negative eigenvalue can place the scaled problem on a pole; one
        # singular eigen-block makes the whole solve singular.
        pts = cg_points(0, 0.0, 1.0)
        for A in (np.array([[-2.0]]), np.diag([1.0, -2.0])):
            with pytest.raises(SingularSystemError):
                solve_linear(A, None, pts, np.ones(len(A)))

    def test_nonsymmetric_matrix_rejected(self):
        pts = cg_points(4, 0.0, 0.5)
        with pytest.raises(ValueError, match="symmetric"):
            solve_linear(np.array([[1.0, 0.5], [0.0, 2.0]]), None, pts, np.ones(2))

    def test_nonfinite_forcing_reports_node(self):
        pts = cg_points(3, 0.0, 1.0)
        with pytest.raises(NonFiniteRhsError) as err:
            solve_linear(np.array([[1.0]]), lambda t: np.full_like(t, np.nan), pts, 1.0)
        assert err.value.node == 0
        assert err.value.t == pts.t[0]
        assert type(err.value.t) is float
        assert "np.float64" not in str(err.value)

    @pytest.mark.parametrize(
        "name, params, M, dT",
        [
            ("laplacian-1d", {"m": 24}, 12, 0.1 / 16),
            ("laplacian-1d", {"m": 32}, 16, 1.0 / 32),
            ("diag-spectrum", {"m": 5, "lambda_min": 1.0, "lambda_max": 1e4}, 20, 1.0),
        ],
    )
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    def test_agrees_with_kronecker_system(self, name, params, M, dT, forced):
        problem = spd_catalog(name, **params)
        g = (lambda t: np.sin(t) * np.ones(problem.dim)) if forced else None
        op = build_operator(M)
        pts = cg_points(M, 0.3, 0.3 + dT)
        sol = solve_linear(problem.A, g, pts, problem.u0)
        u_hat, u_end = kronecker_solve(op, problem.A, g, pts, problem.u0)
        scale = np.max(np.abs(u_end))
        assert np.max(np.abs(sol.u_end - u_end)) <= 1e-13 * scale
        assert np.max(np.abs(sol.u_hat - u_hat)) <= 1e-13 * scale

    def test_agrees_with_picard_in_convergent_regime(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = rng.uniform(0.05, 0.95)
            M = int(rng.integers(0, 9))
            pts = cg_points(M, 0.0, 1.0)
            u0 = rng.uniform(-2.0, 2.0)
            direct = solve_linear(np.array([[lam]]), None, pts, u0)
            picard = solve_nonlinear(lambda t, u: -lam * u, pts, u0, tol=1e-14, max_iter=300)
            assert direct.u_end[0] == pytest.approx(picard.u_end[0], abs=1e-10)


def svd_rejects(K):
    """The singular-value test of ``solve_checked`` on one system ``K``."""
    s = np.linalg.svd(K, compute_uv=False)
    return s[-1] <= 1e-14 * max(s[0], 1.0)


def real_poles(M):
    """``z = -1/mu`` for the real eigenvalues ``mu`` of ``T1_C`` (one exists for even M)."""
    mu = np.linalg.eigvals(build_operator(M).T1_C)
    return [-1.0 / m.real for m in mu if m.imag == 0.0]


class TestSingularityCertificate:
    @pytest.mark.parametrize("M", [*range(65), 128, 512])
    def test_never_passes_what_the_svd_rejects(self, M):
        # The positive grid up to 1e8, plus shifts from a pole out to where
        # the singular-value test stops rejecting.
        op = build_operator(M)
        zs = list(np.concatenate(([0.0], np.geomspace(1e-3, 1e8, 25))))
        for pole in real_poles(M):
            zs += [pole * (1.0 + d) for d in (0.0, 1e-15, -1e-15, 1e-12, -1e-9, 1e-6, 1e-3)]
        for z in zs:
            K = np.eye(M + 1) + z * op.T1_C
            if collocation._certified(K[None, None]):
                assert not svd_rejects(K), z

    def test_certificate_rejects_near_poles_and_accepts_nearby(self):
        # Both outcomes occur: the check is not vacuous.
        op = build_operator(4)
        (pole,) = real_poles(4)
        K = np.eye(5) + pole * op.T1_C
        assert svd_rejects(K) and not collocation._certified(K[None, None])
        K = np.eye(5) + 0.5 * pole * op.T1_C
        assert not svd_rejects(K) and collocation._certified(K[None, None])

    def test_one_system_per_leading_entry(self):
        # A vector of shifts is one block-diagonal system, tested as a
        # whole; a column of shifts is one system per entry.  The huge
        # block raises the yardstick of the system it belongs to.
        op = build_operator(0)  # T1_C = [[1/2]]: the block is 1 + z/2
        z = np.array([-2.0 + 4e-13, 1e3])  # blocks 2e-13 and 501
        solve_checked(op, z[:, None], np.ones((2, 1, 1)))
        with pytest.raises(SingularSystemError):
            solve_checked(op, z, np.ones((2, 1)))

    @pytest.mark.parametrize("M", [0, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("shift", [0.0, 1e-15, -1e-15], ids=["pole", "above", "below"])
    def test_shifted_systems_at_a_pole_raise(self, M, shift):
        op = build_operator(M)
        pts = cg_points(M, 0.0, 1.0)
        for pole in real_poles(M):
            z = pole * (1.0 + shift)
            with pytest.raises(SingularSystemError):
                solve_checked(op, z, np.ones(M + 1))
            with pytest.raises(SingularSystemError):
                solve_checked(op, np.array([[0.5], [z]]), np.ones(M + 1))
            with pytest.raises(SingularSystemError):
                solve_linear(np.array([[z]]), None, pts, np.ones(1))


class TestEndpointValue:
    def test_constant_series(self):
        assert endpoint(np.array([[3.0], [0.0], [0.0]]))[0] == 3.0

    def test_first_mode(self):
        assert endpoint(np.array([[0.0], [1.0], [0.0]]))[0] == 1.0

    def test_matches_series_evaluation_at_right_endpoint(self):
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(7)
        got = endpoint(coeffs[:, None])[0]
        assert got == pytest.approx(series_eval(coeffs, 1.0), abs=1e-14)
