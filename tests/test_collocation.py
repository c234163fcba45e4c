import math
import warnings

import numpy as np
import pytest

from paracheb import (
    NonConvergenceError,
    NonFiniteRhsError,
    PropagatorSpec,
    SingularSystemError,
    CollocationSolution,
    LinearRhs,
    SweepError,
    build_operator,
    cg_points,
    picard_sweep,
    solve_linear,
    solve_nonlinear,
    spd_catalog,
    stability,
)
from paracheb import collocation
from paracheb.collocation import solve_checked


def endpoint(u_hat):
    """The right-endpoint state of a solution with coefficients ``u_hat``."""
    return CollocationSolution(u_hat, 0).u_end


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


def kronecker_solve(op, A, points, u_a):
    """Reference direct solve: the node values of all components as one
    dense system ``(I + dT kron(T1_C, A)) u = 1 u_a``."""
    n, dim, dT = op.M + 1, u_a.size, points.length
    K = np.eye(n * dim) + dT * np.kron(op.T1_C, A)
    U = np.linalg.solve(K, np.tile(u_a, n)).reshape(n, dim)
    u_hat = np.zeros((op.M + 2, dim))
    u_hat[0] = u_a
    u_hat += dT * (op.C_alpha @ -(U @ A.T))
    return u_hat, u_hat.sum(axis=0)


class TestPicardSweep:
    @pytest.mark.parametrize("lead", [(), (1,), (7,)])
    def test_coefficients_match_zeros_plus_the_scaled_product(self, lead):
        # The product is scaled in place: every coefficient, from node
        # values and start values that hold 0.0 and -0.0 too, has the bits
        # of zeros with u_a in row 0, plus length * (C_alpha @ F).
        op, length = build_operator(5), 0.3
        rng = np.random.default_rng(len(lead) + sum(lead))
        F = rng.standard_normal(lead + (6, 3))
        F[..., 1] = -0.0
        F[..., 2] = 0.0
        u_a = rng.standard_normal(lead + (3,))
        u_a[..., 0] = -0.0
        expected = np.zeros(lead + (7, 3))
        expected[..., 0, :] = u_a
        expected += length * (op.C_alpha @ F)
        got = collocation._coefficients(op, length, u_a, F)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_zero_rhs_preserves_constants(self):
        pts = cg_points(3, 0.0, 1.0)
        u_hat, u_nodes, failures = picard_sweep(lambda t, u: 0.0 * u, pts, 2.5, np.full((4, 1), 2.5))
        assert failures == {}
        np.testing.assert_allclose(u_hat[0], [2.5])
        np.testing.assert_allclose(u_hat[1:], 0.0, atol=1e-16)
        np.testing.assert_allclose(u_nodes[:, 0], 2.5)

    def test_constant_rhs_integrates_exactly(self):
        pts = cg_points(4, 0.0, 1.0)
        u_prev = np.zeros((5, 1))
        _, u_nodes, _ = picard_sweep(lambda t, u: np.ones_like(u), pts, 0.0, u_prev)
        np.testing.assert_allclose(u_nodes[:, 0], pts.t, atol=1e-12)

    def test_fixed_point_matches_coarsest_stability_value(self):
        # Repeated sweeps for u' = -u over a unit interval with a single node
        # settle on the endpoint value (2-z)/(2+z) = 1/3 at z = 1.
        pts = cg_points(0, 0.0, 1.0)
        u_nodes = np.ones((1, 1))
        for _ in range(80):
            u_hat, u_nodes, _ = picard_sweep(lambda t, u: -u, pts, 1.0, u_nodes)
        assert endpoint(u_hat)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_nonfinite_rhs_reports_node(self):
        # A single state's failure is row 0's; the sweep returns, not raises.
        pts = cg_points(3, 0.0, 1.0)

        def f(t, u):
            return np.where(t > pts.t[1], np.nan, -u)

        _, _, failures = picard_sweep(f, pts, 1.0, np.ones((4, 1)))
        assert list(failures) == [0]
        assert isinstance(failures[0], NonFiniteRhsError)
        assert (failures[0].node, failures[0].t) == (2, pts.t[2])

    def test_nonfinite_rhs_on_a_stack_names_every_row(self):
        points = cg_points(3, 0.0, 0.5).shifted(np.array([0.0, 0.5, 1.0]))

        def f(t, u):
            return np.where(t > 0.5, np.nan, -u)  # rows 1 and 2 reach past t = 0.5

        u_hat, _, failures = picard_sweep(f, points, np.ones((3, 1)), np.ones((3, 4, 1)))
        assert sorted(failures) == [1, 2]
        assert all(isinstance(exc, NonFiniteRhsError) for exc in failures.values())
        assert np.isfinite(u_hat[0]).all()

    def test_rhs_ignoring_the_stack_rejected(self):
        pts = cg_points(3, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"\(4, 2\)"):
            picard_sweep(lambda t, u: np.ones(2), pts, np.ones(2), np.ones((4, 2)))

    def test_stack_sweeps_every_row_in_one_call(self):
        points = cg_points(4, 0.0, 0.5).shifted(np.array([0.0, 0.5, 1.0]))
        f = lambda t, u: -t * u**2
        u_a = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        nodes = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 5, 2))
        u_hat, u_nodes, _ = picard_sweep(f, points, u_a, nodes)
        for i in range(3):
            one = cg_points(4, 0.0, 0.5).shifted(points.a[i])
            hat_i, nodes_i, _ = picard_sweep(f, one, u_a[i], nodes[i])
            np.testing.assert_array_equal(u_hat[i], hat_i)
            np.testing.assert_array_equal(u_nodes[i], nodes_i)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="node table"):
            picard_sweep(lambda t, u: -u, cg_points(3, 0.0, 1.0), 1.0, np.ones((3, 1)))


class TestSolveNonlinear:
    def test_exponential_decay(self, monkeypatch):
        monkeypatch.setattr(collocation, "_PICARD_TOL", 1e-13)
        pts = cg_points(16, 0.0, 0.5)
        sol = solve_nonlinear(lambda t, u: -u, pts, 1.0)
        assert sol.u_end[0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_single_node_endpoint(self, monkeypatch):
        monkeypatch.setattr(collocation, "_PICARD_TOL", 1e-13)
        pts = cg_points(0, 0.0, 1.0)
        sol = solve_nonlinear(lambda t, u: -u, pts, 1.0)
        assert sol.u_end[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_one_rhs_call_per_sweep(self, monkeypatch):
        # Inside a solve, f always sees a stack: one row for a single state.
        monkeypatch.setattr(collocation, "_PICARD_TOL", 1e-13)
        pts = cg_points(8, 0.0, 0.5)
        shapes = []

        def f(t, u):
            shapes.append((t.shape, u.shape))
            return -u

        sol = solve_nonlinear(f, pts, 1.0)
        assert shapes == [((9, 1), (1, 9, 1))] * sol.iterations

    def test_every_sweep_is_one_picard_sweep_call(self, monkeypatch):
        # A single state, then a stack whose row 1 fails in its first sweep:
        # each sweep is one picard_sweep call on the rows still sweeping.
        heights = []

        def counting(f, points, u_a, u_prev_nodes):
            heights.append(len(np.atleast_2d(u_a)))
            return picard_sweep(f, points, u_a, u_prev_nodes)

        monkeypatch.setattr(collocation, "picard_sweep", counting)
        monkeypatch.setattr(collocation, "_PICARD_TOL", 1e-13)
        sol = solve_nonlinear(lambda t, u: -u, cg_points(8, 0.0, 0.5), 1.0)
        assert heights == [1] * sol.iterations

        f = lambda t, u: np.where(t > 0.5, np.nan, -u)  # row 1 reaches past t = 0.5
        alone = solve_nonlinear(f, cg_points(4, 0.0, 0.5), np.ones(1))
        heights.clear()
        points = cg_points(4, 0.0, 0.5).shifted(np.array([0.0, 0.5]))
        with pytest.raises(SweepError) as err:
            solve_nonlinear(f, points, np.ones((2, 1)))
        assert err.value.indices == [1] and isinstance(err.value.cause, NonFiniteRhsError)
        assert heights == [2] + [1] * (alone.iterations - 1)

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
        # The node values are derived from the coefficients, each row's bits
        # those of its own product and of its solo solve.
        T1 = build_operator(8).T1
        nodes = sol.u_nodes
        for i, r in enumerate(rows):
            np.testing.assert_array_equal(sol.u_hat[i], r.u_hat)
            np.testing.assert_array_equal(sol.u_end[i], r.u_end)
            np.testing.assert_array_equal(nodes[i], T1 @ sol.u_hat[i])
            np.testing.assert_array_equal(nodes[i], r.u_nodes)
            np.testing.assert_array_equal(r.u_nodes, T1 @ r.u_hat)

    def test_rows_settling_together_sweep_the_whole_stack(self):
        # f is linear and each row's largest component is 1, so every row
        # settles on the same sweep: each sweep is one f call on the whole
        # stack, and each row ends on its own single-state solve.
        heights = []

        def f(t, u):
            heights.append(len(u))
            return -u

        U = np.array([[1.0, -0.5], [-1.0, 0.25], [0.5, 1.0]])
        starts = np.array([0.0, 0.2, 0.4])
        sol = solve_nonlinear(f, cg_points(6, 0.0, 0.2).shifted(starts), U)
        assert heights == [3] * sol.iterations
        for a, u, u_hat in zip(starts, U, sol.u_hat):
            alone = solve_nonlinear(lambda t, u: -u, cg_points(6, 0.0, 0.2).shifted(a), u)
            assert alone.iterations == sol.iterations
            np.testing.assert_array_equal(u_hat, alone.u_hat)

    def test_divergence_detected(self):
        # With one node the sweep multiplies errors by z/2; z = 4 diverges.
        pts = cg_points(0, 0.0, 1.0)
        with pytest.raises(NonConvergenceError):
            solve_nonlinear(lambda t, u: -4.0 * u, pts, 1.0)

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_blow_up_raises_its_typed_error_without_warnings(self, stacked):
        # u' = u^2 from 1e3 overflows within a few sweeps.  Any numpy
        # warning would be raised here ahead of the typed error.
        pts = cg_points(2, 0.0, 1.0)
        u_a = np.array([[1e3], [2e3]]) if stacked else np.array([1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SweepError if stacked else NonFiniteRhsError) as err:
                solve_nonlinear(lambda t, u: u * u, pts.shifted(np.zeros(2)) if stacked else pts, u_a)
        if stacked:
            assert err.value.indices == [0, 1]

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
            _, u_new, _ = picard_sweep(lambda t, u: -u, pts, 1.0, u_nodes)
            diffs.append(np.max(np.abs(u_new - u_nodes)))
            u_nodes = u_new
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if b > 1e-15]
        assert all(r < 1.0 for r in ratios)

    def test_spectral_endpoint_accuracy(self, monkeypatch):
        monkeypatch.setattr(collocation, "_PICARD_TOL", 1e-14)
        monkeypatch.setattr(collocation, "_PICARD_MAX_ITER", 200)
        errors = []
        for M in (4, 6, 8, 10, 12):
            pts = cg_points(M, 0.0, 1.0)
            sol = solve_nonlinear(lambda t, u: -u, pts, 1.0)
            errors.append(abs(sol.u_end[0] - math.exp(-1.0)))
        for e_coarse, e_fine in zip(errors, errors[1:]):
            if e_coarse < 1e-14:
                break
            assert e_fine < e_coarse / 5.0


class TestSolveLinear:
    def test_coarsest_closed_form(self):
        pts = cg_points(0, 0.0, 1.0)
        sol = solve_linear(LinearRhs(np.array([[1.0]])), pts, 1.0)
        assert sol.u_end[0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_two_node_closed_form(self):
        pts = cg_points(1, 0.0, 1.0)
        sol = solve_linear(LinearRhs(np.array([[1.0]])), pts, 1.0)
        assert sol.u_end[0] == pytest.approx(9.0 / 25.0, abs=1e-14)

    def test_diagonal_system_decouples(self):
        pts = cg_points(20, 0.0, 0.7)
        sol = solve_linear(LinearRhs(np.diag([1.0, 2.0])), pts, np.array([1.0, 1.0]))
        np.testing.assert_allclose(sol.u_end, [math.exp(-0.7), math.exp(-1.4)], atol=1e-10)

    def test_node_values_consistent_with_coefficients(self):
        op = build_operator(6)
        pts = cg_points(6, 0.0, 0.5)
        sol = solve_linear(LinearRhs(np.array([[2.0]])), pts, 1.0)
        np.testing.assert_allclose(sol.u_nodes, op.T1 @ sol.u_hat, atol=1e-14)
        np.testing.assert_allclose(sol.u_end, sol.u_hat.sum(axis=0), atol=1e-14)

    def test_singular_system_flagged(self):
        # Only a negative eigenvalue can place the scaled problem on a pole
        # (z = -2 for M = 0), and LinearRhs rejects it when it is built;
        # an exactly singular block given to solve_checked fails its LU.
        for A in (np.array([[-2.0]]), np.diag([1.0, -2.0])):
            with pytest.raises(ValueError, match="positive semidefinite"):
                LinearRhs(A)
        with pytest.raises(SingularSystemError, match="singular"):
            solve_checked(build_operator(0), np.array([1.0, exact_pole()]), np.ones((2, 1)))

    def test_indefinite_matrix_rejected(self):
        # An eigenvalue below zero by more than eigh's rounding is outside
        # the method's domain, however far from a pole its shift sits.
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        for lowest in (-2.5, -1e-9):
            A = (Q * [lowest, 0.0, 1.0, 60.0]) @ Q.T
            with pytest.raises(ValueError, match="positive semidefinite"):
                LinearRhs((A + A.T) / 2)

    @pytest.mark.parametrize("M", [0, 1, 4, 12])
    def test_stiff_diagonal_matches_stability(self, M):
        # Blocks of scale 1 and 1e15 in one call: each component is its own
        # R(z) u0, however far apart the scales of the blocks.
        pts = cg_points(M, 0.0, 1.0)
        lam = np.array([1.0, 1e15])
        sol = solve_linear(LinearRhs(np.diag(lam)), pts, np.ones(2))
        R = stability(PropagatorSpec.chebyshev_gauss(M), lam)
        np.testing.assert_allclose(sol.u_end, R, rtol=1e-13, atol=0)

    def test_nonsymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            LinearRhs(np.array([[1.0, 0.5], [0.0, 2.0]]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_matrix_rejected(self, bad, capfd):
        # Rejected before the symmetry test, which would warn, and before
        # any LAPACK call.
        A = np.diag([1.0, 2.0])
        A[0, 1] = A[1, 0] = bad
        with pytest.raises(ValueError, match="matrix must be finite"):
            LinearRhs(A)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("A", [np.ones(2), np.ones((2, 3)), np.ones((1, 2, 2))])
    def test_non_square_matrix_rejected(self, A):
        with pytest.raises(ValueError, match="matrix must be square"):
            LinearRhs(A)

    def test_state_of_another_size_rejected(self):
        pts = cg_points(4, 0.0, 0.5)
        with pytest.raises(ValueError, match=r"matrix must be 3x3 \(got shape \(2, 2\)\)"):
            solve_linear(LinearRhs(np.eye(2)), pts, np.ones(3))

    def test_decomposition_held(self):
        # The eigenvalues come ascending, a rounding-sized negative one as
        # 0, and Q diag(lam) Q^T gives back A.
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        linear = LinearRhs(A)
        np.testing.assert_allclose(linear.lam, [1.0, 3.0], rtol=1e-15)
        np.testing.assert_allclose((linear.Q * linear.lam) @ linear.Q.T, A, atol=1e-15)
        below = LinearRhs(np.diag([1.0, -1e-17]))
        assert below.lam.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("M", [4, 8, 12, 16])
    def test_psd_matrix_agrees_with_kronecker_system(self, M):
        # Zero eigenvalues sit on the edge of the domain: eigh returns them
        # as rounding-sized values of either sign, and solve_linear takes a
        # negative one as 0.  The second matrix moves them to a quarter of
        # the accepted band below zero, so its eigh surely returns one.
        dT = 0.5
        lam = np.array([0.0, 2.5, 0.0, 0.75, 3.0, 60.0])
        rng = np.random.default_rng(M)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        A = (Q * lam) @ Q.T
        A = (A + A.T) / 2
        below = A - 6 * np.finfo(float).eps * 60.0 / 4 * np.eye(6)
        assert np.linalg.eigh(below)[0][0] < 0
        pts = cg_points(M, 0.2, 0.2 + dT)
        u0 = rng.standard_normal(6)
        for A in (A, below):
            sol = solve_linear(LinearRhs(A), pts, u0)
            u_hat, u_end = kronecker_solve(build_operator(M), A, pts, u0)
            scale = np.max(np.abs(u_end))
            assert np.max(np.abs(sol.u_end - u_end)) <= 1e-13 * scale
            assert np.max(np.abs(sol.u_hat - u_hat)) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "name, params, M, dT",
        [
            ("laplacian-1d", {"m": 24}, 12, 0.1 / 16),
            ("laplacian-1d", {"m": 32}, 16, 1.0 / 32),
            ("diag-spectrum", {"m": 5, "lambda_min": 1.0, "lambda_max": 1e4}, 20, 1.0),
        ],
    )
    def test_agrees_with_kronecker_system(self, name, params, M, dT):
        problem = spd_catalog(name, **params)
        op = build_operator(M)
        pts = cg_points(M, 0.3, 0.3 + dT)
        sol = solve_linear(LinearRhs(problem.A), pts, problem.u0)
        u_hat, u_end = kronecker_solve(op, problem.A, pts, problem.u0)
        scale = np.max(np.abs(u_end))
        assert np.max(np.abs(sol.u_end - u_end)) <= 1e-13 * scale
        assert np.max(np.abs(sol.u_hat - u_hat)) <= 1e-13 * scale

    def test_agrees_with_picard_in_convergent_regime(self, monkeypatch):
        monkeypatch.setattr(collocation, "_PICARD_TOL", 1e-14)
        monkeypatch.setattr(collocation, "_PICARD_MAX_ITER", 300)
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = rng.uniform(0.05, 0.95)
            M = int(rng.integers(0, 9))
            pts = cg_points(M, 0.0, 1.0)
            u0 = rng.uniform(-2.0, 2.0)
            direct = solve_linear(LinearRhs(np.array([[lam]])), pts, u0)
            picard = solve_nonlinear(lambda t, u: -lam * u, pts, u0)
            assert direct.u_end[0] == pytest.approx(picard.u_end[0], abs=1e-10)


def svd_rejects(K):
    """Whether ``K`` is singular to working precision: its smallest singular
    value at most 1e-14 times its largest, or times 1 when that is smaller."""
    s = np.linalg.svd(K, compute_uv=False)
    return s[-1] <= 1e-14 * max(s[0], 1.0)


def exact_pole():
    """The shift whose ``M = 0`` block ``1 + z T1_C`` rounds to exactly 0."""
    t = build_operator(0).T1_C[0, 0]
    z = -1.0 / t
    assert 1.0 + z * t == 0.0
    return z


def real_poles(M):
    """``z = -1/mu`` for the real eigenvalues ``mu`` of ``T1_C`` (one exists for even M)."""
    mu = np.linalg.eigvals(build_operator(M).T1_C)
    return [-1.0 / m.real for m in mu if m.imag == 0.0]


class TestSingularityCertificate:
    """The sign of the shifts certifies the systems: ``LinearRhs`` admits
    only eigenvalues that give ``z >= 0``, where no block is singular, and
    ``solve_checked`` solves each block as it stands."""

    def test_one_system_per_leading_entry(self):
        # A vector of shifts is one block-diagonal system, a column one
        # system per entry; either way each block is solved alone, so a huge
        # block beside a unit one changes no bit of the other's answer.
        op = build_operator(4)
        z = np.array([0.0, 1e15])
        b = np.arange(1.0, 11.0).reshape(2, 5)
        whole = solve_checked(op, z, b)
        assert whole.shape == (2, 5)
        for j in range(2):
            alone = solve_checked(op, z[j], b[j])
            assert whole[j].tobytes() == alone.tobytes()
            assert solve_checked(op, z[:, None], b[:, None])[j, 0].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("M", [0, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("shift", [0.0, 1e-15, -1e-15], ids=["pole", "above", "below"])
    def test_shifted_systems_at_a_pole_raise(self, M, shift):
        # Every pole is at z < 0, which only a negative eigenvalue reaches;
        # LinearRhs and stability both reject it before any solve.
        for pole in real_poles(M):
            z = pole * (1.0 + shift)
            assert z < 0
            with pytest.raises(ValueError, match="positive semidefinite"):
                LinearRhs(np.array([[z]]))
            with pytest.raises(ValueError, match="nonnegative"):
                stability(PropagatorSpec.chebyshev_gauss(M), z)


def count_lapack(monkeypatch):
    """The ``np.linalg`` factorizations and solves that run, by name, filled
    in as they run."""
    calls = []
    for name in ("svd", "cholesky", "solve"):
        original = getattr(np.linalg, name)
        wrapped = lambda *args, name=name, original=original, **kwargs: calls.append(name) or original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)
    return calls


class TestSingularityProof:
    # Up to m_min's search cap (analysis._SEARCH_CAP = 512).
    @pytest.mark.parametrize("M", [*range(65), 100, 128, 164, 256, 512])
    def test_never_overstates_the_smallest_singular_value(self, M):
        # Why solve_checked needs no singularity test: every eigenvalue mu
        # of T1_C has a positive real part, so each eigenvalue of
        # I + z T1_C has modulus |1 + z mu| >= 1 for z >= 0.  That does not
        # overstate the smallest singular value: none of these blocks is
        # singular to working precision, far past any shift a run makes.
        T = build_operator(M).T1_C
        assert np.linalg.eigvals(T).real.min() > 0
        for z in np.concatenate(([0.0], np.geomspace(1e-3, 1e16, 25))):
            assert not svd_rejects(np.eye(M + 1) + z * T), z

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    def test_nonfinite_shift_rejected_before_lapack(self, z, monkeypatch, capfd):
        calls = count_lapack(monkeypatch)
        op = build_operator(4)
        for shifts in (z, np.array([0.5, z]), np.array([[0.5], [z]])):
            with pytest.raises(ValueError, match="finite"):
                solve_checked(op, shifts, np.ones(5))
        assert calls == [] and capfd.readouterr().err == ""

    def test_spd_solve_runs_no_certificate(self, monkeypatch):
        # An SPD solve is one stacked LU solve: no singular-value test and
        # no Cholesky factorization.  An exactly singular block (z < 0)
        # still surfaces from that LU as SingularSystemError.
        calls = count_lapack(monkeypatch)
        problem = spd_catalog("laplacian-1d", m=24)
        pts = cg_points(12, 0.0, 1.0 / 16).shifted(np.arange(4) / 16)
        solve_linear(LinearRhs(problem.A), pts, np.tile(problem.u0, (4, 1)))
        assert calls == ["solve"]
        with pytest.raises(SingularSystemError):
            solve_checked(build_operator(0), exact_pole(), np.ones(1))
        assert calls == ["solve", "solve"]


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
