import math

import numpy as np
import pytest

from paracheb import build_operator, cg_points, chebyshev_eval


def recurrence_T1(M):
    """The basis table as ``build_operator`` assembled it before chebvander:
    the three-term recurrence, column by column, in C order."""
    tau = cg_points(M, -1.0, 1.0).tau
    T1 = np.empty((M + 1, M + 2))
    T1[:, 0] = 1.0
    T1[:, 1] = tau
    for l in range(1, M + 1):
        T1[:, l + 1] = 2.0 * tau * T1[:, l] - T1[:, l - 1]
    return T1


def cheb_trig(l, tau):
    """Trigonometric closed form, kept as an independent oracle."""
    return math.cos(l * math.acos(tau))


class TestCgPoints:
    def test_single_midpoint(self):
        pts = cg_points(0, -1.0, 1.0)
        assert pts.tau.shape == (1,)
        assert pts.tau[0] == pytest.approx(0.0, abs=1e-16)
        assert pts.t[0] == pytest.approx(0.0, abs=1e-16)

    def test_two_points_closed_form(self):
        pts = cg_points(1, 0.0, 2.0)
        s = math.sqrt(2.0) / 2.0
        np.testing.assert_allclose(pts.tau, [-s, s], atol=1e-15)
        np.testing.assert_allclose(pts.t, [1.0 - s, 1.0 + s], atol=1e-15)

    def test_points_are_roots_of_shifted_polynomial(self):
        # Shifted degree-(M+1) Chebyshev polynomial must vanish at every node.
        pts = cg_points(4, 0.0, 1.0)
        for t in pts.t:
            tau = 2.0 * (t - 0.0) / 1.0 - 1.0
            assert abs(cheb_trig(5, tau)) < 1e-12

    def test_increasing_and_interior(self):
        pts = cg_points(7, -2.0, 3.5)
        assert np.all(np.diff(pts.tau) > 0)
        assert np.all((pts.t > -2.0) & (pts.t < 3.5))

    def test_symmetry(self):
        pts = cg_points(9, -1.0, 1.0)
        np.testing.assert_allclose(pts.tau, -pts.tau[::-1], atol=1e-15)

    def test_shifted_stack_shares_one_length(self):
        # On a uniform grid (s + dT) - s is not always dT; a stack keeps dT.
        dT = 0.1 / 16
        ref = cg_points(5, 0.0, dT)
        starts = np.arange(16) * dT
        assert any((s + dT) - s != dT for s in starts)
        stack = ref.shifted(starts)
        assert stack.t.shape == (16, 6) and stack.length == dT
        np.testing.assert_array_equal(stack.t, starts[:, None] + ref.t)
        np.testing.assert_array_equal(stack.a, starts)
        assert np.all((stack.t > stack.a[:, None]) & (stack.t < stack.a[:, None] + stack.length))

    @pytest.mark.parametrize("M,a,b", [(-1, 0.0, 1.0), (2, 1.0, 1.0), (2, 2.0, 1.0)])
    def test_rejects_bad_arguments(self, M, a, b):
        with pytest.raises(ValueError):
            cg_points(M, a, b)


class TestChebyshevEval:
    def test_degree_zero_and_one(self):
        assert chebyshev_eval(0, -0.73) == 1.0
        assert chebyshev_eval(1, 0.3) == pytest.approx(0.3, abs=1e-16)

    def test_against_trig_oracle(self):
        assert chebyshev_eval(5, 0.7) == pytest.approx(cheb_trig(5, 0.7), abs=1e-13)
        rng = np.random.default_rng(5)
        for tau in rng.uniform(-1, 1, 25):
            for l in (2, 3, 7, 12):
                assert chebyshev_eval(l, tau) == pytest.approx(cheb_trig(l, tau), abs=1e-11)

    def test_endpoint_identity(self):
        for l in range(51):
            assert abs(chebyshev_eval(l, 1.0) - 1.0) <= 1e-14

    def test_bounded_on_interval(self):
        rng = np.random.default_rng(11)
        for tau in rng.uniform(-1, 1, 50):
            for l in (0, 1, 5, 20, 40):
                assert abs(chebyshev_eval(l, tau)) <= 1.0 + 1e-14

    def test_tolerates_roundoff_overshoot(self):
        assert chebyshev_eval(3, 1.0 + 5e-13) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chebyshev_eval(3, 1.0 + 1e-9)
        with pytest.raises(ValueError):
            chebyshev_eval(-1, 0.5)


class TestBuildOperator:
    def test_smallest_case_by_hand(self):
        op = build_operator(0)
        np.testing.assert_allclose(op.T1, [[1.0, 0.0]], atol=1e-16)
        np.testing.assert_allclose(op.V, [[1.0]])
        assert op.C_alpha.shape == (2, 1)
        np.testing.assert_allclose(op.C_alpha, [[0.5], [0.5]], atol=1e-16)

    def test_first_row_of_integration_matrix(self):
        # s_2 = (+1) * (1/3 - 1/1) = -2/3 for M = 2.
        op = build_operator(2)
        np.testing.assert_allclose(op.S[0], [2.0, -0.5, -2.0 / 3.0], atol=1e-15)

    def test_diagonal_weights(self):
        op = build_operator(5)
        np.testing.assert_allclose(np.diag(op.V), [1 / 6] + [2 / 6] * 5)
        np.testing.assert_allclose(np.diag(op.R), [1, 1, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6])

    def test_composite_matrix_definition(self):
        op = build_operator(7)
        np.testing.assert_allclose(op.C_alpha, 0.25 * op.R @ op.S @ op.V @ op.T2, atol=1e-15)
        np.testing.assert_allclose(op.T1_C, op.T1 @ op.C_alpha, atol=1e-15)

    def test_basis_matrix_columns(self):
        op = build_operator(6)
        pts = cg_points(6, -1.0, 1.0)
        assert np.all(op.T1[:, 0] == 1.0)
        for m in range(7):
            for l in range(8):
                assert op.T1[m, l] == pytest.approx(cheb_trig(l, pts.tau[m]), abs=1e-12)
        # T2 is the transposed basis restricted to degrees 0..M.
        np.testing.assert_allclose(op.T2, op.T1[:, :7].T)

    def test_basis_equals_recurrence_in_c_order(self):
        # chebvander returns a Fortran-ordered table; products with it take
        # other BLAS paths and move the last bits of T1_C and every solve.
        for M in range(65):
            T1 = build_operator(M).T1
            np.testing.assert_array_equal(T1, recurrence_T1(M))
            assert T1.flags.c_contiguous

    def test_transform_roundtrip(self):
        # Interpolating at the nodes and re-evaluating there is the identity.
        rng = np.random.default_rng(42)
        for M in (1, 3, 6, 12):
            op = build_operator(M)
            f = rng.standard_normal(M + 1)
            coeffs = op.V @ op.T2 @ f
            back = op.T1[:, : M + 1] @ coeffs
            assert np.max(np.abs(back - f)) < 1e-12

    def test_entries_finite_up_to_64(self):
        for M in (16, 32, 64):
            op = build_operator(M)
            for mat in (op.T1, op.T2, op.V, op.R, op.S, op.C_alpha):
                assert np.all(np.isfinite(mat))

    def test_operators_are_read_only(self):
        op = build_operator(3)
        with pytest.raises(ValueError):
            op.C_alpha[0, 0] = 99.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build_operator(-2)
