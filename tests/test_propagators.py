import math

import numpy as np
import pytest

from paracheb import (
    KeplerProblem,
    NewtonConfig,
    NonConvergenceError,
    NonFiniteRhsError,
    PropagatorKind,
    PropagatorSpec,
    SingularSystemError,
    SweepError,
    advance,
    build_burgers,
    parse_spec,
    spd_catalog,
    stability,
)
from paracheb.propagators import _fd_jacobian

ALL_SPECS = [
    PropagatorSpec.backward_euler(3),
    PropagatorSpec.forward_euler(2),
    PropagatorSpec.trapezoidal(2),
    PropagatorSpec.tr_bdf2(2),
    PropagatorSpec.gauss4(2),
    PropagatorSpec.erk4(1),
    PropagatorSpec.chebyshev_gauss(20),
]

IMPLICIT_KINDS = [
    PropagatorKind.BACKWARD_EULER,
    PropagatorKind.TRAPEZOIDAL,
    PropagatorKind.TR_BDF2,
    PropagatorKind.GAUSS4,
]


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
        # A time-dependent RHS checks that substeps advance the clock.
        seen = []

        def f(t, u):
            seen.append(t)
            return 0.0 * u

        advance(PropagatorSpec.forward_euler(4), f, 2.0, np.array([1.0]), 1.0)
        np.testing.assert_allclose(seen, [2.0, 2.25, 2.5, 2.75])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            advance(PropagatorSpec.backward_euler(1), decay(1.0), 0.0, np.array([1.0]), 0.0)

    @pytest.mark.parametrize("kind", IMPLICIT_KINDS, ids=lambda k: k.value)
    def test_newton_nonconvergence_raises(self, kind):
        spec = PropagatorSpec(kind, newton=NewtonConfig(max_iter=1))
        with pytest.raises(NonConvergenceError, match="did not converge"):
            advance(spec, lambda t, u: -(u**3), 0.0, np.array([2.0]), 10.0)

    @pytest.mark.parametrize("kind", IMPLICIT_KINDS, ids=lambda k: k.value)
    def test_newton_nonfinite_raises(self, kind):
        # With dT = 10 every kind's starting guess lands where f is
        # infinite, so no damped update can bring the residual back.
        def f(t, u):
            return np.where(np.abs(u) > 1.5, np.inf, -u)

        with np.errstate(invalid="ignore"):
            with pytest.raises(NonConvergenceError, match="non-finite values"):
                advance(PropagatorSpec(kind), f, 0.0, np.array([1.0]), 10.0)

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
        [(KeplerProblem().to_ivp(), 0.25), (build_burgers(0.05, 16).to_ivp(), 1.0 / 32.0)],
        ids=["kepler", "burgers"],
    )
    def test_problem_jacobian_agrees_with_differences(self, kind, ivp, dT):
        spec = PropagatorSpec(kind, substeps=6)
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
            linear=(np.array([[1.0]]), None),
        )
        assert got[0] == pytest.approx(9.0 / 25.0, abs=1e-13)


def per_row(spec, f, times, U, dT, **kw):
    """Reference: one single-state ``advance`` call per row, as the fine
    sweep made them before it was stacked."""
    return np.array([advance(spec, f, t, u, dT, **kw) for t, u in zip(times, U)])


def perturbed_stack(ivp, n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0, n), ivp.u0 * rng.uniform(0.9, 1.1, (n, ivp.dim))


ONE_STEP_SPECS = ["feuler:3", "erk4:3", "beuler:3", "tr:3", "trbdf2:3", "gauss4:3"]


class TestStackedAdvance:
    @pytest.mark.parametrize("jac", ["hook", "fd"])
    @pytest.mark.parametrize("text", ONE_STEP_SPECS + ["cg:6"])
    def test_kepler_stack_is_bit_identical_to_rows(self, text, jac):
        # Kepler's f and jacobian work state by state, so stacking changes
        # no bit of any row; dT = 0.3 is not a binary fraction.
        ivp = KeplerProblem().to_ivp()
        hook = ivp.jacobian if jac == "hook" else None
        times, U = perturbed_stack(ivp, 7, 1)
        got = advance(parse_spec(text), ivp.f, times, U, 0.3, jac=hook)
        np.testing.assert_array_equal(got, per_row(parse_spec(text), ivp.f, times, U, 0.3, jac=hook))

    @pytest.mark.parametrize("text", ONE_STEP_SPECS + ["cg:8"])
    def test_burgers_stack_agrees_with_rows(self, text):
        # Burgers' f is a matrix product: a one-state call takes BLAS's
        # matrix-vector kernel, a stack its matrix-matrix kernel, which
        # differ in the last bit.  Collocation node tables and Gauss stage
        # pairs are matrix-matrix either way and agree exactly.
        ivp = build_burgers(0.05, 16).to_ivp()
        times, U = perturbed_stack(ivp, 7, 2)
        got = advance(parse_spec(text), ivp.f, times, U, 0.03, jac=ivp.jacobian)
        ref = per_row(parse_spec(text), ivp.f, times, U, 0.03, jac=ivp.jacobian)
        if text in ("gauss4:3", "cg:8"):
            np.testing.assert_array_equal(got, ref)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    def test_linear_collocation_stack_is_bit_identical_to_rows(self, forced):
        # Each row gets its own vector-matrix product and its own
        # one-column solve, so the shared systems change no bit.
        A = spd_catalog("laplacian-1d", m=24).A
        g = (lambda t: np.sin(t) * np.ones(24)) if forced else None
        rng = np.random.default_rng(3)
        U = rng.uniform(-1.0, 1.0, (16, 24))
        times = np.arange(16) * (0.1 / 16)
        spec = parse_spec("cg:12")
        got = advance(spec, None, times, U, 0.1 / 16, linear=(A, g))
        np.testing.assert_array_equal(got, per_row(spec, None, times, U, 0.1 / 16, linear=(A, g)))

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
            PropagatorSpec.tr_bdf2(1),
            PropagatorSpec.gauss4(2),
        ] + [PropagatorSpec.chebyshev_gauss(M) for M in (0, 1, 2, 4, 8, 16, 32)]
        for spec in specs:
            for z in zs:
                assert abs(stability(spec, z)) < 1.0

    def test_explicit_kinds_blow_up(self):
        assert abs(stability(PropagatorSpec.forward_euler(1), 3.0)) > 1.0
        assert abs(stability(PropagatorSpec.erk4(1), 3.0)) > 1.0

    def test_collocation_limit_magnitude(self):
        for M in (0, 1, 2, 4, 20):
            r = stability(PropagatorSpec.chebyshev_gauss(M), 1e8)
            assert abs(abs(r) - 1.0) < 1e-3

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            stability(PropagatorSpec.backward_euler(1), -0.5)


class TestSpecPlumbing:
    def test_parse_round_trip(self):
        spec = parse_spec("cg:6")
        assert spec.kind is PropagatorKind.CHEBYSHEV_GAUSS and spec.cg_points == 6
        spec = parse_spec("beuler:4")
        assert spec.kind is PropagatorKind.BACKWARD_EULER and spec.substeps == 4
        assert parse_spec("tr:2").label == "tr_j2"
        assert parse_spec("cg:0").label == "cg_m0"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_spec("rk45:3")

    @pytest.mark.parametrize("text", ["beuler:x", "cg:2.5"])
    def test_parse_rejects_non_integer_count(self, text):
        with pytest.raises(ValueError, match=f"'{text}'.*not an integer"):
            parse_spec(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PropagatorSpec.backward_euler(0)
        with pytest.raises(ValueError):
            PropagatorSpec.chebyshev_gauss(-1)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)
