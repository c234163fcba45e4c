import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from paracheb import (
    BurgersProblem,
    KeplerProblem,
    NonConvergenceError,
    NonFiniteRhsError,
    PropagatorKind,
    PropagatorSpec,
    SingularSystemError,
    SweepError,
    advance,
    cg_points,
    parse_spec,
    solve_nonlinear,
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


NONFINITE = pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])


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

    @NONFINITE
    @pytest.mark.parametrize("text", ["beuler:1", "cg:3"])
    def test_rejects_nonfinite_step(self, text, value):
        # Unchecked, a NaN step surfaces as a Newton failure and an
        # infinite one as a run of NaN sweeps.
        with pytest.raises(ValueError, match="finite"):
            advance(parse_spec(text), decay(1.0), 0.0, np.array([1.0]), value)

    @pytest.mark.parametrize("kind", IMPLICIT_KINDS, ids=lambda k: k.value)
    def test_newton_nonconvergence_raises(self, kind):
        spec = PropagatorSpec(kind, max_iter=1)
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

    @pytest.mark.parametrize("kind", IMPLICIT_KINDS, ids=lambda k: k.value)
    def test_overflowing_guess_does_not_settle(self, kind):
        # From u = 1e200 backward Euler's explicit guess overflows to -inf,
        # and so does its residual: an infinite residual must not pass the
        # tolerance test relative to an infinite iterate.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergenceError, match="non-finite values"):
                advance(PropagatorSpec(kind), lambda t, u: -(u**3), 0.0, np.array([1e200]), 1.0)

    def test_newton_settles_on_its_last_update(self):
        # From u = 5 with dT = 10 the stage equation 10 x^3 + x - 5 = 0
        # takes all 25 updates: the last one reaches the tolerance, and the
        # test after it counts.  One update fewer is not enough.
        def f(t, u):
            return -(u**3)

        x = advance(PropagatorSpec.backward_euler(1), f, 0.0, np.array([5.0]), 10.0)[0]
        assert abs(10.0 * x**3 + x - 5.0) <= 1e-12 * (1.0 + abs(x))
        spec = PropagatorSpec.backward_euler(1, max_iter=24)
        with pytest.raises(NonConvergenceError, match="did not converge in 24 iterations"):
            advance(spec, f, 0.0, np.array([5.0]), 10.0)

    @pytest.mark.parametrize("text, dT", [("beuler:3", 3.0), ("trbdf2:1", 2.0 / (2.0 - math.sqrt(2.0)))])
    def test_failed_row_keeps_its_first_error(self, text, dT):
        # u' = c(t) u with c = 1 before t = 5 and 1/2 after.  Row 0's first
        # stage matrix 1 - c * beta_h is exactly zero (beuler's first
        # substep, trbdf2's first stage); rows 1 and 2 start past t = 5 and
        # finish.  Row 0 carries on as NaN through the later stages and
        # substeps, whose non-finite residuals must not replace its error,
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
        ivp = BurgersProblem(0.05, 16).to_ivp()
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

    @NONFINITE
    def test_rejects_nonfinite_argument(self, value):
        with pytest.raises(ValueError, match="finite"):
            stability(PropagatorSpec.backward_euler(1), value)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_stack_is_bit_identical_to_scalar_calls(self, spec):
        # z = 0 entries, the explicit kinds' blow-up range (|R| > 1 past
        # z = 2 for forward Euler and about 2.8 for RK4), and more values
        # than one block of collocation systems holds.
        zs = np.concatenate(([0.0, 0.0], np.linspace(1.5, 40.0, 60), np.geomspace(1e-3, 1e4, 300), [0.0]))
        scalar = np.array([stability(spec, z) for z in zs])
        stacked = stability(spec, zs)
        np.testing.assert_array_equal(stacked, scalar)
        assert stacked.shape == zs.shape
        np.testing.assert_array_equal(stability(spec, zs.reshape(3, -1)), scalar.reshape(3, -1))
        assert type(stability(spec, zs[5])) is float

    def test_one_step_powers_are_python_float_powers(self):
        # numpy's vectorized power differs from Python's float power (the C
        # library's pow) in the last bit on a few percent of arguments; the
        # stacked formulas keep Python's bits.
        zs = np.geomspace(1e-3, 1e3, 500)

        def erk4(z):
            return 1.0 - z + z * z / 2.0 - z**3 / 6.0 + z**4 / 24.0

        expected = {
            "beuler:3": [(1.0 / (1.0 + z / 3)) ** 3 for z in zs.tolist()],
            "erk4:2": [erk4(z / 2) ** 2 for z in zs.tolist()],
        }
        for text, values in expected.items():
            np.testing.assert_array_equal(stability(parse_spec(text), zs), values)

    @pytest.mark.parametrize("text", ["erk4:1", "erk4:2", "feuler:1", "feuler:2", "feuler:3"])
    def test_overflow_is_an_infinity_of_the_exact_sign(self, text):
        # Python's float power raises OverflowError on these powers.  An
        # entry whose exact value overflows comes out as an infinity of its
        # sign, every other entry stays finite, and each scalar call equals
        # its array entry.
        spec = parse_spec(text)
        zs = [0.5, 3.0, 1e80, 1e120, 1e200, 1e308]
        R = stability(spec, np.array(zs))
        for z, got in zip(zs, R):
            x = Fraction(z) / spec.count
            r = 1 - x if spec.kind is PropagatorKind.FORWARD_EULER else 1 - x + x**2 / 2 - x**3 / 6 + x**4 / 24
            exact = r**spec.count
            if abs(exact) > Fraction(sys.float_info.max):
                assert got == (math.inf if exact > 0 else -math.inf)
            else:
                assert math.isfinite(got)
            assert stability(spec, z) == got
        assert np.isinf(R).any() == (text != "feuler:1")  # 1 - z never overflows

    @pytest.mark.parametrize("text, z_big", [("gauss4:1", 1e200), ("gauss4:2", 1e300)])
    def test_gauss4_past_the_square_overflow(self, text, z_big):
        # z * z overflows above about 1.3e154, where the fraction divided
        # through by z * z still rounds to its exact value; below, the
        # values are those of the undivided formula.
        spec = parse_spec(text)
        zs = [0.5, 3.0, 1e100, 1e154, z_big]
        R = stability(spec, np.array(zs))
        for z, got in zip(zs, R):
            x = Fraction(z) / spec.count
            exact = ((x * x - 6 * x + 12) / (x * x + 6 * x + 12)) ** spec.count
            assert got == pytest.approx(float(exact), rel=1e-15)
            assert stability(spec, z) == got
        x = zs[1] / spec.count
        assert R[1] == ((x * x - 6.0 * x + 12.0) / (x * x + 6.0 * x + 12.0)) ** spec.count

    def test_systems_larger_than_a_block(self):
        # 201 x 201 systems exceed the block cap: one system per solve.
        spec = PropagatorSpec.chebyshev_gauss(200)
        zs = np.array([0.0, 0.7, 30.0, 1e5])
        np.testing.assert_array_equal(stability(spec, zs), [stability(spec, z) for z in zs])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_stack_with_one_bad_entry_rejected(self, spec, bad):
        zs = np.linspace(0.0, 5.0, 11)
        zs[7] = bad
        with pytest.raises(ValueError, match="finite"):
            stability(spec, zs)


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
            PropagatorSpec.backward_euler(1, max_iter=0)

    @NONFINITE
    def test_newton_tol_must_be_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            PropagatorSpec.backward_euler(1, tol=value)

    def test_spec_is_kind_count_and_limits(self):
        names = [f.name for f in dataclasses.fields(PropagatorSpec)]
        assert names == ["kind", "count", "tol", "max_iter"]

    def test_kind_derived_defaults(self):
        assert parse_spec("cg") == PropagatorSpec.chebyshev_gauss(0)
        assert PropagatorSpec.backward_euler(2) == parse_spec("beuler:2")
        cg, beuler = parse_spec("cg"), parse_spec("beuler")
        assert (cg.count, cg.tol, cg.max_iter) == (0, 1e-12, 100)
        assert (beuler.count, beuler.tol, beuler.max_iter) == (1, 1e-12, 25)
        for kind in PropagatorKind:
            assert PropagatorSpec(kind) == parse_spec(kind.value)

    @pytest.mark.parametrize("kind", list(PropagatorKind), ids=lambda k: k.value)
    def test_count_below_the_kind_minimum_rejected(self, kind):
        least = 0 if kind is PropagatorKind.CHEBYSHEV_GAUSS else 1
        assert PropagatorSpec(kind, least).count == least
        with pytest.raises(ValueError, match=f"{kind.value} count must be >= {least}"):
            PropagatorSpec(kind, least - 1)

    @pytest.mark.parametrize("kind", list(PropagatorKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("limits", [{"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"max_iter": 0}])
    def test_limits_rejected_for_every_kind(self, kind, limits):
        with pytest.raises(ValueError, match="tol must be positive and finite|max_iter must be >= 1"):
            PropagatorSpec(kind, **limits)

    def test_limits_reach_the_picard_sweeps(self):
        # u' = -u over dT = 0.5 with 9 nodes takes more than 3 sweeps to
        # settle to 1e-12; a loose tol stops the same sweeps early.
        f, u = decay(1.0), np.array([1.0])
        with pytest.raises(NonConvergenceError, match="fixed-point sweep did not converge in 3 iterations"):
            advance(PropagatorSpec.chebyshev_gauss(8, max_iter=3), f, 0.0, u, 0.5)
        pts = cg_points(8, 0.0, 0.5)
        loose = advance(PropagatorSpec.chebyshev_gauss(8, tol=1e-4), f, 0.0, u, 0.5)
        np.testing.assert_array_equal(loose, solve_nonlinear(f, pts, u, tol=1e-4).u_end)
        assert not np.array_equal(loose, advance(PropagatorSpec.chebyshev_gauss(8), f, 0.0, u, 0.5))
