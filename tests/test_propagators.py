import math

import numpy as np
import pytest

from paracheb import (
    KeplerProblem,
    NewtonConfig,
    NonConvergenceError,
    PropagatorKind,
    PropagatorSpec,
    advance,
    build_burgers,
    parse_spec,
    stability,
)

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

    def test_analytic_jacobian_accepted(self):
        calls = []

        def jac(t, u):
            calls.append(t)
            return -np.eye(1)

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

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PropagatorSpec.backward_euler(0)
        with pytest.raises(ValueError):
            PropagatorSpec.chebyshev_gauss(-1)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)
