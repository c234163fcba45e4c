import math
from types import SimpleNamespace

import numpy as np
import pytest

import paracheb.analysis as analysis
from paracheb import (
    Branch,
    PointSearchError,
    PropagatorSpec,
    SingularSystemError,
    Z1_STAR,
    build_operator,
    contraction,
    find_threshold_roots,
    m_min,
    rho_over_interval,
    stability,
)
from paracheb.collocation import solve_checked

CG0 = PropagatorSpec.chebyshev_gauss(0)
CG1 = PropagatorSpec.chebyshev_gauss(1)
NONFINITE = pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])


def golden_max(fun, a, b, xtol):
    """Reference search: the golden-section search for a local maximum of
    ``fun`` on ``[a, b]`` that ``rho_over_interval`` ran before Brent's."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
    x = 0.5 * (a + b)
    return x, fun(x)


def golden_minimize_scalar(fun, bounds, method, options):
    """``minimize_scalar`` stand-in that runs ``golden_max`` on ``-fun``."""
    x, neg = golden_max(lambda z: -fun(z), *bounds, options["xatol"])
    return SimpleNamespace(x=x, fun=-neg)


#: The bench's five search rows and the cases of TestRhoOverInterval.
RHO_CASES = [
    (PropagatorSpec.chebyshev_gauss(2), 16.49),
    (PropagatorSpec.chebyshev_gauss(3), 50.0),
    (PropagatorSpec.chebyshev_gauss(5), 100.0),
    (PropagatorSpec.chebyshev_gauss(16), 1000.0),
    (PropagatorSpec.chebyshev_gauss(51), 1e4),
    (CG0, 1.0),
    (CG1, 2.0),
    (PropagatorSpec.backward_euler(2), 100.0),
    (CG1, 5.0),
    (PropagatorSpec.forward_euler(1), 100.0),
    (CG0, 200.0),
    (PropagatorSpec.chebyshev_gauss(16), 200.0),
    (PropagatorSpec.erk4(2), 200.0),
    (PropagatorSpec.tr_bdf2(1), 200.0),
]


class TestContraction:
    def test_single_node_closed_form(self):
        # K(z) = z / (2 + z) with a lone collocation node.
        assert contraction(CG0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-13)
        for z in (0.3, 2.0, 7.5):
            assert contraction(CG0, z) == pytest.approx(z / (2.0 + z), abs=1e-13)

    def test_two_node_closed_form(self):
        # K(z) = |z^2 - 8z| / (4 + z)^2; equals 1/3 at the tangent point z = 2.
        assert contraction(CG1, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-13)
        for z in (0.5, 3.0, 12.0, 30.0):
            assert contraction(CG1, z) == pytest.approx(abs(z * z - 8 * z) / (4 + z) ** 2, abs=1e-12)

    def test_vanishes_at_origin(self):
        assert contraction(CG0, 0.0) == 0.0
        for spec in (CG1, PropagatorSpec.backward_euler(2), PropagatorSpec.trapezoidal(4)):
            assert contraction(spec, 1e-8) < 1e-7

    def test_matches_hand_expanded_backward_euler(self):
        rng = np.random.default_rng(17)
        for J in (1, 2, 5):
            spec = PropagatorSpec.backward_euler(J)
            for z in rng.uniform(0.01, 50.0, 10):
                expected = abs((1.0 + z / J) ** -J - 1.0 / (1.0 + z)) * (1.0 + z) / z
                assert contraction(spec, z) == pytest.approx(expected, abs=1e-12)

    def test_limit_toward_one(self):
        for M in range(9):
            k = contraction(PropagatorSpec.chebyshev_gauss(M), 1e8)
            assert abs(k - 1.0) < 5e-3

    def test_explicit_kind_blow_up_is_represented(self):
        k = contraction(PropagatorSpec.forward_euler(1), 1e3)
        assert np.isfinite(k) and k > 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            contraction(CG0, -1.0)

    @NONFINITE
    def test_rejects_nonfinite(self, value):
        with pytest.raises(ValueError, match="finite"):
            contraction(CG0, value)

    @pytest.mark.parametrize("z", [1e-17, np.array([1e-3, 1e-17])], ids=["float", "array"])
    def test_unresolvable_small_z_raises(self, z):
        with pytest.raises(ArithmeticError):
            analysis.contraction_from_stability(stability(CG1, z), z)


class TestRhoOverInterval:
    def test_monotone_case_peaks_at_endpoint(self):
        rep = rho_over_interval(CG0, 1.0)
        assert rep.rho == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert rep.z_grid[np.argmax(rep.K_values)] == pytest.approx(1.0, abs=1e-6)

    def test_tangent_maximum_found(self):
        rep = rho_over_interval(CG1, 2.0)
        assert rep.rho == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_uniform_bound_for_backward_euler_fine(self):
        rep = rho_over_interval(PropagatorSpec.backward_euler(2), 100.0)
        assert rep.rho < 1.0 / 3.0

    def test_report_invariants(self):
        rep = rho_over_interval(CG1, 5.0)
        assert rep.z_grid[0] == 0.0
        assert rep.z_grid[-1] == pytest.approx(5.0)
        assert np.all(rep.K_values >= 0.0)
        assert rep.rho == rep.K_values.max()
        assert np.all(np.diff(rep.z_grid) >= 0.0)

    def test_blow_up_kind_reported_not_raised(self):
        rep = rho_over_interval(PropagatorSpec.forward_euler(1), 100.0)
        assert rep.rho > 1.0

    @NONFINITE
    def test_rejects_nonfinite(self, value):
        with pytest.raises(ValueError, match="finite"):
            rho_over_interval(CG1, value)

    @pytest.mark.parametrize(
        "spec",
        [CG0, PropagatorSpec.chebyshev_gauss(16), PropagatorSpec.erk4(2), PropagatorSpec.tr_bdf2(1)],
        ids=lambda s: s.label,
    )
    def test_grid_equals_scalar_contraction(self, spec):
        rep = rho_over_interval(spec, 200.0)
        grid = np.concatenate(([0.0], np.geomspace(200.0 * 1e-6, 200.0, analysis._RHO_GRID)))
        on_grid = np.isin(rep.z_grid, grid)
        assert on_grid.sum() == grid.size
        np.testing.assert_array_equal(rep.K_values[on_grid], [contraction(spec, z) for z in grid])

    @pytest.mark.parametrize("spec, z_max", RHO_CASES, ids=lambda v: v.label if isinstance(v, PropagatorSpec) else f"{v:g}")
    def test_brent_matches_golden_section(self, spec, z_max, monkeypatch):
        rho = rho_over_interval(spec, z_max).rho
        monkeypatch.setattr(analysis, "minimize_scalar", golden_minimize_scalar)
        reference = rho_over_interval(spec, z_max).rho
        assert abs(rho - reference) <= 1e-12 * abs(reference)

    @pytest.mark.parametrize("z_max", [1e-9, 2e-16, 5e-16, 1e-12, 1.5e-8, 1e-3])
    def test_samples_stay_in_the_interval(self, z_max):
        # The grid used to start at 1e-8 whatever z_max was.
        for spec in (CG1, PropagatorSpec.backward_euler(2)):
            rep = rho_over_interval(spec, z_max)
            assert rep.z_grid[0] == 0.0 and rep.z_grid.max() <= z_max
            assert np.isfinite(rep.rho) and rep.rho == rep.K_values.max()

    @pytest.mark.parametrize("z_max", [1e-17, 1e-16])
    def test_unresolvable_z_max_rejected(self, z_max):
        with pytest.raises(ValueError, match=f"z_max={z_max!r}"):
            rho_over_interval(CG1, z_max)

    def test_collocation_grid_runs_no_svd(self, monkeypatch):
        # The Cholesky certificate settles every system of this pass; a
        # silent fallback to the singular-value test would show here.
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(analysis.np.linalg, "svd", counted)
        rho_over_interval(PropagatorSpec.chebyshev_gauss(16), 1e3)
        assert calls == []
        with pytest.raises(SingularSystemError):  # a pole: the certificate fails
            solve_checked(build_operator(0), -2.0, np.ones(1))
        assert len(calls) == 1  # and the counter sees the fallback


class TestMmin:
    def test_branches(self):
        assert m_min(0.5).m_min == 0 and m_min(0.5).branch is Branch.ZERO
        assert m_min(1.0).m_min == 0  # boundary inclusive
        assert m_min(10.0).m_min == 1 and m_min(10.0).branch is Branch.ONE
        assert m_min(Z1_STAR).m_min == 1
        assert m_min(16.49).branch is Branch.SEARCH

    def test_search_values_frozen(self):
        # Scanned once with the matrix evaluator and pinned here.
        assert m_min(16.49).m_min == 2
        assert m_min(50.0).m_min == 3
        assert m_min(100.0).m_min == 5
        assert m_min(1000.0).m_min == 16

    def test_search_branch_is_minimal(self):
        for z_max in (16.49, 50.0, 100.0):
            res = m_min(z_max)
            assert res.condition_value <= res.threshold
            below = abs(stability(PropagatorSpec.chebyshev_gauss(res.m_min - 1), z_max))
            assert below > res.threshold

    def test_threshold_value(self):
        res = m_min(100.0)
        assert res.threshold == pytest.approx(103.0 / 303.0, abs=1e-15)

    def test_monotone_in_z(self):
        values = [m_min(z).m_min for z in np.geomspace(0.1, 1e4, 12)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_guarantees_convergence_factor(self):
        for z_max in (16.49, 100.0):
            res = m_min(z_max)
            rep = rho_over_interval(PropagatorSpec.chebyshev_gauss(res.m_min), z_max)
            assert rep.rho <= 1.0 / 3.0 + 1e-6

    def test_cap_exceeded_reported(self, monkeypatch):
        monkeypatch.setattr(analysis, "_SEARCH_CAP", 3)
        with pytest.raises(PointSearchError) as err:
            m_min(1000.0)
        assert err.value.cap == 3
        assert np.isfinite(err.value.last_value)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            m_min(0.0)

    @NONFINITE
    def test_rejects_nonfinite(self, value):
        # Before the check, inf ran the whole search to M = 512.
        with pytest.raises(ValueError, match="finite"):
            m_min(value)


class TestThresholdRoots:
    def test_values(self):
        z0, z1 = find_threshold_roots()
        assert z0 == pytest.approx(1.0, abs=1e-8)
        assert z1 == pytest.approx(8.0 + 6.0 * math.sqrt(2.0), abs=1e-8)

    def test_tangency_at_interior_maximum(self):
        # K with one interior node touches 1/3 at z = 2 without crossing.
        assert contraction(CG1, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert contraction(CG1, 2.0 * (1 - 1e-3)) < 1.0 / 3.0
        assert contraction(CG1, 2.0 * (1 + 1e-3)) < 1.0 / 3.0
