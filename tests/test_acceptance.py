"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime.  Tolerances and budgets are pinned here, not
configurable."""

import math
import time

import numpy as np

from paracheb import (
    Branch,
    LinearRhs,
    PararealConfig,
    PropagatorSpec,
    cg_points,
    find_threshold_roots,
    initialize,
    iterate,
    m_min,
    rho_over_interval,
    run,
    solve_linear,
    solve_nonlinear,
    spd_catalog,
    stability,
)
from paracheb.cli import main as cli_main
from paracheb.parareal import _make_stepper

Z_GRID = [0.01, 0.1, 1.0, 2.0, 10.0, 100.0]


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"
    print(f"ACCEPTANCE {number:2d} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_01_closed_form_stability_m0():
    started = time.perf_counter()
    for z in Z_GRID:
        got = stability(PropagatorSpec.chebyshev_gauss(0), z)
        assert abs(got - (2.0 - z) / (2.0 + z)) < 1e-12
    _report(1, "stability closed form, M=0", started, 1.0)


def test_criterion_02_closed_form_stability_m1():
    started = time.perf_counter()
    for z in Z_GRID:
        got = stability(PropagatorSpec.chebyshev_gauss(1), z)
        assert abs(got - (z * z - 8.0 * z + 16.0) / (z * z + 8.0 * z + 16.0)) < 1e-12
    _report(2, "stability closed form, M=1", started, 1.0)


def test_criterion_03_threshold_roots():
    started = time.perf_counter()
    z0, z1 = find_threshold_roots()
    assert abs(z0 - 1.0) < 1e-8
    assert abs(z1 - (8.0 + 6.0 * math.sqrt(2.0))) < 1e-8
    _report(3, "threshold roots", started, 1.0)


def test_criterion_04_spectral_limit():
    started = time.perf_counter()
    for z in (0.5, 1.0, 3.0):
        assert abs(stability(PropagatorSpec.chebyshev_gauss(20), z) - math.exp(-z)) < 1e-10
    _report(4, "spectral limit, M=20", started, 1.0)


def test_criterion_05_minimal_point_count_consistency():
    started = time.perf_counter()
    z_values = [0.5, 1.0, 10.0, 16.49, 50.0, 100.0, 1000.0]
    results = [m_min(z) for z in z_values]

    expected_branches = [Branch.ZERO, Branch.ZERO, Branch.ONE, Branch.SEARCH,
                         Branch.SEARCH, Branch.SEARCH, Branch.SEARCH]
    assert [r.branch for r in results] == expected_branches
    assert [r.m_min for r in results[:3]] == [0, 0, 1]

    for res in results:
        if res.branch is not Branch.SEARCH:
            continue
        # Endpoint criterion holds at the returned count, fails just below,
        # and the convergence factor over the whole interval stays <= 1/3.
        assert res.condition_value <= res.threshold
        below = abs(stability(PropagatorSpec.chebyshev_gauss(res.m_min - 1), res.z_max))
        assert below > res.threshold
        rep = rho_over_interval(PropagatorSpec.chebyshev_gauss(res.m_min), res.z_max)
        assert rep.rho <= 1.0 / 3.0 + 1e-6

    counts = [r.m_min for r in results]
    assert counts == sorted(counts)
    _report(5, "minimal point counts", started, 30.0)


def test_criterion_06_exactness_and_finite_termination():
    started = time.perf_counter()
    dT = 1e-3
    problem = spd_catalog(
        "diag-spectrum", m=3, lambda_min=1.0, lambda_max=100.0, T=6 * dT
    ).to_ivp()
    fine = PropagatorSpec.chebyshev_gauss(8)
    cfg = PararealConfig(N=6, fine=fine, tol=1e-10, max_k=12)

    fine_serial = np.empty((7, 3))
    fine_serial[0] = problem.u0
    step = _make_stepper(fine, problem, dT)
    for n in range(6):
        fine_serial[n + 1] = step(n * dT, fine_serial[n])

    state = initialize(cfg, problem)
    converged_at = None
    for k in range(1, 7):
        state = iterate(state, cfg, problem)
        prefix = min(k, 6) + 1
        assert np.max(np.abs(state.u[:prefix] - fine_serial[:prefix])) < 1e-9
        if state.history[-1].iter_error <= 1e-10:
            converged_at = k
            break
    assert converged_at is not None and converged_at <= 6
    _report(6, "prefix exactness + termination", started, 5.0)


def test_criterion_07_convergence_factor_bound():
    started = time.perf_counter()
    # dT = 1 puts the top eigenvalue at z_max = 100; use the matching count.
    count = m_min(100.0).m_min
    problem = spd_catalog("diag-spectrum", m=3, lambda_min=1.0, lambda_max=100.0, T=40.0).to_ivp()
    cfg = PararealConfig(
        N=40, fine=PropagatorSpec.chebyshev_gauss(count),
        tol=1e-10, max_k=60, init="random", seed=1234,
    )
    _, history = run(cfg, problem)
    errs = [rec.iter_error for rec in history]
    ratios = [b / a for a, b in zip(errs, errs[1:]) if b > 1e-13]
    window = ratios[2:]  # drop pre-asymptotic passes
    gmean = math.exp(sum(math.log(r) for r in window) / len(window))
    assert gmean <= 0.35
    _report(7, "contraction factor bound", started, 10.0)


def test_criterion_08_kepler_comparison(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "kepler.csv"
    assert cli_main(["experiment", "--out", str(out), "--set", "name=kepler-compare"]) == 0

    finals = {}
    counts = {}
    with open(out, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            algorithm, k, abs_error, _, _ = line.strip().split(",")
            counts[algorithm] = int(k)
            finals[algorithm] = float(abs_error)

    assert set(finals) == {"cg_m6", "beuler_j6", "tr_j6", "gauss4_j6"}
    assert counts["cg_m6"] <= counts["beuler_j6"]
    for other in ("beuler_j6", "tr_j6", "gauss4_j6"):
        assert finals["cg_m6"] <= finals[other]
    _report(8, "orbit comparison", started, 120.0)


def test_criterion_09_burgers_sweeps(tmp_path):
    started = time.perf_counter()

    out_dt = tmp_path / "burgers_dt.csv"
    assert cli_main(["experiment", "--out", str(out_dt), "--set", "name=burgers-dt"]) == 0
    counts = {}
    with open(out_dt, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            nu, dt, k, _ = line.strip().split(",")
            key = (float(nu), float(dt))
            counts[key] = max(counts.get(key, 0), int(k))
    dts = [2.0**-j for j in range(3, 9)]
    for dt in dts:
        assert (0.05, dt) in counts and (0.005, dt) in counts  # both converged
        assert counts[(0.005, dt)] <= counts[(0.05, dt)]

    out_m = tmp_path / "burgers_m.csv"
    assert cli_main(["experiment", "--out", str(out_m), "--set", "name=burgers-m"]) == 0
    m_counts = {}
    with open(out_m, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            nu, m, k, _ = line.strip().split(",")
            key = (float(nu), int(m))
            m_counts[key] = max(m_counts.get(key, 0), int(k))
    for nu in (0.05, 0.005):
        per_m = [m_counts[(nu, m)] for m in (2, 4, 8, 16, 32, 64)]
        assert max(per_m) - min(per_m) <= 2
    _report(9, "viscous sweeps", started, 300.0)


def test_criterion_10_direct_solve_equals_fixed_point():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        lam = rng.uniform(0.05, 0.95)  # z < 1: fixed point converges
        M = int(rng.integers(0, 11))
        u0 = rng.uniform(-3.0, 3.0)
        pts = cg_points(M, 0.0, 1.0)
        direct = solve_linear(LinearRhs(np.array([[lam]])), pts, u0)
        picard = solve_nonlinear(lambda t, u: -lam * u, pts, u0, tol=1e-14, max_iter=300
        )
        assert abs(direct.u_end[0] - picard.u_end[0]) < 1e-10
    _report(10, "direct vs fixed-point solve", started, 1.0)


def test_criterion_11_spectral_accuracy_growth():
    started = time.perf_counter()
    errors = []
    for M in (4, 6, 8, 10):
        pts = cg_points(M, 0.0, 1.0)
        sol = solve_nonlinear(lambda t, u: -u, pts, 1.0, tol=1e-14, max_iter=200
        )
        errors.append(abs(sol.u_end[0] - math.exp(-1.0)))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[0] / errors[-1] > 1e6
    _report(11, "spectral accuracy growth", started, 1.0)


def test_criterion_12_worker_count_determinism(tmp_path):
    started = time.perf_counter()
    out1 = tmp_path / "kepler_w1.csv"
    out8 = tmp_path / "kepler_w8.csv"
    base = ["experiment", "--set", "name=kepler-compare", "--seed", "0"]
    assert cli_main(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert cli_main(base + ["--out", str(out8), "--workers", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    _report(12, "worker-count determinism", started, 240.0)
