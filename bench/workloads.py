"""Workload definitions, one pass of each, and the answer check.

A pass calls ``paracheb.cli.main`` in-process exactly as a user runs
``paracheb run`` / ``experiment`` / ``mmin`` / ``analyze``; the analysis
pass also calls ``analysis.rho_over_interval`` directly.  Every module is
looked up at call time, so the traced run's wrappers are seen.

Only ``laplacian`` uses the workload seed (its random initial iterate); the
other three workloads are seed-independent.  Laplacian's final answer is
seed-invariant all the same: with ``N = 16`` subintervals parareal reaches
the serial fine solution after at most 16 passes, so the final
``abs_error`` is the same for every seed (bit for bit on seeds 0-39).  The
iteration count is not: 38 of those seeds stop at k = 16 and two (seed 3
among them) at k = 15, so the check allows 1 to 16 there.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass, field

NAMES = ("burgers", "kepler", "laplacian", "analysis")

#: Laplacian fine sweep runs on a two-thread pool, the only workload that
#: takes that branch of ``parareal._fine_sweep``.
WORKERS = {"burgers": 1, "kepler": 1, "laplacian": 2, "analysis": 1}

#: Every workload's coarse propagator.
COARSE = "beuler:1"
TOL = "1e-10"

_BURGERS_NUS = ("0.05", "0.005")
_MMIN_Z = (0.5, 1.0, 10.0, 16.49, 50.0, 100.0, 1000.0, 10000.0)
_ANALYZE_SPECS = "cg:0,cg:1,cg:2,cg:5,cg:16,cg:51"
_RHO_BOUND = 1.0 / 3.0 + 1e-6
_CLOSED_FORM_TOL = 1e-12


@dataclass(frozen=True)
class Expected:
    """Recorded final answer of one parareal solve.

    The final ``k`` must lie in ``iterations`` (inclusive) and ``abs_error``
    must match within ``rtol * |abs_error| + atol``.
    """

    iterations: tuple[int, int]
    abs_error: float
    rtol: float
    atol: float
    abs_error_pos: float | None = None


# Recorded with paracheb 0.1.0 (the library as first committed).  The
# tolerances sit far below any change of discretization, point count or
# problem parameter, and above rounding and the stopping tolerance's slack:
# burgers may end anywhere within tol = 1e-10 of the fine fixed point,
# laplacian lands on it exactly (k = N), kepler states are ~7e3 km so 1e-9
# is rounding.
EXPECTED: dict[str, dict[str, Expected]] = {
    "burgers": {
        "nu0.05": Expected((7, 7), 2.0617950044328481e-04, 1e-6, 1e-10),
        "nu0.005": Expected((3, 3), 2.0634359592574744e-05, 1e-6, 1e-10),
    },
    "kepler": {
        "cg_m6": Expected((3, 3), 9.0949470177292824e-12, 1e-6, 1e-9, 9.0949470177292824e-12),
        "beuler_j6": Expected((3, 3), 9.1920566765111289e-03, 1e-6, 1e-9, 9.1920566765111289e-03),
        "tr_j6": Expected((3, 3), 6.9242105382727459e-08, 1e-6, 1e-9, 6.9242105382727459e-08),
        "gauss4_j6": Expected((3, 3), 1.7280399333685637e-11, 1e-6, 1e-9, 1.7280399333685637e-11),
    },
    "laplacian": {
        "random-init": Expected((1, 16), 3.2178637643376362e-08, 1e-6, 1e-12),
    },
}

#: ``paracheb mmin`` must report these counts for ``_MMIN_Z``.
EXPECTED_M_MIN = (0, 0, 1, 2, 3, 5, 16, 51)


def _common(workload: str) -> list[str]:
    return ["--workers", str(WORKERS[workload]), "--tol", TOL, "--set", f"coarse={COARSE}"]


def commands(workload: str, seed: int) -> dict[str, list[str]]:
    """CLI argument lists of one pass, keyed by output name (without ``--out``)."""
    if workload == "burgers":
        return {
            f"nu{nu}": ["run", *_common(workload), "--set", "problem=burgers",
                        "--set", "nx=16", "--set", "N=128", "--set", "fine=cg:8",
                        "--set", f"nu={nu}"]
            for nu in _BURGERS_NUS
        }
    if workload == "kepler":
        return {"kepler-compare": ["experiment", *_common(workload),
                                   "--set", "name=kepler-compare"]}
    if workload == "laplacian":
        return {"random-init": ["run", *_common(workload), "--seed", str(seed),
                                "--set", "problem=laplacian-1d", "--set", "m=24",
                                "--set", "T=0.1", "--set", "N=16", "--set", "fine=cg:12",
                                "--set", "init=random"]}
    if workload == "analysis":
        return {
            "mmin": ["mmin", "--set", "z_max_list=" + ",".join(f"{z:g}" for z in _MMIN_Z)],
            "analyze": ["analyze", "--set", f"specs={_ANALYZE_SPECS}", "--set", "z_points=1000"],
        }
    raise ValueError(f"unknown workload {workload!r} (expected one of {NAMES})")


@dataclass
class PassOutput:
    """What one pass produced: CSV bytes per output name, plus the
    ``(M, z_max, rho)`` triples of the analysis pass's direct calls."""

    files: dict[str, bytes] = field(default_factory=dict)
    rho: list[tuple[int, float, float]] = field(default_factory=list)


def _rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def run_pass(workload: str, seed: int, outdir: str) -> PassOutput:
    """Run one pass of ``workload``, writing CSVs under ``outdir``."""
    import paracheb.analysis
    import paracheb.cli
    from paracheb.propagators import PropagatorSpec

    out = PassOutput()
    # cli.main prints each output path; keep it off the benchmark's stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in commands(workload, seed).items():
            path = os.path.join(outdir, name + ".csv")
            paracheb.cli.main([*argv, "--out", path])
            with open(path, "rb") as fh:
                out.files[name] = fh.read()
    if workload == "analysis":
        for row in _rows(out.files["mmin"]):
            if row["branch"] == "search":
                M, z = int(row["m_min"]), float(row["z_max"])
                report = paracheb.analysis.rho_over_interval(PropagatorSpec.chebyshev_gauss(M), z)
                out.rho.append((M, z, report.rho))
    return out


@dataclass
class CheckResult:
    """Outcome of checking one pass.

    ``solves`` counts the solves a pass attempts; ``failures`` names those
    whose answer was wrong.  ``iterations`` sums parareal iterations and
    ``max_abs_error`` is the worst final error against the reference.
    """

    solves: int
    failures: list[str]
    iterations: int = 0
    max_abs_error: float = 0.0


def _check_parareal(workload, files, expected) -> CheckResult:
    result = CheckResult(solves=len(expected), failures=[])
    finals: dict[str, dict[str, str]] = {}
    for name, data in files.items():
        if workload == "kepler":
            # One history per algorithm; the last row of each is its final answer.
            finals.update({row["algorithm"]: row for row in _rows(data)})
        else:
            finals[name] = _rows(data)[-1]
    for case, exp in expected.items():
        row = finals.get(case)
        if row is None:
            result.failures.append(f"{case}: no output")
            continue
        k = int(row["k"])
        err = float(row["abs_error"])
        result.iterations += k
        result.max_abs_error = max(result.max_abs_error, err)
        problems = []
        if not float(row["iter_error"]) <= float(TOL):
            problems.append(f"not converged (iter_error {row['iter_error']})")
        lo, hi = exp.iterations
        if not lo <= k <= hi:
            problems.append(f"{k} iterations, expected {lo} to {hi}")
        if not abs(err - exp.abs_error) <= exp.rtol * abs(exp.abs_error) + exp.atol:
            problems.append(f"abs_error {err!r}, expected {exp.abs_error!r}")
        if exp.abs_error_pos is not None:
            pos = float(row["abs_error_pos"])
            if not abs(pos - exp.abs_error_pos) <= exp.rtol * abs(exp.abs_error_pos) + exp.atol:
                problems.append(f"abs_error_pos {pos!r}, expected {exp.abs_error_pos!r}")
        if problems:
            result.failures.append(f"{case}: " + "; ".join(problems))
    return result


def _closed_form_K(M: int, z: float) -> float:
    """Contraction factor from the closed-form stability functions for M = 0, 1."""
    R = (2.0 - z) / (2.0 + z) if M == 0 else ((4.0 - z) / (4.0 + z)) ** 2
    r_coarse = 1.0 / (1.0 + z)
    return abs(R - r_coarse) / (1.0 - r_coarse)


def _check_analysis(out: PassOutput, m_min_expected) -> CheckResult:
    # Solves: the mmin table, the analyze table, and each rho_over_interval call.
    result = CheckResult(solves=2 + len(out.rho), failures=[])
    mmin = _rows(out.files["mmin"])
    got = tuple(int(r["m_min"]) for r in mmin)
    if got != tuple(m_min_expected):
        result.failures.append(f"mmin: m_min column {got}, expected {tuple(m_min_expected)}")

    worst = 0.0
    for row in _rows(out.files["analyze"]):
        z = float(row["z"])
        for M in (0, 1):
            worst = max(worst, abs(float(row[f"K_cg_m{M}"]) - _closed_form_K(M, z)))
    if not worst <= _CLOSED_FORM_TOL:
        result.failures.append(f"analyze: K columns off their closed forms by {worst:.3e}")

    searched = sum(1 for r in mmin if r["branch"] == "search")
    if len(out.rho) != searched:
        result.failures.append(f"rho: {len(out.rho)} calls for {searched} search-branch rows")
    for M, z, rho in out.rho:
        if not rho <= _RHO_BOUND:
            result.failures.append(f"rho: cg:{M} at z_max={z:g} has rho {rho!r} > 1/3")
    return result


def check(workload: str, out: PassOutput, expected=None, m_min_expected=None) -> CheckResult:
    """Check a pass's answers; ``expected`` / ``m_min_expected`` override the
    recorded values (the self-test corrupts them)."""
    if workload == "analysis":
        return _check_analysis(out, EXPECTED_M_MIN if m_min_expected is None else m_min_expected)
    return _check_parareal(workload, out.files, EXPECTED[workload] if expected is None else expected)


def raised(workload: str, exc: BaseException) -> CheckResult:
    """Check result for a pass that raised: every solve in it counts as failed."""
    if workload == "analysis":
        solves = 2 + sum(1 for m in EXPECTED_M_MIN if m >= 2)
    else:
        solves = len(EXPECTED[workload])
    return CheckResult(solves=solves, failures=[f"pass raised {type(exc).__name__}: {exc}"] * solves)
