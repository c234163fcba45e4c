"""Self-test of the benchmark's answer check and tracer.

Runs one pass of every workload, checks it against the recorded answers
(it must pass), then checks it again with each recorded value corrupted
just past its tolerance, and with an analysis output corrupted (each must
fail).  Then checks the tracer: counts from many threads with a short
switch interval must be exact, and every fine step that ``_fine_sweep``
runs in its pool threads must have the enclosing ``iterate`` span as
parent.  Last it checks that the calibrator samples while started and puts
the previous ``SIGPROF`` handler back when stopped.  Exits 0 when all of
this holds, 1 otherwise.

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import signal
import sys
import time
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def _past_tolerance(value: float, exp: workloads.Expected) -> float:
    return value + 2.0 * (exp.rtol * abs(value) + exp.atol)


def _corruptions(workload: str, out: workloads.PassOutput):
    """Yield ``(label, check keyword arguments or output)`` that must fail."""
    if workload == "analysis":
        m_min = list(workloads.EXPECTED_M_MIN)
        m_min[-1] -= 1
        yield "m_min column", {"m_min_expected": tuple(m_min)}, out
        M, z, _ = out.rho[0]
        bad_rho = dataclasses.replace(out, rho=[(M, z, 1.0 / 3.0 + 1e-5), *out.rho[1:]])
        yield "rho above 1/3", {}, bad_rho
        return
    for case, exp in workloads.EXPECTED[workload].items():
        changes = {
            "iterations": {"iterations": (exp.iterations[1] + 1, exp.iterations[1] + 1)},
            "abs_error": {"abs_error": _past_tolerance(exp.abs_error, exp)},
        }
        if exp.abs_error_pos is not None:
            changes["abs_error_pos"] = {"abs_error_pos": _past_tolerance(exp.abs_error_pos, exp)}
        for field, change in changes.items():
            expected = dict(workloads.EXPECTED[workload])
            expected[case] = dataclasses.replace(exp, **change)
            yield f"{case} {field}", {"expected": expected}, out


def _tracer_problems() -> list[str]:
    import paracheb.chebyshev
    from paracheb import parareal, problems
    from paracheb.propagators import parse_spec

    from tracing import FINE_STEPS, Tracer

    found = []
    tracer = Tracer(parse_spec("beuler:1"))
    tracer.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.begin_pass()
        threads, calls = 8, 2000

        def hammer(_):
            for _ in range(calls):
                paracheb.chebyshev.cg_points(3, 0.0, 1.0)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(hammer, i) for i in range(threads)]:
                future.result(timeout=60)
        got = tracer.calls["chebyshev.cg_points"]
        if got != threads * calls or len(tracer.spans) != threads * calls:
            found.append(f"{got} calls and {len(tracer.spans)} spans counted, "
                         f"expected {threads * calls}")

        tracer.begin_pass()
        cfg = parareal.PararealConfig(T=0.1, N=8, coarse=parse_spec("beuler:1"),
                                      fine=parse_spec("cg:4"), workers=4)
        parareal.run(cfg, problems.spd_catalog("laplacian-1d", m=4, T=0.1).to_ivp())
        fine = [s for s in tracer.spans if s.name in FINE_STEPS]
        orphans = [s for s in fine if s.parent is None or s.parent.name != "parareal.iterate"]
        if not fine or orphans:
            found.append(f"{len(orphans)} of {len(fine)} pool-thread fine steps lack an iterate parent")
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    return found


def _calibrator_problems() -> list[str]:
    from calibrate import INTERVAL_S, Calibrator

    found = []
    before = signal.getsignal(signal.SIGPROF)
    calibrator = Calibrator()
    calibrator.start()
    try:
        cpu0 = time.process_time()
        while time.process_time() - cpu0 < 50 * INTERVAL_S:
            pass
        window = calibrator.take()
    finally:
        calibrator.stop()
    end = time.monotonic()
    if len(window.samples) < 25:
        found.append(f"{len(window.samples)} samples in {50 * INTERVAL_S:g} CPU seconds")
    start = window.samples[0][0]
    if not 0.0 < window.spent_s(start, end) < 0.5 * (end - start):
        found.append(f"samples took {window.spent_s(start, end):.3g} s of {end - start:.3g} s")
    if not window.calibrate(start, end) > 0.0:
        found.append("calibrated time not positive")
    if signal.getsignal(signal.SIGPROF) is not before:
        found.append("previous SIGPROF handler not restored")
    return found


def main() -> int:
    bad = 0
    out_root = BENCH.parent / ".bench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as outdir:
        for workload in workloads.NAMES:
            out = workloads.run_pass(workload, 0, outdir)
            clean = workloads.check(workload, out)
            if clean.failures:
                bad += 1
                print(f"FAIL {workload}: recorded answers rejected: {clean.failures}")
            else:
                print(f"ok   {workload}: recorded answers accepted")
            for label, kwargs, output in _corruptions(workload, out):
                if workloads.check(workload, output, **kwargs).failures:
                    print(f"ok   {workload}: corrupted {label} rejected")
                else:
                    bad += 1
                    print(f"FAIL {workload}: corrupted {label} accepted")
    tracer_problems = _tracer_problems()
    for problem in tracer_problems:
        print(f"FAIL tracer: {problem}")
    if not tracer_problems:
        print("ok   tracer: exact counts under threads; pool spans parented to iterate")
    calibrator_problems = _calibrator_problems()
    for problem in calibrator_problems:
        print(f"FAIL calibrator: {problem}")
    if not calibrator_problems:
        print("ok   calibrator: samples while started; handler restored when stopped")
    return 1 if bad or tracer_problems or calibrator_problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
