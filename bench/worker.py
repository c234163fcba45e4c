"""One benchmark process, started by ``run.py`` in a fresh interpreter.

Every process begins with a cold pass: its end, measured from the moment the
parent started the process, is the set-up time (import, problem
construction, ``build_operator`` cache fill).  Then, by ``--mode``:

* ``measure``: untraced passes for ``--seconds``.
* ``trace``: untraced passes for 40% of ``--seconds``, then traced passes
  for the rest; each traced pass's CSV outputs must be byte-identical to the
  cold pass's.

A ``Calibrator`` (``calibrate.py``) samples the CPU's speed during set-up
and the untraced passes, not during traced ones.  Each untraced pass is
stored as ``(wall_s, cpu_s, speed_factor)``: its times less the samples',
and calibrated seconds per wall second.

Every pass is checked against the recorded answers.  The result goes to
``--result`` as JSON; the traced spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402

TRACE_UNTRACED_SHARE = 0.4


def _import_paracheb() -> None:
    import paracheb

    if Path(paracheb.__file__).resolve().parent != SRC / "paracheb":
        raise SystemExit(f"paracheb imported from {paracheb.__file__}, not from {SRC}")


def _blas_threads_and_config() -> tuple[int | None, str | None]:
    """Thread count and build string of the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    for path in sorted(paths, key=lambda p: "numpy" not in p):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_threads(), get_config().decode()
    return None, None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "paracheb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(workload: str) -> dict:
    import numpy
    import scipy

    threads, config = _blas_threads_and_config()
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workloads.WORKERS[workload],
    }


class Runner:
    """Runs and checks passes of one workload, keeping the tallies."""

    def __init__(self, workload: str, seed: int, outdir: str, calibrator: Calibrator | None):
        self.workload = workload
        self.calibrator = calibrator
        self.window = None
        self.seed = seed
        self.outdir = outdir
        self.solves = 0
        self.failures: list[str] = []
        self.iterations: list[int] = []
        self.max_abs_error: list[float] = []

    def one(self):
        """One timed pass; returns ``(wall_s, cpu_s, speed_factor, output or None)``.

        With a calibrator, the times exclude its samples, ``speed_factor``
        is calibrated seconds per wall second and ``self.window`` holds the
        samples taken since the previous pass; without, ``speed_factor`` is
        ``None``.
        """
        wall0, cpu0 = time.monotonic(), time.process_time()
        try:
            out = workloads.run_pass(self.workload, self.seed, self.outdir)
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
            traceback.print_exc()
            self._tally(workloads.raised(self.workload, exc))
            out = None
        wall1, cpu = time.monotonic(), time.process_time() - cpu0
        wall, factor = wall1 - wall0, None
        if self.calibrator is not None:
            self.window = self.calibrator.take()
            spent = self.window.spent_s(wall0, wall1)
            wall, cpu = wall - spent, cpu - spent
            factor = self.window.calibrate(wall0, wall1) / wall
        if out is not None:
            self._tally(workloads.check(self.workload, out))
        return wall, cpu, factor, out

    def _tally(self, result) -> None:
        self.solves += result.solves
        self.failures += result.failures
        self.iterations.append(result.iterations)
        self.max_abs_error.append(result.max_abs_error)

    def repeat(self, budget_s: float, before=None, after=None):
        """Passes until the next one would end more than half a pass past
        ``budget_s``, so a run lasts about ``budget_s`` on average; returns
        their ``(wall_s, cpu_s, speed_factor or None)``.  ``before()`` and
        ``after(wall_s, output)`` run around each pass, outside its timing."""
        samples: list[tuple[float, float, float | None]] = []
        start = time.monotonic()
        while True:
            if before is not None:
                before()
            wall, cpu, factor, out = self.one()
            samples.append((wall, cpu, factor))
            if after is not None:
                after(wall, out)
            elapsed = time.monotonic() - start
            typical = statistics.median(w for w, _, _ in samples)
            if elapsed + typical / 2 > budget_s:
                return samples


def _traced_passes(runner: Runner, budget_s: float, cold, spans_path: str):
    """Traced passes; returns the median per-layer metrics and the pass samples."""
    import paracheb.chebyshev
    from paracheb.propagators import parse_spec

    from tracing import Tracer

    build_operator = paracheb.chebyshev.build_operator
    tracer = Tracer(parse_spec(workloads.COARSE))
    per_pass: list[dict[str, float]] = []

    def after(wall, out):
        if out is not None and cold is not None and out.files != cold.files:
            runner.failures.append("traced pass wrote different CSV bytes than the untraced pass")
        per_pass.append(tracer.metrics(wall, build_operator.cache_info().misses))

    tracer.install()
    try:
        samples = runner.repeat(budget_s, tracer.begin_pass, after)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    return layers, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("measure", "trace"))
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    calibrator = Calibrator()
    calibrator.start()
    try:
        _import_paracheb()
        runner = Runner(args.workload, args.seed, args.outdir, calibrator)
        _, _, _, cold = runner.one()
        setup_end = time.monotonic()
        result: dict = {
            "setup_s": runner.window.calibrate(args.spawned, setup_end),
            "raw_setup_s": setup_end - args.spawned,
        }
        share = 1.0 if args.mode == "measure" else TRACE_UNTRACED_SHARE
        result["passes"] = runner.repeat(args.seconds * share)
    finally:
        calibrator.stop()
    if args.mode == "trace":
        runner.calibrator = None
        result["layers"], result["traced_passes"] = _traced_passes(
            runner, args.seconds * (1.0 - TRACE_UNTRACED_SHARE), cold, args.spans
        )
    result.update(
        env=environment(args.workload),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        solves=runner.solves,
        failures=runner.failures,
        iterations=runner.iterations,
        max_abs_error=runner.max_abs_error,
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
