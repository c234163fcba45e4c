"""paracheb benchmark: time to solution of four workloads, and a traced run
that splits each pass by layer.

    python3 bench/run.py --workload burgers --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --trace 1

A closed loop with one caller: each workload repeats one pass over a fixed
case list, calling ``paracheb.cli.main`` in-process as a user runs
``paracheb run`` / ``experiment`` / ``mmin`` / ``analyze`` (see
``workloads.py``).  Each run starts fresh processes (``worker.py``), so the
``build_operator`` cache starts empty and set-up time is real; BLAS is pinned
to one thread, so the program's threads equal the workload's ``workers``.
``PROCESSES`` processes run one after another: each sets up (its median is
``setup_s``), then times passes for its share of ``--seconds``.  Spreading
the timed passes over several processes and a longer stretch of time
averages out per-process effects.

Each vCPU of a shared machine runs the same code at speeds up to 1.9x apart,
changing every few seconds, and the mix drifts over minutes, so raw pass
times move by up to 30% between runs.  The timing metrics are therefore
calibrated (``calibrate.py``): each interval's seconds rescaled to a fixed
CPU speed, measured by samples taken during that interval.  ``setup_s`` is
the median calibrated set-up, ``solve_s.p50`` and ``cpu_s.p50`` the median
calibrated wall and CPU seconds of a pass.  Raw times are printed alongside.

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` one process times untraced passes,
then traced passes (``tracing.py``), and reports the ``per_layer`` list.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

PROCESSES = 2
#: Wall-clock limit of one workload's run, children included.
TIME_LIMIT_S = 170.0
_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A benchmark process failed or ran out of time; no result is printed."""


def _declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _spawn(workload, seed, seconds, mode, tmp: Path, index: int, deadline: float) -> dict:
    outdir = tmp / f"{workload}-{index}"
    outdir.mkdir()
    result = tmp / f"{workload}-{index}.json"
    out_root = tmp.parent
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--spawned", repr(spawned),
        "--outdir", str(outdir), "--result", str(result),
        "--spans", str(out_root / f"spans-{workload}.jsonl"),
    ]
    proc = subprocess.Popen(cmd, env={**os.environ, **_PINNED}, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} process ran past the {TIME_LIMIT_S:.0f} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{workload}: {mode} process exited with code {code}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path):
    """Run one workload; returns ``(report, metrics, attempted, failed, env)``."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        children = [_spawn(workload, seed, seconds, "trace", tmp, 0, deadline)]
    else:
        children = [
            _spawn(workload, seed, seconds / PROCESSES, "measure", tmp, i, deadline)
            for i in range(PROCESSES)
        ]
    passes = [p for c in children for p in c["passes"]]
    attempted = sum(c["solves"] for c in children)
    failures = [msg for c in children for msg in c["failures"]]
    failed = min(len(failures), attempted)

    walls = [wall for wall, _, _ in passes]
    cpus = [cpu for _, cpu, _ in passes]
    report = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "solve_s.p50": statistics.median(wall * f for wall, _, f in passes),
        "cpu_s.p50": statistics.median(cpu * f for _, cpu, f in passes),
        "raw_setup_s": statistics.median(c["raw_setup_s"] for c in children),
        "raw_solve_s.p50": statistics.median(walls),
        "raw_solve_s.min": min(walls),
        "raw_cpu_s.p50": statistics.median(cpus),
        "speed_factor.p50": statistics.median(f for _, _, f in passes),
        "iterations": max(n for c in children for n in c["iterations"]),
        "max_abs_error": max(e for c in children for e in c["max_abs_error"]),
        "failed_frac": failed / attempted,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "passes": len(walls),
    }
    if trace:
        metrics = dict(children[0]["layers"])
        traced = [wall for wall, _, _ in children[0]["traced_passes"]]
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1.0
        metrics["parareal.iterations"] = report["iterations"]
        metrics["parareal.max_abs_error"] = report["max_abs_error"]
        report["traced_passes"] = len(traced)
    else:
        metrics = report
    for msg in failures[:10]:
        print(f"FAILED {workload}: {msg}", file=sys.stderr)
    return report, metrics, attempted, failed, children[0]["env"]


_REPORT_UNITS = {
    "setup_s": "s", "solve_s.p50": "s", "cpu_s.p50": "s",
    "raw_setup_s": "s", "raw_solve_s.p50": "s", "raw_solve_s.min": "s", "raw_cpu_s.p50": "s",
    "speed_factor.p50": "ratio",
    "iterations": "count",
    "max_abs_error": "abs", "failed_frac": "ratio", "peak_rss_mb": "MB",
    "passes": "count", "traced_passes": "count",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; only laplacian's random init uses it")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed passes of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "paracheb" / "__init__.py").is_file():
        print(f"no paracheb sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared_metrics()
    declared = per_layer if args.trace else end_to_end

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out_root, prefix="run-"))
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for workload in names:
            report, measured, n_attempted, n_failed, env = _run_workload(
                workload, args.seed, args.seconds, bool(args.trace), tmp
            )
            attempted += n_attempted
            failed += n_failed
            print(f"{workload} env {json.dumps({'seed': args.seed, **env}, sort_keys=True)}")
            for name, value in report.items():
                print(f"{workload} {name} = {value:.6g} {_REPORT_UNITS[name]}")
            if args.trace:
                for name in per_layer:
                    print(f"{workload} {name} = {measured[name]:.6g} {per_layer[name]}")
            prefix = "" if len(names) == 1 else f"{workload}."
            for name, unit in declared.items():
                metrics[prefix + name] = {"value": measured[name], "unit": unit}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
