"""Command-line driver: analyses and experiments from declarative manifests.

Subcommands: ``analyze`` (stability and contraction curves), ``mmin``
(minimal point counts), ``run`` (a single predictor-corrector solve) and
``experiment`` (the named desk-scale studies).  Options come from a flat
``key = value`` config file, with command-line flags taking precedence.
All output is CSV, written atomically (temp file plus rename), scientific
notation with 16 significant digits.
"""

from __future__ import annotations

import argparse
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import analysis, parareal, problems
from .errors import SolverError
from .propagators import PropagatorSpec, parse_spec, stability

_KEPLER_DT = 0.25
_BURGERS_DT_SWEEP = [2.0**-j for j in range(3, 9)]
_BURGERS_DX_SWEEP = [2.0**-j for j in range(1, 6)]
_BURGERS_M_SWEEP = [2, 4, 8, 16, 32, 64]
_BURGERS_NUS = [0.05, 0.005]

_EXPERIMENTS = ("kepler-compare", "burgers-dt", "burgers-dx", "burgers-m")


@dataclass
class RunManifest:
    """Resolved options for one invocation."""

    command: str
    out: str
    seed: int = 0
    workers: int = 1
    params: dict[str, str] = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.params.get(key, default)

    def given(self, **casts) -> dict:
        """The keys of ``casts`` that were set, each value cast by its function."""
        return {key: cast(self.params[key]) for key, cast in casts.items() if key in self.params}


def load_config(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    options: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            options[key.strip()] = value.strip()
    return options


def _format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_spec_list(text: str) -> list[PropagatorSpec]:
    items = [s for s in (piece.strip() for piece in text.split(",")) if s]
    if not items:
        raise ValueError("empty propagator spec list")
    return [parse_spec(s) for s in items]


def cmd_analyze(manifest: RunManifest) -> str:
    """Tabulate |R(z)| and K(z) for each requested propagator on a log grid.

    Each propagator's column pair comes from one ``stability`` call on the
    whole grid.
    """
    specs = _parse_spec_list(manifest.get("specs", ""))
    z_min = float(manifest.get("z_min", 1e-2))
    z_max = float(manifest.get("z_max", 1e4))
    n = int(manifest.get("z_points", 200))
    if not (1.0 + z_min > 1.0 and z_min < z_max < math.inf and n >= 2):
        # Where 1 + z rounds to 1, K(z) has no denominator.
        raise ValueError("need 1 + z_min > 1, z_min < z_max, both finite, and z_points >= 2")

    header = ["z"]
    for spec in specs:
        header += [f"absR_{spec.label}", f"K_{spec.label}"]
    zs = np.geomspace(z_min, z_max, n)
    columns = [zs]
    for spec in specs:
        R = stability(spec, zs)  # one call per spec; it gives both columns
        columns += [np.abs(R), analysis.contraction_from_stability(R, zs)]
    write_csv(manifest.out, header, np.column_stack(columns).tolist())
    return manifest.out


def cmd_mmin(manifest: RunManifest) -> str:
    """Tabulate the minimal point count over a list of z_max values."""
    raw = manifest.get("z_max_list", "")
    values = [float(s) for s in raw.split(",") if s.strip()]
    if not values:
        raise ValueError("z_max_list is required, e.g. z_max_list = 0.5, 10, 100")
    rows = []
    for z_max in values:
        res = analysis.m_min(z_max)
        rows.append([z_max, res.m_min, res.branch.value, res.condition_value, res.threshold])
    write_csv(manifest.out, ["z_max", "m_min", "branch", "condition_value", "threshold"], rows)
    return manifest.out


def _build_problem(manifest: RunManifest) -> problems.IvpProblem:
    name = manifest.get("problem", "")
    if name == "kepler":
        return problems.KeplerProblem().to_ivp()
    if name == "burgers":
        nu = float(manifest.get("nu", 0.05))
        nx = int(manifest.get("nx", 8))
        return problems.build_burgers(nu, nx).to_ivp()
    if name in ("diag-spectrum", "laplacian-1d"):
        casts = {"m": int, "T": float}
        if name == "diag-spectrum":
            casts.update(lambda_min=float, lambda_max=float)
        return problems.spd_catalog(name, **manifest.given(**casts)).to_ivp()
    raise ValueError(
        f"unknown problem {name!r} (expected kepler, burgers, diag-spectrum or laplacian-1d)"
    )


def _run_config(manifest: RunManifest, coarse, fine, N, T, init, metrics=()):
    # PararealConfig owns the defaults of tol and max_k: pass only those set.
    return parareal.PararealConfig(
        T=T,
        N=N,
        coarse=coarse,
        fine=fine,
        init=init,
        seed=manifest.seed,
        workers=manifest.workers,
        metrics=tuple(metrics),
        **manifest.given(tol=float, max_k=int),
    )


def cmd_run(manifest: RunManifest) -> str:
    """Run one predictor-corrector solve and dump its convergence history."""
    problem = _build_problem(manifest)
    coarse = parse_spec(manifest.get("coarse", "beuler:1"))
    fine = parse_spec(manifest.get("fine", "cg:8"))
    N = int(manifest.get("N", 10))
    T = float(manifest.get("T", problem.T))
    init = manifest.get("init", "coarse")
    cfg = _run_config(manifest, coarse, fine, N, T, init)
    _, history = parareal.run(cfg, problem)

    with_ref = history[0].abs_error is not None
    header = ["k", "iter_error"] + (["abs_error"] if with_ref else [])
    rows = []
    for rec in history:
        row = [rec.k, rec.iter_error]
        if with_ref:
            row.append(rec.abs_error)
        rows.append(row)
    write_csv(manifest.out, header, rows)
    return manifest.out


def _position_error(u_table: np.ndarray, ref_table: np.ndarray) -> float:
    return float(np.max(np.abs(u_table[:, :3] - ref_table[:, :3])))


def _experiment_kepler(manifest: RunManifest) -> tuple[list[str], list[list]]:
    problem = problems.KeplerProblem().to_ivp()
    N = round(problem.T / _KEPLER_DT)
    coarse = PropagatorSpec.backward_euler(1)
    algorithms = [
        PropagatorSpec.chebyshev_gauss(6),
        PropagatorSpec.backward_euler(6),
        PropagatorSpec.trapezoidal(6),
        PropagatorSpec.gauss4(6),
    ]
    init = manifest.get("init", "coarse")
    rows = []
    for fine in algorithms:
        cfg = _run_config(
            manifest, coarse, fine, N, problem.T, init,
            metrics=[("abs_error_pos", _position_error)],
        )
        try:
            _, history = parareal.run(cfg, problem)
        except SolverError as exc:
            raise SolverError(f"orbit comparison, algorithm {fine.label}: {exc}") from exc
        for rec in history:
            rows.append(
                [fine.label, rec.k, rec.abs_error, rec.extras["abs_error_pos"], rec.iter_error]
            )
    return ["algorithm", "k", "abs_error", "abs_error_pos", "iter_error"], rows


def _experiment_burgers(manifest: RunManifest, sweep: str) -> tuple[list[str], list[list]]:
    # Coarse-sweep start by default: uniform [-1, 1] random states can leave
    # the backward Euler stage equation without a real solution on the
    # largest coarse steps.  Pass init=random to opt into randomized starts.
    init = manifest.get("init", "coarse")
    coarse = PropagatorSpec.backward_euler(1)
    rows = []
    for nu in _BURGERS_NUS:
        if sweep == "dt":
            cases = [(dt, 1.0 / 4.0, 4) for dt in _BURGERS_DT_SWEEP]
        elif sweep == "dx":
            cases = [(1.0 / 64.0, dx, 4) for dx in _BURGERS_DX_SWEEP]
        else:
            cases = [(1.0 / 32.0, 1.0 / 4.0, m) for m in _BURGERS_M_SWEEP]
        for dt, dx, m in cases:
            problem = problems.build_burgers(nu, round(2.0 / dx)).to_ivp()
            fine = PropagatorSpec.chebyshev_gauss(m)
            N = round(problem.T / dt)
            cfg = _run_config(manifest, coarse, fine, N, problem.T, init)
            param = {"dt": dt, "dx": dx, "m": m}[sweep]
            try:
                _, history = parareal.run(cfg, problem)
            except SolverError as exc:
                raise SolverError(
                    f"viscous sweep at nu={nu:g}, {sweep}={param:g}: {exc}"
                ) from exc
            for rec in history:
                rows.append([nu, param, rec.k, rec.iter_error])
    return ["nu", sweep, "k", "iter_error"], rows


def cmd_experiment(manifest: RunManifest) -> str:
    """Reproduce one of the named desk-scale studies as a CSV table."""
    name = manifest.get("name", "")
    if name == "kepler-compare":
        header, rows = _experiment_kepler(manifest)
    elif name in ("burgers-dt", "burgers-dx", "burgers-m"):
        header, rows = _experiment_burgers(manifest, name.split("-", 1)[1])
    else:
        raise ValueError(f"unknown experiment {name!r} (expected one of {_EXPERIMENTS})")
    write_csv(manifest.out, header, rows)
    return manifest.out


_COMMANDS = {
    "analyze": cmd_analyze,
    "mmin": cmd_mmin,
    "run": cmd_run,
    "experiment": cmd_experiment,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracheb",
        description="parallel-in-time integration with a spectral collocation fine propagator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--workers", type=int, help="fine-sweep worker cap (default 1)")
        p.add_argument("--tol", type=float, help="stopping tolerance override")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    return parser


def build_manifest(args: argparse.Namespace) -> RunManifest:
    params = load_config(args.config) if args.config else {}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    if args.tol is not None:
        params["tol"] = repr(args.tol)  # exact: repr round-trips a float

    def pick(flag, key, default, cast):
        if flag is not None:
            return flag
        if key in params:
            return cast(params.pop(key))
        return default

    out = pick(args.out, "out", None, str)
    if out is None:
        raise ValueError("an output path is required (--out or 'out' in the config)")
    return RunManifest(
        command=args.command,
        out=out,
        seed=pick(args.seed, "seed", 0, int),
        workers=pick(args.workers, "workers", 1, int),
        params=params,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    manifest = build_manifest(args)
    path = _COMMANDS[manifest.command](manifest)
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
