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
import errno
import math
import os
import sys
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

#: The problem parameters of ``run``; each problem takes some of them.
_PROBLEM_PARAMS = {"m": int, "lambda_min": float, "lambda_max": float, "nu": float, "nx": int}

_PARAREAL_KEYS = {"out", "seed", "workers", "tol", "max_k", "init"}

#: The config keys each command reads.  ``build_manifest`` rejects any other
#: key, and gives a command the ``--seed/--workers/--tol`` flags of the keys
#: its entry holds.
COMMAND_KEYS = {
    "analyze": {"out", "specs", "z_min", "z_max", "z_points"},
    "mmin": {"out", "z_max_list"},
    "run": _PARAREAL_KEYS | {"problem", "N", "T", "coarse", "fine", *_PROBLEM_PARAMS},
    "experiment": _PARAREAL_KEYS | {"name", "coarse"},
}

_FLAGS = {
    "seed": (int, "random seed of init=random"),
    "workers": (int, "must be >= 1; has no effect: the fine sweep is one stacked call"),
    "tol": (float, "stopping tolerance override"),
}


@dataclass
class RunManifest:
    """Resolved options for one invocation."""

    command: str
    out: str
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


def _conversion(value) -> str:
    """The ``%`` conversion of one CSV value: an integer (``int`` or
    ``np.integer``) in full, a float in scientific notation with 16 digits
    after the point, anything else as ``str`` gives it."""
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, float):
        return "%.16e"
    return "%s"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write: temp file in the target directory, then rename.

    Each row is formatted by one ``%`` template, built once for each
    sequence of value types the rows hold.
    """
    templates: dict[tuple[type, ...], str] = {}
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                row = tuple(row)
                kinds = tuple(map(type, row))
                template = templates.get(kinds)
                if template is None:
                    template = templates[kinds] = ",".join(map(_conversion, row)) + "\n"
                fh.write(template % row)
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

    Each propagator's pair of columns comes from one ``stability`` and one
    ``analysis.contraction`` call on the whole grid; every kind's ``K`` is
    its exact rational form, with no cancellation at small ``z``.
    """
    specs = _parse_spec_list(manifest.get("specs", ""))
    z_min = float(manifest.get("z_min", 1e-2))
    z_max = float(manifest.get("z_max", 1e4))
    n = int(manifest.get("z_points", 200))
    if not (0.0 < z_min < z_max < math.inf and n >= 2):
        raise ValueError("need 0 < z_min < z_max, both finite, and z_points >= 2")

    header = ["z"]
    for spec in specs:
        header += [f"absR_{spec.label}", f"K_{spec.label}"]
    zs = np.geomspace(z_min, z_max, n)
    columns = [zs]
    for spec in specs:
        columns += [np.abs(stability(spec, zs)), analysis.contraction(spec, zs)]
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
    params = manifest.given(**_PROBLEM_PARAMS)
    horizon = manifest.given(T=float)  # every problem's own default otherwise
    if name in ("diag-spectrum", "laplacian-1d"):
        # spd_catalog rejects a parameter its problem does not take.
        return problems.spd_catalog(name, **params, **horizon).to_ivp()
    if name == "kepler":
        problem = problems.KeplerProblem(**horizon)
    elif name == "burgers":
        problem = problems.BurgersProblem(params.pop("nu", 0.05), params.pop("nx", 8), **horizon)
    else:
        raise ValueError(
            f"unknown problem {name!r} (expected kepler, burgers, diag-spectrum or laplacian-1d)"
        )
    if params:
        raise ValueError(f"unexpected parameters {sorted(params)} for {name}")
    return problem.to_ivp()


def _check_coarse(manifest: RunManifest) -> None:
    """Accept the ``coarse`` key only as ``beuler:1``, the one coarse propagator (``parareal.COARSE``)."""
    text = manifest.get("coarse", "beuler:1")
    if parse_spec(text) != parareal.COARSE:
        raise ValueError(f"coarse must be beuler:1, the paper's backward Euler (got {text!r}); no other is accepted")


def _run_config(manifest: RunManifest, fine, N):
    # workers is only checked: the fine sweep is one stacked call.
    if int(manifest.get("workers", 1)) < 1:
        raise ValueError("workers must be >= 1")
    # PararealConfig owns the run defaults: pass only the keys that were set.
    return parareal.PararealConfig(N=N, fine=fine, **manifest.given(tol=float, max_k=int, init=str, seed=int))


def cmd_run(manifest: RunManifest) -> str:
    """Run one predictor-corrector solve and dump its convergence history."""
    _check_coarse(manifest)
    problem = _build_problem(manifest)
    fine = parse_spec(manifest.get("fine", "cg:8"))
    N = int(manifest.get("N", 10))
    cfg = _run_config(manifest, fine, N)
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


def _experiment_kepler(manifest: RunManifest) -> tuple[list[str], list[list]]:
    problem = problems.KeplerProblem().to_ivp()
    N = round(problem.T / _KEPLER_DT)
    algorithms = [
        PropagatorSpec.chebyshev_gauss(6),
        PropagatorSpec.backward_euler(6),
        PropagatorSpec.trapezoidal(6),
        PropagatorSpec.gauss4(6),
    ]
    # One batch: the runs share their coarse steps.
    cfgs = [_run_config(manifest, fine, N) for fine in algorithms]
    try:
        results = parareal.run(cfgs, problem)
    except SolverError as exc:
        exc.add_context(f"orbit comparison, algorithm {algorithms[exc.run].label}")
        raise
    rows = []
    for fine, (_, history) in zip(algorithms, results):
        for rec in history:
            abs_error_pos = float(np.max(rec.component_error[:3]))  # the position block
            rows.append([fine.label, rec.k, rec.abs_error, abs_error_pos, rec.iter_error])
    return ["algorithm", "k", "abs_error", "abs_error_pos", "iter_error"], rows


def _experiment_burgers(manifest: RunManifest, sweep: str) -> tuple[list[str], list[list]]:
    # PararealConfig starts from a coarse sweep by default: uniform [-1, 1]
    # random states can leave the backward Euler stage equation without a
    # real solution on the largest coarse steps.  Pass init=random to opt
    # into randomized starts.
    if sweep == "dt":
        batches = [[(dt, 1.0 / 4.0, 4)] for dt in _BURGERS_DT_SWEEP]
    elif sweep == "dx":
        batches = [[(1.0 / 64.0, dx, 4)] for dx in _BURGERS_DX_SWEEP]
    else:
        # The point counts share a problem and a coarse grid: one batch.
        batches = [[(1.0 / 32.0, 1.0 / 4.0, m) for m in _BURGERS_M_SWEEP]]
    rows = []
    for nu in _BURGERS_NUS:
        for batch in batches:
            dt, dx, _ = batch[0]
            problem = problems.BurgersProblem(nu, round(2.0 / dx)).to_ivp()
            N = round(problem.T / dt)
            cfgs = [_run_config(manifest, PropagatorSpec.chebyshev_gauss(m), N) for _, _, m in batch]
            params = [{"dt": dt, "dx": dx, "m": m}[sweep] for dt, dx, m in batch]
            try:
                results = parareal.run(cfgs, problem)
            except SolverError as exc:
                exc.add_context(f"viscous sweep at nu={nu:g}, {sweep}={params[exc.run]:g}")
                raise
            for param, (_, history) in zip(params, results):
                for rec in history:
                    rows.append([nu, param, rec.k, rec.iter_error])
    return ["nu", sweep, "k", "iter_error"], rows


def cmd_experiment(manifest: RunManifest) -> str:
    """Reproduce one of the named desk-scale studies as a CSV table."""
    _check_coarse(manifest)
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
        for key, (cast, text) in _FLAGS.items():
            if key in COMMAND_KEYS[name]:
                p.add_argument(f"--{key}", type=cast, help=text)
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
    keys = COMMAND_KEYS[args.command]
    unknown = ", ".join(map(repr, sorted(params.keys() - keys)))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} for {args.command} (it reads {sorted(keys)})")
    for key in _FLAGS:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = repr(flag)  # exact: repr round-trips a float
    out = args.out if args.out is not None else params.pop("out", None)
    if not out:
        raise ValueError("an output path is required (--out or 'out' in the config)")
    # Checked before the command runs, which may take long, and named as given.
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    return RunManifest(command=args.command, out=out, params=params)


def main(argv: list[str] | None = None) -> int:
    """Run one command; a failure propagates as its exception."""
    args = _build_parser().parse_args(argv)
    manifest = build_manifest(args)
    path = _COMMANDS[manifest.command](manifest)
    print(path)
    return 0


def console(argv: list[str] | None = None) -> int:
    """The ``paracheb`` command: ``main``, with a ``SolverError``, a
    ``ValueError`` or an ``OSError`` (a config file or an output directory
    that is not there, say) printed as one ``paracheb: error: <message>``
    line on stderr.  The exit status is 1 for a solver error and 2, as for a
    bad command line, for a bad value or path."""
    try:
        return main(argv)
    except (SolverError, ValueError, OSError) as exc:
        print(f"paracheb: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SolverError) else 2


if __name__ == "__main__":
    raise SystemExit(console())
