import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import paracheb
from paracheb import (
    BurgersProblem,
    KeplerProblem,
    MaxIterationsError,
    NonConvergenceError,
    PararealConfig,
    parse_spec,
    run,
)
from paracheb.cli import (
    RunManifest,
    _build_parser,
    build_manifest,
    cmd_analyze,
    cmd_mmin,
    cmd_run,
    console,
    load_config,
    main,
    write_csv,
)
from paracheb.propagators import PropagatorKind


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestConfigFile:
    def test_parses_flat_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("specs = cg:0, cg:4  # curve set\n\nz_min=0.1\nz_max = 10\n")
        options = load_config(str(cfg))
        assert options == {"specs": "cg:0, cg:4", "z_min": "0.1", "z_max": "10"}

    def test_rejects_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a sentence\n")
        with pytest.raises(ValueError):
            load_config(str(cfg))


class TestAnalyze:
    def test_closed_form_row(self, tmp_path):
        out = tmp_path / "curves.csv"
        manifest = RunManifest(
            command="analyze",
            out=str(out),
            params={"specs": "cg:0", "z_min": "1", "z_max": "10", "z_points": "2"},
        )
        cmd_analyze(manifest)
        header, rows = read_csv(out)
        assert header == ["z", "absR_cg_m0", "K_cg_m0"]
        z, abs_r, k = (float(v) for v in rows[0])
        assert z == pytest.approx(1.0)
        assert abs_r == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert k == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_small_z_contraction_columns_match_closed_forms(self, tmp_path):
        # The K columns of cg come from the exact rational form; taken
        # through R(z), as |R - 1/(1+z)| / (1 - 1/(1+z)), they are 120% off
        # at z = 1e-9.
        out = tmp_path / "curves.csv"
        main(["analyze", "--set", "specs=cg:0,cg:1", "--set", "z_min=1e-9", "--set", "z_max=1e-3",
              "--set", "z_points=7", "--out", str(out)])
        header, rows = read_csv(out)
        assert header == ["z", "absR_cg_m0", "K_cg_m0", "absR_cg_m1", "K_cg_m1"]
        z, _, k0, _, k1 = np.array(rows, dtype=float).T
        np.testing.assert_allclose(k0, z / (2 + z), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(k1, np.abs(z * z - 8 * z) / (4 + z) ** 2, rtol=1e-14, atol=0.0)

    def test_empty_spec_list_writes_nothing(self, tmp_path):
        out = tmp_path / "none.csv"
        manifest = RunManifest(command="analyze", out=str(out), params={"specs": " "})
        with pytest.raises(ValueError):
            cmd_analyze(manifest)
        assert not out.exists()

    def test_curves_have_expected_limits(self, tmp_path):
        out = tmp_path / "curves.csv"
        manifest = RunManifest(
            command="analyze",
            out=str(out),
            params={"specs": "cg:0,cg:1,cg:2,cg:4,cg:20", "z_min": "1e-2", "z_max": "1e4", "z_points": "60"},
        )
        cmd_analyze(manifest)
        header, rows = read_csv(out)
        data = np.array([[float(v) for v in row] for row in rows])
        for col in range(2, data.shape[1], 2):  # contraction columns
            assert data[0, col] < 0.02  # starts near zero
            assert data[-1, col] > 0.7  # heads toward one (slower for large M)

    def test_float_format_has_full_precision(self, tmp_path):
        out = tmp_path / "curves.csv"
        manifest = RunManifest(
            command="analyze", out=str(out),
            params={"specs": "cg:0", "z_min": "1", "z_max": "2", "z_points": "2"},
        )
        cmd_analyze(manifest)
        _, rows = read_csv(out)
        mantissa = rows[0][1].split("e")[0]
        assert len(mantissa.split(".")[1]) >= 15



def format_value(value) -> str:
    """One CSV value as ``write_csv`` formatted it value by value."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


class TestWriteCsv:
    ROWS = [
        [0.1, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, 1.7976931348623157e308],
        [np.float64(2.5), np.float32(0.1), 7, -3, True, np.int64(-9), np.uint64(2**64 - 1)],
        ["search", "50%", None, PropagatorKind.GAUSS4, np.bool_(False), (1, 2), 1e-5],
        [1e300, 2.0, -1.5, 0.5, 3.0, 4.0, 5.0],  # the first row's types: its template again
        [0.1, -0.0, 3, "x", 1.0, 2.0, 3.0],  # the same length and other types
    ]

    def test_bytes_equal_the_value_by_value_format(self, tmp_path):
        out = tmp_path / "t.csv"
        write_csv(str(out), ["a", "b", "c", "d", "e", "f", "g"], self.ROWS)
        expected = "a,b,c,d,e,f,g\n" + "".join(",".join(map(format_value, row)) + "\n" for row in self.ROWS)
        assert out.read_bytes() == expected.encode("utf-8")


DATA = os.path.join(os.path.dirname(__file__), "data")


class TestGoldenTables:
    """Both tables, byte for byte, as the exact rational ``R(z)`` and ``K(z)``
    of every kind wrote them."""

    def test_analyze_table_unchanged(self, tmp_path):
        out = tmp_path / "curves.csv"
        main(["analyze", "--set", "specs=cg:0,cg:1,cg:5,cg:16,beuler:2", "--set", "z_points=200",
              "--out", str(out)])
        with open(os.path.join(DATA, "analyze_golden.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_mmin_table_unchanged(self, tmp_path):
        out = tmp_path / "mmin.csv"
        main(["mmin", "--set", "z_max_list=0.5,1,10,16.49,50,100,1000,10000", "--out", str(out)])
        with open(os.path.join(DATA, "mmin_golden.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestMmin:
    def test_threshold_table(self, tmp_path):
        out = tmp_path / "mmin.csv"
        manifest = RunManifest(
            command="mmin", out=str(out), params={"z_max_list": "0.5, 1, 10, 100"}
        )
        cmd_mmin(manifest)
        header, rows = read_csv(out)
        assert header == ["z_max", "m_min", "branch", "condition_value", "threshold"]
        assert [int(r[1]) for r in rows] == [0, 0, 1, 5]
        assert [r[2] for r in rows] == ["zero", "zero", "one", "search"]
        counts = [int(r[1]) for r in rows]
        assert counts == sorted(counts)

    def test_requires_values(self, tmp_path):
        manifest = RunManifest(command="mmin", out=str(tmp_path / "x.csv"), params={})
        with pytest.raises(ValueError):
            cmd_mmin(manifest)


class TestRunCommand:
    def test_spd_history_table(self, tmp_path):
        out = tmp_path / "history.csv"
        manifest = RunManifest(
            command="run",
            out=str(out),
            params={"problem": "diag-spectrum", "m": "3", "N": "5", "T": "0.5", "fine": "cg:8"},
        )
        cmd_run(manifest)
        header, rows = read_csv(out)
        assert header == ["k", "iter_error", "abs_error"]
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert float(rows[-1][1]) <= 1e-10

    def test_one_eigendecomposition_per_run(self, tmp_path, monkeypatch):
        # The matrix is checked and decomposed once, when its LinearRhs is
        # built: neither the reference nor a fine sweep decomposes it again.
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, name=name, original=original, **kw: calls.append(name) or original(*a, **kw)
            )
        out = tmp_path / "l8.csv"
        main(["run", "--set", "problem=laplacian-1d", "--set", "m=8", "--set", "N=8", "--set", "T=0.5",
              "--set", "fine=cg:4", "--set", "init=random", "--out", str(out)])
        assert len(read_csv(out)[1]) == 9  # nine fine sweeps
        assert calls == ["eigh"]

    def test_stiff_spd_run_completes(self, tmp_path, capsys):
        # Eigenvalues 1 to 1e16 in one run: each eigencomponent's block is
        # solved on its own, so the stiffest does not fail the others.
        out = tmp_path / "stiff.csv"
        main(["run", "--set", "problem=diag-spectrum", "--set", "m=3", "--set", "lambda_max=1e16",
              "--set", "N=10", "--set", "fine=cg:4", "--out", str(out)])
        header, rows = read_csv(out)
        assert header == ["k", "iter_error", "abs_error"] and rows
        assert np.all(np.isfinite([[float(v) for v in row] for row in rows]))

    def test_unknown_problem_rejected(self, tmp_path):
        manifest = RunManifest(
            command="run", out=str(tmp_path / "x.csv"), params={"problem": "pendulum"}
        )
        with pytest.raises(ValueError):
            cmd_run(manifest)

    def test_atomic_overwrite(self, tmp_path):
        out = tmp_path / "history.csv"
        out.write_text("sentinel\n")
        manifest = RunManifest(
            command="run",
            out=str(out),
            params={"problem": "diag-spectrum", "m": "2", "N": "4", "T": "0.4", "fine": "cg:6"},
        )
        cmd_run(manifest)
        content = out.read_text()
        assert "sentinel" not in content
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


class TestProblemSelectors:
    def test_burgers_run(self, tmp_path):
        out = tmp_path / "burgers.csv"
        manifest = RunManifest(
            command="run",
            out=str(out),
            params={"problem": "burgers", "nu": "0.05", "nx": "8", "N": "8", "fine": "cg:4"},
        )
        cmd_run(manifest)
        header, rows = read_csv(out)
        assert header == ["k", "iter_error", "abs_error"]
        assert float(rows[-1][1]) <= 1e-10

    def test_kepler_run(self, tmp_path):
        out = tmp_path / "kepler.csv"
        manifest = RunManifest(
            command="run",
            out=str(out),
            params={"problem": "kepler", "N": "10", "fine": "cg:8"},
        )
        cmd_run(manifest)
        _, rows = read_csv(out)
        assert float(rows[-1][1]) <= 1e-10

    @pytest.mark.parametrize(
        "keys, problem",
        [
            (["problem=kepler", "T=2"], KeplerProblem(T=2.0)),
            (["problem=burgers", "nx=8", "T=0.5"], BurgersProblem(0.05, 8, T=0.5)),
        ],
        ids=["kepler", "burgers"],
    )
    def test_run_sets_the_problems_horizon(self, tmp_path, keys, problem):
        # T is the problem's: the command builds the problem with it, and the
        # run's grid splits it, as a library run on that problem does.
        out = tmp_path / "cli.csv"
        keys = keys + ["N=8", "fine=cg:6"]
        assert main(["run", "--out", str(out)] + [arg for key in keys for arg in ("--set", key)]) == 0
        cfg = PararealConfig(N=8, fine=parse_spec("cg:6"))
        _, history = run(cfg, problem.to_ivp())
        rows = [[rec.k, rec.iter_error, rec.abs_error] for rec in history]
        write_csv(str(tmp_path / "lib.csv"), ["k", "iter_error", "abs_error"], rows)
        assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()


class TestExperimentGridSweep:
    def test_spatial_resolution_sweep(self, tmp_path):
        out = tmp_path / "burgers_dx.csv"
        assert main(["experiment", "--out", str(out), "--set", "name=burgers-dx"]) == 0
        header, rows = read_csv(out)
        assert header == ["nu", "dx", "k", "iter_error"]
        final = {}
        for nu, dx, k, err in rows:
            final[(float(nu), float(dx))] = float(err)
        dxs = [2.0**-j for j in range(1, 6)]
        assert set(final) == {(nu, dx) for nu in (0.05, 0.005) for dx in dxs}
        assert all(err <= 1e-10 for err in final.values())


#: Run in a fresh interpreter by ``TestColdStart``: prints, as its last line,
#: the scipy modules loaded after each step.
_COLD_START = """
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import paracheb
loaded["import"] = scipy_modules()
from paracheb import cli
out = sys.argv[1]
runs = {
    "laplacian-1d": ["run", "--set", "problem=laplacian-1d", "--set", "m=8", "--set", "N=8",
                     "--set", "T=0.5", "--set", "fine=cg:4", "--set", "init=random"],
    "burgers": ["run", "--set", "problem=burgers", "--set", "nx=8", "--set", "N=8",
                "--set", "T=0.5", "--set", "fine=cg:4"],
    "kepler-compare": ["experiment", "--set", "name=kepler-compare"],
    "mmin": ["mmin", "--set", "z_max_list=0.5,10,100"],
    "analyze": ["analyze", "--set", "specs=cg:0,cg:5,beuler:2", "--set", "z_points=20"],
}
for name, argv in runs.items():
    assert cli.main([*argv, "--out", os.path.join(out, name + ".csv")]) == 0
    loaded[name] = scipy_modules()
paracheb.rho_over_interval(paracheb.PropagatorSpec.chebyshev_gauss(16), 1e3)
loaded["rho_over_interval"] = scipy_modules()
paracheb.find_threshold_roots()
loaded["find_threshold_roots"] = scipy_modules()
print(json.dumps(loaded))
"""


class TestColdStart:
    def test_no_command_loads_scipy(self, tmp_path):
        # pytest has loaded scipy already, so the check needs its own interpreter.
        src = os.path.dirname(os.path.dirname(paracheb.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START, str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert list(loaded) == ["import", "laplacian-1d", "burgers", "kepler-compare", "mmin", "analyze",
                                "rho_over_interval", "find_threshold_roots"]
        assert all(modules == [] for modules in loaded.values()), loaded
        # The Kepler table is the same in a process that loaded scipy first.
        assert main(["experiment", "--set", "name=kepler-compare", "--out", str(tmp_path / "k.csv")]) == 0
        assert (tmp_path / "kepler-compare.csv").read_bytes() == (tmp_path / "k.csv").read_bytes()


class TestMainEntry:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "analyze.cfg"
        cfg.write_text("specs = cg:0\nz_min = 1\nz_max = 10\nz_points = 2\nout = ignored.csv\n")
        out = tmp_path / "flag.csv"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_set_overrides(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["mmin", "--out", str(out), "--set", "z_max_list=0.5,10"]) == 0
        _, rows = read_csv(out)
        assert [int(r[1]) for r in rows] == [0, 1]

    @pytest.mark.parametrize("command", ["run", "mmin"])
    def test_unknown_key_rejected(self, tmp_path, command):
        # A misspelt key would otherwise run at the default it meant to change.
        out = tmp_path / "x.csv"
        args = [command, "--out", str(out), "--set", "problem=diag-spectrum", "--set", "fine=cg:4",
                "--set", "z_max_list=1", "--set", "tols=1e-2"]
        with pytest.raises(ValueError, match="unknown config key.*'tols'"):
            main(args)
        assert not out.exists()

    def test_unknown_key_in_config_file_rejected(self, tmp_path):
        cfg = tmp_path / "mmin.cfg"
        cfg.write_text("z_max_list = 1\nz_max_lst = 2\n")
        with pytest.raises(ValueError, match="'z_max_lst'"):
            main(["mmin", "--config", str(cfg), "--out", str(tmp_path / "m.csv")])

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("mmin", ["--set", "z_max_list=1", "--set", "coarse=beuler:1"]),
            ("mmin", ["--set", "z_max_list=1", "--set", "workers=0"]),
            ("experiment", ["--set", "name=burgers-m", "--set", "fine=cg:2"]),
            ("analyze", ["--set", "specs=cg:0", "--set", "name=burgers-m"]),
        ],
        ids=["mmin-coarse", "mmin-workers", "experiment-fine", "analyze-name"],
    )
    def test_key_of_another_command_rejected(self, tmp_path, command, extra):
        # A key the command does not read would otherwise be dropped silently.
        out = tmp_path / "x.csv"
        key = extra[-1].split("=")[0]
        with pytest.raises(ValueError, match=f"'{key}' for {command} "):
            main([command, "--out", str(out), *extra])
        assert not out.exists()

    @pytest.mark.parametrize("key", ["lambda_min=2", "lambda_max=50", "nu=0.3", "nx=8"])
    def test_run_rejects_parameter_the_problem_does_not_take(self, tmp_path, key):
        out = tmp_path / "r.csv"
        with pytest.raises(ValueError, match=f"'{key.split('=')[0]}'.*laplacian-1d"):
            main(["run", "--out", str(out), "--set", "problem=laplacian-1d", "--set", "m=4",
                  "--set", "fine=cg:2", "--set", key])
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["kepler", "burgers"])
    def test_run_rejects_spd_parameter_on_other_problems(self, tmp_path, problem):
        out = tmp_path / "r.csv"
        with pytest.raises(ValueError, match=rf"unexpected parameters \['m'\] for {problem}"):
            main(["run", "--out", str(out), "--set", f"problem={problem}", "--set", "m=3"])
        assert not out.exists()

    def test_experiment_takes_only_the_backward_euler_coarse(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="beuler:1"):
            main(["experiment", "--out", str(out), "--set", "name=burgers-m", "--set", "coarse=tr:1"])
        assert not out.exists()
        paths = {name: tmp_path / f"{name}.csv" for name in ("default", "pinned")}
        args = ["experiment", "--set", "name=kepler-compare"]
        assert main(args + ["--out", str(paths["default"])]) == 0
        assert main(args + ["--out", str(paths["pinned"]), "--set", "coarse=beuler:1"]) == 0
        assert paths["pinned"].read_bytes() == paths["default"].read_bytes()

    @pytest.mark.parametrize("coarse", ["tr:1", "beuler:2"])
    def test_run_takes_only_the_backward_euler_coarse(self, tmp_path, capsys, coarse):
        # run and experiment share one check: any other coarse spec is a bad
        # value, one line naming beuler:1, before any step; beuler:1 pinned
        # is the default run.
        out = tmp_path / "x.csv"
        run_argv = ["run", "--set", "problem=burgers", "--set", "nx=8", "--set", "N=8", "--set", "T=0.5",
                    "--set", "fine=cg:4"]
        messages = []
        for argv in (run_argv, ["experiment", "--set", "name=burgers-m"]):
            with pytest.raises(ValueError, match="beuler:1") as err:
                main([*argv, "--set", f"coarse={coarse}", "--out", str(out)])
            messages.append(str(err.value))
        assert messages[0] == messages[1] and "\n" not in messages[0]
        assert console([*run_argv, "--set", f"coarse={coarse}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"paracheb: error: {messages[0]}\n"
        assert not out.exists()
        paths = {name: tmp_path / f"{name}.csv" for name in ("default", "pinned")}
        assert main([*run_argv, "--out", str(paths["default"])]) == 0
        assert main([*run_argv, "--set", "coarse=beuler:1", "--out", str(paths["pinned"])]) == 0
        assert paths["pinned"].read_bytes() == paths["default"].read_bytes()

    @pytest.mark.parametrize("workload", ["burgers", "kepler", "laplacian", "analysis"])
    def test_benchmark_command_lines_accepted(self, monkeypatch, workload):
        # Parsed only: a key the benchmark passes must stay accepted.
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
        workloads = importlib.import_module("workloads")
        for argv in workloads.commands(workload, 0).values():
            manifest = build_manifest(_build_parser().parse_args([*argv, "--out", "x.csv"]))
            assert manifest.command == argv[0]

    def test_console_prints_a_solver_error_as_one_line(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        argv = ["run", "--set", "problem=burgers", "--set", "nx=16", "--set", "N=2",
                "--set", "fine=cg:2", "--out", str(out)]
        assert console(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("paracheb: error: fine propagator failed on subintervals [0, 1]: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()
        assert console(["mmin", "--set", "z_max_list=1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}\n"

    def test_console_prints_a_bad_value_as_one_line(self, tmp_path, capsys):
        # main raises the ValueError; the command prints it and exits 2,
        # the status argparse gives a bad command line.
        out = tmp_path / "t.csv"
        argv = ["run", "--set", "problem=burgers", "--set", "nx=8", "--set", "N=8", "--set", "T=0.5",
                "--set", "fine=cg:4", "--set", "tols=1", "--out", str(out)]
        with pytest.raises(ValueError, match="unknown config key"):
            main(argv)
        assert console(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("paracheb: error: unknown config key(s) 'tols' for run ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["config", "out"])
    def test_console_prints_a_missing_path_as_one_line(self, tmp_path, capsys, case):
        # A config file or an output directory that is not there is a bad
        # value: one line and status 2, not an OSError's traceback.
        missing = tmp_path / "missing"
        argv = ["mmin", "--set", "z_max_list=1"]
        if case == "config":
            argv += ["--config", str(missing / "run.cfg"), "--out", str(tmp_path / "m.csv")]
        else:
            argv += ["--out", str(missing / "m.csv")]
        with pytest.raises(FileNotFoundError):
            main(argv)
        assert console(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("paracheb: error: [Errno 2] No such file or directory: ")
        assert str(missing) in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not missing.exists() and not (tmp_path / "m.csv").exists()

    def test_workers_checked_but_without_effect(self, tmp_path):
        # The benchmark passes --workers; a value below 1 is still rejected.
        args = ["run", "--set", "problem=diag-spectrum", "--set", "m=3", "--set", "N=6",
                "--set", "T=1.5", "--set", "fine=cg:6", "--set", "init=random"]
        with pytest.raises(ValueError, match="workers must be >= 1"):
            main(args + ["--out", str(tmp_path / "w0.csv"), "--workers", "0"])
        assert not (tmp_path / "w0.csv").exists()
        assert main(args + ["--out", str(tmp_path / "w2.csv"), "--workers", "2"]) == 0
        assert main(args + ["--out", str(tmp_path / "w.csv")]) == 0
        assert (tmp_path / "w2.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()

    def test_requires_output_path(self):
        with pytest.raises(ValueError):
            main(["mmin", "--set", "z_max_list=1"])

    def test_tolerance_flag_shortens_run(self, tmp_path):
        common = ["run", "--set", "problem=diag-spectrum", "--set", "m=3",
                  "--set", "N=6", "--set", "T=1.5", "--set", "fine=cg:6"]
        tight, loose = tmp_path / "tight.csv", tmp_path / "loose.csv"
        assert main(common + ["--out", str(tight)]) == 0
        assert main(common + ["--out", str(loose), "--tol", "1e-4"]) == 0
        assert len(read_csv(loose)[1]) < len(read_csv(tight)[1])
        # The flag takes precedence over the key.
        flagged = tmp_path / "flagged.csv"
        assert main(common + ["--out", str(flagged), "--set", "tol=1e-30", "--tol", "1e-4"]) == 0
        assert flagged.read_bytes() == loose.read_bytes()

    def test_seed_flag_wins_over_key(self, tmp_path):
        common = ["run", "--set", "problem=diag-spectrum", "--set", "m=3", "--set", "N=6",
                  "--set", "T=1.5", "--set", "fine=cg:6", "--set", "init=random"]
        paths = {name: tmp_path / f"{name}.csv" for name in ("key", "flag", "both")}
        assert main(common + ["--out", str(paths["key"]), "--set", "seed=1"]) == 0
        assert main(common + ["--out", str(paths["flag"]), "--seed", "2"]) == 0
        assert main(common + ["--out", str(paths["both"]), "--set", "seed=1", "--seed", "2"]) == 0
        assert paths["both"].read_bytes() == paths["flag"].read_bytes()
        assert paths["key"].read_bytes() != paths["flag"].read_bytes()

    @pytest.mark.parametrize("command", ["analyze", "mmin"])
    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--workers", "0"], ["--tol", "1e-4"]])
    def test_run_flags_rejected_elsewhere(self, tmp_path, command, flag):
        # --seed, --workers and --tol set parareal options, so only the
        # run commands take them.
        with pytest.raises(SystemExit) as err:
            main([command, "--out", str(tmp_path / "x.csv"), "--set", "z_max_list=1", *flag])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_max_k_key_caps_run(self, tmp_path):
        args = ["run", "--out", str(tmp_path / "r.csv"), "--set", "problem=diag-spectrum",
                "--set", "m=3", "--set", "N=6", "--set", "T=1.5", "--set", "fine=cg:6"]
        with pytest.raises(MaxIterationsError, match="within 1 iterations"):
            main(args + ["--set", "max_k=1"])

    @pytest.mark.parametrize(
        "name, subinterval, context",
        [
            ("kepler-compare", 1, "orbit comparison, algorithm cg_m6"),
            ("burgers-dt", 2, "viscous sweep at nu=0.005, dt=0.125"),
        ],
    )
    def test_experiment_failure_keeps_its_type(self, tmp_path, name, subinterval, context):
        # From random starts a coarse backward Euler stage fails in pass 0;
        # the experiment adds its context and re-raises the same error.
        out = tmp_path / "x.csv"
        with pytest.raises(NonConvergenceError) as err:
            main(["experiment", "--out", str(out), "--set", f"name={name}", "--set", "init=random"])
        assert (err.value.subinterval, err.value.k) == (subinterval, 0)
        assert str(err.value).startswith(f"{context}: coarse step on subinterval {subinterval} in pass 0: ")
        assert err.value.residual > 0.1
        assert not out.exists()

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            main(["experiment", "--out", str(tmp_path / "x.csv"), "--set", "name=lorenz"])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["z_min", "z_max"])
    def test_analyze_rejects_nonfinite_bounds(self, tmp_path, key, value):
        out = tmp_path / "a.csv"
        with pytest.raises(ValueError, match="finite"):
            main(["analyze", "--out", str(out), "--set", "specs=cg:0", "--set", f"{key}={value}"])
        assert not out.exists()

    @pytest.mark.parametrize("z_min", ["0", "-1e-3"])
    def test_analyze_rejects_nonpositive_z_min(self, tmp_path, z_min):
        out = tmp_path / "a.csv"
        with pytest.raises(ValueError, match="0 < z_min"):
            main(["analyze", "--out", str(out), "--set", "specs=cg:1",
                  "--set", f"z_min={z_min}", "--set", "z_max=1"])
        assert not out.exists()

    def test_analyze_tiny_z_min_is_exact(self, tmp_path):
        # 1 + z rounds to 1 below about 1.1e-16; K = |Q(z)| / D(z) keeps
        # every kind exact there: beuler:2's K is z / (2 + z)**2.
        out = tmp_path / "a.csv"
        main(["analyze", "--out", str(out), "--set", "specs=beuler:2",
              "--set", "z_min=1e-20", "--set", "z_max=1e-3", "--set", "z_points=7"])
        values = np.array(read_csv(out)[1], dtype=float)
        z = values[:, 0]
        np.testing.assert_allclose(values[:, 2], z / (2 + z) ** 2, rtol=1e-15, atol=0.0)

    def test_analyze_far_z_is_finite(self, tmp_path):
        # Every kind is A-stable, out to the float maximum: past where
        # gauss4's z * z overflows, |R| <= 1 and K is finite.
        out = tmp_path / "a.csv"
        main(["analyze", "--out", str(out), "--set", "specs=beuler:3,tr:1,gauss4:1,cg:5",
              "--set", "z_min=1", "--set", "z_max=1.7e308", "--set", "z_points=9"])
        header, rows = read_csv(out)
        assert header == ["z"] + [f"{c}_{s}" for s in ("beuler_j3", "tr_j1", "gauss4_j1", "cg_m5") for c in ("absR", "K")]
        values = np.array(rows, dtype=float)
        assert values[-1, 0] == 1.7e308 and np.isfinite(values).all()
        assert (values[:, 1::2] <= 1.0).all()

    def test_missing_output_directory_fails_before_the_command(self, tmp_path, monkeypatch, capsys):
        # The CSV is written after the experiment; its directory is checked
        # before the experiment runs, and the error names --out as given.
        monkeypatch.setattr(paracheb.parareal, "run", lambda *a, **k: pytest.fail("the experiment ran"))
        out = tmp_path / "missing" / "x.csv"
        argv = ["experiment", "--set", "name=burgers-m", "--out", str(out)]
        with pytest.raises(FileNotFoundError) as err:
            main(argv)
        assert err.value.filename == str(out)
        assert console(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"paracheb: error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

        # An --out that names a directory, or is empty, fails the same way,
        # naming the path as given, and no command function is called.
        monkeypatch.setitem(paracheb.cli._COMMANDS, "mmin", lambda *a: pytest.fail("the command ran"))
        argv = ["mmin", "--set", "z_max_list=0.5", "--out", str(tmp_path)]
        with pytest.raises(IsADirectoryError) as err:
            main(argv)
        assert err.value.filename == str(tmp_path)
        assert console(argv) == 2
        assert capsys.readouterr().err == f"paracheb: error: [Errno 21] Is a directory: '{tmp_path}'\n"
        argv[-1] = ""
        with pytest.raises(ValueError, match="an output path is required"):
            main(argv)
        assert console(argv) == 2
        err = capsys.readouterr().err
        assert err == "paracheb: error: an output path is required (--out or 'out' in the config)\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option", ["--tol", "T"])
    def test_run_rejects_nonfinite_time_and_tolerance(self, tmp_path, option, value):
        out = tmp_path / "r.csv"
        flags = ["--tol", value] if option == "--tol" else ["--set", f"T={value}"]
        with pytest.raises(ValueError, match="finite"):
            main(["run", "--out", str(out), "--set", "problem=kepler", "--set", "N=4"] + flags)
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["beuler:x", "cg:2.5"])
    def test_non_integer_spec_count_quoted(self, tmp_path, spec):
        out = tmp_path / "c.csv"
        with pytest.raises(ValueError, match=f"'{spec}'"):
            main(["analyze", "--out", str(out), "--set", f"specs=cg:0,{spec}"])
        assert not out.exists()
