import importlib
import os

import numpy as np
import pytest

from paracheb import MaxIterationsError, NonConvergenceError
from paracheb.cli import (
    RunManifest,
    _build_parser,
    build_manifest,
    cmd_analyze,
    cmd_mmin,
    cmd_run,
    load_config,
    main,
)


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


DATA = os.path.join(os.path.dirname(__file__), "data")


class TestGoldenTables:
    """Both tables, byte for byte, as the scalar ``R(z)`` loop wrote them."""

    def test_analyze_table_unchanged(self, tmp_path):
        out = tmp_path / "curves.csv"
        main(["analyze", "--set", "specs=cg:0,cg:1,cg:5,cg:16,beuler:2,erk4:1", "--set", "z_points=200",
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

    @pytest.mark.parametrize("workload", ["burgers", "kepler", "laplacian", "analysis"])
    def test_benchmark_command_lines_accepted(self, monkeypatch, workload):
        # Parsed only: a key the benchmark passes must stay accepted.
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
        workloads = importlib.import_module("workloads")
        for argv in workloads.commands(workload, 0).values():
            manifest = build_manifest(_build_parser().parse_args([*argv, "--out", "x.csv"]))
            assert manifest.command == argv[0]

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

    def test_analyze_rejects_unresolvable_z_min(self, tmp_path):
        # 1 + 1e-17 rounds to 1, which leaves K(z) without a denominator.
        out = tmp_path / "a.csv"
        with pytest.raises(ValueError, match="z_min"):
            main(["analyze", "--out", str(out), "--set", "specs=cg:1",
                  "--set", "z_min=1e-17", "--set", "z_max=1"])
        assert not out.exists()

    def test_analyze_overflowing_powers_are_infinite(self, tmp_path):
        out = tmp_path / "a.csv"
        main(["analyze", "--out", str(out), "--set", "specs=erk4:1,feuler:3",
              "--set", "z_min=1", "--set", "z_max=1e200", "--set", "z_points=5"])
        header, rows = read_csv(out)
        assert header == ["z", "absR_erk4_j1", "K_erk4_j1", "absR_feuler_j3", "K_feuler_j3"]
        assert rows[-1][1:] == ["inf"] * 4
        assert all(np.isfinite(float(v)) for v in rows[0])

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
