import builtins
import math
import os
import signal
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from specvol import cli, filters, reconstruction
from specvol.cli import (
    BUILTIN_SCENARIOS,
    Scenario,
    list_scenarios,
    load_scenario,
    main,
    read_solution_csv,
    run_convergence,
    run_scenario,
    _write_csv,
)
from specvol.exceptions import InadmissibleStateError, StepFailureError
from specvol.reference import lax_friedrichs_solver


@pytest.fixture
def tiny_rect(tmp_path):
    return replace(
        BUILTIN_SCENARIOS["advect-rect"], name="tiny-rect", n_sv=12, t_end=0.05
    )


class TestScenarioRegistry:
    def test_builtins_cover_all_experiments(self):
        assert list_scenarios() == sorted(
            ["advect-rect", "burgers-sine", "burgers-rarefaction", "sod", "lax", "density-bump"]
        )

    def test_builtin_parameters(self):
        rect = BUILTIN_SCENARIOS["advect-rect"]
        assert (rect.n_sv, rect.n_cv, rect.t_end, rect.bc) == (60, 4, 1.0, "periodic")
        sod = BUILTIN_SCENARIOS["sod"]
        assert (sod.n_sv, sod.a, sod.b, sod.bc) == (200, 0.0, 10.0, "fixed")

    def test_unknown_initial_rejected(self):
        bad = replace(BUILTIN_SCENARIOS["sod"], initial="vortex")
        with pytest.raises(ValueError):
            bad.initial_condition()


class TestConfigRoundTrip:
    def test_serialize_and_reload(self, tmp_path, tiny_rect):
        path = tmp_path / "tiny.cfg"
        path.write_text(tiny_rect.to_config_text())
        loaded = load_scenario(str(path))
        assert loaded == tiny_rect

    def test_reloaded_scenario_runs_identically(self, tmp_path, tiny_rect):
        path = tmp_path / "tiny.cfg"
        path.write_text(tiny_rect.to_config_text())
        loaded = load_scenario(str(path))
        out_a = run_scenario(tiny_rect, str(tmp_path / "a"))
        out_b = run_scenario(loaded, str(tmp_path / "b"))
        with open(out_a["solution"], "rb") as fa, open(out_b["solution"], "rb") as fb:
            assert fa.read() == fb.read()

    def test_missing_config_rejected(self):
        with pytest.raises(FileNotFoundError):
            load_scenario("/nonexistent/path.cfg")


class TestRunScenario:
    def test_outputs_written(self, tmp_path, tiny_rect):
        outputs = run_scenario(tiny_rect, str(tmp_path))
        assert set(outputs) == {"solution", "l2", "diagnostics"}
        for path in outputs.values():
            assert os.path.exists(path)

    def test_solution_csv_full_precision(self, tmp_path, tiny_rect):
        outputs = run_scenario(tiny_rect, str(tmp_path))
        xs, widths, values = read_solution_csv(outputs["solution"])
        assert xs.shape == (12 * 4,)
        # rebuild the run in memory and compare bitwise
        from specvol.cli import _boundary_condition
        from specvol.mesh import build_grid
        from specvol.timeint import SolverConfig, init_field, integrate

        system = tiny_rect.build_system()
        grid = build_grid(tiny_rect.a, tiny_rect.b, tiny_rect.n_sv, tiny_rect.n_cv)
        u0, breaks = tiny_rect.initial_condition()
        state = init_field(u0, grid, system, breakpoints=breaks)
        config = SolverConfig(
            t_end=tiny_rect.t_end,
            cfl=tiny_rect.cfl,
            bc=_boundary_condition(tiny_rect, u0),
            stabilization_enabled=True,
            diagnostics_every=tiny_rect.diagnostics_every,
        )
        final, _ = integrate(state, config)
        np.testing.assert_array_equal(values.reshape(final.data.shape), final.data)

    def test_diagnostics_csv_columns(self, tmp_path, tiny_rect):
        outputs = run_scenario(tiny_rect, str(tmp_path))
        with open(outputs["diagnostics"]) as fh:
            fh.readline()
            header = fh.readline().strip().split(",")
        assert header == [
            "sv", "lambda_ed", "lambda_er_l", "lambda_er_r",
            "lambda_sum", "lambda_final", "clamped", "clamp_total",
        ]

    def test_reference_export(self, tmp_path):
        scen = replace(
            BUILTIN_SCENARIOS["burgers-sine"], name="mini-sine", n_sv=10, t_end=0.02
        )
        outputs = run_scenario(scen, str(tmp_path), ref_cells=300)
        xs, widths, values = read_solution_csv(outputs["reference"])
        assert xs.shape == (300,)
        assert np.all(np.isfinite(values))

    def test_failed_run_keeps_partial_outputs(self, tmp_path):
        # Courant number far beyond stability: the run must fail loudly but
        # leave the outputs computed so far behind.
        scen = replace(BUILTIN_SCENARIOS["sod"], name="sod-hot", n_sv=40, cfl=0.95)
        outputs = run_scenario(scen, str(tmp_path))
        # RK stage 1 of the first step: trace 4 of SV 19 is inadmissible.
        assert outputs["error"] == (
            "error kind=step-failure scenario=sod-hot sv=19 trace=4 t=0.0346597"
        )
        assert os.path.exists(outputs["solution"])

    def test_failed_run_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(
            replace(BUILTIN_SCENARIOS["sod"], name="sod-hot", n_sv=40, cfl=0.95).to_config_text()
        )
        code = main(["run", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error kind=" in capsys.readouterr().err

    def test_failed_pure_run_prints_no_warning(self, tmp_path, capsys):
        # The pure stage's fluxes overflow before the check on its new
        # averages names the failure; numpy must not warn on the way.
        errstate = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "burgers-sine", "--nsv", "25", "--no-stabilization",
                         "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error kind=step-failure scenario=burgers-sine sv=4 cv=3 t=0.371785"
        ]
        assert sorted(os.listdir(tmp_path)) == ["burgers-sine_l2.csv", "burgers-sine_solution.csv"]
        assert np.geterr() == errstate

    @pytest.mark.parametrize("argv, where", [
        # RK stage 2 of the step from t_n = 0.373167 with dt = 0.0041463.
        (["burgers-sine", "--no-stabilization", "--nsv", "25", "--cfl", "0.3"],
         "burgers-sine sv=7 cv=3 t=0.377313"),
        # RK stage 3 of the step from t_n = 0.403484 with dt = 0.0161393.
        (["burgers-sine", "--no-stabilization", "--nsv", "15", "--cfl", "0.7"],
         "burgers-sine sv=0 cv=3 t=0.419623"),
        # RK stage 2 of the first step, dt = 0.0262684, stabilized.
        (["sod", "--nsv", "50", "--cfl", "0.9"], "sod sv=25 cv=0 t=0.0262684"),
        # RK stage 1 of the step to t = 0.0116748.
        (["sod", "--cfl", "0.8"], "sod sv=100 cv=0 t=0.0116748"),
        # An inadmissible boundary trace in RK stage 2 of step 51, dt = 2.1426e-4.
        (["lax", "--no-stabilization"], "lax sv=100 trace=0 t=0.0109271"),
    ], ids=["burgers-stage-2", "burgers-stage-3", "sod-stage-2", "sod-stage-1",
            "lax-trace-stage-2"])
    def test_step_failure_names_the_step_target(self, tmp_path, capsys, argv, where):
        # Whichever RK stage fails, the line names the time its step targets,
        # t_n + dt.
        assert main(["run", *argv, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error kind=step-failure scenario={where}"
        ]

    def test_columns_of_every_kind(self, tmp_path):
        # Arrays, lists and ranges; floats with 17 digits, the rest as str.
        path = tmp_path / "kinds.csv"
        _write_csv(str(path), "kinds", {"i": range(2), "x": np.array([0.1, 1 / 3]),
                                        "flag": np.array([True, False]).astype(int),
                                        "eoc": ["", 2.5]})
        assert path.read_text() == (
            "# kinds\ni,x,flag,eoc\n0,0.10000000000000001,1,\n1,0.33333333333333331,0,2.5\n"
        )


class TestRunConvergence:
    def test_advection_smoke_orders(self, tmp_path):
        scen = replace(
            BUILTIN_SCENARIOS["advect-rect"],
            name="sine-smooth",
            initial="sine",
            a=0.0,
            b=2.0,
            t_end=2.0,  # one full period on [0, 2]
            cfl=0.1,
        )
        results, path = run_convergence(scen, [6, 8, 10], str(tmp_path))
        assert os.path.exists(path)
        errs = [r[1] for r in results]
        assert errs[-1] < errs[0]

    def test_single_resolution_table(self, tmp_path):
        scen = replace(
            BUILTIN_SCENARIOS["advect-rect"], name="single", initial="sine",
            a=0.0, b=2.0, t_end=0.1,
        )
        results, path = run_convergence(scen, [8], str(tmp_path))
        assert len(results) == 1
        with open(path) as fh:
            fh.readline()
            assert fh.readline().startswith("n_sv,l1,l2,eoc_l1,eoc_l2")

    def test_shock_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_convergence(BUILTIN_SCENARIOS["sod"], [10], str(tmp_path))


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sod" in out and "advect-rect" in out

    def test_run_builtin_with_overrides(self, tmp_path, capsys):
        code = main(
            ["run", "advect-rect", "--nsv", "10", "--t-end", "0.02",
             "--out-dir", str(tmp_path), "--cfl", "0.2"]
        )
        assert code == 0
        assert os.path.exists(tmp_path / "advect-rect_solution.csv")

    def test_run_config_path(self, tmp_path, tiny_rect):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(tiny_rect.to_config_text())
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert os.path.exists(tmp_path / "tiny-rect_solution.csv")

    def test_directory_named_like_a_builtin_is_not_a_config(self, tmp_path, monkeypatch):
        # A run's own output directory, say, in the working directory.
        (tmp_path / "advect-rect").mkdir()
        monkeypatch.chdir(tmp_path)
        code = main(["run", "advect-rect", "--nsv", "6", "--t-end", "0.02", "--out-dir", "out"])
        assert code == 0
        assert os.path.exists(tmp_path / "out" / "advect-rect_solution.csv")

    def test_no_stabilization_flag_changes_output(self, tmp_path, tiny_rect):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(tiny_rect.to_config_text())
        main(["run", str(cfg), "--out-dir", str(tmp_path / "on")])
        main(["run", str(cfg), "--no-stabilization", "--out-dir", str(tmp_path / "off")])
        _, _, v_on = read_solution_csv(tmp_path / "on" / "tiny-rect_solution.csv")
        _, _, v_off = read_solution_csv(tmp_path / "off" / "tiny-rect_solution.csv")
        assert not np.array_equal(v_on, v_off)

    def test_env_var_out_dir(self, tmp_path, tiny_rect, monkeypatch):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(tiny_rect.to_config_text())
        monkeypatch.setenv("SPECVOL_OUT_DIR", str(tmp_path / "envout"))
        assert main(["run", str(cfg)]) == 0
        assert os.path.exists(tmp_path / "envout" / "tiny-rect_solution.csv")

    def test_unknown_scenario_exits_nonzero(self, capsys):
        # 2, the status of every usage error, not 1, that of a failed run.
        assert main(["run", "not-a-scenario"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error kind=unknown-scenario name='not-a-scenario'; builtins: ")

    def test_convergence_command(self, tmp_path, capsys):
        code = main(
            ["convergence", "density-bump", "--nsv-list", "6,8", "--t-end", "0.5",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert os.path.exists(tmp_path / "density-bump_convergence.csv")
        out = capsys.readouterr().out
        assert "n_sv=6" in out and "n_sv=8" in out

    def test_failed_convergence_solve_prints_one_line(self, tmp_path, capsys, monkeypatch):
        # The second resolution's solve fails: one line names it and its
        # resolution, and no table is written, since a partial one would
        # read as a complete study.
        real, solves = cli.integrate, []

        def failing_second(state, config):
            solves.append(state.grid.num_sv)
            if len(solves) == 2:
                raise StepFailureError("stub", (3, 1), "cv", 0.123456789)
            return real(state, config)

        monkeypatch.setattr(cli, "integrate", failing_second)
        code = main(["convergence", "density-bump", "--nsv-list", "6,8", "--t-end", "0.5",
                     "--out-dir", str(tmp_path)])
        assert code == 1 and solves == [6, 8]
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error kind=step-failure scenario=density-bump n_sv=8 sv=3 cv=1 t=0.123457"
        ]
        assert captured.out == ""
        assert os.listdir(tmp_path) == []


def tree_bytes(root):
    """{relative path: bytes} of every file below the directory path root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestCsvRewrite:
    """Outputs are overwritten in place, never truncated to zero first."""

    def test_rerun_gives_identical_files(self, tmp_path):
        scen = replace(BUILTIN_SCENARIOS["burgers-sine"], name="mini-sine", n_sv=10, t_end=0.02)
        run_scenario(scen, str(tmp_path / "fresh"), ref_cells=300)
        run_scenario(scen, str(tmp_path / "again"), ref_cells=300)
        first = tree_bytes(tmp_path / "again")
        run_scenario(scen, str(tmp_path / "again"), ref_cells=300)
        assert set(first) == {f"mini-sine_{kind}.csv"
                              for kind in ("solution", "l2", "lambda", "reference")}
        assert tree_bytes(tmp_path / "again") == first == tree_bytes(tmp_path / "fresh")

    def test_shorter_content_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("9" * 5000 + "\n")
        table = {"a": [0.5, 0.25], "b": [1, 2]}
        _write_csv(str(path), "short", table)
        _write_csv(str(tmp_path / "fresh.csv"), "short", table)
        assert path.read_bytes() == b"# short\na,b\n0.5,1\n0.25,2\n"
        assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_failed_write_leaves_no_stale_tail(self, tmp_path, monkeypatch):
        # A rewrite that raises partway is cut at what it wrote, as a
        # truncating open would leave it: a prefix of the new content.
        table = {"a": np.full(5000, 0.5), "b": range(5000)}
        _write_csv(str(tmp_path / "full.csv"), "new", table)
        full = (tmp_path / "full.csv").read_bytes()

        def failing_column():
            yield from table["a"]
            raise RuntimeError("row formatting failed")

        path = tmp_path / "table.csv"
        path.write_text("old\n" * 50000)
        with pytest.raises(RuntimeError, match="row formatting failed"):
            _write_csv(str(path), "new", {"a": failing_column(), "b": table["b"]})
        assert path.read_bytes() == full

        class FullDisk:
            """The real file, whose 3000th write fails with ENOSPC."""

            def __init__(self, fh):
                self.fh, self.calls = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                self.calls += 1
                if self.calls == 3000:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

            def truncate(self):
                return self.fh.truncate()

        real_open = builtins.open
        path.write_text("old\n" * 50000)
        with monkeypatch.context() as mp:
            mp.setattr(builtins, "open", lambda *a, **k: FullDisk(real_open(*a, **k)))
            with pytest.raises(OSError, match="No space left"):
                _write_csv(str(path), "new", table)
        got = path.read_bytes()
        assert 0 < len(got) < len(full) and full.startswith(got)

    def test_links_are_written_through(self, tmp_path):
        # As with open(path, "w"): a symlink and a hard link still name the
        # rewritten file.
        target = tmp_path / "target.csv"
        target.write_text("old\n" * 100)
        (tmp_path / "sym.csv").symlink_to(target)
        os.link(target, tmp_path / "hard.csv")
        _write_csv(str(tmp_path / "sym.csv"), "new", {"a": [1.0]})
        assert (tmp_path / "sym.csv").is_symlink()
        assert target.read_text() == (tmp_path / "hard.csv").read_text() == "# new\na\n1\n"

    def test_read_only_file_still_raises(self, tmp_path):
        # Exactly where open(path, "w") raises: a user other than root may
        # not write a read-only file, root may.
        probe, path = tmp_path / "probe.csv", tmp_path / "locked.csv"
        for p in (probe, path):
            p.write_text("old\n")
            p.chmod(0o444)
        try:
            open(probe, "w").close()
        except PermissionError:
            with pytest.raises(PermissionError):
                _write_csv(str(path), "new", {"a": [1.0]})
            assert path.read_text() == "old\n"
        else:
            _write_csv(str(path), "new", {"a": [1.0]})
            assert path.read_text() == "# new\na\n1\n"
        assert path.stat().st_mode & 0o777 == 0o444

    def test_existing_file_is_not_truncated_to_zero(self, tmp_path, monkeypatch):
        # Truncating a file with unwritten blocks to zero makes ext4 flush it
        # first, 30-90 ms per file; every open of the output must find the
        # old content still there.
        path = tmp_path / "table.csv"
        path.write_text("old\n" * 1000)
        inode = path.stat().st_ino
        sizes = []
        real_os_open, real_open = os.open, builtins.open

        def record(fd):
            st = os.fstat(fd)
            if st.st_ino == inode:
                sizes.append(st.st_size)

        def spy_os_open(file, flags, *args, **kwargs):
            fd = real_os_open(file, flags, *args, **kwargs)
            record(fd)
            return fd

        def spy_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            record(fh.fileno())
            return fh

        with monkeypatch.context() as mp:
            mp.setattr(os, "open", spy_os_open)
            mp.setattr(builtins, "open", spy_open)
            _write_csv(str(path), "new", {"a": [1.0]})
        assert sizes and all(size == 4000 for size in sizes)
        assert path.read_text() == "# new\na\n1\n"


BAD_OVERRIDES = {
    "t-end-inf": ["--t-end", "inf"],
    "nsv-0": ["--nsv", "0"],
    "ncv-0": ["--ncv", "0"],
    "cfl-2": ["--cfl", "2"],
    "ref-cells-5": ["--ref-cells", "5"],
    "ref-cells-negative": ["--ref-cells", "-3"],
}


# Scenario names that are not plain file names, so cannot name the output files.
BAD_NAMES = {"parent": "../escaped", "subdir": "sub/x", "empty": "", "dot": ".", "dotdot": ".."}


class TestBadConfig:
    """A scenario that cannot run fails with one error line before any solve or write."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("init_field", "integrate", "lax_friedrichs_solver", "_write_csv"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        return calls

    @pytest.mark.parametrize("flags", BAD_OVERRIDES.values(), ids=BAD_OVERRIDES.keys())
    def test_bad_run_override(self, tmp_path, capsys, calls, flags):
        out = tmp_path / "out"
        code = main(["run", "sod", "--out-dir", str(out), *flags])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error kind=bad-config scenario=sod ")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, nsv_list",
        [("density-bump", "6,0"), ("sod", "6"), ("density-bump", "6,x"), ("density-bump", ","),
         ("advect-rect", "10,10"), ("density-bump", "8,10,8")],
    )
    def test_bad_convergence_study(self, tmp_path, capsys, calls, name, nsv_list):
        # A resolution the grid rejects, a scenario without an exact
        # solution, a count that is not an integer, no count at all, or a
        # count named twice, which would give no order.
        out = tmp_path / "out"
        code = main(["convergence", name, "--nsv-list", nsv_list, "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error kind=bad-config scenario={name} ")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit", [("bc = periodic", "bc = fixed"), ("b = 10\n", "b = 8\n")],
        ids=["fixed", "b-8"],
    )
    def test_density_bump_off_its_exact_domain(self, tmp_path, capsys, calls, edit):
        # The exact bump wraps with period 10 from a = 0: on another domain,
        # or without periodic ends, it is not the run's solution.
        text = BUILTIN_SCENARIOS["density-bump"].to_config_text()
        assert edit[0] in text
        path = tmp_path / "bump.cfg"
        path.write_text(text.replace(*edit))
        out = tmp_path / "out"
        code = main(["convergence", str(path), "--nsv-list", "8,12,16", "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error kind=bad-config scenario=density-bump ")
        assert "periodic on [0, 10]" in err[0]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, named",
        [
            (("n_sv = 60", "n_sv = x"), "'n_sv'"),
            (("system = advection\n", ""), "'system'"),
            (("[scenario]", "[other]"), "[scenario]"),
            (("\ncfl", "\nquad_order = 8\ncfl"), "'quad_order'"),
        ],
        ids=["not-an-integer", "no-system-key", "no-section", "unknown-key"],
    )
    def test_bad_config_file(self, tmp_path, capsys, calls, edit, named):
        text = BUILTIN_SCENARIOS["advect-rect"].to_config_text()
        assert edit[0] in text
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace(*edit))
        out = tmp_path / "out"
        code = main(["run", str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error kind=bad-config ")
        assert str(path) in err[0] and named in err[0]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "convergence"])
    @pytest.mark.parametrize("name", BAD_NAMES.values(), ids=BAD_NAMES.keys())
    def test_name_that_is_not_a_plain_file_name(self, tmp_path, capsys, calls, command, name):
        # The output files are named after the scenario: "../escaped" would
        # write beside --out-dir, and "sub/x" below a directory never made.
        path = tmp_path / "named.cfg"
        path.write_text(replace(BUILTIN_SCENARIOS["density-bump"], name=name).to_config_text())
        assert load_scenario(str(path)).name == name
        out = tmp_path / "out"
        code = main([command, str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error kind=bad-config scenario={name} ")
        assert "plain file name" in err[0]
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["named.cfg"]

    @pytest.mark.parametrize("command", ["run", "convergence"])
    def test_adiabatic_index_that_is_not_finite(self, tmp_path, capsys, calls, command):
        path = tmp_path / "hot.cfg"
        path.write_text(replace(BUILTIN_SCENARIOS["density-bump"], gamma=math.inf).to_config_text())
        out = tmp_path / "out"
        code = main([command, str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error kind=bad-config scenario=density-bump ")
        assert "adiabatic index" in err[0]
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["hot.cfg"]

    @pytest.mark.parametrize(
        "command, system, initial",
        [("run", "euler", "sine"), ("run", "burgers", "sod"),
         ("run", "advection", "density-bump"), ("convergence", "advection", "density-bump")],
    )
    def test_initial_condition_of_another_system(self, tmp_path, capsys, calls, command,
                                                 system, initial):
        text = BUILTIN_SCENARIOS["advect-rect"].to_config_text()
        text = text.replace("system = advection", f"system = {system}")
        path = tmp_path / "mismatch.cfg"
        path.write_text(text.replace("initial = rectangle", f"initial = {initial}"))
        out = tmp_path / "out"
        code = main([command, str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error kind=bad-config scenario=advect-rect ")
        assert "components" in err[0]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("ref_cells", ["0", "100"])
    def test_initial_field_without_signal_speed(self, tmp_path, capsys, ref_cells):
        # Burgers on [2, 3], where the rectangle is 0: no signal speed, no CFL step.
        text = BUILTIN_SCENARIOS["advect-rect"].to_config_text()
        text = text.replace("system = advection", "system = burgers")
        path = tmp_path / "still.cfg"
        path.write_text(text.replace("a = 0\n", "a = 2\n").replace("b = 1\n", "b = 3\n"))
        assert load_scenario(str(path)).a == 2.0
        out = tmp_path / "out"
        code = main(["run", str(path), "--out-dir", str(out), "--ref-cells", ref_cells])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error kind=bad-config scenario=advect-rect ")
        assert list(out.glob("*")) == []
        assert_no_child_left()

    @pytest.mark.parametrize(
        "argv",
        [["run", "burgers-sine", "--cfl", "1e-320"], ["run", "burgers-sine", "--cfl", "5e-324"],
         ["convergence", "density-bump", "--cfl", "1e-320", "--nsv-list", "4"]],
        ids=["run-subnormal-dt", "run-zero-dt", "convergence-subnormal-dt"],
    )
    def test_cfl_whose_step_underflows(self, tmp_path, capsys, argv):
        # A CFL number in (0, 1] so small that dt is subnormal or zero.
        out = tmp_path / "out"
        code = main([*argv, "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error kind=bad-config scenario={argv[1]} ")
        assert "no usable time step" in err[0]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize(
        "argv",
        [["run", "burgers-sine", "--t-end", "1e300"], ["run", "burgers-sine", "--cfl", "1e-300"],
         ["convergence", "density-bump", "--cfl", "1e-300", "--nsv-list", "4"]],
        ids=["run-long-t-end", "run-tiny-cfl", "convergence-tiny-cfl"],
    )
    def test_step_count_past_exact_floats(self, tmp_path, capsys, argv):
        # A normal dt, but 2**53 steps or more to t_end: refused before the first.
        out = tmp_path / "out"
        code = main([*argv, "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error kind=bad-config scenario={argv[1]} ")
        assert "no usable step count" in err[0]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("below_a_file", [False, True], ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize(
        "argv",
        [["run", "advect-rect", "--t-end", "0.01", "--ref-cells", "300"],
         ["convergence", "density-bump", "--nsv-list", "6,8", "--t-end", "0.1"]],
        ids=["run", "convergence"],
    )
    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys, monkeypatch, calls, argv,
                                         below_a_file):
        monkeypatch.setattr(os, "fork", lambda: calls.append("fork"))
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "out" if below_a_file else taken
        code = main([*argv, "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error kind=bad-config scenario={argv[1]} ")
        assert repr(str(out)) in err[0]
        assert calls == []
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("flags", [["--nsv", "12"], ["--ref-cells", "300"]])
    def test_run_only_flags_rejected_by_convergence(self, tmp_path, calls, flags):
        with pytest.raises(SystemExit) as info:
            main(["convergence", "density-bump", "--out-dir", str(tmp_path / "out"), *flags])
        assert info.value.code == 2
        assert calls == []

    def test_value_error_inside_the_solve_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("inside the solve")

        monkeypatch.setattr(cli, "integrate", broken)
        with pytest.raises(ValueError, match="inside the solve"):
            main(["run", "advect-rect", "--nsv", "4", "--out-dir", str(tmp_path)])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sleeping_reference(*args):
    """A reference that takes a minute: a run that waits for it fails its time bound."""
    time.sleep(60)


MINI_RUNS = {
    "sod": dict(name="mini-sod", n_sv=20, t_end=0.1),
    "burgers-sine": dict(name="mini-sine", n_sv=10, t_end=0.02),
}
HOT_SOD = replace(BUILTIN_SCENARIOS["sod"], name="sod-hot", n_sv=40, cfl=0.95)


class TestOverlappedReference:
    """``ref_cells`` computes the reference in a forked child beside the solve,
    and every return from or exception out of ``run_scenario`` leaves no child."""

    @pytest.mark.parametrize("name", MINI_RUNS)
    def test_reference_equals_an_in_process_call(self, tmp_path, name):
        # A fixed-BC Euler tube and a periodic Burgers sine.
        scen = replace(BUILTIN_SCENARIOS[name], **MINI_RUNS[name])
        outputs = run_scenario(scen, str(tmp_path), ref_cells=300)
        assert_no_child_left()
        assert "error" not in outputs
        system, _, u0, _, config = cli._setup(scen, 300)
        ref = lax_friedrichs_solver(system, u0, scen.a, scen.b, 300, scen.t_end, config.bc)
        xs, widths, values = read_solution_csv(outputs["reference"])
        assert xs.tobytes() == ref.positions.tobytes()
        assert np.ascontiguousarray(values).tobytes() == ref.values.tobytes()
        assert np.all(widths == (scen.b - scen.a) / 300)

    @pytest.mark.parametrize("reference", [lax_friedrichs_solver, sleeping_reference],
                             ids=["real", "sleeping"])
    def test_failed_solve_does_not_wait_for_the_reference(self, tmp_path, monkeypatch,
                                                          reference):
        # The solve fails in its first stage (an inadmissible trace) and
        # kills the child: a slow reference does not hold the run up.
        monkeypatch.setattr(cli, "lax_friedrichs_solver", reference)
        start = time.perf_counter()
        outputs = run_scenario(HOT_SOD, str(tmp_path), ref_cells=3000)
        assert time.perf_counter() - start < 30
        assert_no_child_left()
        assert outputs["error"] == (
            "error kind=step-failure scenario=sod-hot sv=19 trace=4 t=0.0346597"
        )
        assert "reference" not in outputs
        assert os.path.exists(outputs["solution"])
        assert not (tmp_path / "sod-hot_reference.csv").exists()

    def test_failing_reference_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        def failing(*args):
            raise InadmissibleStateError("inadmissible burgers reference data", where=(7, 0))

        monkeypatch.setattr(cli, "lax_friedrichs_solver", failing)
        code = main(["run", "burgers-sine", "--nsv", "10", "--t-end", "0.02",
                     "--ref-cells", "300", "--out-dir", str(tmp_path)])
        assert_no_child_left()
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error kind=reference-failure scenario=burgers-sine "
            "InadmissibleStateError where=(7, 0): inadmissible burgers reference data"
        ]
        for kind in ("solution", "l2", "lambda"):
            assert (tmp_path / f"burgers-sine_{kind}.csv").exists()
        assert not (tmp_path / "burgers-sine_reference.csv").exists()

    def test_killed_reference_is_a_reference_failure(self, tmp_path, monkeypatch):
        test_pid = os.getpid()

        def killed(*args):
            assert os.getpid() != test_pid, "the reference ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli, "lax_friedrichs_solver", killed)
        scen = replace(BUILTIN_SCENARIOS["burgers-sine"], **MINI_RUNS["burgers-sine"])
        outputs = run_scenario(scen, str(tmp_path), ref_cells=300)
        assert_no_child_left()
        assert outputs["error"] == (
            "error kind=reference-failure scenario=mini-sine "
            "the reference process ended with exit code -9"
        )
        assert "reference" not in outputs

    def test_exception_in_the_parent_reaps_the_child(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("inside the solve")

        monkeypatch.setattr(cli, "lax_friedrichs_solver", sleeping_reference)
        monkeypatch.setattr(cli, "integrate", broken)
        with pytest.raises(ValueError, match="inside the solve"):
            main(["run", "sod", "--ref-cells", "300", "--out-dir", str(tmp_path)])
        assert_no_child_left()

    def test_operators_are_built_before_the_fork(self, tmp_path, monkeypatch):
        # Built after the fork, C and H would add to the set-up the pages
        # the fork makes the parent copy; the stage plan only looks them up.
        monkeypatch.setattr(reconstruction, "_OPERATORS", {})
        monkeypatch.setattr(filters, "_GENERATORS", {})
        cached = lambda: (len(reconstruction._OPERATORS), len(filters._GENERATORS))
        at_fork = []
        real_fork = os.fork

        def fork():
            at_fork.append(cached())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        scen = replace(BUILTIN_SCENARIOS["sod"], **MINI_RUNS["sod"])
        outputs = run_scenario(scen, str(tmp_path), ref_cells=300)
        assert_no_child_left()
        assert "error" not in outputs
        assert at_fork == [(1, 1)]
        assert cached() == (1, 1)
