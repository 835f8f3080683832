import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import adsholo
import reference_ops as ro
from adsholo import ads_model as am
from adsholo import ccr_fock as cf
from adsholo import cli
from adsholo import holography as hg
from adsholo import phase_core as pc


FAST = {"nu": 0.5, "k": 6, "n": 128}


def fast_cfg(**over):
    return dataclasses.replace(cli.RunConfig(), **{**FAST, **over})


def package_errors():
    """Every exception class defined in a module of the package."""
    modules = [importlib.import_module(f"adsholo.{m.name}")
               for m in pkgutil.iter_modules(adsholo.__path__)]
    return sorted({obj for mod in modules for obj in vars(mod).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == mod.__name__},
                  key=lambda cls: cls.__name__)


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        assert cli.parse_config_text("") == cli.RunConfig()

    def test_comments_and_blank_lines_ignored(self):
        cfg = cli.parse_config_text(
            "# leading comment\n\n[model]\nnu = 0.9  # inline\n")
        assert cfg.nu == 0.9

    def test_unknown_section_reports_line(self):
        with pytest.raises(cli.ConfigError, match="line 2.*unknown section"):
            cli.parse_config_text("\n[banana]\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(cli.ConfigError, match="line 2.*unknown key"):
            cli.parse_config_text("[model]\nmu = 0.7\n")

    def test_key_outside_section(self):
        with pytest.raises(cli.ConfigError, match="outside any"):
            cli.parse_config_text("nu = 0.7\n")

    def test_malformed_line(self):
        with pytest.raises(cli.ConfigError, match="expected key = value"):
            cli.parse_config_text("[model]\nnu 0.7\n")

    def test_unparseable_value(self):
        with pytest.raises(cli.ConfigError, match="cannot parse nu"):
            cli.parse_config_text("[model]\nnu = fast\n")

    @pytest.mark.parametrize("key", [
        "quotient_tolerance", "dual_tolerance", "trace_tolerance",
        "rank_tolerance", "num_tolerance", "spectral_tolerance",
        "witness_tolerance", "n_witness", "quad_tolerance",
        "support_margin"])
    def test_removed_tolerance_keys_rejected(self, key):
        with pytest.raises(cli.ConfigError,
                           match=r"line 1: unknown section \[tolerances\]"):
            cli.parse_config_text(f"[tolerances]\n{key} = 1\n")

    def test_key_must_match_section(self):
        with pytest.raises(cli.ConfigError, match="unknown key 'seed'"):
            cli.parse_config_text("[model]\nseed = 3\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(cli.ConfigError,
                           match="line 3: duplicate key 'k'"):
            cli.parse_config_text("[model]\nk = 3\nk = 5\n")


class TestConfigValidation:
    def test_bf_bound(self):
        with pytest.raises(cli.ConfigError, match="nu"):
            cli.parse_config_text("[model]\nnu = 0.0\n")

    def test_resolution_floor(self):
        with pytest.raises(cli.ConfigError, match="n must be"):
            cli.parse_config_text("[model]\nk = 40\nn = 64\n")

    def test_ladder_must_increase(self):
        with pytest.raises(cli.ConfigError,
                           match="ladder must be strictly increasing"):
            cli.parse_config_text("[experiment]\nladder = 10,10,20\n")

    @pytest.mark.parametrize("ladder", ["-3,5", "0,5"])
    def test_ladder_entries_positive(self, ladder):
        with pytest.raises(cli.ConfigError,
                           match="ladder entries must be >= 1"):
            cli.parse_config_text(f"[experiment]\nladder = {ladder}\n")

    def test_support_margin_must_leave_interior(self):
        # n // 2 <= 3 leaves no grid cell SUPPORT_MARGIN = 3 cells from both
        # walls; k = 1 admits n = 4 by the n >= 4 k rule
        text = "[model]\nk = 1\nn = {}\n"
        for n in (4, 7):
            with pytest.raises(cli.ConfigError, match=r"n must be >= 8: "):
                cli.parse_config_text(text.format(n))
        assert cli.parse_config_text(text.format(8)).n == 8

    def test_bad_region_strings(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("[regions]\no = left:0:1\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("[regions]\nv = 0:1:0\n")

    @pytest.mark.parametrize("key,value,message", [
        pytest.param("o", "-:0:2;-:1:3", "ordered and disjoint",
                     id="overlapping-intervals"),
        pytest.param("o", "-:2:3;-:0:1", "ordered and disjoint",
                     id="unordered-intervals"),
        pytest.param("o", "+:1:1", "bad interval", id="t0-not-below-t1"),
        pytest.param("v", "0:1:0.5:0.5", "bad rectangle",
                     id="flat-rectangle"),
        pytest.param("v", "0:1:0:1;0.5:2:0.5:2", "must be disjoint",
                     id="overlapping-rectangles")])
    def test_bad_region_rejected(self, key, value, message):
        with pytest.raises(cli.ConfigError, match=message):
            cli.parse_config_text(f"[regions]\n{key} = {value}\n")

    @pytest.mark.parametrize("key,value,region", [
        pytest.param("o", "-:0:2;+:0:2", (("-", 0.0, 2.0), ("+", 0.0, 2.0)),
                     id="same-window-on-both-components"),
        pytest.param("v", "0:1:-0.5:0.5;2:3:-0.5:0.5",
                     ((0.0, 1.0, -0.5, 0.5), (2.0, 3.0, -0.5, 0.5)),
                     id="disjoint-rectangles"),
        pytest.param("o", "none", (), id="empty-o"),
        pytest.param("v", "none", (), id="empty-v")])
    def test_region_parses_to_tuple(self, key, value, region):
        cfg = cli.parse_config_text(f"[regions]\n{key} = {value}\n")
        parse = {"o": cli.parse_o_region, "v": cli.parse_v_region}[key]
        assert parse(getattr(cfg, key)) == region

    def test_bad_perturbation(self):
        with pytest.raises(cli.ConfigError, match="perturbation"):
            cli.parse_config_text("[model]\nperturbation = 1:2\n")

    @pytest.mark.parametrize("section,key,value", [
        ("model", "nu", "nan"),
        ("model", "nu", "inf"),
        ("model", "perturbation", "1:nan:0.1"),
        ("model", "perturbation", "inf:0:0.1"),
        ("regions", "o", "-:-inf:1"),
        ("regions", "v", "-0.5:0.5:-0.8:nan")])
    def test_non_finite_value_rejected(self, section, key, value):
        with pytest.raises(cli.ConfigError, match="finite"):
            cli.parse_config_text(f"[{section}]\n{key} = {value}\n")


class TestSchema:
    def test_every_field_in_exactly_one_section(self):
        for f in dataclasses.fields(cli.RunConfig):
            homes = [sec for sec, keys in cli._SCHEMA.items() if f.name in keys]
            assert homes == [f.metadata["section"]], f.name
            assert cli._SCHEMA[homes[0]][f.name] is type(f.default)
        assert sum(map(len, cli._SCHEMA.values())) == \
            len(dataclasses.fields(cli.RunConfig))

    def test_default_echo(self):
        assert cli.serialize_config(cli.RunConfig()) == (
            "[model]\nnu = 0.7\nk = 30\nn = 512\nperturbation = none\n\n"
            "[regions]\no = -:-3.3:3.3;+:-3.3:3.3\nv = -0.5:0.5:-0.8:0.8\n\n"
            "[experiment]\nladder = 25,50,100,200,400\nn_bulk = 10\n"
            "seed = 0\n")


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg = cli.RunConfig()
        assert cli.parse_config_text(cli.serialize_config(cfg)) == cfg

    @given(nu=st.floats(0.05, 2.5),
           k=st.integers(1, 12),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_configs_round_trip(self, nu, k, seed):
        cfg = dataclasses.replace(cli.RunConfig(), nu=nu, k=k, n=8 * k,
                                  seed=seed)
        text = cli.serialize_config(cfg)
        assert cli.parse_config_text(text) == cfg

    def test_region_strings_round_trip(self):
        cfg = dataclasses.replace(cli.RunConfig(),
                                  o="-:-1:1", v="0:1:-0.25:0.25;2:3:0:0.5")
        assert cli.parse_config_text(cli.serialize_config(cfg)) == cfg


class TestMain:
    def test_print_defaults(self, capsys):
        assert cli.main(["--print-defaults"]) == 0
        out = capsys.readouterr().out
        assert cli.parse_config_text(out) == cli.RunConfig()

    def test_no_command_usage(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_missing_config_file(self, capsys):
        assert cli.main(["modes", "--config", "/nonexistent.cfg"]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "# \u00e9t\u00e9\n"],
                             ids=["directory", "latin-1"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        p = tmp_path
        if content is not None:
            p = tmp_path / "run.cfg"
            p.write_bytes(content.encode("latin-1"))
        assert cli.main(["modes", "--config", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read")

    def test_output_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert cli.main(["modes", "--out", str(out)]) == 2
        # refused before the experiment runs, so no report is printed
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot write")

    @pytest.mark.parametrize("nu", ["50", "1e300"])
    def test_large_nu_exits_2(self, tmp_path, capsys, nu):
        # cos^(2 nu_+) underflows in the wall cells of the FD oracle grid
        p = tmp_path / "run.cfg"
        p.write_text(f"[model]\nnu = {nu}\n")
        assert cli.main(["modes", "--config", str(p),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: nu = ")

    @pytest.mark.parametrize("command", ["holo-inclusion",
                                         "weyl-convergence", "propagator"])
    def test_support_margin_past_the_grid_exits_2(self, tmp_path, capsys,
                                                  command):
        # a grid with no cell SUPPORT_MARGIN = 3 cells from both walls is a
        # config error, refused before any experiment runs
        p = tmp_path / "run.cfg"
        p.write_text("[model]\nk = 1\nn = 6\n")
        assert cli.main([command, "--config", str(p),
                         "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: n must be >= 8: the grid keeps 3 cells clear of "
            "each wall"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,message", [
        ("[experiment]\nmonotonicity_slack = 0.001\n",
         "line 2: unknown key 'monotonicity_slack' in [experiment]"),
        ("[tolerances]\neig_tolerance = 1e-06\n",
         "line 1: unknown section [tolerances]"),
        ("[tolerances]\npde_tolerance = 1e-05\n",
         "line 1: unknown section [tolerances]")])
    def test_removed_check_bound_keys_exit_2(self, tmp_path, capsys, text,
                                             message):
        # the check bounds are constants of cli, not config keys
        p = tmp_path / "run.cfg"
        p.write_text(text)
        assert cli.main(["check-all", "--config", str(p),
                         "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[model]\nnu = 0.0\n")
        assert cli.main(["modes", "--config", str(p)]) == 2
        assert "nu" in capsys.readouterr().err

    def test_modes_runs_and_writes_artifacts(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("[model]\nnu = 0.5\nk = 6\nn = 128\n")
        code = cli.main(["modes", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        csv = (tmp_path / "out" / "modes.csv").read_text()
        assert csv.startswith("# adsholo")
        assert "# command = modes" in csv
        data = [l for l in csv.splitlines() if not l.startswith("#")]
        assert data[0] == "k,omega,beta_minus,beta_plus"
        assert len(data) == 7
        # flat-string spectrum in the output rows
        row0 = data[1].split(",")
        assert int(row0[0]) == 0
        assert float(row0[1]) == pytest.approx(1.0, abs=1e-12)

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        code = cli.main(["check-all", "--seed", "-3",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "seed must be >= 0" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["holo-inclusion", "uc-scan"])
    def test_negative_config_seed_exits_2(self, tmp_path, capsys, command):
        p = tmp_path / "run.cfg"
        p.write_text("[experiment]\nseed = -1\n")
        code = cli.main([command, "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "seed must be >= 0" in err[0]
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[experiment]\nseed = 5\n")
        cfg = cli.parse_config(str(p))
        assert cfg.seed == 5
        cfg2 = dataclasses.replace(cfg, seed=9)
        assert cfg2.seed == 9


class TestDeterminism:
    def test_modes_csv_byte_identical(self, tmp_path):
        cfg = fast_cfg()
        for d in ("a", "b"):
            assert cli.run("modes", cfg, str(tmp_path / d)) == 0
        a = (tmp_path / "a" / "modes.csv").read_bytes()
        b = (tmp_path / "b" / "modes.csv").read_bytes()
        assert a == b

    def test_weyl_convergence_csv_byte_identical(self, tmp_path):
        cfg = fast_cfg(nu=0.7, k=10, n=256, n_bulk=2, ladder="10,20,40,80")
        for d in ("a", "b"):
            assert cli.run("weyl-convergence", cfg, str(tmp_path / d)) == 0
        a = (tmp_path / "a" / "weyl_convergence.csv").read_bytes()
        b = (tmp_path / "b" / "weyl_convergence.csv").read_bytes()
        assert a == b
        data = [l for l in a.decode().splitlines() if not l.startswith("#")]
        assert data[0] == "dict_size,distance,compressed_distance,error"
        assert len(data) == 5

    def test_uc_scan_csv_byte_identical(self, tmp_path):
        cfg = fast_cfg()
        for d in ("a", "b"):
            assert cli.run("uc-scan", cfg, str(tmp_path / d)) == 0
        a = (tmp_path / "a" / "uc_scan.csv").read_bytes()
        b = (tmp_path / "b" / "uc_scan.csv").read_bytes()
        assert a == b


def threaded_cli(threads, *args):
    """The command line with args in a new process whose BLAS uses the given
    number of threads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, "-m", "adsholo.cli", *args],
                            env=env, stdout=subprocess.DEVNULL)


class TestBlasThreads:
    def test_check_all_byte_identical_across_thread_counts(self, tmp_path):
        # the default check-all in two processes whose BLAS uses one and
        # two threads writes the same bytes
        procs = [threaded_cli(threads, "check-all", "--seed", "0",
                              "--out", str(tmp_path / threads))
                 for threads in ("1", "2")]
        assert [p.wait() for p in procs] == [0, 0]
        one, two = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                    for d in ("1", "2"))
        assert len(one) == 14 and one == two

    def test_rank_sensitive_inclusion_byte_identical(self, tmp_path):
        # the K = 40 short-window holo-inclusion of the k_sweep benchmark at
        # seed 2, where the relative rank cut of each rung's SVD decides the
        # residual ladder; it exits 1 on its residual_monotone check
        # (ROADMAP item 1), and must do so with the same bytes at one and
        # two BLAS threads
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[model]\nk = 40\nn = 1024\n[regions]\n"
                       "o = -:-1:1;+:-1:1\n[experiment]\n"
                       "ladder = 40,80,160,320,640\nseed = 2\n")
        codes = [p.wait() for p in [
            threaded_cli(threads, "holo-inclusion", "--config", str(cfg),
                         "--out", str(tmp_path / threads))
            for threads in ("1", "2")]]
        assert codes == [1, 1]
        one, two = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                    for d in ("1", "2"))
        assert len(one) == 2 and one == two


class TestImportCost:
    def test_cli_import_skips_integrate_and_optimize(self):
        # a fresh interpreter importing the command line does not load the
        # SciPy subpackages that nothing in it uses
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, adsholo.cli; print(sorted(m for m in "
                "('scipy.integrate', 'scipy.optimize', 'scipy.sparse.linalg') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_scipy_linalg_only_for_eigh_tridiagonal(self):
        # SciPy links its own OpenBLAS, with a thread pool apart from
        # NumPy's, and the two pools compete for the cores.  On 2 cores at
        # 2 BLAS threads, a NumPy 160 x 1280 SVD that takes 25 ms alone took
        # 46-97 ms right after one SciPy dtpqrt (a QR fold step).
        # eigh_tridiagonal is scalar LAPACK and starts no BLAS-3 work; dense
        # linear algebra goes through numpy.linalg.
        names = set()
        for path in Path(cli.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module:
                    if node.module.startswith("scipy.linalg"):
                        names |= {a.name for a in node.names}
                    elif node.module == "scipy":
                        names |= {f"scipy.{a.name}" for a in node.names
                                  if a.name == "linalg"}
                elif isinstance(node, ast.Import):
                    names |= {a.name for a in node.names
                              if a.name.startswith("scipy.linalg")}
        assert names == {"eigh_tridiagonal"}


class TestRunDispatch:
    def test_unknown_command_exit_2(self, capsys):
        assert cli.run("bogus", cli.RunConfig()) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown command 'bogus'"]

    def test_model_error_exit_2(self, tmp_path, capsys):
        # perturbation touching the boundary is rejected while running,
        # after config parsing succeeded
        cfg = fast_cfg(perturbation="1.0:0.0:3.0")
        assert cli.run("modes", cfg, str(tmp_path)) == 2
        assert "error" in capsys.readouterr().err

    def test_experiment_that_cannot_run_exit_2(self, tmp_path, capsys):
        # a short window and a tiny ladder leave the top-rung residual too
        # large to compress the Weyl experiment
        cfg = fast_cfg(o="-:-0.1:0.1", ladder="2,3")
        assert cli.run("weyl-convergence", cfg, str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("region,message", [
        pytest.param("o", "top-rung residual", id="empty-o"),
        pytest.param("v", "bulk region is empty", id="empty-v")])
    def test_weyl_convergence_empty_region_exit_2(self, tmp_path, capsys,
                                                  region, message):
        cfg = fast_cfg(**{region: "none"})
        assert cli.run("weyl-convergence", cfg, str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert message in err[0]

    def test_empty_boundary_region_reports_no_inclusion(self, tmp_path, capsys):
        # no boundary observable is smeared, so no bulk vector is included
        cfg = fast_cfg(o="none", ladder="10,20")
        assert cli.run("holo-inclusion", cfg, str(tmp_path)) == 0
        rows = [l.split(",") for l in (tmp_path / "holo_inclusion.csv")
                .read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == ["dict_size", "max_residual", "mean_residual",
                           "rank", "sigma_min_ref"]
        assert [(float(r[1]), int(r[3])) for r in rows[1:]] == \
            [(1.0, 0), (1.0, 0)]

    @pytest.mark.parametrize("command,check", [
        pytest.param("holo-inclusion", "fd_spectrum_agreement",
                     id="holo-inclusion"),
        pytest.param("weyl-convergence", "fd_spectrum_agreement",
                     id="weyl-convergence"),
        pytest.param("holo-inclusion", "mode_orthonormality",
                     id="holo-inclusion-gram")])
    def test_experiments_run_on_configured_model(self, tmp_path, capsys,
                                                 monkeypatch, command, check):
        # the check's fault from FAULTS fails one of the model's two checks:
        # modes reports it as its only FAIL line, and the experiments refuse
        # the model with exit 2
        inject(monkeypatch, check)
        cfg = fast_cfg()
        assert cli.run("modes", cfg, str(tmp_path)) == 1
        fails = [l for l in capsys.readouterr().out.splitlines()
                 if l.endswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith(check)
        assert cli.run(command, cfg, str(tmp_path)) == 2

    @pytest.mark.parametrize("k,n", [(1, 8), (2, 64), (3, 64)])
    def test_uc_scan_below_four_modes(self, tmp_path, k, n):
        # below k = 4 the scan takes all k modes, and its report says so
        cfg = dataclasses.replace(cli.RunConfig(), k=k, n=n)
        assert cli.run("uc-scan", cfg, str(tmp_path)) == 0
        rows = [l.split(",") for l in (tmp_path / "uc_scan.csv")
                .read_text().splitlines() if not l.startswith("#")][1:]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
        assert all(float(r[2]) > 0.0 for r in rows)
        report = (tmp_path / "uc_scan_report.txt").read_text().splitlines()
        assert report[-1] == f"modes_scanned: {k}"

    def test_check_all_on_small_config(self, tmp_path):
        cfg = fast_cfg(nu=0.7, k=10, n=256, n_bulk=2,
                       ladder="10,20,40,80")
        every = tmp_path / "check-all"
        assert cli.run("check-all", cfg, str(every)) == 0
        names = {p.name for p in every.iterdir()}
        assert {"modes.csv", "propagator.csv", "ccr_verify.csv",
                "kw_verify.csv", "holo_inclusion.csv", "uc_scan.csv",
                "weyl_convergence.csv"} <= names
        # every artifact equals the one its command writes alone, so no
        # experiment changes an input that the run shares
        alone = {}
        for command in cli._DISPATCH:
            assert cli.run(command, cfg, str(tmp_path / command)) == 0
            alone.update((p.name, p.read_bytes())
                         for p in (tmp_path / command).iterdir())
        assert alone == {p.name: p.read_bytes() for p in every.iterdir()}

    def test_check_all_shares_work_within_one_run(self, tmp_path,
                                                  monkeypatch):
        # one FD oracle, one model (propagator's too, at the configured k)
        # and one dual-mapped dictionary, at one dual_boundary_matrix call
        # per bump center: the 80 bumps sit at 1 + 2 + 4 centers per
        # component and 4 more on the first; the second run repeats them,
        # so nothing outlives it
        calls = {}
        for name in ("fd_mode_frequencies", "build_model",
                     "dual_boundary_matrix"):
            monkeypatch.setattr(am, name, counted(calls, name,
                                                  getattr(am, name)))
        cfg = fast_cfg(k=10, n=256, n_bulk=2, ladder="10,20,40,80")
        for out in ("a", "b"):
            calls.update(fd_mode_frequencies=0, build_model=0,
                         dual_boundary_matrix=0)
            cli.run("check-all", cfg, str(tmp_path / out))
            assert calls == {"fd_mode_frequencies": 1, "build_model": 1,
                             "dual_boundary_matrix": 18}

    def test_check_all_builds_no_two_mode_fock_space(self, tmp_path,
                                                     monkeypatch):
        # the Weyl experiment takes its errors in closed form; only the
        # verify commands build Fock spaces
        reps = []
        fock_rep = cf.fock_rep

        def spy(*args):
            reps.append(fock_rep(*args))
            return reps[-1]

        monkeypatch.setattr(cf, "fock_rep", spy)
        cfg = fast_cfg(k=10, n=256, n_bulk=2, ladder="10,20,40,80")
        assert cli.run("check-all", cfg, str(tmp_path)) == 0
        assert reps and all(rep.one_particle_dim != 2 for rep in reps)


class TestPropagatorResidual:
    def test_perturbed_residual_falls_with_cutoff(self):
        # P u = v includes the potential term cos^2(x) W(x) u; without it
        # the residual of a perturbed model stays near 0.15 at every cutoff
        def residual(k):
            cfg = dataclasses.replace(cli.RunConfig(), k=k,
                                      perturbation="0.8:0.1:0.4")
            checks, *_ = cli.cmd_propagator(cfg, {})
            value, = [c[1] for c in checks if c[0].startswith("pde_residual")]
            return value

        r48, r60 = residual(48), residual(60)
        assert r60 < r48 < 1e-3

    @pytest.mark.parametrize("k", [4, 13, 30])
    def test_runs_at_configured_cutoff(self, tmp_path, k):
        # P u is compared with the k-mode projected source, so no cutoff
        # floor is needed, and the artifact echoes the k that ran
        cfg = dataclasses.replace(cli.RunConfig(), k=k, n=192)
        assert cli.run("propagator", cfg, str(tmp_path)) == 0
        assert f"# k = {k}" in (tmp_path / "propagator.csv").read_text() \
            .splitlines()
        assert f"its {k}-mode projection" in (
            tmp_path / "propagator_report.txt").read_text()

    def test_small_grid_refusal_names_n(self, tmp_path, capsys):
        # at nu = 0.7 the source's support edge 6.8 * 0.22 = 1.496 lies
        # within 3 cells of the wall on every grid below n = 176
        cfg = dataclasses.replace(cli.RunConfig(), k=30, n=120)
        assert cli.run("propagator", cfg, str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: support ")
        assert "n = 120" in err[0]


class TestPerturbedSmoke:
    @pytest.mark.parametrize("command", ["holo-inclusion", "uc-scan",
                                         "weyl-convergence"])
    def test_perturbed_model_passes(self, tmp_path, capsys, command):
        cfg = fast_cfg(nu=0.7, k=10, n=256, n_bulk=2, ladder="10,20,40,80",
                       perturbation="0.8:0.1:0.4")
        assert cli.run(command, cfg, str(tmp_path)) == 0
        verdicts = [l.rsplit(" ", 1)[1] for l in
                    capsys.readouterr().out.splitlines() if " (bound " in l]
        # uc-scan writes rows and a note but no check line
        assert set(verdicts) == (set() if command == "uc-scan" else {"PASS"})
        csv, = tmp_path.glob("*.csv")
        assert "# perturbation = 0.8:0.1:0.4" in csv.read_text().splitlines()


class TestRefusalContract:
    """An experiment that cannot run raises ConfigError or ShapeError, and
    run reports either with exit code 2 and one error line."""

    def test_every_error_is_config_or_shape_error(self):
        # no caller tells a subclass apart, so there is none
        assert package_errors() == [cli.ConfigError, pc.ShapeError]

    @pytest.mark.parametrize("error", package_errors(),
                             ids=lambda cls: cls.__name__)
    def test_run_refuses_with_exit_2(self, tmp_path, capsys, monkeypatch,
                                     error):
        def refuse(cfg, memo):
            raise error("cannot run at these settings")

        monkeypatch.setitem(cli._DISPATCH, "modes", refuse)
        assert cli.run("modes", cli.RunConfig(), str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: cannot run at these settings"]
        assert list(tmp_path.iterdir()) == []


REFERENCE = json.loads((Path(__file__).resolve().parent.parent / "bench"
                        / "reference.json").read_text())


def key_outputs(out_dir, keys):
    """The values of reference keys from one artifact directory:
    "<file>:<column>" reads a CSV column, "<file>:<check>" the value of a
    report check."""
    out = {}
    for key in keys:
        name, item = key.split(":")
        lines = [l for l in (out_dir / name).read_text().splitlines()
                 if not l.startswith("#")]
        if name.endswith(".csv"):
            i = lines[0].split(",").index(item)
            out[key] = [float(l.split(",")[i]) for l in lines[1:]]
        else:
            out[key] = [float(l.split(": ")[1].split()[0]) for l in lines
                        if l.startswith(item + " ")]
    return out


# the config texts of the benchmark's workloads, by invocation label
SHORT_K20 = ("[model]\nk = 20\nn = 1024\n[regions]\no = -:-1:1;+:-1:1\n"
             "[experiment]\nladder = 20,40,80,160,320\n")
WORKLOAD_TEXTS = {
    "check_all": {"0:check-all": ""},
    "k_sweep": {"0:holo-inclusion": SHORT_K20},
    "fock_identities": {"0:ccr-verify": "", "1:kw-verify": ""},
}


class TestReferenceValues:
    """The key outputs of the benchmark's check_all and fock_identities
    invocations, and of its first k_sweep invocation (K = 20, short window),
    stay within the stored tolerance of the benchmark's reference, with the
    same number of rows; the key names come from the reference itself."""

    @staticmethod
    def assert_matches_reference(tmp_path, workload, seed):
        want = REFERENCE["workloads"][workload][str(seed)]
        for label, text in WORKLOAD_TEXTS[workload].items():
            command = label.split(":", 1)[1]
            cfg = cli.parse_config_text(f"{text}[experiment]\nseed = {seed}\n")
            out_dir = tmp_path / label.replace(":", "_")
            assert cli.run(command, cfg, str(out_dir)) == 0
            got = key_outputs(out_dir, want[label])
            for key, ref in want[label].items():
                assert len(got[key]) == len(ref), key
                gap = np.abs(np.subtract(got[key], ref)).max()
                assert gap <= REFERENCE["atol"], (key, gap)

    @pytest.mark.parametrize("seed", range(10))
    def test_verify_values_match_reference(self, tmp_path, seed):
        self.assert_matches_reference(tmp_path, "fock_identities", seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_check_all_values_match_reference(self, tmp_path, seed):
        self.assert_matches_reference(tmp_path, "check_all", seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_short_window_inclusion_matches_reference(self, tmp_path, seed):
        self.assert_matches_reference(tmp_path, "k_sweep", seed)


def scaled(fn):
    """fn with its result scaled by 1.01."""
    return lambda *args: 1.01 * fn(*args)


def creation_scaled(segal_field):
    """A field (a + 1.01 a*) / sqrt(2) that is not self-adjoint."""
    return lambda rep, h: segal_field(rep, h) + (
        0.01 / np.sqrt(2.0)) * ro.annihilation(rep, h).conj().T


def displaced(weyl_apply):
    """exp(i phi(1.01 h)) in place of exp(i phi(h))."""
    return lambda rep, h, psis: weyl_apply(rep, 1.01 * np.asarray(h), psis)


def rolled(weyl_apply):
    """A batch of Weyl operators with its h rolled by one against its psis:
    block j gets exp(i phi(h_(j-1)))."""
    return lambda rep, h, psis: weyl_apply(rep, np.roll(h, 1, axis=0), psis)


def massless(build_model):
    """The model with its mass term dropped."""
    return lambda *args, **kwargs: dataclasses.replace(
        build_model(*args, **kwargs), mass=0.0)


def modes_scaled(build_model):
    """The model with its mode samples scaled by 1 + 1e-6: a Gram residual
    of 2e-6, frequencies unchanged."""
    def build(*args, **kwargs):
        model = build_model(*args, **kwargs)
        return dataclasses.replace(
            model, mode_values=(1.0 + 1e-6) * model.mode_values)
    return build


def shifted(fd_mode_frequencies):
    """The oracle frequencies shifted by 1e-5."""
    return lambda *args, **kwargs: fd_mode_frequencies(*args, **kwargs) + 1e-5


def times_reversed(propagator_apply):
    """The solution at the output times mirrored through the source's time
    grid, t_grid[0] + t_grid[-1] - t_out: after the support where the times
    precede it."""
    return lambda model, v, t_out: propagator_apply(
        model, v, v.t_grid[0] + v.t_grid[-1] - np.asarray(t_out))


def series_scaled(mode_time_series):
    """The source's mode time series scaled by 1.3."""
    return lambda model, v: 1.3 * mode_time_series(model, v)


def conjugated(fn):
    """fn with its result complex conjugated."""
    return lambda *args: np.conj(fn(*args))


def row_dropped(fn):
    """fn with the last row of its result dropped where it has more than
    one: the rank of a mixed state undercounted."""
    def short(*args):
        k = fn(*args)
        return k[:-1] if len(k) > 1 else k
    return short


def rungs_swapped(boundary_ladder):
    """The second and third rung bases in swapped order."""
    def ladder(*args):
        first, second, third, *rest = boundary_ladder(*args)
        return [first, third, second, *rest]
    return ladder


def top_rung_short(boundary_ladder):
    """The top rung basis without its leading direction."""
    def ladder(*args):
        *rungs, top = boundary_ladder(*args)
        return [*rungs, top[:, 1:]]
    return ladder


def errors_rolled(weyl_errors):
    """The Weyl errors rolled by one rung against their distances."""
    return lambda *args: np.roll(weyl_errors(*args), 1)


def errors_doubled(weyl_errors):
    """The Weyl errors doubled: still decreasing and small at the top rung,
    but above the Lipschitz bound."""
    return lambda *args: 2.0 * weyl_errors(*args)


def floor_errors_doubled(weyl_errors):
    """The Weyl errors of rungs at the rounding floor (distance below 1e-13)
    set to twice their distance: above the Lipschitz bound
    sqrt(3 + |z_lim|^2) = 1.80 of the default config, within its rounding
    allowance."""
    def errors(z_seq, z_lim):
        e = weyl_errors(z_seq, z_lim)
        d = np.linalg.norm(np.asarray(z_seq) - z_lim, axis=1)
        return np.where(d < 1e-13, 2.0 * d, e)
    return errors


def failed_line(tmp_path, command, check):
    """(value, bound) of the report line of check, which must end in FAIL."""
    line, = [l for l in (tmp_path / f"{command.replace('-', '_')}_report.txt")
             .read_text().splitlines() if l.startswith(f"{check} [")]
    return re.fullmatch(r".*\]: (\S+) \(bound (\S+)\) FAIL", line).groups()


# one row per check of the default check-all, by check name: (command,
# module, name, faults), each fault a wrapper of module.name that fails the
# check when command runs on the default config.
FAULTS = {
    "mode_orthonormality": ("modes", am, "build_model", (modes_scaled,)),
    "fd_spectrum_agreement": ("modes", am, "fd_mode_frequencies",
                              (shifted,)),
    "retarded_pre_support": ("propagator", am, "propagator_apply",
                             (times_reversed,)),
    "source_projection": ("propagator", am, "_mode_time_series",
                          (series_scaled,)),
    "pde_residual": ("propagator", am, "build_model", (massless,)),
    "weyl_relation_residual": ("ccr-verify", cf, "weyl_apply",
                               (displaced, rolled)),
    "vacuum_expectation_error": ("ccr-verify", cf, "segal_field", (scaled,)),
    "weyl_adjoint_residual": ("ccr-verify", cf, "segal_field",
                              (creation_scaled,)),
    "pure_commutator_residual": ("kw-verify", pc, "one_particle_structure",
                                 (conjugated,)),
    "pure_quasifree_error": ("kw-verify", pc, "one_particle_structure",
                             (scaled,)),
    "mixed_doubled_dim": ("kw-verify", pc, "one_particle_structure",
                          (row_dropped,)),
    "mixed_commutator_residual": ("kw-verify", pc, "one_particle_structure",
                                  (conjugated,)),
    "mixed_quasifree_error": ("kw-verify", pc, "one_particle_structure",
                              (scaled,)),
    "residual_monotone": ("holo-inclusion", hg, "boundary_ladder",
                          (rungs_swapped,)),
    "weyl_errors_decreasing": ("weyl-convergence", hg, "boundary_ladder",
                               (rungs_swapped,)),
    "weyl_final_error": ("weyl-convergence", hg, "boundary_ladder",
                         (top_rung_short,)),
    "weyl_lipschitz_ratio": ("weyl-convergence", hg, "_weyl_errors",
                             (errors_rolled,)),
}

# the least value a fault gives: with the second and third rungs swapped,
# the default rung residuals 0.70, 0.46, 2.0e-15, ... rise by 0.46, and the
# Weyl errors by 0.350
FAULT_RISE = {"residual_monotone": 0.4, "weyl_errors_decreasing": 0.3}


def inject(monkeypatch, check, fault=None):
    """Wrap the function that FAULTS names for check in fault, by default
    the check's first fault."""
    _, module, name, faults = FAULTS[check]
    monkeypatch.setattr(module, name,
                        (fault or faults[0])(getattr(module, name)))


class TestVerifyChecksFail:
    """The fault of each FAULTS row fails its check: its report line ends in
    FAIL and run exits 1.  The verify commands' CSV rows also carry the
    value of the line."""

    @pytest.mark.parametrize("check,fault", [
        pytest.param(check, fault, id=check if len(faults) == 1
                     else f"{check}-{fault.__name__}")
        for check, (_, _, _, faults) in FAULTS.items() for fault in faults])
    def test_fault_fails_its_check(self, tmp_path, monkeypatch, check,
                                   fault):
        command = FAULTS[check][0]
        inject(monkeypatch, check, fault)
        assert cli.run(command, cli.RunConfig(), str(tmp_path)) == 1
        value, bound = failed_line(tmp_path, command, check)
        if check in FAULT_RISE:
            assert float(value) > FAULT_RISE[check]
        if command in ("ccr-verify", "kw-verify"):
            stem = command.replace("-", "_")
            row, = [l.split(",") for l in (tmp_path / f"{stem}.csv")
                    .read_text().splitlines() if l.startswith(f"{check},")]
            assert row == [check, value, bound]

    def test_every_check_has_a_fault(self, tmp_path):
        assert cli.run("check-all", cli.RunConfig(), str(tmp_path)) == 0
        names = {l.split(" [")[0] for p in tmp_path.glob("*_report.txt")
                 for l in p.read_text().splitlines() if " (bound " in l}
        assert names == set(FAULTS)

    def test_floor_rung_within_rounding_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hg, "_weyl_errors",
                            floor_errors_doubled(hg._weyl_errors))
        assert cli.run("weyl-convergence", cli.RunConfig(),
                       str(tmp_path)) == 0
        # the three floor rungs break the bound alone, not with the allowance
        report = (tmp_path / "weyl_convergence_report.txt").read_text()
        lipschitz = float(re.search(r"lipschitz_constant: (\S+)",
                                    report).group(1))
        rows = [[float(v) for v in l.split(",")] for l in (
            tmp_path / "weyl_convergence.csv").read_text().splitlines()[-5:]]
        assert [e > lipschitz * cd for _, _, cd, e in rows] == [
            False, False, True, True, True]
        assert re.search(r"^weyl_lipschitz_ratio .* PASS$", report, re.M)

    def test_projection_fault_cancels_in_pde_residual(self, tmp_path,
                                                      monkeypatch):
        # the solver and the projected source both read _mode_time_series,
        # so P u - source stays small under its fault: only the two-path
        # source_projection check sees it
        inject(monkeypatch, "source_projection")
        assert cli.run("propagator", cli.RunConfig(), str(tmp_path)) == 1
        report = (tmp_path / "propagator_report.txt").read_text()
        assert [l.split(" [")[0] for l in report.splitlines()
                if l.endswith(" FAIL")] == ["source_projection"]
        assert re.search(r"^pde_residual .* PASS$", report, re.M)

    def test_lipschitz_ratio_fails_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hg, "_weyl_errors",
                            errors_doubled(hg._weyl_errors))
        assert cli.run("weyl-convergence", cli.RunConfig(),
                       str(tmp_path)) == 1
        fails = [l.split(" [")[0] for l in (
            tmp_path / "weyl_convergence_report.txt").read_text().splitlines()
            if l.endswith(" FAIL")]
        assert fails == ["weyl_lipschitz_ratio"]
