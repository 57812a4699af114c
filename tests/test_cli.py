"""Tests for the command line front end."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scmbench as sb
from scmbench import harness
from scmbench import scm as scm_module
from scmbench.cli import main, render_table
from scmbench.configfile import config_to_ini, read_config

SRC = Path(__file__).resolve().parent.parent / "src"


def small_config(tmp_path, **overrides):
    """Write a fast ICP-only sweep config and return its path."""
    base = dict(num_dags=2, samples_per_env=300, confounder_levels=(0,),
                methods=("icp",), master_seed=5,
                gen=sb.GenConfig(nodes_min=4, nodes_max=5))
    base.update(overrides)
    path = tmp_path / "sweep.ini"
    path.write_text(config_to_ini(sb.ExperimentConfig(**base)))
    return path


def strip_seed(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("master_seed")]
    path.write_text("\n".join(lines) + "\n")


class TestInit:
    def test_writes_a_parseable_default_config(self, tmp_path, capsys):
        target = tmp_path / "new.ini"
        assert main(["init", "--out", str(target)]) == 0
        assert read_config(target) == sb.ExperimentConfig()
        assert str(target) in capsys.readouterr().out

    def test_refuses_to_overwrite_without_force(self, tmp_path, capsys):
        target = tmp_path / "new.ini"
        target.write_text("keep me")
        assert main(["init", "--out", str(target)]) == 1
        assert "use --force" in capsys.readouterr().err
        assert target.read_text() == "keep me"
        assert main(["init", "--out", str(target), "--force"]) == 0
        assert read_config(target) == sb.ExperimentConfig()


class TestRun:
    def test_writes_all_outputs(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        records = harness.read_records_csv(out / "records.csv")
        assert len(records) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["master_seed"] == 5
        table = (out / "table.txt").read_text()
        assert "icp" in table
        assert table.strip() in capsys.readouterr().out

    def test_refuses_to_overwrite_outputs_without_force(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "use --force" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--force"]) == 0

    def test_flag_seed_beats_config(self, tmp_path):
        cfg_path = small_config(tmp_path)  # config says 5
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "9"]) == 0
        assert json.loads((out / "report.json").read_text())["master_seed"] == 9

    def test_seed_defaults_to_zero(self, tmp_path):
        cfg_path = small_config(tmp_path)
        strip_seed(cfg_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["master_seed"] == 0

    def test_environment_variable_is_not_a_seed_source(self, tmp_path, monkeypatch):
        # the seed comes from --seed or the config alone
        monkeypatch.setenv("WORKBENCH_SEED", "7")
        cfg_path = small_config(tmp_path)
        strip_seed(cfg_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["master_seed"] == 0

    def test_negative_flag_seed_is_a_config_error(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "-1"]) == 1
        assert ("error: --seed: master_seed must lie in [0, inf), got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("source, value, message", [
        ("--seed", "1_0", "expected an integer, got '1_0'"),
        ("--seed", " 1", "expected an integer, got ' 1'"),
        ("--threads", "1_0", "expected an integer, got '1_0'"),
        ("--threads", "+2", "expected an integer, got '+2'"),
        ("--threads", "-1", "threads must lie in [1, inf), got -1"),
    ], ids=["--seed=1_0", "--seed=space-1", "--threads=1_0", "--threads=+2",
            "--threads=-1"])
    def test_integers_from_flags_are_read_strictly(self, tmp_path, capsys,
                                                   source, value, message):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "results"
        argv = ["run", "--config", str(cfg_path), "--out", str(out), source, value]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {source}: {message}\n"
        assert not out.exists()

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.ini"
        cfg_path.write_text("[icp]\nalpha = 1.5\n")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ("[train]\ntau_multiplier = nan\n", "tau_multiplier"),
        ("[generation]\nintervention_value_max = inf\n", "intervention_value_max"),
        ("[experiment]\nnum_dags = -1\n", "num_dags"),
    ])
    def test_out_of_range_setting_exits_one_naming_the_field(self, tmp_path,
                                                             capsys, text, field):
        cfg_path = tmp_path / "sweep.ini"
        cfg_path.write_text(text)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        section, setting = text.splitlines()
        key = setting.split(" = ")[0]
        assert (f"error: {section} {key}: {field} must lie in"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_failing_cells_exit_two_with_partial_outputs(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(scm_module, "_EDGE_PROB", 0.0)
        cfg_path = small_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "warning: 2 cell(s) failed; see report.json\n" in capsys.readouterr().err
        assert harness.read_records_csv(out / "records.csv") == []
        report = json.loads((out / "report.json").read_text())
        assert len(report["errors"]) == 2

    def test_identical_outputs_for_repeated_seeded_runs(self, tmp_path):
        cfg_path = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0

        def masked_csv(path):
            return [line.rsplit(",", 1)[0]
                    for line in (path / "records.csv").read_text().splitlines()]

        def masked_json(path):
            data = json.loads((path / "report.json").read_text())
            data.pop("timestamp")
            return data

        assert masked_csv(out_a) == masked_csv(out_b)
        assert masked_json(out_a) == masked_json(out_b)
        assert (out_a / "table.txt").read_text() == (out_b / "table.txt").read_text()

    def test_records_do_not_depend_on_blas_threads(self, tmp_path):
        # both methods with mean-variance ICP, then ICP's energy-permutation test
        configs = {
            "mean-variance": dict(methods=("iid", "icp"),
                                  gen=sb.GenConfig(nodes_min=8, nodes_max=9)),
            "energy": dict(gen=sb.GenConfig(nodes_min=5, nodes_max=6),
                           icp=sb.IcpConfig(test="energy-permutation")),
        }
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        for name, overrides in configs.items():
            (tmp_path / name).mkdir()
            cfg_path = small_config(tmp_path / name, confounder_levels=(0, 1),
                                    samples_per_env=400, **overrides)
            bodies = {}
            for blas_threads in ("1", "2"):
                out = tmp_path / name / f"blas-{blas_threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=path)
                proc = subprocess.run(
                    [sys.executable, "-m", "scmbench.cli", "run", "--config", str(cfg_path),
                     "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
                bodies[blas_threads] = [line.rsplit(",", 1)[0]  # wall_time is measured
                                        for line in (out / "records.csv").read_text().splitlines()]
            methods = len(overrides.get("methods", ("icp",)))
            assert len(bodies["1"]) == 1 + 2 * 2 * methods  # header, dags x levels x methods
            assert bodies["1"] == bodies["2"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_default_configs_first_two_dags_are_pinned(self, tmp_path, threads):
        # the header and first 12 rows of the default 50-DAG sweep at master
        # seed 0, without wall_time: sha256 of `cut -d, -f1-7 records.csv`
        cfg_path = tmp_path / "two.ini"
        cfg_path.write_text(config_to_ini(sb.ExperimentConfig(num_dags=2)))
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--threads", threads]) == 0
        cut = "".join(",".join(line.split(",")[:7]) + "\n"
                      for line in (out / "records.csv").read_text().splitlines())
        assert hashlib.sha256(cut.encode()).hexdigest() == (
            "8e542e5c1c1f7f7ec3f4e5646b93d3669380172cd10b56e1c4fd4643f3483333")

    def test_trainer_bits_do_not_depend_on_blas_threads(self):
        # 12 candidates pooled over 60,000 rows: OpenBLAS 0.3.31 splits the
        # least-squares start's (12 x rows) by (rows) product over a second
        # thread from about 40,000 rows on; the 256-row steps stay on one
        script = "\n".join([
            "import hashlib, numpy as np",
            "from scmbench.identifier import train_regressor",
            "rng = np.random.default_rng(3)",
            "data = rng.standard_normal((60000, 13))",
            "data[:, 0] = np.tanh(data[:, 1:] @ rng.normal(size=12)) + data[:, 1:4].sum(axis=1)",
            "reg = train_regressor(data, np.ones(12), rng)",
            "parts = (reg.w1, reg.b1, reg.w2, np.float64(reg.b2), reg.ws)",
            "print(hashlib.sha256(b''.join(p.tobytes() for p in parts)).hexdigest())",
        ])
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        digests = set()
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1


class TestReport:
    def test_renders_a_table_from_the_csv(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        (out / "table.txt").unlink()
        assert main(["report", str(out / "records.csv")]) == 0
        table = (out / "table.txt").read_text()
        assert table.strip() in capsys.readouterr().out
        cell = report["cells"]["icp"]["0"]
        assert f"{cell['mean_js']:.3f} ({cell['fwer']:.2f})" in table

    def test_empty_csv_is_an_explicit_error(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text(harness.CSV_HEADER + "\n")
        assert main(["report", str(path)]) == 1
        assert "no records" in capsys.readouterr().err

    def test_schema_mismatch_names_the_column(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text("dag_id,method,conf\n")
        assert main(["report", str(path)]) == 1
        assert "'confounders'" in capsys.readouterr().err

    def test_unknown_value_names_the_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text(harness.CSV_HEADER + "\n0,iid,0,1,1,1.0,maybe,0.5\n")
        assert main(["report", str(path)]) == 1
        assert "line 2, column 'violated'" in capsys.readouterr().err
        assert not (tmp_path / "table.txt").exists()

    def test_row_disagreeing_with_its_sets_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text(harness.CSV_HEADER + "\n0,iid,0,1,1,nan,false,0.5\n")
        assert main(["report", str(path)]) == 1
        assert "line 2, column 'js'" in capsys.readouterr().err
        assert not (tmp_path / "table.txt").exists()

    def test_repeated_cell_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        row = "0,iid,0,1,1,1.0,false,0.5\n"
        path.write_text(harness.CSV_HEADER + "\n" + row * 3)
        assert main(["report", str(path)]) == 1
        assert "line 3: dag_id, method and confounders repeat line 2" in (
            capsys.readouterr().err)
        assert not (tmp_path / "table.txt").exists()

    def test_refuses_to_write_the_table_over_its_csv(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "records.csv"
        harness.write_records_csv([record(0, "iid", 0, {1}, {1})], path)
        csv = path.read_bytes()
        monkeypatch.chdir(tmp_path)  # one file, spelled two ways
        assert main(["report", str(path), "--out", "records.csv"]) == 1
        assert ("error: --out: records.csv is the records CSV the table is read from"
                in capsys.readouterr().err)
        assert path.read_bytes() == csv

    def test_missing_csv(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["clean", "icp over budget", "level 1 fails"])
    def test_rewrites_the_runs_table_byte_for_byte(self, tmp_path, monkeypatch, case):
        # a configured method or level with no record has no row or column in
        # either table
        if case == "icp over budget":
            def over_budget(batches, cfg, seed):
                raise sb.EnumerationBudgetError("8192 subsets exceed the budget of 4096")

            monkeypatch.setattr(harness, "icp_identify", over_budget)
        cfg_path = small_config(tmp_path, num_dags=1, confounder_levels=(0, 1),
                                methods=("iid", "icp"))
        if case == "level 1 fails":
            real = harness.add_confounders

            def failing(scm, count, rng):
                if count == 1:
                    raise RuntimeError("no model at one confounder")
                return real(scm, count, rng)

            monkeypatch.setattr(harness, "add_confounders", failing)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == (
            0 if case == "clean" else 2)
        table = (out / "table.txt").read_bytes()
        assert main(["report", str(out / "records.csv")]) == 0
        assert (out / "table.txt").read_bytes() == table


class TestDemo:
    def test_demo_recovers_the_known_answer(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "truth: {1, 2}" in shown
        assert "iid:" in shown and "icp:" in shown
        records = harness.read_records_csv(out / "records.csv")
        assert {r.method for r in records} == {"iid", "icp"}
        assert all(r.z == {1, 2} for r in records)

    def test_failing_cells_exit_two_with_partial_outputs(self, tmp_path, capsys,
                                                         monkeypatch):
        def diverge(batches, cfg, rng):
            raise FloatingPointError("overflow encountered in multiply")

        monkeypatch.setattr(harness, "identify_parents", diverge)
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out)]) == 2
        shown = capsys.readouterr()
        assert "icp:   {1, 2}" in shown.out and "iid:" not in shown.out
        assert "warning: 1 cell(s) failed; see report.json\n" in shown.err
        report = json.loads((out / "report.json").read_text())
        assert [e["method"] for e in report["errors"]] == ["iid"]


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "init" in capsys.readouterr().out

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_bad_thread_count_is_a_usage_error(self, tmp_path, capsys):
        assert main(["run", "--config", "x.ini", "--threads", "0"]) == 1
        assert ("error: --threads: threads must lie in [1, inf), got 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_demo_has_no_threads_or_seed_option(self, tmp_path, capsys, flag):
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out), flag, "0"]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestImport:
    def test_cli_does_not_load_scipy_stats(self):
        # the runtime needs only scipy.special, and scipy.stats takes most of
        # a cold import
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, scmbench.cli; print('scipy.stats' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def record(dag_id, method, level, z, pa0):
    z, pa0 = frozenset(z), frozenset(pa0)
    return harness.RunRecord(dag_id=dag_id, method=method, confounders=level, z=z,
                             pa0=pa0, wall_time=0.5)


class TestRenderTable:
    def test_layout_and_values(self):
        records = [record(0, "iid", 0, {1}, {1}), record(0, "icp", 0, (), {1}),
                   record(0, "iid", 1, {1, 3}, {1, 2}), record(1, "iid", 1, {1, 2}, {1, 2})]
        assert render_table(records) == (
            "method  1 confounder  0 confounders\n"
            "iid     0.667 (0.50)  1.000 (0.00)\n"
            "icp     -             0.000 (0.00)")

    def test_methods_follow_the_records_and_no_records_give_the_header(self):
        records = [record(0, "icp", 2, {1}, {1}), record(0, "iid", 2, {1}, {1})]
        assert [ln.split()[0] for ln in render_table(records).splitlines()] == [
            "method", "icp", "iid"]
        assert render_table([]) == "method"
