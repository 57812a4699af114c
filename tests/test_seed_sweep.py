"""tools/seed_sweep.py reads its integers as strictly as the scmbench CLI,
and writes each seed's records as ``scmbench run`` does."""

import argparse
import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

import scmbench as sb
from scmbench import harness
from scmbench import scm as scm_module
from scmbench.configfile import config_to_ini

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"
spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
seed_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seed_sweep)


@pytest.mark.parametrize("text, seeds", [
    ("0-10", list(range(11))),
    ("3", [3]),
    ("0,4-6", [0, 4, 5, 6]),
])
def test_parses_seeds_and_ranges(text, seeds):
    assert seed_sweep.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["1_0,+3, 4", "+3", " 4", "3-", "5-3", "-1", "0,0", "0-2,1", ""])
def test_rejects_other_seed_spellings(text):
    with pytest.raises(argparse.ArgumentTypeError, match="expected distinct seeds"):
        seed_sweep.parse_seeds(text)


@pytest.mark.parametrize("text, message", [
    ("0", r"^threads must lie in \[1, inf\), got 0$"),
    ("1_0", r"^expected an integer, got '1_0'$"),
])
def test_rejects_bad_threads(text, message):
    with pytest.raises(argparse.ArgumentTypeError, match=message):
        seed_sweep.parse_threads(text)


def test_bad_threads_stop_at_the_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        seed_sweep.main(["--threads", "0", "--out", str(tmp_path / "sweep")])
    assert info.value.code == 2
    assert "threads must lie in [1, inf), got 0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_records_are_written_per_seed(tmp_path):
    cfg = sb.ExperimentConfig(num_dags=1, samples_per_env=200,
                              confounder_levels=(0, 1), methods=("iid", "icp"),
                              gen=sb.GenConfig(nodes_min=4, nodes_max=4))
    config = tmp_path / "config.ini"
    config.write_text(config_to_ini(cfg))
    out = tmp_path / "sweep"
    assert seed_sweep.main(["--config", str(config), "--seeds", "3,5", "--threads", "1",
                            "--out", str(out)]) == 0

    def masked(records):
        return [dataclasses.replace(r, wall_time=0.0) for r in records]

    summary = json.loads((out / "seeds.json").read_text())
    assert [s["seed"] for s in summary["seeds"]] == [3, 5]
    assert sorted(p.name for p in out.iterdir()) == ["seed-3", "seed-5", "seeds.json"]
    for seed in (3, 5):
        records = harness.read_records_csv(out / f"seed-{seed}" / "records.csv")
        report = sb.run_experiment(dataclasses.replace(cfg, master_seed=seed))
        assert report.errors == () and len(records) == 4
        assert masked(records) == masked(report.records)


def one_dag_config(tmp_path) -> Path:
    config = tmp_path / "config.ini"
    config.write_text(config_to_ini(sb.ExperimentConfig(
        num_dags=1, samples_per_env=200, confounder_levels=(0,), methods=("icp",),
        gen=sb.GenConfig(nodes_min=4, nodes_max=4))))
    return config


def test_failed_cells_exit_2_after_every_output_is_written(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scm_module, "_EDGE_PROB", 0.0)  # no model can be drawn
    out = tmp_path / "sweep"
    assert seed_sweep.main(["--config", str(one_dag_config(tmp_path)), "--seeds", "0,1",
                            "--threads", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "warning: 2 cell(s) failed"
    summary = json.loads((out / "seeds.json").read_text())
    assert [s["failed_cells"] for s in summary["seeds"]] == [1, 1]
    for seed in (0, 1):
        assert harness.read_records_csv(out / f"seed-{seed}" / "records.csv") == []


def test_a_rerun_replaces_the_records_of_its_seeds(tmp_path):
    config = one_dag_config(tmp_path)
    stale = tmp_path / "sweep" / "seed-0" / "records.csv"
    stale.parent.mkdir(parents=True)
    stale.write_text("stale\n")
    assert seed_sweep.main(["--config", str(config), "--seeds", "0", "--threads", "1",
                            "--out", str(tmp_path / "sweep")]) == 0
    assert [r.method for r in harness.read_records_csv(stale)] == ["icp"]


@pytest.mark.parametrize("entry", ["seed-1", "seed-00", "seed-x"])
def test_records_of_another_seed_stop_the_run(tmp_path, capsys, entry):
    config = one_dag_config(tmp_path)
    out = tmp_path / "sweep"
    (out / entry).mkdir(parents=True)
    with pytest.raises(SystemExit) as info:
        seed_sweep.main(["--config", str(config), "--seeds", "0", "--threads", "1",
                         "--out", str(out)])
    assert info.value.code == 2
    assert (f"{out / entry} is not one of --seeds; an --out directory holds "
            f"one run") in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [entry]


@pytest.mark.parametrize("path", ["taken", "taken/sweep"])
def test_a_bad_output_path_stops_the_run_before_any_seed(tmp_path, capsys, monkeypatch,
                                                         path):
    def never(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(seed_sweep, "run_experiment", never)
    (tmp_path / "taken").write_text("keep me\n")
    with pytest.raises(SystemExit) as info:
        seed_sweep.main(["--config", str(one_dag_config(tmp_path)), "--seeds", "0",
                         "--threads", "1", "--out", str(tmp_path / path)])
    assert info.value.code == 2
    assert f"--out {tmp_path / path}: expected a directory" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.ini", "taken"]


@pytest.mark.parametrize("text, message", [
    (None, "[Errno 2] No such file or directory: "),
    ("[train]\nlearning_rate = 0.01\n", "unknown key 'learning_rate' in [train]"),
], ids=["missing", "removed-key"])
def test_a_bad_config_stops_the_run_before_any_seed(tmp_path, capsys, monkeypatch, text,
                                                   message):
    def never(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(seed_sweep, "run_experiment", never)
    config = tmp_path / "config.ini"
    if text is not None:
        config.write_text(text)
    with pytest.raises(SystemExit) as info:
        seed_sweep.main(["--config", str(config), "--seeds", "0", "--threads", "1",
                         "--out", str(tmp_path / "sweep")])
    assert info.value.code == 2
    [line] = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert f"error: --config {config}: {message}" in line
    assert not (tmp_path / "sweep").exists()
