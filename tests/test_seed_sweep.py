"""tools/seed_sweep.py reads its integers as strictly as the scmbench CLI."""

import argparse
import importlib.util
from pathlib import Path

import pytest

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
        seed_sweep.main(["--threads", "0", "--out", str(tmp_path / "seeds.json")])
    assert info.value.code == 2
    assert "threads must lie in [1, inf), got 0" in capsys.readouterr().err
    assert not (tmp_path / "seeds.json").exists()
