"""tools/compare_sweeps.py pairs two records trees DAG by DAG, counts what
moved and refuses rows it cannot pair."""

import importlib.util
from pathlib import Path

import pytest

from scmbench import harness

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_sweeps.py"
spec = importlib.util.spec_from_file_location("compare_sweeps", SCRIPT)
compare_sweeps = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_sweeps)


def record(dag, level, method, z, pa0=(1, 2)):
    z, pa0 = frozenset(z), frozenset(pa0)
    return harness.RunRecord(dag_id=dag, method=method, confounders=level, z=z, pa0=pa0,
                             wall_time=0.5)


def write_tree(root, by_seed):
    for seed, records in by_seed.items():
        (root / f"seed-{seed}").mkdir(parents=True)
        harness.write_records_csv(records, root / f"seed-{seed}" / "records.csv")
    return root


# iid at level 1, over two seeds of three DAGs: the head violates at 5 DAGs
# where the base does not, and at one DAG the base's {1, 3} becomes {1, 2}
BASE_IID = [[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [1, 3]]
HEAD_IID = [[1, 2, 4], [1, 2, 4], [1, 2, 4], [1, 2, 4], [1, 2, 4], [1, 2]]
# icp at level 1, unchanged: {1}, {} and {3} per seed (js 1/2, 0, 0; 2 violations)
ICP = [[1], [], [3], [1], [], [3]]


def trees(tmp_path):
    def side(name, iid):
        return write_tree(tmp_path / name, {
            seed: [r for dag in range(3) for r in (
                record(dag, 1, "iid", iid[3 * i + dag]),
                record(dag, 1, "icp", ICP[3 * i + dag]))]
            for i, seed in enumerate((4, 7))})
    return side("base", BASE_IID), side("head", HEAD_IID)


def test_counts_the_pairs_by_method_and_level(tmp_path):
    base, head = trees(tmp_path)
    icp, iid = compare_sweeps.compare(compare_sweeps.read_tree(base),
                                      compare_sweeps.read_tree(head))
    assert icp == dict(method="icp", level=1, dags=6, js_base=pytest.approx(1 / 6),
                       js_head=pytest.approx(1 / 6), viol_base=2, viol_head=2,
                       base_only=0, head_only=0, mcnemar_p=1.0, changed=0)
    # js: five 1s and one 1/3 against five 2/3s and one 1
    assert iid == dict(method="iid", level=1, dags=6, js_base=pytest.approx(16 / 18),
                       js_head=pytest.approx(13 / 18), viol_base=1, viol_head=5,
                       base_only=1, head_only=5, mcnemar_p=pytest.approx(14 / 64),
                       changed=6)


@pytest.mark.parametrize("base_only, head_only, p", [
    (0, 0, 1.0), (0, 5, 2 / 32), (5, 0, 2 / 32), (1, 5, 14 / 64), (3, 3, 1.0), (0, 1, 1.0)])
def test_mcnemar_p_is_the_exact_binomial_tail(base_only, head_only, p):
    assert compare_sweeps.mcnemar_p(base_only, head_only) == pytest.approx(p, rel=1e-15)


def test_prints_one_line_per_cell_and_the_total(tmp_path, capsys):
    base, head = trees(tmp_path)
    assert compare_sweeps.main([str(base), str(head)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == list(compare_sweeps.COLUMNS)
    assert lines[1].split() == ["icp", "1", "6", "0.167", "0.167", "2", "2", "0", "0",
                                "1.000", "0"]
    assert lines[2].split() == ["iid", "1", "6", "0.889", "0.722", "1", "5", "1", "5",
                                "0.219", "6"]
    assert lines[3:] == ["changed estimates: 6 of 12 pairs"]


def test_identical_trees_change_nothing(tmp_path, capsys):
    base, _ = trees(tmp_path)
    assert compare_sweeps.main([str(base), str(base)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "changed estimates: 0 of 12 pairs"


def refused(tmp_path, capsys, base, head, message):
    assert compare_sweeps.main([str(base), str(head)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_refuses_a_key_on_one_side_only(tmp_path, capsys):
    base, head = trees(tmp_path)
    path = head / "seed-7" / "records.csv"
    harness.write_records_csv(harness.read_records_csv(path)[:-1], path)  # drop dag 2's icp row
    refused(tmp_path, capsys, base, head,
            "1 (seed, dag, level, method) key(s) only in BASE, first (7, 2, 1, 'icp')")
    refused(tmp_path, capsys, head, base,
            "1 (seed, dag, level, method) key(s) only in HEAD, first (7, 2, 1, 'icp')")


def test_refuses_a_key_found_twice(tmp_path, capsys):
    base, head = trees(tmp_path)
    (head / "seed-7").rename(head / "seed-04")  # a second spelling of seed 4
    refused(tmp_path, capsys, base, head,
            f"{head / 'seed-4' / 'records.csv'}: (seed, dag, level, method) = "
            f"(4, 0, 1, 'iid') appears twice under {head}")


def test_refuses_pairs_with_different_true_parents(tmp_path, capsys):
    base = write_tree(tmp_path / "base", {0: [record(0, 0, "iid", [1])]})
    head = write_tree(tmp_path / "head", {0: [record(0, 0, "iid", [1], pa0=(1, 3))]})
    refused(tmp_path, capsys, base, head,
            "true parents differ at (seed, dag, level, method) = (0, 0, 0, 'iid')")


def test_refuses_an_empty_tree(tmp_path, capsys):
    base, _ = trees(tmp_path)
    (tmp_path / "empty").mkdir()
    refused(tmp_path, capsys, base, tmp_path / "empty",
            f"no seed-*/records.csv under {tmp_path / 'empty'}")


def test_refuses_trees_with_no_rows(tmp_path, capsys):
    # as a sweep whose every cell failed writes them: header lines only
    base = write_tree(tmp_path / "base", {0: [], 1: []})
    head = write_tree(tmp_path / "head", {0: [], 1: []})
    refused(tmp_path, capsys, base, head, f"no records under {base}")


# each edits a records.csv's lines in place and returns what read_records_csv says
def bad_method(lines):
    lines[2] = lines[2].replace(",icp,", ",xyz,")
    return "line 3, column 'method': method must be one of ('iid', 'icp'), got 'xyz'"


def blank_line(lines):
    lines.insert(2, "\n")
    return "line 3: malformed record line: ''"


def short_row(lines):
    lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
    return f"line 3: malformed record line: {lines[2].rstrip()!r}"


def renamed_header(lines):
    lines[0] = lines[0].replace("dag_id", "dag", 1)
    return "header column 0 should be 'dag_id', found 'dag'"


def repeated_row(lines):
    lines.append(lines[1])
    return f"line {len(lines)}: dag_id, method and confounders repeat line 2"


@pytest.mark.parametrize("corrupt", [bad_method, blank_line, short_row, renamed_header,
                                     repeated_row], ids=lambda f: f.__name__)
def test_a_bad_row_names_its_file(tmp_path, capsys, corrupt):
    base, head = trees(tmp_path)
    path = head / "seed-7" / "records.csv"
    lines = path.read_text().splitlines(keepends=True)
    message = corrupt(lines)
    path.write_text("".join(lines))
    refused(tmp_path, capsys, base, head, f"{path}: {message}")


@pytest.mark.parametrize("name", ["seed-x", "seed--1", "seed-+1", "seed-"])
def test_refuses_a_directory_that_is_not_a_seed(tmp_path, capsys, name):
    base, head = trees(tmp_path)
    (head / "seed-7").rename(head / name)
    refused(tmp_path, capsys, base, head,
            f"{head / name}: a seed directory must be seed-<n>, n an integer >= 0")
