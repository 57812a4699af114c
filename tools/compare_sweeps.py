"""Pair two sweeps' records DAG by DAG and report what moved.

Run from the root of a checkout:

    python3 tools/compare_sweeps.py BASE HEAD

BASE and HEAD are directories as ``tools/seed_sweep.py --out`` writes
them, one ``seed-<seed>/records.csv`` per master seed, each read with
``read_records_csv``. Rows pair by (seed, dag, level, method). For each
(method, level) the report gives both mean Jaccards; both violation counts;
the DAGs that violate on one side only, in each direction, with the exact
two-sided McNemar p of that split; and how many DAGs' estimated sets differ.
The last line totals the changed estimates. A key found on one side only, a
key found twice on one side, a pair whose true parent sets differ, a
directory ``seed-<n>`` whose n is not an integer >= 0, a row
``read_records_csv`` refuses, or a tree with no rows at all is refused: the
script names it (with the file or directory it came from) and exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scmbench.harness import RunRecord, _blaming, _parse_int, read_records_csv  # noqa: E402

KEY = "(seed, dag, level, method)"
COLUMNS = ("method", "level", "dags", "js_base", "js_head", "viol_base", "viol_head",
           "base_only", "head_only", "mcnemar_p", "changed")


def read_tree(root: Path) -> dict[tuple, RunRecord]:
    """Every record under ``root/seed-*/records.csv``, keyed as KEY; each
    error names the directory or file it came from."""
    paths = sorted(root.glob("seed-*/records.csv"))
    if not paths:
        raise ValueError(f"no seed-*/records.csv under {root}")
    rows: dict[tuple, RunRecord] = {}
    for path in paths:
        error = ValueError(f"{path.parent}: a seed directory must be seed-<n>, "
                           f"n an integer >= 0")
        try:
            seed = _parse_int(path.parent.name.removeprefix("seed-"))
        except ValueError:
            raise error from None
        if seed < 0:
            raise error
        with _blaming(path):
            for r in read_records_csv(path):
                key = (seed, r.dag_id, r.confounders, r.method)
                if key in rows:
                    raise ValueError(f"{KEY} = {key} appears twice under {root}")
                rows[key] = r
    if not rows:
        raise ValueError(f"no records under {root}")
    return rows


def mcnemar_p(base_only: int, head_only: int) -> float:
    """Exact two-sided McNemar p: twice the smaller binomial(n, 1/2) tail."""
    n = base_only + head_only
    tail = sum(math.comb(n, k) for k in range(min(base_only, head_only) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def compare(base: dict[tuple, RunRecord], head: dict[tuple, RunRecord]) -> list[dict]:
    """One row of COLUMNS per (method, level), in sorted order."""
    for side, keys in (("BASE", base.keys() - head.keys()), ("HEAD", head.keys() - base.keys())):
        if keys:
            raise ValueError(f"{len(keys)} {KEY} key(s) only in {side}, first {min(keys)}")
    cells: dict[tuple, list] = {}
    for key in sorted(base):
        b, h = base[key], head[key]
        if b.pa0 != h.pa0:
            raise ValueError(f"true parents differ at {KEY} = {key}")
        cells.setdefault((key[3], key[2]), []).append((b, h))
    report = []
    for (method, level), pairs in sorted(cells.items()):
        base_only = sum(b.violated and not h.violated for b, h in pairs)
        head_only = sum(h.violated and not b.violated for b, h in pairs)
        report.append(dict(zip(COLUMNS, (
            method, level, len(pairs),
            float(np.mean([b.js for b, _ in pairs])), float(np.mean([h.js for _, h in pairs])),
            sum(b.violated for b, _ in pairs), sum(h.violated for _, h in pairs),
            base_only, head_only, mcnemar_p(base_only, head_only),
            sum(b.z != h.z for b, h in pairs)))))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="records tree of the parent")
    parser.add_argument("head", type=Path, help="records tree of the change")
    args = parser.parse_args(argv)
    try:
        report = compare(read_tree(args.base), read_tree(args.head))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("  ".join(f"{c:>9}" for c in COLUMNS))
    for row in report:
        print("  ".join(f"{v:>9.3f}" if isinstance(v, float) else f"{v:>9}"
                        for v in row.values()))
    print(f"changed estimates: {sum(r['changed'] for r in report)} "
          f"of {sum(r['dags'] for r in report)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
