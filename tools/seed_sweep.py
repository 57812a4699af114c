"""Run one sweep config on a range of master seeds and summarise the spread.

Run from the root of a checkout:

    python3 tools/seed_sweep.py --seeds 0-10 --threads 2 --out sweep/

Every seed runs the sweep of ``--config`` (an ``scmbench init`` file; the
default config when omitted) with that master seed, and its records go to
``DIR/seed-<seed>/records.csv`` under the ``--out`` directory DIR, written as
``scmbench run`` writes them. ``DIR/seeds.json`` holds, per seed, every
(method, level) cell's mean_js, fwer and n, the margins of acceptance
criteria 1 and 2 (value minus bound, so a negative margin fails; null where
the config lacks the cell), the failed-cell count and the wall time. It also
pools the level-0 iid records of all seeds into one FWER with its exact
(Clopper-Pearson) 95 % confidence interval. The criteria pin seed 0 only;
this shows how far the other seeds sit from their bounds. DIR holds one run:
a ``seed-*`` entry there that is not one of ``--seeds`` stops the script
before it runs any seed, as do a DIR that is a file or lies below one and
a ``--config`` file that cannot be read. Exit codes: 0 success, 2 a usage
error (an ``error:`` line) or, after every output is written, failed cells
(a ``warning:`` line), as ``scmbench run`` exits 2 for them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from scipy import stats

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scmbench.configfile import read_config  # noqa: E402
from scmbench.harness import (ExperimentConfig, _check_threads, _parse_int,  # noqa: E402
                              run_experiment, write_records_csv)

# the bounds of tests/test_acceptance.py: criterion 1 at level 0 for both
# methods, criterion 2 at levels 1 and 2
MIN_JS_0, MAX_FWER_0 = 0.95, 0.06
MIN_GAP, MIN_IID_JS = 0.20, 0.75


def parse_seeds(text: str) -> list[int]:
    """'0-10' (inclusive), '3' or a comma-separated mix of both, each bound
    read by the package's strict integer reader."""
    error = argparse.ArgumentTypeError(
        f"expected distinct seeds >= 0, as N or LO-HI with LO <= HI, got {text!r}")
    seeds: list[int] = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first, last = _parse_int(lo), _parse_int(hi if dash else lo)
        except ValueError:
            raise error from None
        if not 0 <= first <= last:
            raise error
        seeds.extend(range(first, last + 1))
    if len(set(seeds)) != len(seeds):
        raise error
    return seeds


def parse_threads(text: str) -> int:
    """A worker-process count, checked as ``scmbench run --threads`` checks it."""
    try:
        threads = _parse_int(text)
        _check_threads(threads)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return threads


def margins(cells: dict) -> dict:
    def stat(method, level, key):
        return cells.get(method, {}).get(level, {}).get(key)

    def diff(a, b):
        return None if a is None or b is None else a - b

    def js(method, level):
        return stat(method, level, "mean_js")

    criterion_1 = {method: {"js": diff(js(method, 0), MIN_JS_0),
                            "fwer": diff(MAX_FWER_0, stat(method, 0, "fwer"))}
                   for method in ("iid", "icp")}
    criterion_2 = {level: {"gap": diff(diff(js("iid", level), js("icp", level)), MIN_GAP),
                           "iid_js": diff(js("iid", level), MIN_IID_JS)}
                   for level in (1, 2)}
    return {"criterion_1": criterion_1, "criterion_2": criterion_2}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config",
                        help="config file from 'scmbench init' (default config if omitted)")
    parser.add_argument("--seeds", type=parse_seeds, default="0-10",
                        help="master seeds, e.g. 0-10 or 0,4-6 (default 0-10)")
    parser.add_argument("--threads", type=parse_threads, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--out", type=Path, required=True,
                        help="directory to write seeds.json and each seed's records.csv under")
    args = parser.parse_args(argv)
    # checked before the first seed, so a bad path loses no results: the
    # path, or the nearest of its parents that exists, must be a directory
    if not next(p for p in (args.out, *args.out.parents) if p.exists()).is_dir():
        parser.error(f"--out {args.out}: expected a directory")
    ours = {f"seed-{seed}" for seed in args.seeds}
    if stale := sorted(p for p in args.out.glob("seed-*") if p.name not in ours):
        parser.error(f"{stale[0]} is not one of --seeds; an --out directory holds one run")

    try:
        cfg = read_config(args.config) if args.config else ExperimentConfig()
    except (OSError, ValueError) as exc:
        parser.error(f"--config {args.config}: {exc}")
    per_seed = []
    violations = dags = 0
    start = time.perf_counter()
    for seed in args.seeds:
        seed_start = time.perf_counter()
        report = run_experiment(dataclasses.replace(cfg, master_seed=seed), args.threads)
        wall_s = time.perf_counter() - seed_start
        seed_dir = args.out / f"seed-{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        write_records_csv(report.records, seed_dir / "records.csv")
        level_0_iid = [r for r in report.records if r.method == "iid" and r.confounders == 0]
        violations += sum(r.violated for r in level_0_iid)
        dags += len(level_0_iid)
        cells = {method: {level: {key: cell[key] for key in ("mean_js", "fwer", "n")}
                          for level, cell in by_level.items()}
                 for method, by_level in report.cells.items()}
        per_seed.append({"seed": seed, "cells": cells, "margins": margins(cells),
                         "failed_cells": len(report.errors), "wall_s": round(wall_s, 1)})
        print(f"seed {seed}: {wall_s:.0f} s, {len(report.errors)} failed cell(s)",
              file=sys.stderr)

    pooled = {"violations": violations, "dags": dags, "fwer": None, "ci95": None}
    if dags:
        ci = stats.binomtest(violations, dags).proportion_ci(0.95, method="exact")
        pooled.update(fwer=violations / dags, ci95=[ci.low, ci.high])
    summary = {"config": args.config or "default", "threads": args.threads,
               "seeds": per_seed, "pooled_level_0_iid_fwer": pooled,
               "wall_s": round(time.perf_counter() - start, 1)}
    (args.out / "seeds.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(pooled))
    if failed := sum(s["failed_cells"] for s in per_seed):
        print(f"warning: {failed} cell(s) failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
