"""Command line front end: init, run, report, demo.

Exit codes: 0 success, 1 usage or configuration error, 2 completed with
failed cells (partial results are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .configfile import config_to_ini, read_config
from .harness import (ExperimentConfig, Report, _blaming, _check_threads,
                      _parse_int, aggregate_cells, read_records_csv,
                      run_experiment, write_records_csv, write_report_json)
from .scm import four_node_demo_scm


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmbench",
        description="Simulated benchmark of parent identification under interventions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="write a commented default config file")
    p_init.add_argument("--out", default="scmbench.ini", help="config path to create")
    p_init.add_argument("--force", action="store_true", help="overwrite an existing file")

    p_run = sub.add_parser("run", help="run the configured sweep")
    p_run.add_argument("--config", required=True, help="config file from 'init'")
    p_run.add_argument("--out", default="scmbench-out", help="output directory")
    p_run.add_argument("--seed", default=None,
                       help="master seed override (wins over the config's master_seed)")
    p_run.add_argument("--threads", default="1",
                       help="worker processes; results are identical for any value")
    p_run.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p_rep = sub.add_parser("report", help="render the results table from a records CSV")
    p_rep.add_argument("csv", help="records.csv produced by 'run'")
    p_rep.add_argument("--out", default=None, help="table file (default: table.txt beside the CSV)")

    p_demo = sub.add_parser("demo", help="run both methods once on the fixed 4-node model")
    p_demo.add_argument("--out", default="scmbench-demo", help="output directory")
    p_demo.add_argument("--seed", default=None, help="master seed override")
    p_demo.add_argument("--force", action="store_true", help="overwrite existing outputs")
    return parser


def _resolve_seed(cfg: ExperimentConfig, flag: str | None) -> ExperimentConfig:
    """cfg with its master seed from the --seed flag when given, else as the
    config has it; ExperimentConfig checks the bound."""
    if flag is None:
        return cfg
    with _blaming("--seed"):
        return dataclasses.replace(cfg, master_seed=_parse_int(flag))


def render_table(records) -> str:
    """Fixed-width table of 'mean_js (fwer)' cells: a row per method in the
    order the records first name them, a column per level they hold from most
    to fewest confounders, and '-' for a pair with no record."""
    methods = tuple(dict.fromkeys(r.method for r in records))
    levels = tuple(sorted({r.confounders for r in records}, reverse=True))
    cells = aggregate_cells(records, methods, levels)

    def fmt(stats: dict) -> str:
        if stats["n"] == 0:
            return "-"
        return f"{stats['mean_js']:.3f} ({stats['fwer']:.2f})"

    def label(level: int) -> str:
        return f"{level} confounder" + ("" if level == 1 else "s")

    header = ["method"] + [label(lvl) for lvl in levels]
    rows = [[m] + [fmt(cells[m][lvl]) for lvl in levels] for m in methods]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    out = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
           for line in [header, *rows]]
    return "\n".join(out)


def _emit(report: Report, files: dict[str, Path]) -> str:
    write_records_csv(report.records, files["records.csv"])
    write_report_json(report, files["report.json"])
    table = render_table(report.records)
    files["table.txt"].write_text(table + "\n")
    return table


def _sweep(cfg: ExperimentConfig, args: argparse.Namespace, threads: int = 1,
           preamble=lambda report: ()) -> int:
    """Run ``cfg`` and write its outputs into ``args.out``, which must not hold
    them already unless ``args.force``; print the lines of preamble(report)
    and the table. Returns 2 if any cell failed, else 0."""
    out_dir = Path(args.out)
    files = {name: out_dir / name
             for name in ("records.csv", "report.json", "table.txt")}
    clashes = [str(p) for p in files.values() if p.exists()]
    if clashes and not args.force:
        raise ValueError("outputs exist (use --force): " + ", ".join(clashes))
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_experiment(cfg, threads=threads)
    table = _emit(report, files)
    print("\n".join([*preamble(report), table]))
    if report.errors:
        print(f"warning: {len(report.errors)} cell(s) failed; see report.json",
              file=sys.stderr)
        return 2
    return 0


def _cmd_init(args: argparse.Namespace) -> int:
    path = Path(args.out)
    if path.exists() and not args.force:
        raise ValueError(f"{path} exists (use --force)")
    path.write_text(config_to_ini(ExperimentConfig()))
    print(f"wrote {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with _blaming("--threads"):
        threads = _parse_int(args.threads)
        _check_threads(threads)
    return _sweep(_resolve_seed(read_config(args.config), args.seed), args, threads)


def _cmd_report(args: argparse.Namespace) -> int:
    records = read_records_csv(args.csv)
    if not records:
        raise ValueError("no records in CSV")
    table = render_table(records)
    out_path = Path(args.out) if args.out else Path(args.csv).parent / "table.txt"
    out_path.write_text(table + "\n")
    print(table)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    demo = ExperimentConfig(num_dags=1, samples_per_env=2000,
                            confounder_levels=(0,), methods=("iid", "icp"),
                            fixed_scm=four_node_demo_scm())

    def show(nodes: frozenset[int]) -> str:
        return "{" + ", ".join(str(v) for v in sorted(nodes)) + "}"

    def estimates(report: Report) -> list[str]:
        truth = next((r.pa0 for r in report.records), frozenset())
        return [f"truth: {show(truth)}",
                *(f"{r.method}:   {show(r.z)}" for r in report.records), ""]

    return _sweep(_resolve_seed(demo, args.seed), args, preamble=estimates)


_COMMANDS = {"init": _cmd_init, "run": _cmd_run, "report": _cmd_report, "demo": _cmd_demo}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; --help exits with 0
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
