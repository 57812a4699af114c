"""The scmbench benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

A pass is one ``scmbench run`` call (``scmbench.cli.main``) on a one-DAG config
with master seed ``seed * 10000 + pass``. Passes cycle through the workload's
node counts and repeat until ``--seconds`` have elapsed, at least one full
cycle. ``cells_per_s`` divides the cells of one cycle by the sum over node
counts of the median pass time, and ``cell_p50_s`` weighs each node count's
cells the same: a DAG's ICP cost grows with 2**nodes, so a run must weigh every
node count the same to measure the code rather than its draw of DAGs.

End-to-end times are normalised to the speed the machine ran at when they were
taken. Around every pass, and around the set-up measurement, the benchmark
times ``reference_s()``, a fixed loop of the numpy, scipy.stats and Python work
that cells are made of, which runs no scmbench code, and divides each time by
that loop's slowdown against ``REF_NOMINAL_S``. On the shared 2-core machine
the benchmark was defined on, identical cells ran up to 1.8 times slower for
minutes at a time: over seven 25 s icp-wide runs, the raw cells_per_s spread
by 0.37 of its median (quartile distance), the normalised one by 0.014. The
figures as timed are printed beside the normalised ones and kept in
``results.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each pass
untraced and then traced, checks that both give the same records, and reports
the per-layer metrics, as timed. Outputs go to ``.perfbench_out/`` in the
checkout. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
LEVELS = (0, 1, 2)
OUTPUTS = ("records.csv", "report.json", "table.txt")
SETUP_REPEATS = 5
# a run stops starting passes after this long, which keeps it inside the
# 180 s a run may take even when a pass is slow
HARD_STOP_S = 120.0
PIN_SEED = 0
REF_ITERATIONS = 1500
# reference_s() on the machine the benchmark was defined on (Intel Xeon,
# 2.1 GHz, 2 cores) in a quiet spell; it only sets the scale of the figures
REF_NOMINAL_S = 0.19


@dataclass(frozen=True)
class Workload:
    node_counts: tuple[int, ...]  # one pass per entry, cycled
    methods: tuple[str, ...]
    samples_per_env: int = 2000
    test: str = "mean-variance"


WORKLOADS = {
    # the north-star table's inputs: default config, 8-12 nodes, iid and icp
    "sweep": Workload(node_counts=(8, 9, 10, 11, 12), methods=("iid", "icp")),
    # every cell enumerates the worst case of 2**11 subsets; no identifier
    "icp-wide": Workload(node_counts=(12,), methods=("icp",)),
    # 16 subsets, residuals materialised, energy permutation test per subset
    "icp-energy": Workload(node_counts=(5,), methods=("icp",), samples_per_env=500,
                           test="energy-permutation"),
}


def pin_blas_threads() -> None:
    """One BLAS thread in this process and every child; call before numpy."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def config_path(out_dir: Path, nodes: int) -> Path:
    return out_dir / f"config-n{nodes}.ini"


def pass_inputs(wl: Workload, out_dir: Path, seed: int, index: int) -> tuple[Path, int]:
    """Config file and master seed of pass ``index``."""
    return (config_path(out_dir, wl.node_counts[index % len(wl.node_counts)]),
            seed * 10000 + index)


def prepare(workload: str, out_dir: str) -> None:
    """Import the program and write the workload's configs: the set-up a user
    pays on every CLI call, timed in a fresh interpreter by measure_setup."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401
    import scmbench.cli  # noqa: F401
    from scmbench.configfile import config_to_ini
    from scmbench.harness import ExperimentConfig
    from scmbench.icp import IcpConfig
    from scmbench.scm import GenConfig

    wl = WORKLOADS[workload]
    for nodes in wl.node_counts:
        cfg = ExperimentConfig(
            num_dags=1, samples_per_env=wl.samples_per_env,
            confounder_levels=LEVELS, methods=wl.methods,
            gen=GenConfig(nodes_min=nodes, nodes_max=nodes),
            icp=IcpConfig(test=wl.test))
        config_path(Path(out_dir), nodes).write_text(config_to_ini(cfg))


_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
               "run.prepare(sys.argv[2], sys.argv[3]); print('ready', flush=True)")


def measure_setup(workload: str, out_dir: Path) -> list[float]:
    """Seconds from interpreter start until ready to call ``run``, per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE, str(BENCH_DIR), workload, str(out_dir)],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    return times


def reference_s() -> float:
    """Seconds for a fixed unit of work that runs no scmbench code: small
    numpy products, scipy.stats tail functions, sorting and searching a
    sorted vector, and a Python loop, the mix a cell is made of. Timed around
    every pass, it tells how fast the shared machine runs at that moment."""
    import numpy as np
    from scipy import stats

    rng = np.random.default_rng(0)
    x = rng.normal(size=(256, 11))
    w = rng.normal(size=(11, 16))
    t = np.abs(rng.normal(size=11)) * 3.0
    df = np.full(11, 1500.0)
    v = rng.normal(size=1000)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(REF_ITERATIONS):
        acc += float((x.T @ np.tanh(x @ w))[0, 0])
        acc += float(stats.t.sf(t, df).sum() + stats.f.cdf(t, 1999.0, 19999.0).sum())
        ordered = np.sort(v)
        acc += float(np.cumsum(ordered)[-1] + np.searchsorted(ordered, t).sum())
        for j in range(40):
            acc += j * 0.5
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite value")
    return elapsed


@dataclass
class Pass:
    index: int
    master_seed: int
    exit_code: int
    wall: float
    rows: list[str]  # records.csv rows with wall_time masked
    wall_times: list[float]
    errors: list[dict]
    emitted_bytes: int
    slowdown: float = 1.0  # reference_s() around the pass over REF_NOMINAL_S


def run_pass(cli, config: Path, out: Path, index: int, master_seed: int) -> Pass:
    """One timed ``scmbench run``; its table and warnings are swallowed."""
    argv = ["run", "--config", str(config), "--out", str(out),
            "--seed", str(master_seed), "--force"]
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    rows, wall_times, errors, emitted = [], [], [], 0
    try:
        for line in (out / "records.csv").read_text().splitlines()[1:]:
            row, wall_time = line.rsplit(",", 1)
            rows.append(row)
            wall_times.append(float(wall_time))
        errors = json.loads((out / "report.json").read_text())["errors"]
        emitted = sum((out / name).stat().st_size for name in OUTPUTS)
    except (OSError, ValueError, KeyError) as exc:
        errors = [{"error": f"unreadable outputs: {exc}"}]
    return Pass(index, master_seed, code, wall, rows, wall_times, errors, emitted)


def _parse_set(text: str) -> frozenset[int]:
    return frozenset(int(v) for v in text.split("|")) if text else frozenset()


def check_pass(p: Pass, wl: Workload, pinned: list[str] | None) -> set[tuple]:
    """Cells (dag_id, level, method) of this pass that are wrong: missing,
    failed, internally inconsistent, or different from their pin."""
    expected = {(0, level, method) for level in LEVELS for method in wl.methods}
    seen: dict[tuple, str] = {}
    bad: set[tuple] = set()
    for row in p.rows:
        f = row.split(",")
        key = (int(f[0]), int(f[2]), f[1])
        z, pa0 = _parse_set(f[3]), _parse_set(f[4])
        js = 1.0 if not (z or pa0) else len(z & pa0) / len(z | pa0)
        if (key not in expected or key in seen or float(f[5]) != js
                or f[6] != ("false" if z <= pa0 else "true")):
            bad.add(key)
        seen[key] = row
    for e in p.errors:
        bad.add((e.get("dag_id"), e.get("confounders"), e.get("method")))
    bad |= expected - seen.keys()
    if p.exit_code != 0 and not bad:
        bad |= expected
    if pinned is not None:
        pins = {(int(f[0]), int(f[2]), f[1]): row
                for row in pinned for f in [row.split(",")]}
        bad |= {key for key, row in seen.items() if pins.get(key) != row}
    return bad


def load_pins(workload: str) -> dict:
    path = BENCH_DIR / "pins" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {"seed": None, "passes": []}


def records_digest(passes: list[Pass]) -> str:
    digest = hashlib.sha256()
    for p in passes:
        digest.update(f"# pass {p.index} master_seed {p.master_seed}\n".encode())
        digest.update("".join(row + "\n" for row in p.rows).encode())
    return digest.hexdigest()


def tail_line(name: str, values: list[float]) -> str:
    """The highest whole percentile (nearest rank) that has at least ten
    values beyond it, when that percentile lies above the median."""
    ordered = sorted(values)
    n = len(ordered)
    q = math.floor(100 * (n - 10) / n)
    if q <= 50:
        return f"{name} n/a (n={n}: no percentile above p50 has ten cells beyond it)"
    return f"{name} {ordered[math.ceil(q * n / 100) - 1]:.6g} s (p{q}, n={n})"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, else the environment."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{os.environ.get('OPENBLAS_NUM_THREADS')} (from the environment)"


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def weighted_median(pairs: list[tuple[float, Fraction]]) -> float:
    """Median of (value, weight) pairs; the plain median when weights are equal."""
    pairs = sorted(pairs)
    half = sum(w for _, w in pairs) / 2
    acc = Fraction(0)
    for i, (value, weight) in enumerate(pairs):
        acc += weight
        if acc > half:
            return value
        if acc == half:
            return (value + pairs[i + 1][0]) / 2
    raise ValueError("no values")


def end_to_end_metrics(passes: list[Pass], setup: list[float], setup_slowdown: float,
                       cycle: int, cells_per_pass: int, normalise: bool = True) -> dict:
    scale = {p.index: (p.slowdown if normalise else 1.0) for p in passes}
    setup_scale = setup_slowdown if normalise else 1.0
    by_nodes: dict[int, list[float]] = {}
    for p in passes:
        by_nodes.setdefault(p.index % cycle, []).append(p.wall / scale[p.index])
    # every node count weighs the same, however many of its passes the run got
    walls = [(w / scale[p.index], Fraction(1, len(by_nodes[p.index % cycle])))
             for p in passes for w in p.wall_times]
    cycle_wall = sum(statistics.median(w) for w in by_nodes.values())
    return {
        "setup_s": statistics.median(setup) / setup_scale,
        "cells_per_s": cells_per_pass * len(by_nodes) / cycle_wall,
        "cell_p50_s": weighted_median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }


def latency_lines(passes: list[Pass], methods: tuple[str, ...]) -> list[str]:
    """Tail of every cell, then the p50 and tail of each method's cells,
    normalised like the end-to-end metrics."""
    lines = [tail_line("cell_tail_s", [w / p.slowdown for p in passes for w in p.wall_times])]
    for method in methods:
        walls = [w / p.slowdown for p in passes for row, w in zip(p.rows, p.wall_times)
                 if row.split(",")[1] == method]
        lines.append(f"{method}_cell_p50_s {statistics.median(walls):.6g} s (n={len(walls)})")
        lines.append(tail_line(f"{method}_cell_tail_s", walls))
    return lines


def layer_metrics(tracer, traced: list[Pass], cells: int, untraced_wall: float) -> dict:
    c = tracer.counts
    busy = tracer.busy
    own = tracer.self_times()
    traced_wall = sum(p.wall for p in traced)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "scm.generate.busy_s": busy("scm.generate") / cells,
        "scm.sample.calls": c["scm.sample.calls"] / cells,
        "scm.sample.busy_s": busy("scm.sample") / cells,
        "identifier.identify_parents.calls": c["identifier.identify_parents.calls"] / cells,
        "identifier.identify_parents.busy_s": busy("identifier.identify_parents") / cells,
        "identifier.train_regressor.calls": c["identifier.train_regressor.calls"] / cells,
        "identifier.train_regressor.busy_s": busy("identifier.train_regressor") / cells,
        "identifier.score_calibrate.self_s": own["identifier.identify_parents"] / cells,
        "identifier.rounds_per_call": ratio(c["identifier.rounds"],
                                            c["identifier.identify_parents.calls"]),
        "identifier.eviction_frac": ratio(c["identifier.evictions"], c["identifier.rounds"]),
        "icp.icp_identify.calls": c["icp.icp_identify.calls"] / cells,
        "icp.icp_identify.busy_s": busy("icp.icp_identify") / cells,
        "icp.subsets": c["icp.subsets"] / cells,
        "icp.s_per_subset": ratio(busy("icp.icp_identify"), c["icp.subsets"]),
        "icp.accepted_frac": ratio(c["icp.accepted"], c["icp.subsets"]),
        "icp.invariance_pvalue.busy_s": busy("icp.invariance_pvalue") / cells,
        "icp.self_s": own["icp.icp_identify"] / cells,
        "distmetrics.ksample_equality_test.calls":
            c["distmetrics.ksample_equality_test.calls"] / cells,
        "distmetrics.ksample_equality_test.busy_s":
            busy("distmetrics.ksample_equality_test") / cells,
        "distmetrics.permutations": c["distmetrics.permutations"] / cells,
        "distmetrics.fit_gaussian.calls": c["distmetrics.fit_gaussian.calls"] / cells,
        "harness.run_experiment.busy_s": busy("harness.run_experiment") / cells,
        "harness.self_s": (own["harness.run_experiment"] + own["harness.dag"]
                           + own["harness.cell"]) / cells,
        "harness.cells": cells,
        "harness.failed_cells": sum(len(p.errors) for p in traced),
        # one worker process: the share of the run call spent inside cells
        "harness.worker_busy_frac": sum(sum(p.wall_times) for p in traced) / traced_wall,
        "cli.read_config.busy_s": busy("cli.read_config") / cells,
        "cli.emit.busy_s": busy("cli.emit") / cells,
        "cli.emit.bytes": sum(p.emitted_bytes for p in traced) / cells,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = _args(argv)
    if not (SRC / "scmbench" / "__init__.py").is_file():
        print(f"error: no scmbench sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_blas_threads()
    wl = WORKLOADS[args.workload]
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "cli").mkdir(parents=True)

    ref_before = reference_s()
    setup = measure_setup(args.workload, out_dir)
    ref_after = reference_s()
    setup_slowdown = (ref_before + ref_after) / 2.0 / REF_NOMINAL_S
    ref_before = ref_after
    sys.path.insert(0, str(SRC))
    from scmbench import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported scmbench from {cli.__file__}, not {SRC}")
    from spans import Tracer

    env = environment()
    tracer = Tracer() if args.trace else None
    pins = load_pins(args.workload)
    cycle = len(wl.node_counts)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    bad: set[tuple] = set()
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        config, master_seed = pass_inputs(wl, out_dir, args.seed, index)
        p = run_pass(cli, config, out_dir / "cli", index, master_seed)
        ref_after = reference_s()
        p.slowdown = (ref_before + ref_after) / 2.0 / REF_NOMINAL_S
        ref_before = ref_after
        pinned = (pins["passes"][index] if args.seed == pins["seed"]
                  and index < len(pins["passes"]) else None)
        bad |= {(master_seed, *key) for key in check_pass(p, wl, pinned)}
        untraced.append(p)
        if tracer is not None:
            tracer.master_seed = master_seed
            tracer.install()
            try:
                t = run_pass(cli, config, out_dir / "cli", index, master_seed)
            finally:
                tracer.uninstall()
            bad |= {(master_seed, *key) for key in check_pass(t, wl, pinned)}
            if t.rows != p.rows:
                bad |= {(master_seed, 0, level, method)
                        for level in LEVELS for method in wl.methods}
            traced.append(t)
        index += 1
        now = time.perf_counter()
        if (index >= cycle and now >= deadline) or now - started > HARD_STOP_S:
            break

    cells_per_pass = len(LEVELS) * len(wl.methods)
    attempted = cells_per_pass * (len(untraced) + len(traced))
    if tracer is not None:
        metrics = layer_metrics(tracer, traced, cells_per_pass * len(traced),
                                sum(p.wall for p in untraced))
        tracer.write(out_dir / "spans.jsonl")
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end_metrics(untraced, setup, setup_slowdown, cycle, cells_per_pass)
        as_timed = end_to_end_metrics(untraced, setup, setup_slowdown, cycle, cells_per_pass,
                                      normalise=False)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")

    digest = records_digest(untraced)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} passes, {cells_per_pass * len(untraced)} cells untraced"
          + (f", {cells_per_pass * len(traced)} traced" if traced else ""))
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        note = f", median of {len(setup)}" if name == "setup_s" else ""
        if tracer is None and name != "peak_rss_mb":
            note = f" (as timed {as_timed[name]:.6g}{note})"
        print(f"{name} {value:.6g} {units[name]}{note}")
    if tracer is None:
        for line in latency_lines(untraced, wl.methods):
            print(line)
    print(f"failed_frac {len(bad) / attempted:.6g} ({len(bad)}/{attempted} cells)")
    pinned_passes = min(len(untraced), len(pins["passes"])) if args.seed == pins["seed"] else 0
    print(f"pinned passes checked: {pinned_passes}")
    print(f"records sha256 (wall_time masked, passes 0-{len(untraced) - 1}): {digest}")

    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "setup_s_each": setup,
        "metrics": metrics, "as_timed": as_timed if tracer is None else None,
        "setup_slowdown": setup_slowdown, "attempted": attempted,
        "failed_cells": sorted(map(str, bad)), "records_sha256": digest,
        "passes": [{"index": p.index, "master_seed": p.master_seed, "wall": p.wall,
                    "slowdown": p.slowdown, "rows": p.rows, "wall_times": p.wall_times}
                   for p in untraced],
    }
    (out_dir / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({
        "correct": not bad, "attempted": attempted, "failed": len(bad),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
