"""Pin the estimates of a workload's first passes at the pin seed.

    python3 perfbench/pin.py --workload sweep --passes 20

Runs passes 0..passes-1 untimed, refuses to pin a pass with failed or
inconsistent cells, and writes ``perfbench/pins/<workload>.json``. run.py
counts every cell that differs from its pin as failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args()
    run.pin_blas_threads()
    wl = run.WORKLOADS[args.workload]
    out_dir = run.OUT_ROOT / f"pin-{args.workload}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "cli").mkdir(parents=True)
    run.prepare(args.workload, str(out_dir))
    from scmbench import cli

    passes = []
    for index in range(args.passes):
        config, master_seed = run.pass_inputs(wl, out_dir, run.PIN_SEED, index)
        p = run.run_pass(cli, config, out_dir / "cli", index, master_seed)
        bad = run.check_pass(p, wl, None)
        if bad:
            print(f"error: pass {index} has bad cells {sorted(map(str, bad))}",
                  file=sys.stderr)
            return 1
        passes.append(p.rows)
    path = run.BENCH_DIR / "pins" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": run.PIN_SEED, "passes": passes}, indent=1) + "\n")
    print(f"wrote {path} ({len(passes)} passes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
