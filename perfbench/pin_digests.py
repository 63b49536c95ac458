"""Regenerate ``perfbench/digests.json``: every unit digest at the pinned seeds.

Run from the root of a checkout::

    python3 perfbench/pin_digests.py

Each workload runs at the default seed and at the held-out seed, twice per
seed in fresh processes with different ``PYTHONHASHSEED`` values; the two
runs must agree unit for unit and no unit may break an invariant, or
nothing is written.  Re-pin only for a deliberate model change: a digest
that moves means the program's outputs moved.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

import run
import suite

DEFAULT_SEED = 0
#: Never used while tuning the benchmark or the program.
HELD_OUT_SEED = 20111


def pin(root: pathlib.Path) -> dict:
    pins = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for workload in suite.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=0, trace=0)
        bench = run.Bench(root, args)
        try:
            pins["workloads"][workload] = pin_workload(bench)
        finally:
            shutil.rmtree(bench.tmp.parent, ignore_errors=True)
    return pins


def pin_workload(bench: run.Bench) -> dict:
    workload = bench.args.workload
    pinned = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        runs = []
        for hash_seed in ("1", "2"):
            bench.env["PYTHONHASHSEED"] = hash_seed
            out = bench.worker("plain", seed)
            if "error" in out:
                raise SystemExit(f"{workload} seed {seed}: {out['error']}")
            runs.append(out["units"])
        broken = {k: v for k, v in runs[0].items() if v.startswith("error")}
        if broken or runs[0] != runs[1]:
            raise SystemExit(f"{workload} seed {seed}: unstable or broken units {broken}")
        pinned[str(seed)] = runs[0]
        print(f"{workload} seed={seed}: {len(runs[0])} units", file=sys.stderr)
    return pinned


def main() -> int:
    root = pathlib.Path.cwd()
    pins = pin(root)
    run.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
