#!/usr/bin/env python3
"""Where the garbage collections of one perfbench repetition land.

``perfbench/run.py`` scales every untraced repetition by a host-speed
reference loop that runs between the pieces of the run
(``suite.PieceClock``).  A collection that runs inside a reference chunk is
charged to the reference, not to the workload, so a change that moves one
into or out of a chunk moves every scaled figure without running faster or
slower.  This tool shows where they land.

It runs one plain repetition the way ``perfbench/worker.py`` does
(``worker.setup``, then ``worker.measure``), in a fresh interpreter (this
file, re-run with ``--repetition``) that imports no more than a worker
does plus ``gc``, so the collector's counters start about where a
worker's do.  When the timed ``suite.run`` starts, it wraps
``suite._reference_chunk`` so that reference time is flagged and hooks
``gc.callbacks``.  It prints each generation-1 and generation-2 collection
of the timed region with its duration, its chunk index and whether it ran
inside a reference chunk, then per-generation totals for reference and
workload time.  The chunk index counts the reference chunks begun so far,
from 0: inside a reference chunk it is that chunk's index, in a workload
piece the index of the chunk before the piece (-1 before the first).

Run from anywhere; it edits nothing and leaves ``git status`` clean::

    python tools/gc_probe.py --workload sweep_cold --seed 0
    python tools/gc_probe.py --workload all --seed 0    # every workload in turn

``--workload all`` probes each workload in turn, each in a fresh
interpreter, as ``perfbench/run.py --workload all`` runs them.  Exits
non-zero only if a repetition fails.
"""

# The repetition runs this file as its main module: import no more than
# perfbench/worker.py does, plus gc.
import gc
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
#: Generation-1/2 collections recorded one by one; a run has about 20.
MAX_RECORDS = 256


def repetition(config: dict) -> dict:
    """One plain repetition with the probe on its timed region."""
    sys.path.insert(0, PERFBENCH)
    import worker

    setup_s = worker.setup(config["workload"])
    import suite

    run, reference_chunk = suite.run, suite._reference_chunk
    # The hook writes only ints, floats and bools into these preallocated
    # lists, so it allocates no object the collector tracks: the probe does
    # not move the collections it reports.
    #: Per generation: reference count, reference ms, workload count, workload ms.
    totals = [[0, 0.0, 0, 0.0] for _ in range(3)]
    #: Per generation-1/2 collection: generation, in reference, chunk index, ms.
    records = [0] * (4 * MAX_RECORDS)
    state = {"reference": False, "chunk": -1, "started": 0.0, "records": 0}

    def flagged(*args):
        state["chunk"] += 1
        state["reference"] = True
        try:
            return reference_chunk(*args)
        finally:
            state["reference"] = False

    def hook(event, info):
        if event == "start":
            state["started"] = time.perf_counter()
            return
        ms = (time.perf_counter() - state["started"]) * 1e3
        generation = info["generation"]
        total = totals[generation]
        slot = 0 if state["reference"] else 2
        total[slot] += 1
        total[slot + 1] += ms
        count = state["records"]
        if generation and count < MAX_RECORDS:
            records[4 * count] = generation
            records[4 * count + 1] = state["reference"]
            records[4 * count + 2] = state["chunk"]
            records[4 * count + 3] = ms
            state["records"] = count + 1

    def probed(*args):
        suite._reference_chunk = flagged
        gc.callbacks.append(hook)
        try:
            return run(*args)
        finally:
            gc.callbacks.remove(hook)
            suite._reference_chunk = reference_chunk

    suite.run = probed
    out = worker.measure(config, setup_s)
    return {
        "pieces": len(out["pieces"]),
        "reference_chunks": len(out["reference_chunks"]),
        "reference_ms": sum(out["reference_chunks"]) * 1e3,
        "wall_s": out["wall_s"],
        "collections": [records[4 * i:4 * i + 4] for i in range(state["records"])],
        "totals": totals,
    }


def report(workload: str, seed: int, result: dict) -> None:
    print(f"# {workload} seed {seed}: {result['pieces']} pieces, "
          f"{result['reference_chunks']} reference chunks "
          f"({result['reference_ms']:.2f} ms), unscaled wall_s {result['wall_s']:.4f} s")
    for generation, reference, chunk, ms in result["collections"]:
        where = "reference" if reference else "workload"
        print(f"gen{generation} {ms:8.3f} ms  chunk {chunk:3d}  {where}")
    unrecorded = sum(t[0] + t[2] for t in result["totals"][1:]) - len(result["collections"])
    if unrecorded:
        print(f"({unrecorded} more generation-1/2 collections, counted in the totals only)")
    for generation, (ref_n, ref_ms, work_n, work_ms) in enumerate(result["totals"]):
        print(f"gen{generation} totals: reference {ref_n} ({ref_ms:.2f} ms), "
              f"workload {work_n} ({work_ms:.2f} ms)")


def probe(workload: str, seed: int) -> int:
    """Run and report one repetition of ``workload`` in a fresh interpreter."""
    import shutil
    import subprocess
    import tempfile

    tmp = tempfile.mkdtemp(prefix="gc_probe-")
    config = {"workload": workload, "seed": seed, "mode": "plain",
              "tmp": os.path.join(tmp, "rep")}
    # The environment perfbench/run.py gives its workers.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--repetition", json.dumps(config)],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    report(workload, seed, json.loads(proc.stdout.splitlines()[-1]))
    return 0


def main(argv=None) -> int:
    import argparse

    sys.path.insert(0, PERFBENCH)
    import suite

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    names = suite.WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [probe(name, args.seed) for name in names]
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--repetition"]:
        print(json.dumps(repetition(json.loads(sys.argv[2]))))
    else:
        sys.exit(main())
