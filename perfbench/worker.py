"""One timed repetition of one workload, in a fresh process.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json config>'``
with ``PERFBENCH_T0`` set to the parent's ``time.monotonic()`` just before
the spawn (the monotonic clock is system-wide, so the difference is the
process start-up cost).  The config names the workload, the seed, a scratch
directory and the mode:

``plain``    no tracing: the end-to-end figures, with the run cut into
             pieces at every platform build (``suite.PieceClock``);
``spans``    span timers around the public entry points (``spans.py``);
``profile``  cProfile over the timed region, folded by module.

Prints one JSON object as its last line of standard output.
"""

import json
import os
import sys
import time


def setup(workload: str) -> float:
    """Import ``repro.api``, load the registry and import the workload's
    entry modules; return the seconds since the parent spawned us."""
    t0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))
    import importlib

    import repro.api  # noqa: F401
    from repro.scenarios import list_scenarios

    import suite  # perfbench/ is sys.path[0]

    list_scenarios()
    for module in suite.ENTRY_MODULES[workload]:
        importlib.import_module(module)
    return time.monotonic() - t0


def measure(config, setup_s: float) -> dict:
    import cProfile
    import pathlib
    import pstats
    import resource
    import shutil

    import repro
    import spans
    import suite

    workload, seed, mode = config["workload"], config["seed"], config["mode"]
    tmp = pathlib.Path(config["tmp"])
    tmp.mkdir(parents=True, exist_ok=True)
    out = {"mode": mode, "setup_s": setup_s}

    counter = suite.BuildEventCounter() if workload == "fuzz_probe" else None
    if counter is not None:
        counter.install()
    recorder = uninstall = profiler = clock = None
    if mode == "plain":
        clock = suite.PieceClock(suite.REFERENCE_STRIDE[workload])
        clock.install()
    elif mode == "spans":
        recorder = spans.SpanRecorder()
        uninstall, out["missing_targets"] = spans.install(recorder)
    elif mode == "profile":
        profiler = cProfile.Profile()

    try:
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        raw = suite.run(workload, seed, tmp)
        end = time.perf_counter()
        if profiler is not None:
            profiler.disable()
        out["wall_s"] = end - start
        if clock is not None:
            clock.uninstall()
            out["pieces"] = clock.pieces(start, end)
            out["reference_chunks"] = clock.references
            # The reference chunks ran inside the timed region: leave them out.
            out["wall_s"] = sum(out["pieces"])
        if uninstall is not None:
            uninstall()
        out["units"], counters = suite.inspect(workload, seed, raw)
        if counter is not None:
            counters["events"] = counter.settle()
        out["counters"] = counters
    finally:
        if clock is not None:
            clock.uninstall()
        if counter is not None:
            counter.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    if recorder is not None:
        out["spans"] = spans.fold_spans(recorder.spans)
        out["unattributed_s"] = spans.unattributed(recorder.spans, out["wall_s"])
    if profiler is not None:
        out["profile"] = spans.fold_profile(
            pstats.Stats(profiler), os.path.dirname(repro.__file__)
        )
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> None:
    config = json.loads(sys.argv[1])
    try:
        result = measure(config, setup(config["workload"]))
    except Exception:  # reported as a failed unit by run.py, never swallowed
        import traceback

        result = {"error": traceback.format_exc()}
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
