"""Benchmark entry point: one workload, timed end to end or traced by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fabric_drain --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25    # every workload in turn

Every repetition runs in a fresh ``worker.py`` process (one client, closed
loop, no pools) until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``: ``wall_s`` sums, over the pieces a
run is cut into at every platform build, each piece's fastest time over the
repetitions; ``setup_s`` is the fastest set-up.  Both are scaled to a nominal
host speed, measured by a fixed reference loop that runs between pieces.
Memory is the median.
``--trace 1`` alternates untraced, span-timed and
profiled repetitions, adds ``-X importtime`` folds, and reports the
per-layer metrics as medians.

Every repetition's units (experiments, sweep points, per-scenario fuzz
reports) are digested and checked: against the digests pinned in
``perfbench/digests.json`` when the seed is pinned, otherwise against each
other, plus one untimed check at the pinned default seed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files go under ``.perfbench_tmp/`` in
the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
PINS_PATH = HERE / "digests.json"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import suite  # noqa: E402

#: A worker that has not finished by then is killed and counted as failed.
WORKER_TIMEOUT_S = 150.0
#: Stop starting repetitions after this long, whatever ``--seconds`` says.
RUN_CAP_S = 120.0
MIN_PLAIN_REPS = 3
IMPORTTIME_RUNS = 3

#: Subpackages reported as ``import.<name>_s``.
IMPORT_SUBPACKAGES = (
    "api", "scenarios", "soc", "core", "crypto", "engine",
    "attacks", "sweep", "staticcheck", "fuzz", "service",
)
#: Layers reported as ``prof.<name>`` (cProfile self-time fractions).
PROFILE_LAYERS = (
    "soc.kernel", "soc.ports", "soc.transaction", "soc.processor", "soc.memory",
    "soc.fabric.segment", "soc.fabric.bridge", "soc.fabric.routing",
    "soc.fabric.arbiters", "soc.address_map", "core.local_firewall", "core.checks",
    "core.policy", "core.ciphering_firewall", "core.secure", "crypto.aes",
    "crypto.modes", "crypto.merkle", "crypto.sha256", "scenarios.builder",
    "workloads.generators", "metrics.latency", "fuzz.oracle", "builtin", "stdlib",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def piecewise_fastest(repetitions: List[List[float]]) -> float:
    """Sum over a run's pieces of each piece's fastest time.

    Host interference comes in bursts far shorter than a repetition, so a
    short piece is often timed free of it where a whole repetition almost
    never is.
    """
    if len({len(r) for r in repetitions}) != 1:
        raise RuntimeError("repetitions of one seed were cut into different pieces")
    return sum(min(piece) for piece in zip(*repetitions))


def reference_s(plain: List[dict]) -> float:
    """Seconds per reference chunk in this run, taken the way ``wall_s`` is:
    each chunk's fastest time over the repetitions, averaged over the
    chunks.  Timed alike, the reference and the workload see the same share
    of the host's fast moments."""
    chunks = [r["reference_chunks"] for r in plain]
    return piecewise_fastest(chunks) / len(chunks[0])


class Bench:
    def __init__(self, root: pathlib.Path, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.declared = json.loads((root / "BENCHMARK.json").read_text())
        self.pins: dict = {}
        self.tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.spawned = 0

    # -- processes -------------------------------------------------------------------

    def worker(self, mode: str, seed: int) -> dict:
        self.spawned += 1
        config = {
            "workload": self.args.workload, "seed": seed, "mode": mode,
            "tmp": str(self.tmp / f"rep{self.spawned}"),
        }
        env = dict(self.env, PERFBENCH_T0=repr(time.monotonic()))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                env=env, cwd=self.root, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"mode": mode, "seed": seed, "error": "worker timed out"}
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            out = {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
        out.update(mode=mode, seed=seed)
        if "error" in out:
            sys.stderr.write(out["error"] + "\n")
        return out

    def importtime(self) -> Dict[str, float]:
        code = (
            "import importlib, repro.api\n"
            "from repro.scenarios import list_scenarios\n"
            "list_scenarios()\n"
            f"for sub in {IMPORT_SUBPACKAGES!r}:\n"
            "    try:\n"
            "        importlib.import_module('repro.' + sub)\n"
            "    except ImportError:\n"
            "        pass\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=self.env, cwd=self.root, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, check=True,
        )
        return spans.fold_importtime(proc.stderr.splitlines(), IMPORT_SUBPACKAGES)

    # -- repetitions -----------------------------------------------------------------

    def modes(self):
        """Repetition modes in order: untraced only, or untraced, spans and a
        profile first, then untraced and spans alternately."""
        if not self.args.trace:
            while True:
                yield "plain"
        yield from ("plain", "spans", "profile")
        while True:
            yield "plain"
            yield "spans"

    def repetitions(self) -> List[dict]:
        reps: List[dict] = []
        start = time.monotonic()
        needed = MIN_PLAIN_REPS + (3 if self.args.trace else 0)
        for mode in self.modes():
            reps.append(self.worker(mode, self.args.seed))
            elapsed = time.monotonic() - start
            if elapsed >= RUN_CAP_S or (
                elapsed >= self.args.seconds and len(reps) >= needed
            ):
                return reps

    # -- correctness -----------------------------------------------------------------

    def pinned(self, seed: int) -> Optional[Dict[str, str]]:
        return self.pins["workloads"].get(self.args.workload, {}).get(str(seed))

    def check(self, reps: List[dict]) -> Dict[str, int]:
        """Count units attempted and failed over all repetitions."""
        attempted = failed = 0
        by_seed: Dict[int, List[dict]] = collections.defaultdict(list)
        for rep in reps:
            by_seed[rep["seed"]].append(rep)
        for seed, group in by_seed.items():
            expected = self.pinned(seed)
            if expected is None:
                # Unpinned seed: every repetition must agree with the others.
                votes = collections.Counter(
                    (key, value) for rep in group for key, value in rep.get("units", {}).items()
                )
                expected = {}
                for (key, value), _count in votes.most_common():
                    expected.setdefault(key, value)
            for rep in group:
                units = rep.get("units")
                if "error" in rep or units is None:
                    attempted += max(1, len(expected))
                    failed += max(1, len(expected))
                    continue
                for key in set(expected) | set(units):
                    attempted += 1
                    value = units.get(key, "error: missing")
                    if value.startswith("error") or value != expected.get(key):
                        failed += 1
                        sys.stderr.write(f"unit {key}: {value} != {expected.get(key)}\n")
        return {"attempted": attempted, "failed": failed}

    # -- metrics ---------------------------------------------------------------------

    def end_to_end(self, plain: List[dict]) -> Dict[str, float]:
        """Times are the fastest seen: every repetition does the same
        deterministic work, so a slower one measures interference from the
        rest of the host, not the program.  They are then scaled to the
        nominal host speed: the speed of the host drifts by tens of percent
        over minutes, and a fixed reference loop that calls nothing in
        ``repro``, run between the pieces, drifts with it."""
        scale = suite.REFERENCE_NOMINAL_S / reference_s(plain)
        wall_s = piecewise_fastest([r["pieces"] for r in plain]) * scale
        return {
            "wall_s": wall_s,
            "setup_s": min(r["setup_s"] for r in plain) * scale,
            "sim_events_per_s": _ratio(plain[0]["counters"]["events"], wall_s),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }

    def per_layer(self, plain: List[dict], traced: List[dict], profiled: List[dict],
                  imports: List[Dict[str, float]]) -> Dict[str, float]:
        def span_self(rep: dict, name: str) -> float:
            return rep["spans"].get(name, {}).get("self", 0.0)

        def span_median(name: str) -> float:
            return statistics.median([span_self(r, name) for r in traced])

        counters = plain[0]["counters"]
        metrics: Dict[str, float] = {
            f"{name}_s": span_median(name) for name in spans.SPAN_NAMES
        }
        drain_s = metrics["soc.kernel.drain_s"]
        metrics.update({
            "soc.kernel.events": counters["events"],
            "soc.kernel.us_per_event": _ratio(drain_s * 1e6, counters["events"]),
            "scenarios.builder.builds": statistics.median(
                [r["spans"].get(spans.BUILD_SPAN, {}).get("count", 0) for r in traced]
            ),
            "core.local_firewall.sb_evaluations": counters["sb_evaluations"],
            "core.local_firewall.sb_cache_hit_ratio": _ratio(
                counters["sb_cache_hits"],
                counters["sb_cache_hits"] + counters["sb_cache_misses"],
            ),
            "core.local_firewall.discarded": counters["discarded"],
            "core.ciphering_firewall.cc_blocks": counters["cc_blocks"],
            "core.ciphering_firewall.ic_blocks": counters["ic_blocks"],
            "soc.fabric.hop_cycles": counters["hop_cycles"],
            "attacks.detection_rate": _ratio(counters["detected"], counters["attacks"]),
            "sweep.store.bytes_written": counters["store_bytes"],
            "fuzz.cases": counters["fuzz_cases"],
            "fuzz.blocked_ratio": _ratio(counters["fuzz_blocked"], counters["fuzz_steps"]),
        })
        for layer in PROFILE_LAYERS:
            metrics[f"prof.{layer}"] = statistics.median(
                [r["profile"].get(layer, 0.0) for r in profiled]
            )
        metrics["prof.crypto"] = statistics.median([
            sum(v for k, v in r["profile"].items() if k.split(".")[0] == "crypto")
            for r in profiled
        ])
        for sub in IMPORT_SUBPACKAGES:
            metrics[f"import.{sub}_s"] = statistics.median([fold[sub] for fold in imports])
        metrics["trace.overhead_frac"] = _ratio(
            min(r["wall_s"] for r in traced), min(r["wall_s"] for r in plain)
        ) - 1.0
        metrics["trace.unattributed_s"] = statistics.median([r["unattributed_s"] for r in traced])
        return metrics

    # -- the run ---------------------------------------------------------------------

    def run(self) -> dict:
        self.pins = json.loads(PINS_PATH.read_text())
        reps = self.repetitions()
        checked = list(reps)
        if self.pinned(self.args.seed) is None:
            # Untimed: the outputs at the pinned default seed must still match.
            checked.append(self.worker("plain", self.pins["default_seed"]))
        counts = self.check(checked)

        by_mode = collections.defaultdict(list)
        for rep in reps:
            if "error" not in rep:
                by_mode[rep["mode"]].append(rep)
        modes = ("plain", "spans", "profile") if self.args.trace else ("plain",)
        for mode in modes:
            if not by_mode[mode]:
                raise RuntimeError(f"{self.args.workload}: every {mode} repetition failed")
        plain = by_mode["plain"]
        if self.args.trace:
            imports = [self.importtime() for _ in range(IMPORTTIME_RUNS)]
            metrics = self.per_layer(plain, by_mode["spans"], by_mode["profile"], imports)
            declared = self.declared["per_layer"]
        else:
            metrics = self.end_to_end(plain)
            declared = self.declared["end_to_end"]
        names = [m["name"] for m in declared]
        if sorted(names) != sorted(metrics):
            raise RuntimeError(
                f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json"
            )

        self.report(reps, counts, metrics, declared)
        return {
            "correct": counts["failed"] == 0,
            "attempted": counts["attempted"],
            "failed": counts["failed"],
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
            },
        }

    def report(self, reps, counts, metrics, declared) -> None:
        """Human-readable lines ahead of the JSON result."""
        modes = collections.Counter(r["mode"] for r in reps)
        print(
            f"# {self.args.workload} seed={self.args.seed} trace={self.args.trace} "
            f"reps={dict(modes)} host: nproc={os.cpu_count()} "
            f"python={platform.python_version()} {platform.machine()}"
        )
        plain = [r for r in reps if r["mode"] == "plain" and "error" not in r]
        for key in ("wall_s", "setup_s"):
            print(f"# samples {key}: {json.dumps([round(r[key], 5) for r in plain])}")
        if plain and "pieces" in plain[0]:
            print(
                f"# pieces per repetition: {sorted({len(r['pieces']) for r in plain})}; "
                f"unscaled wall_s {piecewise_fastest([r['pieces'] for r in plain]):.6g} s; "
                f"reference {reference_s(plain):.6g} s "
                f"(nominal {suite.REFERENCE_NOMINAL_S} s)"
            )
        missing = sorted({t for r in reps for t in r.get("missing_targets", ())})
        if missing:
            print(f"# span targets not found (their spans read 0): {', '.join(missing)}")
        rate = _ratio(counts["failed"], counts["attempted"])
        print(f"error_rate = {rate:.4g} ({counts['failed']}/{counts['attempted']} units)")
        for m in declared:
            print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=suite.WORKLOADS + ("all",),
        help="one workload, or 'all' to run each in turn (one result line each)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame) -> None:
    # Raised inside subprocess.run, this kills and reaps the running worker.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"{root}: no src/repro package to benchmark; run from a checkout root\n")
        return 2
    if not (root / "BENCHMARK.json").is_file():
        sys.stderr.write(f"{root}: no BENCHMARK.json\n")
        return 2
    # Byte-compile once, so the first repetition does not pay for it.
    compileall.compile_dir(str(root / "src"), quiet=1)
    names = suite.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        bench = Bench(root, argparse.Namespace(**dict(vars(args), workload=name)))
        try:
            result = bench.run()
        finally:
            shutil.rmtree(bench.tmp, ignore_errors=True)
            try:
                bench.tmp.parent.rmdir()
            except OSError:
                pass  # another run still uses it, or it is already gone
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
