"""In-memory span timers wrapped around the public entry points of ``repro``.

The benchmark never edits the program: in a traced run it replaces a fixed
set of public functions and methods with thin wrappers that record one span
per call (name, parent, start, end).  Spans stay in memory and are folded
once at the end of the run:

* a span's *self* time is its duration minus the durations of its direct
  children, so the self times of all spans plus the wall time no top-level
  span covers add up to the run's wall time;
* every metric ``<span name>_s`` is the summed self time of that span name.

The cProfile and ``-X importtime`` folds live here too: both attribute time
to the ``repro`` module (or subpackage) it was spent in.
"""

from __future__ import annotations

import pstats
import sys
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: (span name, module, attribute path) of every wrapped entry point.  The
#: attribute path is looked up in the module that *calls* it, so functions a
#: module imported by name are patched where they are used.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("api.experiment.run_self", "repro.api.experiment", "Experiment.run"),
    ("api.experiment.to_dict", "repro.api.experiment", "ExperimentResult.to_dict"),
    ("metrics.latency", "repro.api.experiment", "aggregate_hop_latency"),
    ("metrics.latency", "repro.api.experiment", "generate_table2"),
    ("metrics.latency", "repro.api.experiment", "placement_split"),
    ("metrics.area", "repro.metrics.area", "AreaModel.platform_area_from_secured"),
    ("metrics.area", "repro.metrics.area", "AreaModel.platform_without_firewalls"),
    ("scenarios.builder.build_self", "repro.scenarios.builder", "ScenarioBuilder.build"),
    ("scenarios.builder.build_system", "repro.scenarios.builder", "ScenarioBuilder.build_system"),
    ("core.secure.attach_security", "repro.scenarios.builder", "attach_security"),
    ("core.secure.attach_security", "repro.scenarios.builder", "secure_platform_centralized"),
    ("soc.kernel.drain", "repro.scenarios.builder", "BuiltScenario.run_workload"),
    ("workloads.generators.load_workload", "repro.scenarios.builder", "BuiltScenario.load_workload"),
    ("attacks.runner.campaign", "repro.attacks.runner", "CampaignRunner.run"),
    ("sweep.engine.classify", "repro.sweep.engine", "SweepRunner.__init__"),
    ("sweep.engine.classify", "repro.sweep.engine", "SweepRunner.classify"),
    ("sweep.store.put", "repro.sweep.store", "ResultStore.put"),
    ("sweep.store.flush_manifest", "repro.sweep.store", "ResultStore.flush_manifest"),
    ("sweep.store.digest", "repro.sweep.store", "ResultStore.digest"),
    ("fuzz.runner.loop", "repro.fuzz.runner", "fuzz_scenario"),
    ("fuzz.shrink.shrink_case", "repro.fuzz.runner", "shrink_case"),
    ("fuzz.oracle.run", "repro.fuzz.oracle", "BypassOracle.run"),
    ("staticcheck.verify_spec", "repro.fuzz.oracle", "verify_spec"),
)

#: Span names in report order (each reported as ``<name>_s``).
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPAN_TARGETS))

#: Span whose call count is reported as ``scenarios.builder.builds``.
BUILD_SPAN = "scenarios.builder.build_self"


class SpanRecorder:
    """Records nested spans as ``[name, parent index, start, end]`` rows."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            row = [name, parent, self.clock(), 0.0]
            self.spans.append(row)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                row[3] = self.clock()
                self._stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced


def fold_spans(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed ``total`` and ``self`` seconds and call ``count``.

    Self time is a span's duration minus the durations of its direct
    children (children of children are already inside those).
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    folded: Dict[str, Dict[str, float]] = {}
    for index, (name, _parent, start, end) in enumerate(spans):
        row = folded.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0})
        row["total"] += end - start
        row["self"] += (end - start) - child_time[index]
        row["count"] += 1
    return folded


def unattributed(spans: Sequence[Sequence], wall_s: float) -> float:
    """Wall time that no top-level span covers."""
    return wall_s - sum(end - start for _n, parent, start, end in spans if parent < 0)


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner: object = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: SpanRecorder) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every target whose module is already imported.

    Targets in modules the workload never imported are skipped (their
    spans stay at zero).  Returns an ``uninstall`` callable and the list of
    targets that were expected but not found.
    """
    undo: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    for name, module_name, path in SPAN_TARGETS:
        if module_name not in sys.modules:
            continue
        try:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        setattr(owner, attr, recorder.wrap(name, original))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall, missing


# -- cProfile fold ---------------------------------------------------------------------


def module_of(filename: str, package_root: str) -> str:
    """Layer name of one profiled code location.

    ``repro`` source files map to their dotted module path without the
    ``repro.`` prefix (``soc.fabric.bridge``); C functions to ``builtin``;
    every other Python file to ``stdlib`` (the benchmark's own code
    included, which is negligible outside wrappers).
    """
    if filename == "~" or filename.startswith("<"):
        return "builtin"
    normalized = filename.replace("\\", "/")
    root = package_root.rstrip("/") + "/"
    if normalized.startswith(root):
        relative = normalized[len(root):]
        if relative.endswith(".py"):
            relative = relative[:-3]
        parts = relative.split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) or "repro"
    return "stdlib"


def fold_profile(stats: pstats.Stats, package_root: str) -> Dict[str, float]:
    """Fraction of all profiled self time spent in each layer."""
    by_module: Dict[str, float] = {}
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        layer = module_of(filename, package_root)
        by_module[layer] = by_module.get(layer, 0.0) + tottime
    total = sum(by_module.values()) or 1.0
    return {layer: seconds / total for layer, seconds in by_module.items()}


# -- -X importtime fold ----------------------------------------------------------------


def fold_importtime(lines: Iterable[str], subpackages: Sequence[str]) -> Dict[str, float]:
    """Self import seconds per ``repro`` subpackage from ``-X importtime`` output.

    Each line reads ``import time: <self us> | <cumulative us> | <module>``;
    summing *self* times never counts a nested import twice.
    """
    totals = {sub: 0.0 for sub in subpackages}
    for line in lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            self_us = int(fields[0].strip())
        except ValueError:
            continue  # the header line
        parts = fields[2].strip().split(".")
        if len(parts) >= 2 and parts[0] == "repro" and parts[1] in totals:
            totals[parts[1]] += self_us / 1e6
    return totals
