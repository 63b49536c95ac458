"""``python -m repro`` / ``repro``: the experiment pipeline from a shell.

Subcommands:

* ``repro list [--json]`` — registered scenarios with their topology,
  placement/enforcement and description (the same metadata that generates
  ``docs/scenario-catalog.md``),
* ``repro run SCENARIO [--json] [--trace FILE] [--unprotected] [--reference]
  [--no-attacks] [--seed N]`` — one full experiment; human
  report by default, the schema-stable :class:`ExperimentResult` JSON with
  ``--json``, a JSONL instrumentation trace with ``--trace``,
* ``repro campaign SCENARIO [--json] [--seed N]`` — the scenario's attack
  campaign only, printed as a detection matrix,
* ``repro sweep run [--scenario PATTERN ...] [--placement P ...]
  [--seed N ...] [--store DIR] ...`` — a grid sweep into the persistent
  result store (cached points are skipped, interrupted sweeps resume),
* ``repro sweep gc --keep-latest N [--apply] [--store DIR]`` — drop stored
  results from old code fingerprints (dry run unless ``--apply``),
* ``repro paper [--fast] [--store DIR] [--out DIR]`` — regenerate every
  paper table/figure from the store (see ``docs/reproducing-the-paper.md``),
* ``repro verify [SCENARIO ...|--all] [--json] [--confirm]`` —
  static policy/fabric verification: address-map defects, unguarded paths,
  dead rules and bridge hazards, each with a concrete witness; ``--confirm``
  replays every witness's transaction under the simulator (exit 1 on
  any ERROR finding or failed confirmation),
* ``repro fuzz SCENARIO [--seed N] [--budget N] [--steps N]
  [--corpus FILE | --replay FILE] [--json]`` — the seeded property-based
  bypass fuzzer: search for transaction sequences that silently reach
  protected state, minimize each find and replay it after the workload
  (exit 1 on any finding; ``--corpus`` merges the finds into a corpus file,
  ``--replay`` re-checks one),
* ``repro catalog [--write PATH] [--check]`` — render the scenario catalog
  markdown page from the registry.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro.api.events import JsonlTraceSink, StatsSink
from repro.api.experiment import Experiment
from repro.analysis.report import render_experiment
from repro.analysis.tables import format_table
from repro.scenarios import list_scenarios
from repro.scenarios.catalog import render_catalog, scenario_summaries, summary_line

__all__ = ["main", "build_parser", "DEFAULT_STORE_DIR"]


#: Default location of the persistent sweep result store.
DEFAULT_STORE_DIR = ".repro-store"

#: Default output directory of ``repro paper``.
DEFAULT_PAPER_OUT = "paper-artifacts"

#: Default location of the generated scenario catalog page.
DEFAULT_CATALOG_PATH = "docs/scenario-catalog.md"


def _positive_int(text: str) -> int:
    """argparse type of a count: anything but an integer >= 1 is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed-firewall MPSoC reproduction: run experiments from the shell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered scenarios")
    list_cmd.add_argument("--json", action="store_true", help="machine-readable output")

    run_cmd = sub.add_parser("run", help="run one scenario end to end")
    run_cmd.add_argument("scenario", help="registered scenario name")
    run_cmd.add_argument("--json", action="store_true", help="emit the ExperimentResult as JSON")
    run_cmd.add_argument("--trace", metavar="FILE", default=None,
                         help="write a JSONL instrumentation trace to FILE")
    run_cmd.add_argument("--unprotected", action="store_true",
                         help="drive the workload on the unprotected build")
    run_cmd.add_argument("--reference", action="store_true",
                         help="build with the decision, region and keystream memos "
                              "off (differential mode)")
    run_cmd.add_argument("--no-attacks", action="store_true",
                         help="skip the scenario's attack campaign")
    run_cmd.add_argument("--seed", type=int, default=0, help="campaign base seed")

    campaign_cmd = sub.add_parser("campaign", help="run only the scenario's attack campaign")
    campaign_cmd.add_argument("scenario", help="registered scenario name")
    campaign_cmd.add_argument("--json", action="store_true", help="machine-readable output")
    campaign_cmd.add_argument("--seed", type=int, default=0, help="campaign base seed")

    sweep_cmd = sub.add_parser("sweep", help="grid sweeps with a persistent result store")
    sweep_sub = sweep_cmd.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser("run", help="run a sweep grid (cached points are reused)")
    sweep_run.add_argument("--scenario", action="append", default=None, metavar="PATTERN",
                           help="scenario name or fnmatch pattern (repeatable; default: all)")
    sweep_run.add_argument("--placement", action="append", default=None, metavar="P",
                           choices=["default", "leaf", "bridge", "both"],
                           help="placement axis value (repeatable; 'default' keeps the "
                                "scenario's own placement)")
    sweep_run.add_argument("--seed", action="append", type=int, default=None, metavar="N",
                           help="campaign seed axis value (repeatable; default: 0)")
    sweep_run.add_argument("--unprotected", action="store_true",
                           help="add the unprotected build to the protection axis")
    sweep_run.add_argument("--no-attacks", action="store_true",
                           help="add the attack-free mode to the attack axis")
    sweep_run.add_argument("--exclude", action="append", default=None, metavar="PATTERN",
                           help="exclude scenarios/point ids matching this pattern")
    sweep_run.add_argument("--sweep-workers", type=_positive_int, default=1, metavar="N",
                           help="processes running the sweep's points (default: 1)")
    sweep_run.add_argument("--store", default=DEFAULT_STORE_DIR, metavar="DIR",
                           help=f"result store directory (default: {DEFAULT_STORE_DIR})")
    sweep_run.add_argument("--json", action="store_true", help="machine-readable report")

    sweep_gc = sweep_sub.add_parser("gc", help="garbage-collect old code-fingerprint results")
    sweep_gc.add_argument("--keep-latest", type=_positive_int, required=True, metavar="N",
                          help="number of most recent code fingerprints to keep")
    sweep_gc.add_argument("--apply", action="store_true",
                          help="actually delete (default is a dry run)")
    sweep_gc.add_argument("--store", default=DEFAULT_STORE_DIR, metavar="DIR",
                          help=f"result store directory (default: {DEFAULT_STORE_DIR})")
    sweep_gc.add_argument("--json", action="store_true", help="machine-readable report")

    paper_cmd = sub.add_parser(
        "paper", help="regenerate every paper table/figure from the result store"
    )
    paper_cmd.add_argument("--fast", action="store_true",
                           help="three-scenario subset (the CI smoke bundle)")
    paper_cmd.add_argument("--store", default=DEFAULT_STORE_DIR, metavar="DIR",
                           help=f"result store directory (default: {DEFAULT_STORE_DIR})")
    paper_cmd.add_argument("--out", default=DEFAULT_PAPER_OUT, metavar="DIR",
                           help=f"artifact output directory (default: {DEFAULT_PAPER_OUT})")
    paper_cmd.add_argument("--sweep-workers", type=_positive_int, default=1, metavar="N",
                           help="processes running the sweep's points (default: 1)")
    paper_cmd.add_argument("--json", action="store_true", help="machine-readable report")

    verify_cmd = sub.add_parser(
        "verify", help="statically verify scenario policy/fabric coverage"
    )
    verify_cmd.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                            help="registered scenario names (default: --all)")
    verify_cmd.add_argument("--all", action="store_true", dest="all_scenarios",
                            help="verify every registered scenario")
    verify_cmd.add_argument("--json", action="store_true", help="machine-readable output")
    verify_cmd.add_argument("--confirm", action="store_true",
                            help="replay every witness's transaction under "
                                 "the simulator (differential honesty check)")

    fuzz_cmd = sub.add_parser(
        "fuzz", help="seeded property-based search for silent firewall bypasses"
    )
    fuzz_cmd.add_argument("scenario",
                          help="registered scenario name (or 'planted_backdoor', "
                               "the built-in acceptance fixture)")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="generator seed; the whole run is a pure function "
                               "of (scenario, seed, budget, steps)")
    fuzz_cmd.add_argument("--budget", type=_positive_int, default=200, metavar="N",
                          help="number of generated cases to try (default: 200)")
    fuzz_cmd.add_argument("--steps", type=_positive_int, default=12, metavar="N",
                          help="steps per generated case (default: 12)")
    corpus_io = fuzz_cmd.add_mutually_exclusive_group()
    corpus_io.add_argument("--corpus", metavar="FILE", default=None,
                           help="merge the minimized finds into this corpus file "
                                "(the format --replay reads)")
    corpus_io.add_argument("--replay", metavar="FILE", default=None,
                           help="skip the search; replay the corpus file's cases "
                                "and re-check each verdict")
    fuzz_cmd.add_argument("--json", action="store_true", help="machine-readable report")

    catalog_cmd = sub.add_parser(
        "catalog", help="render docs/scenario-catalog.md from the scenario registry"
    )
    catalog_cmd.add_argument("--write", metavar="PATH", default=None,
                             help=f"write the page to PATH (e.g. {DEFAULT_CATALOG_PATH})")
    catalog_cmd.add_argument("--check", metavar="PATH", nargs="?", default=False,
                             const=DEFAULT_CATALOG_PATH,
                             help="fail if the page at PATH is out of date "
                                  f"(default: {DEFAULT_CATALOG_PATH})")

    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    summaries = scenario_summaries()
    if args.json:
        print(json.dumps(summaries, indent=2))
        return 0
    for summary in summaries:
        print(summary_line(summary))
    return 0


def _path_error(command: str, path: str, exc: object) -> int:
    """Say in one line on stderr why ``path`` is unusable; returns exit code 1."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    print(f"repro {command}: {path}: {reason}", file=sys.stderr)
    return 1


def _usable_dirs(command: str, *paths: str) -> bool:
    """Create each directory up front, before any sweep point runs; if one
    cannot be (a regular file is in the way), say why in one line on stderr."""
    for path in paths:
        try:
            pathlib.Path(path).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _path_error(command, path, exc)
            return False
    return True


def _open_store(command: str, path: str):
    """The result store at ``path``, or None after a one-line refusal on stderr."""
    from repro.sweep.store import ResultStore

    try:
        return ResultStore(path)
    except ValueError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return None


def _known_scenario(command: str, name: str) -> bool:
    """Whether ``name`` is registered; if not, say so in one line on stderr."""
    if name in list_scenarios():
        return True
    print(f"repro {command}: no scenario named {name!r}", file=sys.stderr)
    return False


def _cmd_run(args: argparse.Namespace) -> int:
    if not _known_scenario("run", args.scenario):
        return 1
    experiment = (
        Experiment.from_scenario(args.scenario)
        .protected(not args.unprotected)
        .reference(args.reference)
        .with_seed(args.seed)
    )
    if args.no_attacks:
        experiment.no_attacks()
    trace_sink = None
    if args.trace:
        try:
            trace_sink = JsonlTraceSink(args.trace)
        except OSError as exc:
            return _path_error("run", args.trace, exc)
        experiment.with_sink(trace_sink)
        experiment.with_sink(StatsSink())

    result = experiment.run()
    if trace_sink is not None:
        trace_sink.close()   # the CLI opened the file, so the CLI closes it

    if args.json:
        print(result.to_json())
    else:
        print(render_experiment(result.to_dict()))
        if trace_sink is not None:
            print(f"\ntrace: {trace_sink.events_written} events -> {args.trace}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if not _known_scenario("campaign", args.scenario):
        return 1
    result = (
        Experiment.from_scenario(args.scenario)
        .with_seed(args.seed)
        .with_workload(None)
        .run()
    )
    campaign = result.campaign
    if campaign is None:
        print(f"scenario {args.scenario!r} has no attack mix", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(campaign, indent=2, sort_keys=True))
        return 0
    rows = [
        [row["attack"], row["unprotected"], row["protected"], row["detected"],
         row["contained_at_if"], row["detection_cycle"]]
        for row in campaign["rows"]
    ]
    print(format_table(
        ["attack", "unprotected", "protected", "detected", "contained", "detection cycle"],
        rows,
        title=f"Attack campaign -- {args.scenario}",
    ))
    summary = campaign["summary"]
    print(f"\nattacks={summary['attacks']} prevented={summary['prevented']} "
          f"detected={summary['detected']}")
    return 0


def _match_scenarios(patterns: Optional[List[str]]) -> tuple:
    """Expand ``--scenario`` patterns against the registry (order-preserving)."""
    import fnmatch

    if not patterns:
        return ()
    names = list_scenarios()
    selected: List[str] = []
    for pattern in patterns:
        matched = [name for name in names if fnmatch.fnmatch(name, pattern)]
        if not matched:
            raise SystemExit(f"repro sweep: no scenario matches {pattern!r}")
        for name in matched:
            if name not in selected:
                selected.append(name)
    return tuple(selected)


def _sweep_spec_from_args(args: argparse.Namespace):
    """Build the ``sweep run`` grid from its command-line axes."""
    from repro.sweep import SweepSpec

    placements = tuple(
        None if p == "default" else p for p in (args.placement or ["default"])
    )
    return SweepSpec(
        scenarios=_match_scenarios(args.scenario),
        placements=placements,
        seeds=tuple(args.seed or [0]),
        protected=(True, False) if args.unprotected else (True,),
        attack_modes=("scenario", "none") if args.no_attacks else ("scenario",),
        exclude=tuple(args.exclude or ()),
    )


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.sweep import SweepRunner

    spec = _sweep_spec_from_args(args)
    if not _usable_dirs("sweep run", args.store):
        return 1
    store = _open_store("sweep run", args.store)
    if store is None:
        return 1
    report = SweepRunner(spec, store, sweep_workers=args.sweep_workers).run()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"sweep {report.sweep_hash} over store {args.store} "
          f"(code fingerprint {report.fingerprint})")
    print(f"  computed : {len(report.computed)}")
    print(f"  cached   : {len(report.cached)}")
    print(f"  skipped  : {len(report.skipped)}")
    for item in report.skipped:
        print(f"    {item['point_id']}: {item['reason']}")
    print(f"  store    : {len(store)} results, digest {report.store_digest[:16]}")
    return 0


def _cmd_sweep_gc(args: argparse.Namespace) -> int:
    from repro.sweep import ResultStore

    # Refuse to "collect" a store that does not exist: opening would create
    # an empty one and report success against nothing (mistyped --store).
    if not (pathlib.Path(args.store) / ResultStore.RESULTS_NAME).exists():
        print(f"repro sweep gc: no result store at {args.store!r}", file=sys.stderr)
        return 1
    store = _open_store("sweep gc", args.store)
    if store is None:
        return 1
    report = store.gc(keep_latest=args.keep_latest, apply=args.apply)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    mode = "applied" if report.applied else "dry run (pass --apply to delete)"
    print(f"sweep gc over {args.store}: keep latest {report.keep_latest} fingerprints -- {mode}")
    print(f"  kept fingerprints    : {', '.join(report.kept_fingerprints) or '(none)'}")
    print(f"  dropped fingerprints : {', '.join(report.dropped_fingerprints) or '(none)'}")
    print(f"  dropped results      : {len(report.dropped_points)}")
    for point in report.dropped_points:
        print(f"    {point}")
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    from repro.sweep import regenerate_paper

    if not _usable_dirs("paper", args.out, args.store):
        return 1
    if _open_store("paper", args.store) is None:
        return 1
    report = regenerate_paper(
        args.store, args.out, fast=args.fast, sweep_workers=args.sweep_workers
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    sweep = report.sweep
    print(f"paper artifacts -> {report.out_dir} "
          f"({'fast subset' if report.fast else 'full registry'})")
    print(f"  sweep    : {len(sweep.computed)} computed, {len(sweep.cached)} cached "
          f"(store digest {sweep.store_digest[:16]})")
    for name in sorted(report.artifacts):
        print(f"  artifact : {report.artifacts[name]}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_verification
    from repro.staticcheck import confirm_report, verify_scenario

    names = list(args.scenarios)
    if args.all_scenarios or not names:
        names = list_scenarios()
    elif not all(_known_scenario("verify", name) for name in names):
        return 1

    reports = [verify_scenario(name) for name in names]
    confirmations = {}
    if args.confirm:
        confirmations = {
            report.scenario: confirm_report(report) for report in reports
        }

    errors = sum(len(report.errors) for report in reports)
    failed_confirms = sum(
        1
        for results in confirmations.values()
        for result in results
        if not result.confirmed
    )
    payload = {
        "schema": 1,
        "errors": errors,
        "reports": [report.to_dict() for report in reports],
    }
    if args.confirm:
        payload["confirmations"] = {
            scenario: [result.to_dict() for result in results]
            for scenario, results in confirmations.items()
        }
        payload["failed_confirmations"] = failed_confirms
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_verification(payload))
    return 1 if (errors or failed_confirms) else 0


def _fuzz_spec(name: str):
    """Resolve a fuzz target: the registry, or the planted acceptance fixture."""
    from repro.fuzz import planted_backdoor_spec
    from repro.scenarios import get_scenario

    if name == "planted_backdoor":
        return planted_backdoor_spec()
    if name not in list_scenarios():
        raise SystemExit(f"repro fuzz: no scenario named {name!r}")
    return get_scenario(name)


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """Re-check the scenario's cases in a corpus file: every one must still
    reproduce its recorded violation identity and its recorded per-step
    outcomes."""
    from repro.fuzz import BypassOracle, FuzzCase, load_cases, replay_case

    spec = _fuzz_spec(args.scenario)
    try:
        entries = load_cases(args.replay)
    except (OSError, ValueError) as exc:
        return _path_error("fuzz", args.replay, exc)
    cases = [(FuzzCase.from_dict(entry["case"]), entry) for entry in entries]
    cases = [(case, entry) for case, entry in cases if case.scenario == args.scenario]
    if not cases:
        return _path_error("fuzz", args.replay, f"no corpus entry for scenario {args.scenario!r}")
    oracle = BypassOracle(spec)
    results = []
    failures = 0
    for case, entry in cases:
        want = entry["violation"]
        identity = (want["kind"], want["master"], want["target"], want["op"])
        reproduced = any(v.identity == identity for v in oracle.run(case).violations)
        replay_matches = replay_case(oracle.builder, case) == entry["replay"]
        failures += 0 if (reproduced and replay_matches) else 1
        results.append({
            "scenario": case.scenario,
            "digest": case.digest(),
            "steps": len(case),
            "reproduced": reproduced,
            "replay_matches": replay_matches,
        })
    if args.json:
        print(json.dumps(
            {"schema": 1, "replayed": len(results), "failures": failures,
             "cases": results},
            indent=2, sort_keys=True,
        ))
        return 1 if failures else 0
    for row in results:
        verdict = "ok" if (row["reproduced"] and row["replay_matches"]) else "FAIL"
        print(f"  {row['scenario']}/{row['digest']} ({row['steps']} steps): {verdict}")
    print(f"replayed {len(results)} corpus case(s), {failures} failure(s)")
    return 1 if failures else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import export_cases, fuzz_scenario, load_cases

    if args.replay:
        return _cmd_fuzz_replay(args)

    spec = _fuzz_spec(args.scenario)
    if args.corpus and pathlib.Path(args.corpus).exists():
        # Refuse a file the merge would refuse before fuzzing a single case.
        try:
            load_cases(args.corpus)
        except (OSError, ValueError) as exc:
            return _path_error("fuzz", args.corpus, exc)
    report = fuzz_scenario(
        spec,
        seed=args.seed,
        budget=args.budget,
        n_steps=args.steps,
    )
    if args.corpus:
        try:
            report.corpus_keys = export_cases(args.corpus, report.findings)
        except (OSError, ValueError) as exc:
            return _path_error("fuzz", args.corpus, exc)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.clean else 1
    print(f"fuzz {report.scenario}: seed={report.seed} budget={report.budget} "
          f"steps/case={report.n_steps}")
    print(f"  cases    : {report.cases_run} ({report.steps_run} steps, "
          f"{report.blocked_steps} blocked)")
    print(f"  coverage : {report.coverage_signatures} distinct protocol signatures")
    if report.clean:
        print("  verdict  : clean -- no silent reach of protected state")
        return 0
    for finding in report.findings:
        violation = finding["violation"]
        case = finding["case"]
        print(f"  FINDING  : {violation['kind']} {violation['master']} -> "
              f"{violation['target']} ({violation['op']}) in "
              f"{len(case['steps'])} step(s)")
        for index, step in enumerate(case["steps"]):
            print(f"      step {index}: {step['master']} {step['op']} "
                  f"0x{step['address']:08x}")
    if report.corpus_keys:
        print(f"  corpus   : {len(report.corpus_keys)} case(s) -> {args.corpus}")
    print(f"  verdict  : {len(report.findings)} silent bypass(es) found")
    return 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    rendered = render_catalog()
    if args.check is not False:
        path = pathlib.Path(args.check)
        try:
            current = path.read_text(encoding="utf-8")
        except OSError as exc:
            return _path_error("catalog", args.check, exc)
        if current != rendered:
            print(
                f"repro catalog: {path} is out of date; regenerate with "
                f"`python -m repro catalog --write {path}`",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is up to date")
        return 0
    if args.write:
        path = pathlib.Path(args.write)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(rendered, encoding="utf-8")
        except OSError as exc:
            return _path_error("catalog", args.write, exc)
        print(f"wrote {path}")
        return 0
    print(rendered, end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "sweep":
        if args.sweep_command == "run":
            return _cmd_sweep_run(args)
        return _cmd_sweep_gc(args)
    if args.command == "paper":
        return _cmd_paper(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    return _cmd_catalog(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
