"""Event-bus tests: determinism, JSONL schema, byte-identity, campaign totals.

Covers the instrumentation redesign's contract:

* the event stream is deterministic under identical seeds,
* the JSONL trace round-trips through ``json`` with a stable schema drawn
  from the closed ``EVENT_KINDS`` vocabulary,
* the zero-sink path is byte-identical to no instrumentation at all (reusing
  the differential harness's fingerprint comparison),
* the campaign runner's event totals add up over its attacks.
"""

from __future__ import annotations

import json

import pytest

from repro.api import events
from repro.api import (
    EVENT_KINDS,
    EventBus,
    Experiment,
    InMemorySink,
    JsonlTraceSink,
    StatsSink,
    attach_instrumentation,
)
from repro.attacks.runner import CampaignRunner
from repro.scenarios import get_scenario, instantiate_attacks, platform_factory_for
from repro.scenarios.differential import diff_fingerprints
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus

from tests.conftest import build_figure1


def _stream_fingerprint(sink: InMemorySink):
    """Event stream minus the process-global txn_id counter."""
    out = []
    for event in sink.events:
        data = {k: v for k, v in event.data.items() if k != "txn_id"}
        out.append((event.kind, event.cycle, event.source, tuple(sorted(data.items()))))
    return out


class TestDeterminism:
    def test_identical_runs_identical_event_streams(self):
        streams = []
        for _ in range(2):
            sink = InMemorySink()
            Experiment.from_scenario("minimal_1x1").with_sink(sink).no_attacks().run()
            streams.append(_stream_fingerprint(sink))
        assert streams[0], "workload phase emitted no events"
        assert streams[0] == streams[1]

    def test_streams_cover_core_vocabulary(self):
        sink = InMemorySink()
        Experiment.from_scenario("paper_baseline").with_sink(sink).no_attacks().run()
        kinds = set(sink.counts)
        assert {"txn.issued", "txn.completed", "bus.granted",
                "firewall.decision", "sim.run"} <= kinds
        assert kinds <= EVENT_KINDS


class TestJsonlRoundTrip:
    def test_trace_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        Experiment.from_scenario("minimal_1x1").with_sink(sink).no_attacks().run()

        lines = path.read_text().splitlines()
        assert lines and len(lines) == sink.events_written
        for line in lines:
            event = json.loads(line)
            assert set(event) == {"kind", "cycle", "source", "data"}
            assert event["kind"] in EVENT_KINDS
            assert isinstance(event["cycle"], int)
            assert isinstance(event["source"], str)
            assert isinstance(event["data"], dict)

    def test_path_sink_is_durable_without_close(self, tmp_path):
        """A killed run must leave a trace complete up to its last event —
        path-opened sinks flush per line, so lines land without close()."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        Experiment.from_scenario("minimal_1x1").with_sink(sink).no_attacks().run()
        # Deliberately no sink.close(): simulates a crashed/killed process.
        lines = path.read_text().splitlines()
        assert len(lines) == sink.events_written > 0
        for line in lines:
            json.loads(line)  # no truncated trailing line either
        sink.close()

    def test_reopened_path_starts_a_fresh_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        first = JsonlTraceSink(str(path))
        Experiment.from_scenario("minimal_1x1").with_sink(first).no_attacks().run()
        first.close()
        before = path.read_text().splitlines()

        reopened = JsonlTraceSink(str(path))
        Experiment.from_scenario("minimal_1x1").with_sink(reopened).no_attacks().run()
        reopened.close()
        # Same run, same event count (txn ids come from a process-wide counter).
        assert len(path.read_text().splitlines()) == len(before) == reopened.events_written

    def test_stream_sink_flushes_only_when_asked(self):
        import io

        class CountingFlush(io.StringIO):
            flushes = 0

            def flush(self):
                type(self).flushes += 1
                return super().flush()

        stream = CountingFlush()
        sink = JsonlTraceSink(stream)
        Experiment.from_scenario("minimal_1x1").with_sink(sink).no_attacks().run()
        assert CountingFlush.flushes < sink.events_written  # not once per line
        flushes = CountingFlush.flushes
        sink.close()
        assert CountingFlush.flushes == flushes + 1 and not stream.closed

    def test_trace_to_existing_stream(self):
        import io

        stream = io.StringIO()
        sink = JsonlTraceSink(stream)
        Experiment.from_scenario("minimal_1x1").with_sink(sink).no_attacks().run()
        lines = stream.getvalue().splitlines()
        assert len(lines) == sink.events_written > 0
        # Caller-owned streams stay open after close().
        assert not stream.closed

    def test_trace_matches_in_memory_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = JsonlTraceSink(str(path))
        memory = InMemorySink()
        (
            Experiment.from_scenario("minimal_1x1")
            .with_sink(trace)
            .with_sink(memory)
            .no_attacks()
            .run()
        )
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert parsed == [event.to_dict() for event in memory.events]

    def test_experiment_rerun_keeps_trace_sink_usable(self, tmp_path):
        # run() must not close caller-owned sinks: the fluent builder can be
        # run again (and the trace file keeps accumulating).
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        experiment = (
            Experiment.from_scenario("minimal_1x1").with_sink(sink).no_attacks()
        )
        first = experiment.run()
        written_after_first = sink.events_written
        second = experiment.run()
        assert second.workload == first.workload
        assert sink.events_written == 2 * written_after_first
        sink.close()
        assert len(path.read_text().splitlines()) == sink.events_written


def _scrub(result_dict):
    """Strip the fields that legitimately differ between instrumented and
    uninstrumented runs (wall-clock timings, sink metadata, event counters);
    everything left must be bit-identical."""
    scrubbed = json.loads(json.dumps(result_dict))  # deep copy
    scrubbed.pop("meta", None)
    scrubbed.pop("events", None)
    campaign = scrubbed.get("campaign")
    if campaign:
        campaign.pop("metrics", None)
        campaign.pop("event_totals", None)
    return scrubbed


class TestZeroSinkByteIdentity:
    @pytest.mark.parametrize("scenario", ["minimal_1x1", "two_segment_dma_isolation"])
    def test_zero_sink_identical_to_uninstrumented(self, scenario):
        plain = Experiment.from_scenario(scenario).run()
        zero_sink = Experiment.from_scenario(scenario).instrumented().run()
        diffs = diff_fingerprints(_scrub(plain.to_dict()), _scrub(zero_sink.to_dict()))
        assert not diffs, "zero-sink run diverged:\n  " + "\n  ".join(diffs)

    def test_multiple_sinks_do_not_double_count_result_events(self):
        single = (
            Experiment.from_scenario("minimal_1x1")
            .with_sink(StatsSink())
            .no_attacks()
            .run()
        )
        double = (
            Experiment.from_scenario("minimal_1x1")
            .with_sink(StatsSink())
            .with_sink(InMemorySink())
            .no_attacks()
            .run()
        )
        # One run = one event stream, regardless of how many sinks watched it.
        assert double.events == single.events

    def test_counting_sink_identical_to_uninstrumented(self):
        plain = Experiment.from_scenario("minimal_1x1").run()
        counted = Experiment.from_scenario("minimal_1x1").with_sink(StatsSink()).run()
        diffs = diff_fingerprints(_scrub(plain.to_dict()), _scrub(counted.to_dict()))
        assert not diffs, "counting-sink run diverged:\n  " + "\n  ".join(diffs)
        assert counted.events and counted.events["txn.issued"] > 0

    def test_kernel_event_count_unchanged_by_instrumentation(self):
        plain = Experiment.from_scenario("minimal_1x1").no_attacks().run()
        traced = (
            Experiment.from_scenario("minimal_1x1")
            .with_sink(InMemorySink())
            .no_attacks()
            .run()
        )
        # Emission is synchronous: it must never schedule kernel events.
        assert plain.workload["events_processed"] == traced.workload["events_processed"]


class TestCampaignEventTotals:
    def test_totals_add_up_over_the_attacks(self):
        """Every attack runs on fresh platforms, so a battery's event totals
        are the sum of each attack's totals when it runs alone."""
        spec = get_scenario("paper_baseline")
        battery = CampaignRunner.from_spec(spec, collect_events=True).run()
        assert battery.event_totals, "collect_events produced no counters"
        summed = {}
        for attack in instantiate_attacks(spec):
            alone = CampaignRunner(
                [attack], platform_factory_for(spec), collect_events=True
            ).run()
            for kind, count in alone.event_totals.items():
                summed[kind] = summed.get(kind, 0) + count
        assert battery.event_totals == summed

    def test_event_totals_empty_without_collect(self):
        spec = get_scenario("minimal_1x1")
        report = CampaignRunner.from_spec(spec).run()
        assert report.event_totals == {}


class TestDirectWiring:
    """The bus works on hand-assembled platforms, not only through Experiment."""

    def test_alert_and_containment_events(self):
        system, security = build_figure1(window=8 * 1024)
        sink = InMemorySink()
        attach_instrumentation(system, security, EventBus([sink]))

        # cpu2 may not touch the IP: its LF has no rule for the IP registers.
        probe = BusTransaction(
            master="cpu2", operation=BusOperation.READ,
            address=system.config.ip_regs_base, width=4,
        )
        system.master_ports["cpu2"].issue(probe, lambda t: None)
        system.run()

        assert probe.status is TransactionStatus.BLOCKED_AT_MASTER
        denied = [e for e in sink.of_kind("firewall.decision") if not e.data["allowed"]]
        assert len(denied) == 1 and denied[0].source == "lf_cpu2"
        alerts = sink.of_kind("security.alert")
        assert len(alerts) == 1 and alerts[0].data["violation"] == "policy_miss"
        blocked = sink.of_kind("txn.blocked")
        assert len(blocked) == 1 and blocked[0].data["master"] == "cpu2"
        # The denied transaction never reached the bus: no grant observed.
        assert sink.of_kind("bus.granted") == []

    @pytest.mark.parametrize("run", ["bram_write", "paper_baseline"])
    def test_count_fast_path_matches_full_sink(self, run, monkeypatch):
        """An always-on StatsSink stays cheap because no publisher builds an
        :class:`InstrumentationEvent` for it, only a per-kind count."""
        built = []

        class CountedEvent(events.InstrumentationEvent):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["kind"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(events, "InstrumentationEvent", CountedEvent)

        def run_with(sink):
            if run == "paper_baseline":
                Experiment.from_scenario("paper_baseline").with_sink(sink).run()
                return sink
            system, security = build_figure1(window=8 * 1024)
            attach_instrumentation(system, security, EventBus([sink]))
            txn = BusTransaction(
                master="cpu0", operation=BusOperation.WRITE,
                address=system.config.bram_base, width=4, data=b"\x00" * 4,
            )
            system.master_ports["cpu0"].issue(txn, lambda t: None)
            system.run()
            return sink

        stats = run_with(StatsSink())
        assert "firewall.decision" in stats.counts
        assert built == []
        # The payload-free counting lane and the full-event lane must agree
        # on what was emitted, and the full lane builds every event.
        assert run_with(InMemorySink()).counts == stats.counts
        assert len(built) == stats.total()
