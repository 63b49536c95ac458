"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.kernel import Component, SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "late")
        sim.schedule(10, order.append, "early")
        sim.schedule(20, order.append, "middle")
        sim.run()
        assert order == ["early", "middle", "late"]
        assert sim.now == 30

    def test_same_cycle_events_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(5, order.append, label)
        # schedule() and schedule_at() share one sequence: call order holds.
        for index, label in enumerate("fghij"):
            schedule = sim.schedule if index % 2 else sim.schedule_at
            schedule(5, order.append, label)
        sim.run()
        assert order == list("abcdefghij")

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(7, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(3, outer)
        sim.run()
        assert seen == [("outer", 3), ("inner", 10)]

    def test_event_cancellation(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(5, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_run_on_an_empty_queue_returns_the_clock(self):
        sim = Simulator()
        assert sim.run() == 0 and sim.events_processed == 0
        sim.schedule(10, lambda: None)
        assert sim.run() == 10
        # A drained queue leaves the clock where the last event put it.
        assert sim.run() == 10 and sim.events_processed == 1

    def test_a_later_run_resumes_from_the_clock(self):
        """What ``SoCSystem.issue`` relies on: work scheduled after one drain
        is timed from where that drain stopped."""
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(sim.now))
        sim.run()
        sim.schedule(5, lambda: fired.append(sim.now))
        assert sim.run() == 15
        assert fired == [10, 15] and sim.events_processed == 2

    @pytest.mark.parametrize("kwargs", [{"until": 50}, {"max_events": 1}], ids=["until", "max_events"])
    def test_run_takes_no_horizon_or_budget(self, kwargs):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        with pytest.raises(TypeError):
            sim.run(**kwargs)
        assert fired == [] and sim.pending_events == 1

    def test_cannot_nest_run(self):
        sim = Simulator()

        def recurse():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0, recurse)
        sim.run()


class TestHeapOrdering:
    """The calendar queue packs (time, sequence) into one integer key; these
    pin the ordering and bookkeeping that packing must preserve."""

    def test_far_future_times_order_by_time_then_sequence(self):
        sim = Simulator()
        order = []
        times = [2**50, 3, 2**50, 2**44 + 1, 2**44, 0, 3]
        for index, time in enumerate(times):
            sim.schedule_at(time, order.append, (time, index))
        sim.run()
        assert order == sorted(order)
        assert sim.now == 2**50

    def test_zero_delay_event_from_a_callback_runs_after_queued_same_cycle_events(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0, order.append, "spawned")

        sim.schedule(5, first)
        sim.schedule(5, order.append, "queued")
        sim.run()
        assert order == ["first", "queued", "spawned"]
        assert sim.now == 5

    def test_cancelled_head_before_the_horizon_is_skipped(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, "cancelled").cancel()
        sim.schedule(100, lambda: fired.append(("live", sim.now)))
        assert sim.pending_events == 1
        assert sim.run() == 100
        assert fired == [("live", 100)] and sim.events_processed == 1
        assert sim.pending_events == 0

    def test_cancelled_tail_does_not_advance_the_clock(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(500, lambda: None).cancel()
        assert sim.run() == 10
        assert sim.events_processed == 1
        assert sim.pending_events == 0

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2**46), st.booleans()),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_step_and_run_drain_in_the_same_order(self, draws):
        sim = Simulator()
        order = []
        for index, (time, cancelled) in enumerate(draws):
            event = sim.schedule_at(time, order.append, (time, index))
            if cancelled:
                event.cancel()
        # The drain runs exactly the live events, in (time, sequence) order.
        live = sorted(
            (time, index) for index, (time, cancelled) in enumerate(draws) if not cancelled
        )
        final = live[-1][0] if live else 0
        assert sim.run() == final and sim.now == final
        assert order == live
        assert sim.events_processed == len(live)
        assert sim.pending_events == 0

    def test_a_raising_callback_leaves_the_count_of_callbacks_that_returned(self):
        sim = Simulator()
        returned = []

        def boom():
            raise RuntimeError("boom")

        for time in (1, 2, 3):
            sim.schedule_at(time, returned.append, time)
        sim.schedule_at(4, boom)
        sim.schedule_at(5, returned.append, 5)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert returned == [1, 2, 3]
        assert sim.events_processed == 3
        assert sim.now == 4
        # The kernel is not left running: the rest drains on the next call.
        sim.run()
        assert returned == [1, 2, 3, 5] and sim.events_processed == 4


class TestTimeConversion:
    def test_cycles_to_seconds_at_100mhz(self):
        sim = Simulator(clock_frequency_hz=100e6)
        assert sim.cycles_to_seconds(100_000_000) == pytest.approx(1.0)
        assert sim.cycles_to_us(100) == pytest.approx(1.0)

    def test_invalid_clock(self):
        with pytest.raises(ValueError):
            Simulator(clock_frequency_hz=0)


class TestComponent:
    def test_registration_and_stats(self):
        sim = Simulator()
        component = Component(sim, "thing")
        component.bump("events")
        component.bump("events", 4)
        component.record("mode", "fast")
        assert component.stats == {"events": 5, "mode": "fast"}
        assert component.sim is sim and component.name == "thing"


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_event_order_is_deterministic(self, delays):
        def run_once():
            sim = Simulator()
            order = []
            for index, delay in enumerate(delays):
                sim.schedule(delay, order.append, (delay, index))
            sim.run()
            return order

        first = run_once()
        second = run_once()
        assert first == second
        # Events sorted by (time, insertion order).
        assert first == sorted(first, key=lambda item: (item[0], item[1]))
