"""Event-cancellation and heap-compaction tests for the simulator core.

The shard timers and the work-stealing wakeups re-program (cancel +
re-schedule) events far more often than they let them fire, so the lazy
removal and the corpse-compaction path are load-bearing — previously they
were only exercised indirectly through the runtime.
"""

import pytest

from repro.netsim import Simulator


class TestEventCancellation:
    def test_cancelled_event_never_fires(self):
        simulator = Simulator()
        fired = []
        keep = simulator.schedule(10, lambda: fired.append("keep"))
        kill = simulator.schedule(5, lambda: fired.append("kill"))
        assert simulator.cancel(kill)
        simulator.run()
        assert fired == ["keep"]
        assert keep.fired and not keep.cancelled
        assert kill.cancelled and not kill.fired
        assert not kill.active

    def test_cancel_is_idempotent_and_false_after_fire(self):
        simulator = Simulator()
        handle = simulator.schedule(1, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()  # second cancel is a no-op
        fired = simulator.schedule(2, lambda: None)
        simulator.run()
        assert not simulator.cancel(fired)  # already ran

    def test_pending_events_stays_exact_under_cancels(self):
        simulator = Simulator()
        handles = [simulator.schedule(i + 1, lambda: None) for i in range(10)]
        assert simulator.pending_events == 10
        for handle in handles[::2]:
            simulator.cancel(handle)
        assert simulator.pending_events == 5
        simulator.run()
        assert simulator.pending_events == 0
        assert simulator.processed_events == 5

    def test_interleaved_cancel_and_fire(self):
        # Cancel some events from inside other events, across several
        # partial run() calls, and check exactly the survivors fire.
        simulator = Simulator()
        fired = []
        handles = {}
        for i in range(20):
            handles[i] = simulator.schedule_at(
                (i + 1) * 10, lambda i=i: fired.append(i)
            )
        # Event 3 kills events 4 and 5 when it fires; event 10 kills 19.
        simulator.schedule_at(35, lambda: (handles[4].cancel(), handles[5].cancel()))
        simulator.schedule_at(105, lambda: handles[19].cancel())
        simulator.run(until_ns=60)
        assert fired == [0, 1, 2, 3]
        simulator.run()
        expected = [i for i in range(20) if i not in (4, 5, 19)]
        assert fired == expected


class TestHeapCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        simulator = Simulator()
        handles = [simulator.schedule(i + 1, lambda: None) for i in range(1000)]
        survivors = handles[::10]  # keep 100
        for handle in handles:
            if handle not in survivors:
                simulator.cancel(handle)
        # Compaction kicked in: the heap dropped its corpses rather than
        # carrying 900 cancelled entries to the front one by one.
        assert len(simulator._events) < 300
        assert simulator.pending_events == 100
        processed = simulator.run()
        assert processed == 100

    def test_compaction_preserves_firing_order(self):
        simulator = Simulator()
        fired = []
        handles = []
        for i in range(500):
            handles.append(simulator.schedule_at(i, lambda i=i: fired.append(i)))
        for i, handle in enumerate(handles):
            if i % 5:
                simulator.cancel(handle)
        simulator.run()
        assert fired == list(range(0, 500, 5))

    def test_compaction_under_interleaved_cancel_and_fire(self):
        # Fire a prefix, cancel most of the rest, schedule more, repeat:
        # the accounting must stay exact through compactions.
        simulator = Simulator()
        fired = []
        handles = [
            simulator.schedule_at(i, lambda i=i: fired.append(i)) for i in range(400)
        ]
        simulator.run(max_events=50)  # events 0..49 fire
        for handle in handles[50:390]:
            simulator.cancel(handle)
        assert simulator.pending_events == 10
        late = [
            simulator.schedule_at(1000 + i, lambda i=i: fired.append(1000 + i))
            for i in range(5)
        ]
        simulator.cancel(late[0])
        assert simulator.pending_events == 14
        simulator.run()
        assert fired == list(range(50)) + list(range(390, 400)) + [
            1001, 1002, 1003, 1004
        ]
        assert simulator.pending_events == 0

    def test_cancelling_every_event_leaves_clean_state(self):
        simulator = Simulator()
        handles = [simulator.schedule(i + 1, lambda: None) for i in range(200)]
        for handle in handles:
            assert handle.cancel()
        assert simulator.pending_events == 0
        assert simulator.run() == 0
        # The simulator is still usable afterwards.
        hits = []
        simulator.schedule(1, lambda: hits.append(1))
        simulator.run()
        assert hits == [1]

    def test_double_cancel_does_not_skew_accounting(self):
        simulator = Simulator()
        handle = simulator.schedule(1, lambda: None)
        other = simulator.schedule(2, lambda: None)
        handle.cancel()
        handle.cancel()
        assert simulator.pending_events == 1
        simulator.run()
        assert simulator.pending_events == 0
        assert other.fired


class TestRunLoopUnderCallbacks:
    """``run`` dispatches inline; callbacks that reshape the heap mid-run."""

    def test_callback_cancels_the_next_head(self):
        simulator = Simulator()
        fired = []
        handles = [
            simulator.schedule_at(t, lambda t=t: fired.append(t)) for t in range(10, 60, 10)
        ]

        def cancel_next():
            fired.append("cancel")
            assert handles[1].cancel()  # the head right behind this event
            simulator.schedule_at(simulator.now_ns, lambda: fired.append("same-instant"))

        simulator.schedule_at(15, cancel_next)
        assert simulator.run(until_ns=20) == 3
        assert fired == [10, "cancel", "same-instant"]
        assert simulator.pending_events == 3
        assert simulator.processed_events == 3
        assert handles[1].cancelled and not handles[1].fired
        assert simulator.run() == 3
        assert fired == [10, "cancel", "same-instant", 30, 40, 50]
        assert simulator.pending_events == 0
        assert simulator.processed_events == 6

    def test_callback_triggers_compaction_mid_run(self):
        simulator = Simulator()
        fired = []
        handles = [
            simulator.schedule_at(t, lambda t=t: fired.append(t)) for t in range(1, 201)
        ]
        sizes = []

        def cancel_most():
            for handle in handles[20:180]:
                handle.cancel()
            sizes.append(len(simulator._events))
            # Scheduled after the compaction: must land in the heap run pops.
            simulator.schedule_at(simulator.now_ns + 1, lambda: fired.append("late"))

        simulator.schedule_at(10, cancel_most)
        assert simulator.run(max_events=15) == 15
        assert sizes and sizes[0] < 100  # the corpses were dropped mid-run
        assert simulator.pending_events == 200 + 2 - 160 - 15
        simulator.run()
        assert fired == [*range(1, 12), "late", *range(12, 21), *range(181, 201)]
        assert simulator.processed_events == 200 - 160 + 2
        assert simulator.pending_events == 0


class TestRuntimeTimerPattern:
    def test_reprogramming_pattern_stays_bounded(self):
        # The shard-timer idiom: schedule a wakeup, cancel it, pull it
        # forward — thousands of times.  Lazy removal plus compaction must
        # keep the heap proportional to the *live* event count.
        simulator = Simulator()
        fired = []
        handle = None
        for i in range(5000):
            if handle is not None and handle.active:
                simulator.cancel(handle)
            handle = simulator.schedule_at(10_000 + i, lambda i=i: fired.append(i))
        assert simulator.pending_events == 1
        assert len(simulator._events) <= 5000 // 2 + 1
        simulator.run()
        assert fired == [4999]
