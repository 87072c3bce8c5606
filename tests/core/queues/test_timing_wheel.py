"""Unit tests for the timing wheel (Carousel substrate)."""

import pytest

from repro.core.queues import HierarchicalTimingWheel, TimingWheel


class TestTimingWheel:
    def test_releases_due_packets_in_time_order_per_slot(self):
        wheel = TimingWheel(num_slots=100, granularity=10)
        wheel.insert(35, "a")
        wheel.insert(15, "b")
        wheel.insert(95, "c")
        released = wheel.advance_to(50)
        assert [item for _, item in released] == ["b", "a"]
        assert len(wheel) == 1

    def test_packets_beyond_horizon_clamped_to_last_slot(self):
        wheel = TimingWheel(num_slots=10, granularity=1)
        wheel.insert(1000, "far")
        assert wheel.overflow_insertions == 1
        released = wheel.advance_to(9)
        assert [item for _, item in released] == ["far"]

    def test_stale_packets_released_immediately(self):
        wheel = TimingWheel(num_slots=10, granularity=1, start_time=100)
        wheel.insert(50, "late-arrival")
        assert wheel.stale_insertions == 1
        released = wheel.advance_to(100)
        assert [item for _, item in released] == ["late-arrival"]

    def test_out_of_order_insertions_within_one_slot_released_when_due(self):
        # Regression: advance_to used to stop at the first slot-front entry
        # with timestamp > now, hiding later-inserted same-slot entries that
        # were already due.
        wheel = TimingWheel(num_slots=100, granularity=10)
        wheel.insert(109, "late")
        wheel.insert(101, "early")  # same slot, inserted after "late"
        released = wheel.advance_to(105)
        assert [item for _, item in released] == ["early"]
        assert len(wheel) == 1
        # The not-yet-due entry is still released once its time comes.
        released = wheel.advance_to(110)
        assert [item for _, item in released] == ["late"]
        assert wheel.empty

    def test_not_due_entries_keep_arrival_order_within_slot(self):
        wheel = TimingWheel(num_slots=10, granularity=10)
        wheel.insert(57, "b")
        wheel.insert(51, "a")
        wheel.insert(59, "c")
        assert wheel.advance_to(53) == [(51, "a")]
        assert wheel.advance_to(59) == [(57, "b"), (59, "c")]

    def test_insert_batch_counts_and_releases(self):
        wheel = TimingWheel(num_slots=100, granularity=10)
        assert wheel.insert_batch([(15, "a"), (35, "b")]) == 2
        assert wheel.insertions == 2
        assert [item for _, item in wheel.advance_to(40)] == ["a", "b"]

    def test_slot_advances_counted_even_when_empty(self):
        # This per-slot visiting cost is Carousel's polling overhead.
        wheel = TimingWheel(num_slots=1000, granularity=1)
        wheel.advance_to(500)
        assert wheel.slot_advances >= 500

    def test_next_due_time_scans(self):
        wheel = TimingWheel(num_slots=50, granularity=2)
        assert wheel.next_due_time() is None
        wheel.insert(44, "x")
        wheel.insert(12, "y")
        assert wheel.next_due_time() == 12

    def test_no_backwards_advance(self):
        wheel = TimingWheel(num_slots=10, granularity=1, start_time=50)
        wheel.insert(55, "x")
        assert wheel.advance_to(40) == []
        assert len(wheel) == 1

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            TimingWheel(num_slots=0)
        with pytest.raises(ValueError):
            TimingWheel(num_slots=10, granularity=0)

    def test_does_not_release_future_packets_in_visited_slot(self):
        # A slot visited during advance may contain a packet one wheel-turn
        # ahead; it must stay queued.
        wheel = TimingWheel(num_slots=10, granularity=1)
        wheel.insert(3, "due")
        wheel.advance_to(5)
        wheel.insert(13, "next-turn")  # same slot index as 3
        released = wheel.advance_to(8)
        assert released == []
        released = wheel.advance_to(13)
        assert [item for _, item in released] == ["next-turn"]

    def test_peek_slots(self):
        wheel = TimingWheel(num_slots=10, granularity=1)
        wheel.insert(2, "a")
        wheel.insert(7, "b")
        assert sorted(wheel.peek_slots()) == [2, 7]

    def test_slot_fifos_are_attached_on_first_insert_only(self):
        # Carousel at 1 us slots is a 2,000,000-slot wheel: building it must
        # not build 2,000,000 FIFOs, and walking the untouched slots still
        # counts every one of them.
        wheel = TimingWheel(num_slots=2_000_000, granularity=1_000)
        wheel.insert(5_500, "a")
        wheel.insert(5_900, "b")
        wheel.insert(1_999_000_000, "far")
        assert wheel._slots.count(None) == 2_000_000 - 2
        assert wheel.next_due_time() == 5_500
        assert wheel.advance_to(7_000) == [(5_500, "a"), (5_900, "b")]
        assert wheel.slot_advances == 8
        assert (wheel.insertions, wheel.overflow_insertions, wheel.stale_insertions) == (3, 0, 0)
        assert len(wheel) == 1


class TestHierarchicalTimingWheel:
    def test_insert_beyond_inner_horizon_goes_to_outer_level(self):
        wheel = HierarchicalTimingWheel(slots_per_level=10, granularity=1, levels=2)
        wheel.insert(5, "inner")
        wheel.insert(55, "outer")
        assert len(wheel.levels[0]) == 1
        assert len(wheel.levels[1]) == 1

    def test_release_across_levels(self):
        wheel = HierarchicalTimingWheel(slots_per_level=10, granularity=1, levels=2)
        wheel.insert(5, "inner")
        wheel.insert(55, "outer")
        first = wheel.advance_to(10)
        assert [item for _, item in first] == ["inner"]
        second = wheel.advance_to(60)
        assert [item for _, item in second] == ["outer"]
        assert wheel.empty

    def test_total_horizon_larger_than_single_level(self):
        flat = TimingWheel(num_slots=10, granularity=1)
        hierarchical = HierarchicalTimingWheel(slots_per_level=10, granularity=1, levels=3)
        assert hierarchical.horizon > flat.horizon

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            HierarchicalTimingWheel(slots_per_level=10, levels=0)
