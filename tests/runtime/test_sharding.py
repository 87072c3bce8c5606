"""Unit tests for the sharding layer: FlowSharder, ShardRebalancer, Mailbox."""

import pytest

from repro.runtime import (
    FlowSharder,
    Mailbox,
    ShardRebalancer,
    rss_hash,
)


class TestRssHash:
    def test_deterministic(self):
        assert rss_hash(42) == rss_hash(42)
        assert rss_hash(42, seed=1) == rss_hash(42, seed=1)

    def test_seed_changes_placement(self):
        values_a = [rss_hash(flow, seed=1) % 8 for flow in range(64)]
        values_b = [rss_hash(flow, seed=2) % 8 for flow in range(64)]
        assert values_a != values_b

    def test_avalanches_dense_ids(self):
        # Sequential flow ids must spread over shards, not stripe trivially.
        shards = [rss_hash(flow) % 4 for flow in range(1000)]
        counts = [shards.count(shard) for shard in range(4)]
        assert min(counts) > 150  # each shard gets a meaningful share


class TestFlowSharder:
    def test_hash_policy_is_stable(self):
        sharder = FlowSharder(4)
        first = [sharder.shard_for(flow) for flow in range(100)]
        second = [sharder.shard_for(flow) for flow in range(100)]
        assert first == second
        assert all(0 <= shard < 4 for shard in first)

    def test_pin_overrides_policy_and_unpin_restores(self):
        sharder = FlowSharder(4)
        natural = sharder.shard_for(7)
        target = (natural + 1) % 4
        sharder.pin(7, target)
        assert sharder.shard_for(7) == target
        assert sharder.pinned_shard(7) == target
        sharder.unpin(7)
        assert sharder.shard_for(7) == natural

    def test_only_a_pin_moves_the_epoch(self):
        sharder = FlowSharder(2)
        sharder.forget(3)  # no pin: the hash answer stands
        sharder.unpin(3)
        assert sharder.epoch == 0
        sharder.pin(3, 1)
        sharder.pin(3, 1)  # the same pin again changes no answer
        assert sharder.epoch == 1
        sharder.forget(3)
        assert sharder.epoch == 2 and sharder.pinned_shard(3) is None
        sharder.forget(3)
        assert sharder.epoch == 2

    def test_load_window(self):
        sharder = FlowSharder(2)
        sharder.record(1, 0, packets=3)
        sharder.record(2, 1, packets=1)
        assert sharder.shard_loads() == [3, 1]
        assert sharder.flow_loads() == {1: 3, 2: 1}
        assert sharder.imbalance() == pytest.approx(1.5)
        sharder.reset_window()
        assert sharder.shard_loads() == [0, 0]
        assert sharder.imbalance() == 1.0

    def test_a_window_below_the_probe_count_still_evicts_its_coldest(self):
        sharder = FlowSharder(2, window_limit=2)
        sharder.record(1, 0, packets=10)
        sharder.record(2, 1)
        sharder.record(3, 0)  # the arm passes both entries, then stops
        assert sharder.flow_loads() == {1: 10, 3: 1}
        assert sharder.flow_residency() == {1: 0, 3: 0}
        assert sharder.stats.window_evictions == 1
        assert sharder.shard_loads() == [11, 1]  # the per-shard total keeps it

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSharder(0)
        with pytest.raises(ValueError):
            FlowSharder(2).pin(1, 5)


class TestShardRebalancer:
    def _loaded_sharder(self):
        """Two shards, everything pinned so placement is explicit."""
        sharder = FlowSharder(2)
        for flow, shard in ((1, 0), (2, 0), (3, 1)):
            sharder.pin(flow, shard)
        return sharder

    def test_migrates_hot_flow_to_cold_shard(self):
        sharder = self._loaded_sharder()
        sharder.record(1, 0, packets=60)
        sharder.record(2, 0, packets=40)
        sharder.record(3, 1, packets=10)
        plan = ShardRebalancer(sharder, imbalance_threshold=1.1).plan()
        assert plan, "expected at least one migration"
        moved = plan[0]
        assert moved.src_shard == 0 and moved.dst_shard == 1
        # flow 1 (60 packets) would overshoot (10+60 > 100-60); flow 2 moves.
        assert moved.flow_id == 2

    def test_ties_go_to_the_lower_flow_id_in_any_record_order(self):
        plans = []
        for order in ((5, 9), (9, 5)):
            sharder = FlowSharder(2)
            for flow in order:
                sharder.record(flow, 0, packets=10)  # both exactly gap / 2
            plans.append(ShardRebalancer(sharder, imbalance_threshold=1.0).plan())
        assert plans[0] == plans[1]
        assert [(move.flow_id, move.dst_shard) for move in plans[0]] == [(5, 1)]

    def test_no_plan_when_balanced(self):
        sharder = self._loaded_sharder()
        sharder.record(1, 0, packets=10)
        sharder.record(3, 1, packets=10)
        assert ShardRebalancer(sharder).plan() == []

    def test_skips_unsplittable_elephant(self):
        sharder = FlowSharder(2)
        sharder.pin(1, 0)
        sharder.record(1, 0, packets=100)
        # One flow is the entire imbalance; migrating it only moves the spot.
        assert ShardRebalancer(sharder, imbalance_threshold=1.1).plan() == []

    def test_respects_migration_budget(self):
        sharder = FlowSharder(2)
        for flow in range(10):
            sharder.pin(flow, 0)
            sharder.record(flow, 0, packets=10)
        plan = ShardRebalancer(
            sharder, imbalance_threshold=1.0, max_migrations_per_round=2
        ).plan()
        assert len(plan) <= 2

    def test_single_shard_never_plans(self):
        sharder = FlowSharder(1)
        sharder.record(1, 0, packets=100)
        assert ShardRebalancer(sharder).plan() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRebalancer(FlowSharder(2), imbalance_threshold=0.5)
        with pytest.raises(ValueError):
            ShardRebalancer(FlowSharder(2), max_migrations_per_round=0)


class TestMailbox:
    def test_fifo_order(self):
        mailbox = Mailbox()
        for item in range(5):
            assert mailbox.push(item)
        assert mailbox.drain() == [0, 1, 2, 3, 4]
        assert mailbox.empty

    def test_drain_limit(self):
        mailbox = Mailbox()
        mailbox.push_batch(range(10))
        assert mailbox.drain(limit=3) == [0, 1, 2]
        assert len(mailbox) == 7
        assert mailbox.drain(limit=0) == []

    def test_capacity_tail_drop(self):
        mailbox = Mailbox(capacity=3)
        accepted = mailbox.push_batch(range(5))
        assert accepted == 3
        assert not mailbox.push(99)
        assert mailbox.stats.dropped == 3
        assert mailbox.drain() == [0, 1, 2]

    def test_stats(self):
        mailbox = Mailbox()
        mailbox.push_batch(range(4))
        mailbox.drain(limit=2)
        mailbox.drain()
        stats = mailbox.stats
        assert stats.pushed == 4
        assert stats.drained == 4
        assert stats.drain_calls == 2
        assert stats.peak_occupancy == 4
        assert stats.as_dict()["pushed"] == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Mailbox(capacity=0)
        with pytest.raises(ValueError):
            Mailbox().drain(limit=-1)

    def test_capacity_one_alternates_push_and_drain(self):
        # The smallest legal ring: one slot, every second push must drop
        # until the consumer makes room again.
        mailbox = Mailbox(capacity=1)
        assert mailbox.push("a")
        assert not mailbox.push("b")
        assert mailbox.stats.dropped == 1
        assert mailbox.drain() == ["a"]
        assert mailbox.push("c")
        assert mailbox.drain(limit=1) == ["c"]
        assert mailbox.empty
        assert mailbox.stats.pushed == 2
        assert mailbox.stats.drained == 2
        assert mailbox.stats.peak_occupancy == 1

    def test_drop_accounting_across_snapshot_and_diff(self):
        # Consumers charge deltas phase by phase: drops recorded before a
        # snapshot must never leak into the next phase's diff.
        mailbox = Mailbox(capacity=2)
        mailbox.push_batch(range(5))  # 2 accepted, 3 dropped
        earlier = mailbox.stats.snapshot()
        assert earlier.dropped == 3
        mailbox.drain()
        mailbox.push_batch(range(3))  # 2 accepted, 1 dropped
        delta = mailbox.stats.diff(earlier)
        assert delta.dropped == 1
        assert delta.pushed == 2
        assert delta.drained == 2
        # The snapshot is independent of the live counters.
        assert earlier.dropped == 3
        assert mailbox.stats.dropped == 4

    def test_peak_occupancy_tracks_batched_pushes(self):
        mailbox = Mailbox()
        mailbox.push_batch(range(4))
        assert mailbox.stats.peak_occupancy == 4
        mailbox.drain(limit=3)
        # A later, smaller high-water mark must not lower the peak...
        mailbox.push_batch(range(2))
        assert mailbox.stats.peak_occupancy == 4
        # ...and a larger one raises it, counted mid-batch, not per call.
        mailbox.push_batch(range(10))
        assert mailbox.stats.peak_occupancy == 13
        bounded = Mailbox(capacity=3)
        bounded.push_batch(range(100))
        assert bounded.stats.peak_occupancy == 3
        assert bounded.stats.dropped == 97


class TestMailboxWatermarks:
    """High/low watermark hysteresis: the pause/resume edges of backpressure."""

    def test_pause_and_resume_edges_fire_callbacks(self):
        events = []
        mailbox = Mailbox(
            capacity=8,
            high_watermark=4,
            low_watermark=1,
            on_high=lambda: events.append("high"),
            on_low=lambda: events.append("low"),
        )
        mailbox.push_batch(range(3))
        assert not mailbox.paused and events == []
        mailbox.push(3)  # occupancy 4 == high: the rising edge
        assert mailbox.paused
        assert events == ["high"]
        assert mailbox.stats.stalls == 1
        mailbox.drain(limit=2)  # occupancy 2 > low: still inside the band
        assert mailbox.paused and events == ["high"]
        mailbox.drain(limit=1)  # occupancy 1 == low: the falling edge
        assert not mailbox.paused
        assert events == ["high", "low"]

    def test_one_stall_per_episode_not_per_push(self):
        mailbox = Mailbox(capacity=8, high_watermark=2, low_watermark=0)
        mailbox.push_batch(range(4))  # crosses high once mid-batch
        mailbox.push(99)  # already paused: no second stall
        assert mailbox.stats.stalls == 1
        mailbox.drain()
        assert not mailbox.paused
        mailbox.push_batch(range(3))
        assert mailbox.stats.stalls == 2

    def test_hysteresis_at_capacity_one(self):
        # The smallest legal band: high=1, low=0 — every resident item
        # pauses the producer, and only a full drain resumes it.
        mailbox = Mailbox(capacity=1, high_watermark=1, low_watermark=0)
        assert mailbox.push("a")
        assert mailbox.paused
        assert mailbox.drain() == ["a"]
        assert not mailbox.paused
        assert mailbox.push("b")
        assert mailbox.paused
        assert mailbox.stats.stalls == 2

    def test_hysteresis_at_capacity_n_with_default_low(self):
        # configure_watermarks defaults low to high // 2.
        mailbox = Mailbox(capacity=10)
        mailbox.configure_watermarks(10)
        assert mailbox.low_watermark == 5
        mailbox.push_batch(range(10))
        assert mailbox.paused
        mailbox.drain(limit=4)  # occupancy 6 > 5: still paused
        assert mailbox.paused
        mailbox.drain(limit=1)  # occupancy 5 == low: resumed
        assert not mailbox.paused
        # Re-crossing high pauses again (a second episode).
        mailbox.push_batch(range(5))
        assert mailbox.paused
        assert mailbox.stats.stalls == 2

    def test_configure_after_fill_detects_existing_occupancy(self):
        mailbox = Mailbox()
        mailbox.push_batch(range(6))
        mailbox.configure_watermarks(4, 2)
        assert mailbox.paused  # installing the watermark sees occupancy 6
        assert mailbox.stats.stalls == 1

    def test_clearing_watermarks_unpauses(self):
        mailbox = Mailbox(capacity=4, high_watermark=2)
        mailbox.push_batch(range(3))
        assert mailbox.paused
        mailbox.configure_watermarks(None)
        assert not mailbox.paused
        assert mailbox.high_watermark is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Mailbox(capacity=4, high_watermark=5)
        with pytest.raises(ValueError):
            Mailbox(high_watermark=0)
        with pytest.raises(ValueError):
            Mailbox(high_watermark=4, low_watermark=4)
        with pytest.raises(ValueError):
            Mailbox(high_watermark=4, low_watermark=-1)


class TestRebalancerResidency:
    def test_plans_from_residency_not_placement(self):
        # Flow 1 was re-pinned to shard 1 but never drained: its packets
        # still run on shard 0, and the planner must see it there.
        sharder = FlowSharder(2)
        for flow, shard in ((1, 0), (2, 0), (3, 1)):
            sharder.pin(flow, shard)
        sharder.record(1, 0, packets=60)
        sharder.record(2, 0, packets=40)
        sharder.record(3, 1, packets=10)
        sharder.pin(1, 1)  # pending migration, not yet effective
        plan = ShardRebalancer(sharder, imbalance_threshold=1.1).plan()
        assert plan, "expected a migration despite the stale pin"
        # The plan moves load off shard 0, where the packets actually ran.
        assert all(migration.src_shard == 0 for migration in plan)
