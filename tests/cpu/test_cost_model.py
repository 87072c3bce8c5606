"""Unit tests for the CPU cost model and meter."""

import pytest

from repro.cpu import CostModel, CpuMeter, CycleAccount, DEFAULT_COSTS
from repro.cpu.cost_model import QUEUE_STATS_COSTS
from repro.core.queues import BucketSpec, HierarchicalFFSQueue, RBTreeQueue


class TestCycleAccount:
    def test_charge_accumulates(self):
        account = CycleAccount()
        account.charge("ffs_word", 3.0, count=5)
        account.charge("division", 24.0)
        assert account.cycles == pytest.approx(39.0)
        assert account.by_operation["ffs_word"] == pytest.approx(15.0)

    def test_merge(self):
        first = CycleAccount()
        second = CycleAccount()
        first.charge("enqueue", 12.0)
        second.charge("enqueue", 12.0, 2)
        second.charge("lock", 60.0)
        first.merge(second)
        assert first.cycles == pytest.approx(12.0 * 3 + 60.0)
        assert first.by_operation["enqueue"] == pytest.approx(36.0)

    def test_reset(self):
        account = CycleAccount()
        account.charge("enqueue", 12.0)
        account.reset()
        assert account.cycles == 0.0
        assert account.by_operation == {}


class TestCostModel:
    def test_paper_cited_ratios(self):
        from repro.cpu.cost_model import BSR_LATENCY_CYCLES, DIV_LATENCY_CYCLES

        model = CostModel()
        # The paper: BSR is 8-32x cheaper than DIV (instruction latencies).
        assert 8 <= DIV_LATENCY_CYCLES / BSR_LATENCY_CYCLES <= 32
        # The modelled *operations* additionally include the memory word
        # access, so a division-based lookup still costs more than one FFS
        # word scan but less than the full instruction-latency gap.
        assert model.cost_of("division") > model.cost_of("ffs_word")

    def test_unknown_operation_raises(self):
        model = CostModel()
        with pytest.raises(KeyError):
            model.cost_of("warp_drive")

    def test_charging_an_unknown_operation_raises_and_charges_nothing(self):
        model = CostModel()
        model.charge("enqueue", 3)
        with pytest.raises(KeyError, match="warp_drive"):
            model.charge("warp_drive")
        assert model.breakdown() == {"enqueue": 36.0}
        assert model.total_cycles == 36.0

    def test_charge_returns_total(self):
        model = CostModel()
        per_op = model.cost_of("ffs_word")
        charged = model.charge("ffs_word", count=10)
        assert charged == pytest.approx(10 * per_op)
        assert model.total_cycles == pytest.approx(10 * per_op)

    def test_override_costs(self):
        from repro.cpu.cost_model import OperationCost

        model = CostModel({"ffs_word": OperationCost("ffs_word", 1.0)})
        assert model.cost_of("ffs_word") == 1.0
        assert model.cost_of("division") == DEFAULT_COSTS["division"].cycles

    def test_charge_queue_stats_maps_counters(self):
        model = CostModel()
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=1000))
        for i in range(100):
            queue.enqueue(i * 7 % 1000, i)
        list(queue.extract_all())
        charged = model.charge_queue_stats(queue.stats.as_dict())
        assert charged > 0
        assert set(model.breakdown()) <= set(DEFAULT_COSTS)

    def test_queue_stats_cost_mapping_is_complete(self):
        from repro.core.queues import QueueStats

        mapped = set(QUEUE_STATS_COSTS)
        counters = set(QueueStats().as_dict())
        # Every mapped counter must exist; counters without a cost (pure
        # statistics like selection_errors) are allowed.
        assert mapped <= counters

    def test_default_costs_are_integer_valued(self):
        # Hot paths settle charges per batch (`charge(op, n)`) where the
        # modelled loop charges per packet.  Floats hold integers exactly,
        # so the two leave byte-identical accounts only while every cost is
        # a whole number of cycles.
        for name, cost in DEFAULT_COSTS.items():
            assert cost.cycles == int(cost.cycles), name

    def test_batched_charge_equals_repeated_charges(self):
        repeated = CostModel()
        batched = CostModel()
        for name in DEFAULT_COSTS:
            for _ in range(1_000):
                repeated.charge(name)
            batched.charge(name, 1_000)
        assert batched.total_cycles == repeated.total_cycles
        assert batched.breakdown() == repeated.breakdown()

    def test_rbtree_costs_more_than_ffs_for_same_workload(self):
        # The central efficiency claim, expressed in modelled cycles.
        ffs_model = CostModel()
        rb_model = CostModel()
        ffs_queue = HierarchicalFFSQueue(BucketSpec(num_buckets=20_000))
        rb_queue = RBTreeQueue()
        priorities = [(i * 37) % 20_000 for i in range(5000)]
        for priority in priorities:
            ffs_queue.enqueue(priority, None)
            rb_queue.enqueue(priority, None)
        list(ffs_queue.extract_all())
        list(rb_queue.extract_all())
        ffs_model.charge_queue_stats(ffs_queue.stats.as_dict())
        rb_model.charge_queue_stats(rb_queue.stats.as_dict())
        assert rb_model.total_cycles > ffs_model.total_cycles

    def test_reset(self):
        model = CostModel()
        model.charge("enqueue")
        model.reset()
        assert model.total_cycles == 0.0


class TestCpuMeter:
    def test_cores_used(self):
        meter = CpuMeter(cycles_per_second=1e9)
        assert meter.cores_used(cycles=2e9, interval_seconds=1.0) == pytest.approx(2.0)
        assert meter.cores_used(cycles=5e8, interval_seconds=1.0) == pytest.approx(0.5)

    def test_max_packet_rate(self):
        meter = CpuMeter(cycles_per_second=3e9)
        assert meter.max_packet_rate(cycles_per_packet=300) == pytest.approx(1e7)

    def test_max_bit_rate(self):
        meter = CpuMeter(cycles_per_second=3e9)
        rate = meter.max_bit_rate(cycles_per_packet=300, packet_size_bytes=1500)
        assert rate == pytest.approx(1e7 * 1500 * 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuMeter(cycles_per_second=0)
        meter = CpuMeter()
        with pytest.raises(ValueError):
            meter.cores_used(1.0, 0)
        with pytest.raises(ValueError):
            meter.max_packet_rate(0)
        with pytest.raises(ValueError):
            meter.max_bit_rate(10, 0)
