"""Every timer the runtime arms is a callback defined in the runtime's modules.

A callback's ``__module__`` is the only thing that says which layer scheduled
it: the wall-clock ledger (``bench/tracing.py``) books each fired callback
to the layer its module names.  A ``functools.partial`` reports
``functools``, which would book a shard tick to the simulator.  With every
plane armed — ingress, stealing, rebalancing, faults and supervision, the
metrics timeline — every callable handed to ``Simulator.schedule_at``
(``schedule`` goes through it) must come from ``repro.runtime``.
"""

from repro.core.model.packet import Packet
from repro.runtime import FaultEvent, FaultPlan, MetricsTimeline, ShardedRuntime


def test_every_scheduled_callback_belongs_to_the_runtime():
    runtime = ShardedRuntime(
        4,
        ingress_cores=2,
        default_rate_bps=8e6,
        steal_enabled=True,
        steal_min_backlog=1,
        rebalance_interval_ns=30_000,
        fault_plan=FaultPlan([FaultEvent("shard_crash", target=1, at=3)]),
        metrics_timeline=MetricsTimeline(interval_ns=20_000),
    )
    simulator = runtime.simulator
    schedule_at = simulator.schedule_at
    modules = []

    def recording(time_ns, callback):
        modules.append(getattr(callback, "__module__", None))
        return schedule_at(time_ns, callback)

    simulator.schedule_at = recording
    for index in range(6):
        burst = [Packet(flow_id=(index * 7 + i) % 12, size_bytes=100) for i in range(24)]
        runtime.submit_at(index * 40_000, burst)
    runtime.run()
    assert runtime.transmitted + runtime.fault_stats.packets_lost == 6 * 24
    assert len(modules) > 50
    assert "repro.runtime.runtime" in modules
    assert "repro.runtime.ingress" in modules  # the RX tick is the RX plane's
    assert all(module and module.startswith("repro.runtime.") for module in modules), set(
        modules
    )
