"""Compact array-backed flow state: the million-flow engine.

Every earlier layer of the runtime kept its per-flow state in Python dicts
of Python objects — a :class:`~repro.core.model.transactions.ShapingTransaction`
per paced flow on each :class:`~repro.runtime.worker.ShardWorker`, pin /
loan / window dicts in the :class:`~repro.runtime.sharder.FlowSharder`,
home / pending dicts in the :class:`~repro.runtime.runtime.ShardedRuntime`
driver.  That is fine at benchmark scale (hundreds of flows) and ruinous at
production scale: a shaping transaction alone costs an instance + ``__dict__``
+ a name string + a ``RateLimit`` — roughly half a kilobyte — before the
three dict entries that point at it, so a million concurrent flows burn
hundreds of megabytes on bookkeeping the scheduler reads four words of.

This module extends the PR 4 ``__slots__``/free-list discipline from the
queues to flow state itself, the way the kernel's FQ qdisc keeps ``struct
fq_flow`` in preallocated arenas rather than boxed allocations:

* :class:`FlowTable` — the generic engine: an open-addressing index maps a
  sparse flow id to a **dense slot**; registered columns are flat
  :mod:`array`-module buffers indexed by slot (four to eight bytes per flow
  per column, no per-flow objects anywhere); dead flows push their slot
  onto a free list so churn recycles without allocation.  A **bounded dict
  front** (at most ``_FRONT_CAP`` entries) answers the flows a probe
  already found: the Fibonacci hash on a boxed int costs several times a
  whole ``dict`` lookup, so a hot flow pays the probe chain once, while
  the front's fixed size keeps bytes per flow set by the arrays, not by
  a dict entry per flow.
* :class:`PacingTable` — the shaping columns one shard worker needs
  (``rate_bps`` / ``burst_bytes`` / ``next_free_ns`` / ``credit_bytes``),
  with a :meth:`PacingTable.stamp` that reproduces
  :meth:`ShapingTransaction.stamp
  <repro.core.model.transactions.ShapingTransaction.stamp>` arithmetic
  bit-for-bit, and :meth:`detach` / :meth:`install` that materialise /
  absorb a real ``ShapingTransaction`` so migration handoffs and
  work-stealing leases keep travelling in the exact wire format the
  rebalancer and :class:`~repro.runtime.stealing.FlowLease` always used.
* :class:`FlowStateStats` — the engine's counters, in the same pickled
  counter-dataclass family every other subsystem reports through.

The whole point is that nothing *semantic* changes: stamps, modelled cycle
charges, lease handoffs and GC verdicts are identical to the dict-of-objects
implementation (the committed ``BENCH_hotpath.json`` / ``BENCH_sharding.json``
modelled columns must not move); only the representation shrinks, which
``benchmarks/bench_megaflow.py`` measures directly (bytes/flow and churn
ops/sec at 10k/100k/1M flows against a dict-of-objects baseline).

Everything here pickles cleanly (arrays carry their buffers), so flow state
can cross the :class:`~repro.runtime.backend.ProcessBackend` boundary like
any other counter snapshot.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.model.packet import Packet
from ..core.model.transactions import RateLimit, ShapingTransaction
from ..core.queues.base import CounterStatsMixin

#: Index-cell sentinels (the *index* holds slot numbers, never flow ids, so
#: the sentinels constrain slots — flow ids only need to be non-negative).
_EMPTY = -1
_TOMB = -2

#: Fibonacci multiplier (golden ratio in 64 bits): one multiply avalanches
#: dense integer flow ids across the index's high bits.  With *linear*
#: probing this mixing is load-bearing, not a nicety: identity-style
#: hashes put dense id ranges into one contiguous run, and every miss
#: then walks to the end of the run (primary clustering), which measures
#: ~25x slower under Zipf churn.  Same constant family as
#: :func:`repro.runtime.sharder.rss_hash`.
_FIB = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Saturation bound of the int64 columns.  ``next_free_ns`` can only cross
#: this for sub-bit-per-second rates stamping jumbo packets — 292 years of
#: simulated time — where "never" is the honest answer anyway.
_I64_MAX = (1 << 63) - 1

#: Initial index size (power of two; grows at 2/3 fill like CPython's dict).
_MIN_CELLS = 64

#: Most flows a table's dict front holds (see :class:`FlowTable`): every
#: flow of the shaped workload (1,024) fits, a churn storm's millions do not.
_FRONT_CAP = 1024


@dataclass(slots=True)
class FlowStateStats(CounterStatsMixin):
    """Counters of one array-backed flow table.

    ``inserts`` counts every slot grant, ``recycles`` the subset served from
    the free list (churn working as designed: a dead flow's slot is reused
    without growing any buffer).  The ``gc_*`` counters are filled by the
    runtime's incremental sweep over its table: candidates *examined* versus
    slots actually *reclaimed*, plus the sweep count — the numbers that show
    a bounded sweep converging on the same live set a global scan finds.
    """

    inserts: int = 0
    recycles: int = 0
    removes: int = 0
    rehashes: int = 0
    gc_sweeps: int = 0
    gc_examined: int = 0
    gc_reclaimed: int = 0


class FlowTable:
    """Sparse flow ids -> dense slots, with flat typed columns per slot.

    The shape of a real flow table (FQ's red-black-tree-of-arenas, a NIC's
    RSS indirection + flow director): one open-addressing **index** (linear
    probing, tombstones, 2/3 max fill) maps ``flow_id`` to a small integer
    *slot*; every piece of per-flow state lives in an :mod:`array` column
    indexed by that slot.  Slots of removed flows go on a free list and are
    recycled before any buffer grows, so steady-state churn allocates
    nothing and memory tracks *peak concurrent* flows, not flows ever seen.

    Columns are registered up front with :meth:`add_column`, which returns
    the backing array; callers keep that reference and index it directly
    with the slots :meth:`ensure` / :meth:`lookup` hand out (one probe per
    packet, then plain array reads/writes — the dense-column discipline of
    the PR 4 hot-path work).  ``array`` grows in place under ``extend``, so
    cached references never go stale.

    Flow ids must be non-negative (``key[slot] == -1`` marks a free slot);
    this is the invariant every packet source in the repo already upholds.

    In front of the index sits ``_front``, a plain ``dict`` of flow id ->
    slot that :meth:`lookup` and :meth:`ensure` read first; the per-burst
    loops (``ShardedRuntime.submit_batch``, :meth:`PacingTable.stamp_burst`)
    read it inline with ``dict.get``.  A flow enters it only when a probe
    *finds* it — never on create, so one-packet churn flows stay out — and
    only while it holds fewer than ``_FRONT_CAP`` entries: unbounded, the
    front would be a dict entry per flow (~116 B) on top of the arrays'
    few bytes and undo what the columns are for.  A kept flow -> slot
    answer is good until :meth:`remove` (or :meth:`PacingTable.expire`,
    which carries a copy of its tail), the one place the front forgets:
    slots never move while a flow lives (a rehash rebuilds the index, not
    the slots), so nothing else can make an entry stale.

    This class is deliberately policy-free: the pacing semantics live in
    :class:`PacingTable` and ownership columns in the runtime, both as
    columns over this one engine.  The sharder's placement state (pins,
    loans, the load window) holds only the flows it pins, lends or ranks,
    in plain dicts (:class:`~repro.runtime.sharder.FlowSharder`).
    """

    __slots__ = (
        "stats",
        "key",
        "created",
        "_front",
        "_index",
        "_cells",
        "_mask",
        "_shift",
        "_fill",
        "_tombs",
        "_free",
        "_next_fresh",
        "_size",
        "_names",
        "_columns",
        "_defaults",
    )

    def __init__(self) -> None:
        self.stats = FlowStateStats()
        #: Dense key column: ``key[slot]`` is the flow id, ``-1`` when free.
        self.key = array("q")
        #: True when the most recent :meth:`ensure` created its slot.
        self.created = False
        self._front: Dict[int, int] = {}
        self._cells = _MIN_CELLS
        self._mask = _MIN_CELLS - 1
        self._shift = 64 - _MIN_CELLS.bit_length() + 1
        self._index = array("i", [_EMPTY]) * _MIN_CELLS
        self._fill = 0  # live + tombstone cells
        self._tombs = 0
        self._free = array("i")  # recycled slots, used as a stack
        self._next_fresh = 0  # high watermark of slots ever handed out
        self._size = 0  # live flows
        self._names: List[str] = []
        self._columns: List[array] = []
        self._defaults: List[float] = []

    # -- columns -----------------------------------------------------------

    def add_column(self, name: str, typecode: str, default) -> array:
        """Register a per-flow column; returns the backing array.

        Existing and future slots read ``default`` until written.  The
        returned array object is stable for the table's lifetime (growth is
        in-place), so hot paths index the reference directly.
        """
        if name in self._names:
            raise ValueError(f"duplicate column {name!r}")
        column = array(typecode)
        allocated = len(self.key)
        if allocated:
            column.extend(array(typecode, [default]) * allocated)
        self._names.append(name)
        self._columns.append(column)
        self._defaults.append(default)
        return column

    def column(self, name: str) -> array:
        """The backing array of a registered column."""
        return self._columns[self._names.index(name)]

    # -- index -------------------------------------------------------------

    def lookup(self, flow_id: int) -> int:
        """Slot of ``flow_id``, or ``-1`` when absent (front, then one probe chain)."""
        front = self._front
        slot = front.get(flow_id)
        if slot is not None:
            return slot
        index = self._index
        mask = self._mask
        key = self.key
        cell = ((flow_id * _FIB) & _MASK64) >> self._shift
        while True:
            slot = index[cell]
            if slot == _EMPTY:
                return -1
            if slot != _TOMB and key[slot] == flow_id:
                if len(front) < _FRONT_CAP:
                    front[flow_id] = slot
                return slot
            cell = (cell + 1) & mask

    def ensure(self, flow_id: int) -> int:
        """Slot of ``flow_id``, inserting a fresh one when absent.

        Sets :attr:`created` so callers can initialise their columns exactly
        once per flow without a second probe (checking a flag beats
        allocating a ``(slot, created)`` tuple on a per-packet path).
        """
        front = self._front
        slot = front.get(flow_id)
        if slot is not None:
            self.created = False
            return slot
        index = self._index
        mask = self._mask
        key = self.key
        cell = ((flow_id * _FIB) & _MASK64) >> self._shift
        reuse = -1
        while True:
            slot = index[cell]
            if slot == _EMPTY:
                break
            if slot == _TOMB:
                if reuse < 0:
                    reuse = cell
            elif key[slot] == flow_id:
                if len(front) < _FRONT_CAP:
                    front[flow_id] = slot
                self.created = False
                return slot
            cell = (cell + 1) & mask
        slot = self._alloc_slot(flow_id)
        if reuse >= 0:
            index[reuse] = slot
            self._tombs -= 1
        else:
            index[cell] = slot
            self._fill += 1
        if self._fill * 3 >= self._cells * 2:
            self._rehash()
        self.created = True
        return slot

    def remove(self, flow_id: int) -> bool:
        """Free the flow's slot (recycled by the next insert); False if absent."""
        self._front.pop(flow_id, None)
        index = self._index
        mask = self._mask
        key = self.key
        cell = ((flow_id * _FIB) & _MASK64) >> self._shift
        while True:
            slot = index[cell]
            if slot == _EMPTY:
                return False
            if slot != _TOMB and key[slot] == flow_id:
                index[cell] = _TOMB
                self._tombs += 1
                key[slot] = -1
                self._free.append(slot)
                self._size -= 1
                self.stats.removes += 1
                return True
            cell = (cell + 1) & mask

    def _alloc_slot(self, flow_id: int) -> int:
        # Validated on the insert path only: a negative id can never *hit*
        # (keys are validated here), so probes for one fall through to this
        # miss path and the hot ensure() loop stays branch-free about it.
        if flow_id < 0:
            raise ValueError("flow ids must be non-negative")
        free = self._free
        if free:
            slot = free.pop()
            self.key[slot] = flow_id
            # A recycled slot still holds the dead flow's values.
            for column, default in zip(self._columns, self._defaults):
                column[slot] = default
            self.stats.recycles += 1
        else:
            slot = self._next_fresh
            if slot >= len(self.key):
                self._grow_slots()
            self._next_fresh = slot + 1
            self.key[slot] = flow_id
        self._size += 1
        self.stats.inserts += 1
        return slot

    def _grow_slots(self) -> None:
        allocated = len(self.key)
        grow = max(32, allocated // 2)
        self.key.extend(array("q", [-1]) * grow)
        for column, default in zip(self._columns, self._defaults):
            column.extend(array(column.typecode, [default]) * grow)

    def _rehash(self) -> None:
        """Rebuild the index (bigger and/or tombstone-free) at <= 1/3 fill."""
        cells = _MIN_CELLS
        while cells < self._size * 3:
            cells <<= 1
        self._cells = cells
        mask = cells - 1
        self._mask = mask
        shift = 64 - cells.bit_length() + 1
        self._shift = shift
        index = array("i", [_EMPTY]) * cells
        key = self.key
        for slot in range(self._next_fresh):
            flow_id = key[slot]
            if flow_id < 0:
                continue
            cell = ((flow_id * _FIB) & _MASK64) >> shift
            while index[cell] != _EMPTY:
                cell = (cell + 1) & mask
            index[cell] = slot
        self._index = index
        self._fill = self._size
        self._tombs = 0
        self.stats.rehashes += 1

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, flow_id: int) -> bool:
        return self.lookup(flow_id) >= 0

    @property
    def slot_limit(self) -> int:
        """Slots ever handed out (the dense columns' high watermark)."""
        return self._next_fresh

    def live_slots(self) -> Iterator[int]:
        """Every occupied slot (order is slot order, not insertion order)."""
        key = self.key
        for slot in range(self._next_fresh):
            if key[slot] >= 0:
                yield slot

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(flow_id, slot)`` for every live flow."""
        key = self.key
        for slot in range(self._next_fresh):
            flow_id = key[slot]
            if flow_id >= 0:
                yield flow_id, slot

    def memory_bytes(self) -> int:
        """Actual bytes held by the front, index, key, free list and every column."""
        total = sys.getsizeof(self._front)
        total += sys.getsizeof(self._index) + sys.getsizeof(self.key)
        total += sys.getsizeof(self._free)
        for column in self._columns:
            total += sys.getsizeof(column)
        return total


class PacingTable(FlowTable):
    """One shard's per-flow shaping state as four columns over a FlowTable.

    The array-backed replacement for ``ShardWorker``'s dict of
    :class:`~repro.core.model.transactions.ShapingTransaction` objects.
    :meth:`stamp` repeats the transaction's arithmetic verbatim — same
    ``max``, same ``int(size * 8 / rate * 1e9)`` float expression, same
    credit bookkeeping — so every timestamp is bit-identical to the object
    implementation's.

    Subclasses :class:`FlowTable` rather than wrapping one: the fused
    per-packet path (:meth:`touch`) probes ``self._index`` directly, and
    the table API (``lookup`` / ``remove`` / ``len`` / ``in`` /
    ``memory_bytes`` / ``items``) is inherited instead of re-exported
    through one-line delegates that each cost a call frame per packet.

    Migration and lease handoffs still travel as real ``ShapingTransaction``
    objects (:meth:`detach` materialises one, :meth:`install` absorbs one):
    the object is the *wire format* of RFS-style handoff and of
    :class:`~repro.runtime.stealing.FlowLease`, while the columns are the
    *resident format*.  The materialised transaction's name reflects the
    shard it detached from, exactly like a freshly created one.
    """

    __slots__ = ("shard_id", "last_slot", "_rate", "_burst", "_next_free", "_credit")

    def __init__(self, shard_id: int) -> None:
        super().__init__()
        self.shard_id = shard_id
        self.last_slot = -1
        self._rate = self.add_column("rate_bps", "d", 0.0)
        self._burst = self.add_column("burst_bytes", "q", 0)
        self._next_free = self.add_column("next_free_ns", "q", 0)
        self._credit = self.add_column("credit_bytes", "q", 0)

    def slot_for(self, flow_id: int, rate_bps: float) -> int:
        """Slot of the flow's pacing state, created at ``rate_bps`` if new.

        An existing slot keeps its stored rate (and any adopted burst /
        credit), matching the old behaviour where an existing transaction's
        limit survived later ``flow_rates`` edits until explicitly reset.
        """
        slot = self.ensure(flow_id)
        if self.created:
            self._rate[slot] = rate_bps
            # burst/next_free/credit start at the column defaults (0), the
            # exact state of ShapingTransaction(name, RateLimit(rate_bps)).
        return slot

    def stamp(self, slot: int, size_bytes: int, now_ns: int) -> int:
        """Timestamp one packet — ShapingTransaction.stamp, columnised."""
        credit = self._credit[slot]
        next_free = self._next_free[slot]
        if credit >= size_bytes:
            self._credit[slot] = credit - size_bytes
            send_at = now_ns if now_ns > next_free else next_free
            self._next_free[slot] = send_at
            return send_at
        send_at = now_ns if now_ns > next_free else next_free
        release = send_at + int(size_bytes * 8 / self._rate[slot] * 1e9)
        self._next_free[slot] = release if release < _I64_MAX else _I64_MAX
        return send_at

    def touch(self, flow_id: int, rate_bps: float, size_bytes: int, now_ns: int) -> int:
        """Fused per-packet path: ``stamp(slot_for(...), ...)`` in one call.

        One bound-method call and one probe replace the three-call chain,
        which is what a packet-rate loop over millions of flows actually
        pays for.  The probe duplicates :meth:`ensure`'s (front, then
        chain) *including* the insert epilogue, because under churn a
        quarter of touches are creations and delegating those to
        ``slot_for`` would probe the chain twice.  The resolved slot is
        left in :attr:`last_slot` for callers with their own columns to
        update — the same no-tuple idiom as :attr:`FlowTable.created`
        (which this method does not maintain; creation is signalled by the
        rate write alone).  The index is
        re-read every call because a rehash replaces it.  The stamp
        arithmetic is kept textually identical to :meth:`stamp` (and
        therefore to ``ShapingTransaction.stamp``); the equivalence tests
        pin both.
        """
        front = self._front
        slot = front.get(flow_id)
        if slot is None:
            index = self._index
            key = self.key
            mask = self._mask
            cell = ((flow_id * _FIB) & _MASK64) >> self._shift
            reuse = -1
            while True:
                slot = index[cell]
                if slot == _EMPTY:
                    slot = -1
                    break
                if slot == _TOMB:
                    if reuse < 0:
                        reuse = cell
                elif key[slot] == flow_id:
                    if len(front) < _FRONT_CAP:
                        front[flow_id] = slot
                    break
                cell = (cell + 1) & mask
        if slot < 0:
            slot = self._alloc_slot(flow_id)
            if reuse >= 0:
                index[reuse] = slot
                self._tombs -= 1
            else:
                index[cell] = slot
                self._fill += 1
            if self._fill * 3 >= self._cells * 2:
                self._rehash()
            self._rate[slot] = rate_bps
        self.last_slot = slot
        credit = self._credit[slot]
        next_free = self._next_free[slot]
        if credit >= size_bytes:
            self._credit[slot] = credit - size_bytes
            send_at = now_ns if now_ns > next_free else next_free
            self._next_free[slot] = send_at
            return send_at
        send_at = now_ns if now_ns > next_free else next_free
        release = send_at + int(size_bytes * 8 / self._rate[slot] * 1e9)
        self._next_free[slot] = release if release < _I64_MAX else _I64_MAX
        return send_at

    def stamp_burst(
        self,
        packets: List[Packet],
        rate_of: Callable[[int, Optional[float]], Optional[float]],
        default_rate: Optional[float],
        now_ns: int,
    ) -> List[Packet]:
        """Stamp a whole burst in one probe loop; the worker's datapath.

        Per packet this is :meth:`touch` at ``rate_of(flow_id,
        default_rate)`` — a flow whose rate is ``None`` is stateless and
        sends at ``now_ns`` — plus one attribute write: the send time goes
        into ``packet.rank``, the enqueue component's rank in the paper's
        model, so no dict key is written per packet.  Returns ``packets``
        itself, stamped: the list the shard queue's ``enqueue_items`` takes,
        with no ``(send_at, packet)`` tuple built per packet.  What a
        burst buys over a call per packet: the index and columns are hoisted once
        (and re-read after a mid-burst rehash, which replaces the index), a
        run of same-flow packets — RX bursts are bursty *per flow* — probes
        once, and the serialisation gap ``int(size_bytes * 8 / rate * 1e9)``
        is recomputed only when ``(size_bytes, rate)`` differs from the
        previous packet's.  A flow the front holds skips the probe; one it
        does not is probed and, when found, kept — the rule of
        :meth:`lookup`.  The probe, the insert epilogue and the stamp
        arithmetic are kept textually identical to :meth:`touch`; the
        equivalence tests pin the two against each other column for column.
        """
        front = self._front
        front_get = front.get
        index = self._index
        key = self.key
        mask = self._mask
        shift = self._shift
        rate_col = self._rate
        credit_col = self._credit
        next_free_col = self._next_free
        last_flow = None
        slot = -1
        gap = 0
        gap_size = -1  # no packet is this small: the first paced one computes
        gap_rate = 0.0
        for packet in packets:
            flow_id = packet.flow_id
            if flow_id != last_flow:
                last_flow = flow_id
                rate_bps = rate_of(flow_id, default_rate)
                if rate_bps is None:
                    slot = -1
                elif (slot := front_get(flow_id)) is None:
                    cell = ((flow_id * _FIB) & _MASK64) >> shift
                    reuse = -1
                    while True:
                        slot = index[cell]
                        if slot == _EMPTY:
                            slot = -1
                            break
                        if slot == _TOMB:
                            if reuse < 0:
                                reuse = cell
                        elif key[slot] == flow_id:
                            if len(front) < _FRONT_CAP:
                                front[flow_id] = slot
                            break
                        cell = (cell + 1) & mask
                    if slot < 0:
                        slot = self._alloc_slot(flow_id)
                        if reuse >= 0:
                            index[reuse] = slot
                            self._tombs -= 1
                        else:
                            index[cell] = slot
                            self._fill += 1
                        if self._fill * 3 >= self._cells * 2:
                            self._rehash()
                            index = self._index
                            mask = self._mask
                            shift = self._shift
                        rate_col[slot] = rate_bps
            if slot < 0:
                send_at = now_ns
            else:
                size_bytes = packet.size_bytes
                credit = credit_col[slot]
                next_free = next_free_col[slot]
                send_at = now_ns if now_ns > next_free else next_free
                if credit >= size_bytes:
                    credit_col[slot] = credit - size_bytes
                    next_free_col[slot] = send_at
                else:
                    rate = rate_col[slot]
                    if size_bytes != gap_size or rate != gap_rate:
                        gap_size = size_bytes
                        gap_rate = rate
                        gap = int(size_bytes * 8 / rate * 1e9)
                    release = send_at + gap
                    next_free_col[slot] = release if release < _I64_MAX else _I64_MAX
            packet.rank = send_at
        return packets

    # -- handoff (migration + stealing wire format) ------------------------

    def detach(self, flow_id: int) -> Optional[ShapingTransaction]:
        """Remove the flow's pacing state, materialised as a transaction.

        Returns ``None`` when the flow holds no state here (stateless flows
        simply have nothing to hand over — same contract as popping the old
        shaper dict).
        """
        slot = self.lookup(flow_id)
        if slot < 0:
            return None
        transaction = ShapingTransaction.restore(
            f"shard{self.shard_id}-flow-{flow_id}",
            RateLimit(self._rate[slot], self._burst[slot]),
            next_free_ns=self._next_free[slot],
            credit_bytes=self._credit[slot],
        )
        self.remove(flow_id)
        return transaction

    def install(self, flow_id: int, transaction: ShapingTransaction) -> None:
        """Absorb pacing state handed over from another shard (or a lease)."""
        slot = self.ensure(flow_id)
        limit = transaction.limit
        self._rate[slot] = limit.rate_bps
        self._burst[slot] = limit.burst_bytes
        next_free = transaction.next_free_ns
        self._next_free[slot] = next_free if next_free < _I64_MAX else _I64_MAX
        self._credit[slot] = transaction.credit_bytes

    def expire(self, flow_id: int, now_ns: int) -> bool:
        """Drop the flow's pacing state once its ``next_free_ns`` has passed.

        True when the flow holds no state here afterwards: it had none, or
        it had expired and is removed.  The flow GC's question, answered in
        one probe that keeps nothing in the front — the sweep visits idle
        flows, which a churn workload removes as fast as it finds them.
        The removal tail is :meth:`remove`'s, kept textually identical.
        """
        index = self._index
        mask = self._mask
        key = self.key
        cell = ((flow_id * _FIB) & _MASK64) >> self._shift
        while True:
            slot = index[cell]
            if slot == _EMPTY:
                return True
            if slot != _TOMB and key[slot] == flow_id:
                break
            cell = (cell + 1) & mask
        if self._next_free[slot] > now_ns:
            return False
        self._front.pop(flow_id, None)
        index[cell] = _TOMB
        self._tombs += 1
        key[slot] = -1
        self._free.append(slot)
        self._size -= 1
        self.stats.removes += 1
        return True

    # -- queries -----------------------------------------------------------
    # lookup/remove/__contains__/__len__/items/memory_bytes are inherited.

    def next_free_at(self, slot: int) -> int:
        """``next_free_ns`` of an existing slot."""
        return self._next_free[slot]

    def next_free_ns(self, flow_id: int) -> int:
        """``next_free_ns`` of a flow (KeyError when it holds no state)."""
        slot = self.lookup(flow_id)
        if slot < 0:
            raise KeyError(flow_id)
        return self._next_free[slot]

    def live_flows(self) -> List[int]:
        """Flow ids currently holding pacing state."""
        return [flow_id for flow_id, _slot in self.items()]

    def as_dict(self) -> Dict[int, ShapingTransaction]:
        """Materialise every flow's state (debug/tests; not a hot path)."""
        result: Dict[int, ShapingTransaction] = {}
        for flow_id, _slot in list(self.items()):
            transaction = self.detach(flow_id)
            assert transaction is not None
            self.install(flow_id, transaction)
            result[flow_id] = transaction
        return result


__all__ = ["FlowStateStats", "FlowTable", "PacingTable"]
