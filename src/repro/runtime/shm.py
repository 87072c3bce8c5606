"""Shared-memory SPSC rings: the cross-process mailbox transport.

The simulated :class:`~repro.runtime.mailbox.Mailbox` keeps its SPSC
discipline purely as API shape — one thread plays both sides.  When shards
run on real OS cores (:class:`~repro.runtime.backend.ProcessBackend`), the
same single-producer / single-consumer handoff has to cross an address-space
boundary, and this module provides it: a fixed-size byte ring over
:class:`multiprocessing.shared_memory.SharedMemory` carrying length-framed
pickled records.

The layout is the classic lock-free SPSC ring (DPDK ``rte_ring`` single
producer/consumer mode, an io_uring SQ ring):

* two monotonically increasing 64-bit cursors live at the head of the
  segment — ``head`` (consumer, bytes read) and ``tail`` (producer, bytes
  written); the payload area is everything after them;
* the producer alone writes ``tail``, the consumer alone writes ``head``;
  each side only *reads* the other's cursor, so no locks are needed —
  an 8-byte aligned store is atomic on every platform CPython runs on,
  and a stale read of the opposing cursor is always *conservative*
  (the producer under-estimates free space, the consumer under-estimates
  available bytes);
* records are ``u32`` length + ``u32`` CRC-32 of the payload + payload,
  written with at most two ``memoryview`` copies (wraparound splits a
  record across the ring edge).

Capacity is fixed at creation; :meth:`ShmRing.push` returns ``False`` when
the record does not fit (the producer spins or backs off — policy belongs to
the caller, exactly as :class:`~repro.runtime.mailbox.Mailbox` leaves drop
vs. backpressure to the runtime).

Frame integrity: a consumer that races a torn producer write (or maps a
segment scribbled on by a crashed peer) must never hand garbage bytes to
``pickle.loads`` — unpickling attacker-shaped or torn data is both a
correctness and a safety hole.  Every record therefore carries its length
and a CRC-32 of its payload; :meth:`ShmRing.pop` validates both and raises
the typed :class:`ShmFrameCorrupt` instead of decoding a torn frame.  The
head cursor is deliberately *not* advanced past a corrupt frame, so the
failure is sticky: the process backend's child exits with
:data:`~repro.runtime.backend.EXIT_FRAME_CORRUPT` and the parent raises.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from multiprocessing import shared_memory
from typing import Any, Optional

_CURSORS = struct.Struct("<QQ")  # head (consumer), tail (producer)
_FRAME = struct.Struct("<II")  # payload length, CRC-32 of the payload
HEADER_BYTES = _CURSORS.size


class ShmFrameCorrupt(RuntimeError):
    """A framed record failed its length or CRC-32 validation.

    Raised by :meth:`ShmRing.pop_bytes` / :meth:`ShmRing.pop` instead of
    returning (or unpickling) torn bytes.  The ring's head cursor is left
    on the corrupt frame, so repeated pops keep failing — corruption is a
    transport-level fault the owner must handle, not skippable data.
    """


class ShmRing:
    """A single-producer / single-consumer byte ring in shared memory.

    Args:
        capacity: payload bytes the ring can hold (excluding the cursor
            header).  Must comfortably exceed the largest single record:
            a record of ``capacity - 8`` bytes is the hard limit.
        name: attach to an existing ring by shared-memory name; ``None``
            creates a fresh segment.

    Exactly one process may call :meth:`push` and exactly one may call
    :meth:`pop`; the creator is expected to :meth:`unlink` once, every
    attacher only :meth:`close`\\ s.
    """

    __slots__ = ("capacity", "_shm", "_buf", "_data", "_owner", "_last_record")

    def __init__(self, capacity: int = 1 << 20, name: Optional[str] = None) -> None:
        if name is None:
            if capacity <= _FRAME.size:
                raise ValueError("capacity must exceed the 8-byte record header")
            self._shm = shared_memory.SharedMemory(
                create=True, size=HEADER_BYTES + capacity
            )
            self._owner = True
            self.capacity = capacity
            _CURSORS.pack_into(self._shm.buf, 0, 0, 0)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False
            self.capacity = self._shm.size - HEADER_BYTES
            # Attaching re-registers the segment with the resource tracker
            # (CPython < 3.13 has no track=False).  Under the fork start
            # method the attacher shares the owner's tracker process, whose
            # name cache is a set — the re-register is idempotent and the
            # owner's unlink() retires the single entry, so no compensation
            # is needed here (an explicit unregister would instead strip the
            # owner's registration and make unlink() race the tracker).
        self._buf = self._shm.buf
        self._data = self._shm.buf[HEADER_BYTES:]
        self._last_record: Optional[tuple[int, int]] = None

    # -- cursor access -----------------------------------------------------

    @property
    def name(self) -> str:
        """Shared-memory segment name (hand to the attaching process)."""
        return self._shm.name

    def _cursors(self) -> tuple[int, int]:
        return _CURSORS.unpack_from(self._buf, 0)

    def _set_head(self, value: int) -> None:
        struct.pack_into("<Q", self._buf, 0, value)

    def _set_tail(self, value: int) -> None:
        struct.pack_into("<Q", self._buf, 8, value)

    def __len__(self) -> int:
        head, tail = self._cursors()
        return tail - head

    @property
    def free_bytes(self) -> int:
        """Bytes the producer can still write before the ring is full."""
        return self.capacity - len(self)

    # -- wrapping byte copies ----------------------------------------------

    def _write(self, offset: int, payload: bytes) -> None:
        start = offset % self.capacity
        end = start + len(payload)
        if end <= self.capacity:
            self._data[start:end] = payload
        else:
            first = self.capacity - start
            self._data[start:] = payload[:first]
            self._data[: len(payload) - first] = payload[first:]

    def _read(self, offset: int, length: int) -> bytes:
        start = offset % self.capacity
        end = start + length
        if end <= self.capacity:
            return bytes(self._data[start:end])
        first = self.capacity - start
        return bytes(self._data[start:]) + bytes(self._data[: length - first])

    # -- producer side -----------------------------------------------------

    def _push_framed(self, payload: bytes, crc: int) -> bool:
        needed = _FRAME.size + len(payload)
        if needed > self.capacity:
            raise ValueError(
                f"record of {len(payload)} bytes exceeds ring capacity {self.capacity}"
            )
        head, tail = self._cursors()
        if needed > self.capacity - (tail - head):
            return False
        self._write(tail, _FRAME.pack(len(payload), crc))
        self._write(tail + _FRAME.size, payload)
        self._set_tail(tail + needed)
        self._last_record = (tail + _FRAME.size, len(payload))
        return True

    def push_bytes(self, payload: bytes) -> bool:
        """Write one framed record; False when it does not fit right now."""
        return self._push_framed(payload, zlib.crc32(payload))

    def push(self, record: Any) -> bool:
        """Pickle and write one record; False when the ring is full."""
        return self.push_bytes(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))

    # -- consumer side -----------------------------------------------------

    def corrupt_last_record(self) -> None:
        """Flip one payload byte of the most recently pushed record.

        Producer-side fault injection for torn-frame testing: the consumer's
        next :meth:`pop` of that record fails its CRC check and raises
        :class:`ShmFrameCorrupt`.  Only meaningful while the record is still
        unread (the cursor maths does not check).
        """
        if self._last_record is None:
            raise RuntimeError("no record has been pushed yet")
        offset, length = self._last_record
        start = offset % self.capacity
        self._data[start] = self._data[start] ^ 0xFF

    def pop_bytes(self) -> Optional[bytes]:
        """Read one framed record, or ``None`` when the ring is empty.

        Raises :class:`ShmFrameCorrupt` — without advancing the head cursor
        — when the frame's length field is torn or the payload fails its
        CRC-32, so torn bytes never reach the unpickler.
        """
        head, tail = self._cursors()
        if tail - head < _FRAME.size:
            return None
        length, crc = _FRAME.unpack(self._read(head, _FRAME.size))
        if length > self.capacity - _FRAME.size or _FRAME.size + length > tail - head:
            raise ShmFrameCorrupt(
                f"torn frame header: claimed {length} payload bytes with "
                f"{tail - head} readable in a ring of capacity {self.capacity}"
            )
        payload = self._read(head + _FRAME.size, length)
        actual = zlib.crc32(payload)
        if actual != crc:
            raise ShmFrameCorrupt(
                f"frame CRC mismatch: header says {crc:#010x}, payload hashes "
                f"to {actual:#010x} ({length} bytes at ring offset {head % self.capacity})"
            )
        self._set_head(head + _FRAME.size + length)
        return payload

    def pop(self) -> Any:
        """Read and unpickle one record; the sentinel ``None`` is a value.

        Returns the module-level :data:`RING_EMPTY` marker when no record is
        available, so ``None`` payloads stay distinguishable from emptiness.
        """
        payload = self.pop_bytes()
        if payload is None:
            return RING_EMPTY
        return pickle.loads(payload)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach this process's mapping (both sides must call this; idempotent)."""
        if self._data is None:
            return
        # Release exported memoryviews before closing the mapping, or the
        # SharedMemory destructor raises BufferError.
        self._data.release()
        self._buf = None
        self._data = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - interpreter-dependent
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; call after every side closed)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class RingEmpty:
    """Sentinel type returned by :meth:`ShmRing.pop` on an empty ring."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RING_EMPTY"


RING_EMPTY = RingEmpty()

__all__ = ["HEADER_BYTES", "RING_EMPTY", "RingEmpty", "ShmFrameCorrupt", "ShmRing"]
