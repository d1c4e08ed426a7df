"""Reference scheduling policies.

LQF, pFabric, and FIFO are hook pairs plugged into the scheduler tree: the
engine links the packet onto its flow's FIFO, calls on_enqueue/on_dequeue,
and asks key() where the flow now belongs in its leaf queue. They read the
FIFO through FlowState.head and count. hClock needs three virtual-time
ranks per flow and an eligibility clock, so it is its own scheduler built on
the same circular queues, behind the tree's interface (enqueue,
shaper_release, dequeue, next_event_time, schedulable, pending); its limits
go through the tree's core.Shaper, which parks flows instead of packets.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque

from .circular_pq import CffsQueue
from .core import FlowState, Packet, RateClock, Shaper, positive_real
from .errors import ConfigError


class FifoPolicy:
    """Global FIFO: flows keyed by the arrival order of their head packet."""

    def __init__(self):
        self._seq = 0

    def on_enqueue(self, flow: FlowState, packet: Packet) -> None:
        packet.rank = self._seq
        self._seq += 1

    def on_dequeue(self, flow: FlowState, packet: Packet) -> None:
        pass

    def key(self, flow: FlowState, num_buckets: int):
        head = flow.head
        if head is None:
            return None
        return head.rank % num_buckets


class LqfPolicy:
    """Longest Queue First: f.rank = f.count on both hooks,
    max-orientation (ranks are mirrored into the min-queue)."""

    def on_enqueue(self, flow: FlowState, packet: Packet) -> None:
        flow.rank = flow.count

    def on_dequeue(self, flow: FlowState, packet: Packet) -> None:
        flow.rank = flow.count

    def key(self, flow: FlowState, num_buckets: int):
        if not flow.count:
            return None
        rank = flow.rank
        return 0 if rank >= num_buckets else num_buckets - 1 - rank


class PfabricPolicy:
    """Shortest-remaining-first: p.rank carries the flow's remaining size at
    packet creation; f.rank tracks the policy's min rule, min-orientation."""

    def on_enqueue(self, flow: FlowState, packet: Packet) -> None:
        rank = packet.rank
        if flow.count == 1 or rank < flow.rank:
            flow.rank = rank

    def on_dequeue(self, flow: FlowState, packet: Packet) -> None:
        head = flow.head
        if head is not None:
            rank, front = packet.rank, head.rank
            flow.rank = front if front < rank else rank

    def key(self, flow: FlowState, num_buckets: int):
        if not flow.count:
            return None
        rank = flow.rank
        return rank if rank < num_buckets else num_buckets - 1


# nominal byte rate of a share of 1.0: shares are relative, and this keeps
# the share clock on the reservation and limit clocks' timescale (and within
# the circular queues' windows)
SHARE_RATE = 12_500_000.0  # bytes/sec


class HClockFlow:
    """Flow with reservation / limit / share virtual-time tags per packet.

    fifo holds one (r, l, s, packet) entry per queued packet, its start
    tags with the packet, so entry[2] is the s tag. It stays a deque of
    tuples, not a chain through the packets as a tree flow's FIFO is
    (core.FlowState): the three tags are hClock's alone, and a Packet has
    no slots for them. r_clock, l_clock and s_clock are the flow's
    reservation, limit and share clocks (core.RateClock; r_clock and
    l_clock None when unset). While the flow is eligible, s_handle and
    r_handle (with a reservation) are its entries in the share and
    reservation queues; both are None while it is parked or idle.
    """

    __slots__ = ("fifo", "r_clock", "l_clock", "s_clock",
                 "s_handle", "r_handle")

    def __init__(self, fid, reservation=None, limit=None, share=1.0):
        for name, rate in (("reservation", reservation), ("limit", limit)):
            if rate is not None and not positive_real(rate):
                raise ConfigError(f"flow {fid}: {name} must be a positive number")
        if reservation is not None and limit is not None and reservation > limit:
            raise ConfigError(f"flow {fid}: reservation exceeds limit")
        if not positive_real(share):
            raise ConfigError(f"flow {fid}: share must be a positive number")
        self.fifo: deque[tuple[int | None, int, int, Packet]] = deque()
        self.r_clock = None if reservation is None else RateClock(reservation)
        self.l_clock = None if limit is None else RateClock(limit)
        self.s_clock = RateClock(share * SHARE_RATE)
        self.s_handle = self.r_handle = None


class HClockScheduler:
    """Hierarchical-clock scheduler: reservations first, then proportional
    shares, with per-flow rate limits always binding.

    Each packet carries start tags (r, l, s), queued with it in its flow's
    FIFO: its flow's reservation, limit and share clocks at enqueue,
    core.RateClocks in integer ns, never ahead of their rate and under 1 ns
    behind (the share clock runs at share * SHARE_RATE bytes/s). As in
    mClock, the reservation and limit clocks are caught up to the arrival
    time first, on every packet: r = max(r_prev + size/R, now), and l alike.
    So a flow sends at most limit * W in any window of length W, plus the
    packets it had queued when the window opened, and a reserved flow served
    below its reservation banks no credit to hold the link with later. A
    backlogged flow is filed by its head packet's tags in one of two ways:

    - eligible (head l tag due): in the share queue keyed s // G and, with
      a reservation, in the reservation queue keyed -(-r // G) (the
      ceiling), so a due reservation bucket means a due r tag;
    - parked (head l tag in the future): in a core.Shaper of granule G at
      timestamp -(-l // G) * G, with its s tag in a sorted list for idle
      catch-up.

    shaper_release(now) releases the Shaper, whose handler moves every
    parked flow whose bucket has come due to the eligible queues; dequeue
    does so first when the Shaper's cached due time has passed, so it costs
    one comparison otherwise. dequeue then serves the reservation head if
    its bucket is due, else the share head: the head node of the queue's
    min_rank bucket. It probes the reservation queue only once _r_due, a
    lower bound on its least bucket's time, has come: the probe sets it,
    _file lowers it for a lower r key, and removals and raised keys keep it
    a bound. _file, the one filing path (enqueue, dequeue, _unpark), moves
    an eligible flow's entries to its new keys in place (CffsQueue.move);
    an emptied or parked flow's are removed by handle. With G = GRANULARITY_NS:

    - no packet leaves before its l tag, and a parked flow becomes servable
      less than one granule after it (at the next multiple of G);
    - a flow enters the reservation phase less than one granule after its
      r tag comes due;
    - shares are served by s // G, FIFO within a bucket. An s key
      below the share queue's window start is raised to it, so such flows,
      the most overdue, are served first and FIFO among themselves.

    The Shaper and the reservation queue never raise a key: a circular
    queue files any key in order, re-anchoring its window for one below
    it. The share queue raises instead, because a limited flow's share tag
    falls further behind while it is parked, and each of its releases
    would re-file every eligible flow.

    The clock must not run backwards between calls: a flow filed as
    eligible at one `now` is not re-checked at an earlier one.
    """

    GRANULARITY_NS = 1_000  # 1 us rank buckets
    NUM_BUCKETS = 20_000  # per window of each circular queue, so 20 ms

    def __init__(self):
        self.flows: dict[str, HClockFlow] = {}
        self._r_queue = CffsQueue(self.NUM_BUCKETS)
        self._s_queue = CffsQueue(self.NUM_BUCKETS)
        self._shaper = Shaper(self.NUM_BUCKETS * self.GRANULARITY_NS, self.NUM_BUCKETS)
        self._parked_s: list[int] = []  # head s tags of parked flows, sorted
        self._r_due = math.inf  # at most the least reservation bucket's time

    def add_flow(self, fid: str, reservation=None, limit=None, share=1.0) -> HClockFlow:
        if fid in self.flows:
            raise ConfigError(f"duplicate flow {fid}")
        flow = HClockFlow(fid, reservation, limit, share)
        self.flows[fid] = flow
        return flow

    def _min_active_s(self) -> int:
        """Least head s tag over backlogged flows (0 with none). Among
        eligible flows it lies in the share queue's least bucket, which
        also holds every flow whose key was raised to the window start."""
        tags = [f.fifo[0][2] for f in self._s_queue.min_bucket_items()]
        tags += self._parked_s[:1]
        return min(tags, default=0)

    def enqueue(self, packet: Packet, now: int = 0) -> bool:
        """Admit a packet; always True, hClock applies no backpressure. A
        size that is not a positive int raises ValueError before any clock
        moves."""
        flow = self.flows.get(packet.flow_id)
        if flow is None:
            raise ConfigError(f"unknown flow {packet.flow_id}")
        fifo, size = flow.fifo, packet.size
        if type(size) is not int or size <= 0:
            raise ValueError(f"packet size {size!r} is not a positive int")
        # idle catch-up to the least active head: no banked share credit
        s_tag = flow.s_clock.advance(size, self._min_active_s() if not fifo else 0)
        # the reservation and limit clocks are caught up on every packet,
        # not only when idle: a flow kept backlogged but served below its
        # rate would otherwise bank credit and later hold the link in the
        # reservation phase, or burst past its limit
        r_clock, l_clock = flow.r_clock, flow.l_clock
        fifo.append((None if r_clock is None else r_clock.advance(size, now),
                     0 if l_clock is None else l_clock.advance(size, now),
                     s_tag, packet))
        if len(fifo) == 1:
            self._file(flow, now)
        return True

    def _file(self, flow: HClockFlow, now: int) -> None:
        """File a backlogged flow by its head tags: eligible if its limit
        tag is due at `now`, its entries moved to the new keys in place (or
        inserted), else parked, its entries removed."""
        r_tag, l_tag, s_tag, _ = flow.fifo[0]
        gran = self.GRANULARITY_NS
        if l_tag > now:
            self._unfile(flow)
            self._shaper.insert(flow, -(-l_tag // gran) * gran, None)
            insort(self._parked_s, s_tag)
            return
        queue = self._s_queue
        key = s_tag // gran
        if key < queue.h_index:
            key = queue.h_index
        if flow.s_handle is None:
            flow.s_handle = queue.insert(key, flow)
        else:
            queue.move(flow.s_handle, key)
        if r_tag is not None:
            queue = self._r_queue
            key = -(-r_tag // gran)
            if flow.r_handle is None:
                flow.r_handle = queue.insert(key, flow)
            else:
                queue.move(flow.r_handle, key)
            if key * gran < self._r_due:
                self._r_due = key * gran

    def _unfile(self, flow: HClockFlow) -> None:
        """Remove an eligible flow's queue entries; a no-op otherwise."""
        if flow.s_handle is not None:
            self._s_queue.remove(flow.s_handle)
            flow.s_handle = None
            if flow.r_handle is not None:
                self._r_queue.remove(flow.r_handle)
                flow.r_handle = None

    def _unpark(self, entry, now: int) -> None:
        flow = entry.packet
        s_tags = self._parked_s
        del s_tags[bisect_left(s_tags, flow.fifo[0][2])]
        self._file(flow, now)

    def shaper_release(self, now: int) -> int:
        """Admit every parked flow whose limit bucket has come due; O(1)
        when none has. Returns the number admitted."""
        return self._shaper.release(now, self._unpark)

    def dequeue(self, now: int) -> Packet | None:
        """Serve one packet at `now`, or None if every limit binds. Parked
        flows whose limit bucket has come due are admitted first."""
        shaper = self._shaper
        if shaper.next_due <= now:
            shaper.release(now, self._unpark)
        if self._r_due <= now:
            queue = self._r_queue
            rank = queue.min_rank()
            self._r_due = math.inf if rank is None else rank * self.GRANULARITY_NS
        if self._r_due > now:
            queue = self._s_queue
            rank = queue.min_rank()
            if rank is None:
                return None
        # min_rank settles first, so h_index is read after it
        flow = queue.primary.heads[rank - queue.h_index].item
        packet = flow.fifo.popleft()[3]
        if flow.fifo:
            self._file(flow, now)
        else:
            self._unfile(flow)
        return packet

    def next_event_time(self) -> int | None:
        """When the earliest parked flow's limit bucket comes due; None
        with no flow parked."""
        return self._shaper.next_event_time()

    def schedulable(self) -> bool:
        return len(self._s_queue) > 0

    def pending(self) -> int:
        return sum(len(f.fifo) for f in self.flows.values())

    def next_eligible_time(self, now: int) -> int | None:
        """`now` if a flow is eligible, else when one will be (or None)."""
        t = now if self.schedulable() else self.next_event_time()
        return t if t is None or t > now else now

    backlog = pending
