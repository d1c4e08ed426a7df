"""Programmable scheduler engine.

A scheduling tree orders flows (and subtrees) with one bucketed priority
queue per node; policy hooks re-rank a flow on enqueue and on dequeue, and a
handle-based reposition touches exactly two buckets. A node with one child
orders nothing (its queue would hold that child alone), so scheduling skips
it, while its limit still shapes. Every rate limit in the hierarchy is
enforced by ONE shaper: a timestamp-keyed circular queue whose entries carry
a next-stage handle, so a packet climbs its shaped ancestors stage by stage
and only becomes schedulable once the last limit has released it. Each
stage is stamped max(clock, now) + size/limit by the node's RateClock, in
integer ns that never drift. A stage is one object, a ShaperEntry that is
its own node in the shaper's cFFS; a release probes the cFFS once per due
bucket and hands the handler that bucket's entries, detached. Work-conserving
dequeue never consults the clock; shaping alone is time-driven, and a poll of
the shaper with nothing due costs one comparison against its cached due time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bitmap_pq import BucketNode, FfsQueue
from .circular_pq import CffsQueue
from .errors import ConfigError, RankRangeError

NS_PER_SEC = 1_000_000_000


def positive_real(value) -> bool:
    """True for a positive finite int or float; a bool is not a rate."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value < math.inf)


@dataclass(slots=True)
class Packet:
    """size and rank are checked when built. A field assigned later is
    checked again at enqueue: the rank by SchedulerTree, the size by both
    schedulers.

    A packet is queued in one place at a time: enqueue it again only once
    dequeue has returned it. A SchedulerTree refuses a packet it still
    holds, which it reads off next: the packet after this one on its
    flow's FIFO, or the packet itself while it waits in the shaper."""

    id: int
    flow_id: str
    size: int  # bytes
    rank: int = 0  # policy-assigned integer rank
    release_ts: int = 0  # ns, set when the shaper finishes with the packet
    # set and cleared by SchedulerTree alone, so never a constructor argument
    next: Packet | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.size) is not int or self.size <= 0:
            raise ValueError("packet size must be a positive int")
        if type(self.rank) is not int or self.rank < 0:
            raise ValueError("packet rank must be a nonnegative int")


class RateClock:
    """Virtual time of one rate: integer ns plus an exact remainder.

    The rate (bytes/s, a positive int or float) is converted once, exactly,
    by as_integer_ratio: a byte lasts scale / n ns. advance keeps rem / n
    ns past t, so B bytes after a catch-up to t0 put t at
    t0 + floor(B * 10^9 / rate): never ahead of the rate, and less than
    one ns behind it.
    """

    __slots__ = ("t", "rem", "scale", "n")

    def __init__(self, rate):
        if not positive_real(rate):
            raise ConfigError("rate must be a positive number")
        n, d = rate.as_integer_ratio()
        g = math.gcd(n, d * NS_PER_SEC)
        self.n, self.scale = n // g, d * NS_PER_SEC // g
        self.t = self.rem = 0

    def advance(self, size: int, now: int) -> int:
        """Catch t up to `now` (dropping the remainder), add size bytes'
        time, and return t as it was before the add: max(t, now)."""
        t = self.t
        x = size * self.scale
        if now > t:
            t = now
        else:
            x += self.rem
        self.t = t + x // self.n
        self.rem = x % self.n
        return t


class ShaperEntry(BucketNode):
    """One shaper stage of a packet, and its own node in the shaper's
    cFFS: the queue links the entry itself, so a stage allocates one
    object. A release hands it to the handler detached (queue, prev and
    next None).

    Like BucketNode it has no __init__. Shaper.insert sets packet, ts,
    next_stage, item (None: a release hands on the entry itself) and queue
    (None: detached); the cFFS relink that files it sets abs_rank, rank,
    next and prev."""

    __slots__ = ("packet", "ts", "next_stage")


class Shaper:
    """Single timestamp-keyed queue serving every rate limit in a tree.

    Timestamps are quantized to bucket granularity and filed under their
    exact bucket wherever it lies: the cFFS takes any rank in rank order
    (one below its window re-anchors the window, one past both windows is
    parked and re-filed as the window advances), so any timestamp is
    accepted. release(now) drains each due bucket whole, in FIFO order
    within the bucket, so an entry leaves at most one granule before its
    exact timestamp and never later than the first release that covers it.

    next_due caches the due time of the least queued bucket (math.inf when
    empty): insert lowers it and release sets it from the probe it makes
    anyway, so next_event_time, and a release with nothing due, are O(1).
    """

    def __init__(self, horizon_ns: int = 2_000_000_000, num_buckets: int = 20_000):
        for name, value in (("horizon_ns", horizon_ns), ("num_buckets", num_buckets)):
            if type(value) is not int or value <= 0:
                raise ConfigError(f"shaper {name} must be a positive integer")
        self.granularity = horizon_ns // num_buckets
        if self.granularity <= 0:
            raise ConfigError("shaper horizon too small for bucket count")
        self._queue = CffsQueue(num_buckets)
        self.next_due = math.inf  # ns; least queued bucket * granularity

    def __len__(self):
        return len(self._queue)

    def insert(self, packet, ts: int, next_stage) -> None:
        rank = ts // self.granularity
        entry = ShaperEntry()
        entry.packet = packet
        entry.ts = ts
        entry.next_stage = next_stage
        entry.item = entry.queue = None
        self._queue.relink(entry, rank)
        due = rank * self.granularity
        if due < self.next_due:
            self.next_due = due

    def release(self, now: int, handler) -> int:
        """Hand every entry in a bucket due at `now` to `handler(entry, now)`,
        least bucket first, FIFO within a bucket. Each due bucket costs one
        cFFS probe and is detached whole; the handler gets the detached
        entries themselves.

        The handler may re-insert at a later stage, with ts >= now; a
        re-insertion that is already due is handled within the same call,
        after the rest of its bucket. If the handler raises, the entries of
        the bucket it had not yet been handed go back to the queue ahead
        of any re-insertion into that bucket.
        """
        if self.next_due > now:
            return 0
        limit = now // self.granularity
        queue = self._queue
        released = 0
        while True:
            rank = queue.min_rank()
            if rank is None or rank > limit:
                self.next_due = math.inf if rank is None else rank * self.granularity
                return released
            entries = queue.detach_bucket(rank)
            pending = iter(entries)
            try:
                for entry in pending:
                    handler(entry, now)
            except BaseException:
                self._restore(rank, list(pending))
                raise
            released += len(entries)

    def _restore(self, rank: int, entries: list) -> None:
        """File `entries` under `rank` again, ahead of what was filed there
        since they were popped, and recompute next_due."""
        queue = self._queue
        if entries:
            if queue.min_rank() == rank:
                entries += queue.detach_bucket(rank)
            for entry in entries:
                queue.relink(entry, rank)
        least = queue.min_rank()
        self.next_due = math.inf if least is None else least * self.granularity

    def next_event_time(self) -> int | None:
        due = self.next_due
        return None if due == math.inf else due


class FlowState:
    """Per-flow FIFO plus the rank fields policy hooks operate on.

    The FIFO is a singly linked chain through the queued packets
    themselves (Packet.next), head first, with count packets on it; head
    and tail are None when it is empty, so an idle flow holds no packet.
    A flow allocates nothing beyond its own slots: a built pFabric tree
    costs about 113 B per flow (tracemalloc, 1024 to 16 384 flows).
    SchedulerTree alone links and unlinks the chain; policies read head
    and count."""

    __slots__ = ("leaf", "head", "tail", "count", "rank", "in_flight", "handle")

    def __init__(self, leaf):
        self.leaf = leaf
        self.head: Packet | None = None
        self.tail: Packet | None = None
        self.count = 0
        self.rank = 0
        self.in_flight = 0
        self.handle = None  # position in the leaf queue; its rank is the key


class PolicyNode:
    """One node of the scheduling tree, built after its parent (None: the
    root) and appended to its children; non-leaves own a queue of children."""

    def __init__(self, node_id: str, limit: float | None, num_buckets: int,
                 parent: PolicyNode | None):
        if limit is not None and not positive_real(limit):
            raise ConfigError(f"node {node_id}: limit must be a positive number")
        if type(num_buckets) is not int or num_buckets <= 0:
            raise ConfigError(f"node {node_id}: num_buckets must be a positive integer")
        self.id = node_id
        self.parent = parent
        self.children: list[PolicyNode] = []
        self.num_buckets = num_buckets
        self.queue = FfsQueue(num_buckets)
        self.clock = None if limit is None else RateClock(limit)
        self.handle = None  # position in sched_parent's queue
        # set by SchedulerTree: the nearest proper ancestor with two or more
        # children (None: none)
        self.sched_parent = None
        # the limited nodes from this one up to the root, nearest first
        chain = ()
        if parent is not None:
            parent.children.append(self)
            chain = parent.chain
        self.chain = chain if self.clock is None else (self, *chain)


@dataclass
class TreeStats:
    enqueued: int = 0
    dequeued: int = 0
    deferred: int = 0
    released: int = 0


class SchedulerTree:
    """Scheduling-transaction tree with per-flow ranking, on-dequeue
    re-ranking, and one decoupled shaper for every rate limit.

    A node with exactly one child orders nothing, so it is off the
    scheduling path: a node is filed in its sched_parent's queue, a
    dequeue walks down from `top` (the root, or the first node below it
    with two or more children), and a pass-through node's queue and
    handle stay untouched. Its limit still shapes: a leaf's chain of shaped
    ancestors follows the real parent links. The nodes come parents first
    (config.build_tree), so the first is the root.

    Per packet, the policy hooks run once and `_reposition` re-files the
    flow and then its scheduling ancestors in one loop, stopping at the
    first entry that keeps its key. shaper_release(now) returns 0 at once
    while the shaper's cached due time (Shaper.next_due) lies past `now`,
    so a datapath may poll it on every packet."""

    def __init__(self, nodes: dict[str, PolicyNode], policy,
                 flows: dict[str, FlowState], shaper: Shaper,
                 flow_cap: int | None):
        if flow_cap is not None and (type(flow_cap) is not int or flow_cap <= 0):
            raise ConfigError("flow_cap must be None or a positive integer")
        self.nodes = nodes
        self.policy = policy
        self.flows = flows
        self.shaper = shaper
        self.flow_cap = flow_cap
        for node in nodes.values():
            parent = node.parent
            if parent is not None:
                node.sched_parent = (parent if len(parent.children) > 1
                                     else parent.sched_parent)
        top = self.root = next(iter(nodes.values()))
        while len(top.children) == 1:
            top = top.children[0]
        self.top = top
        self.stats = TreeStats()

    # -- enqueue path ------------------------------------------------------

    def enqueue(self, packet: Packet, now: int = 0) -> bool:
        """Admit a packet; returns False (backpressure) when the flow cap
        would be exceeded. Shaped packets detour through the shaper before
        becoming schedulable. Packet's rules when built are checked again
        before anything is counted, queued or clocked: a rank that is not
        a nonnegative int raises RankRangeError, a size that is not a
        positive int ValueError, as does a packet the tree still holds."""
        flow = self.flows.get(packet.flow_id)
        if flow is None:
            raise ConfigError(f"unknown flow {packet.flow_id}")
        rank, size = packet.rank, packet.size
        if type(rank) is not int or rank < 0:
            raise RankRangeError(f"packet rank {rank!r} is not a nonnegative int")
        if type(size) is not int or size <= 0:
            raise ValueError(f"packet size {size!r} is not a positive int")
        if packet.next is not None or flow.tail is packet:
            raise ValueError(f"packet {packet.id!r} is still queued")
        if self.flow_cap is not None and flow.in_flight >= self.flow_cap:
            self.stats.deferred += 1
            return False
        flow.in_flight += 1
        self.stats.enqueued += 1
        chain = flow.leaf.chain
        if chain:
            clock = chain[0].clock
            clock.advance(size, now)
            packet.next = packet  # in the shaper until delivered
            self.shaper.insert(packet, clock.t, (flow, 1))
        else:
            packet.release_ts = now
            self._deliver(flow, packet)
        return True

    def _deliver(self, flow: FlowState, packet: Packet) -> None:
        if flow.count:
            flow.tail.next = packet
        else:
            flow.head = packet
        flow.tail = packet
        flow.count += 1
        self.policy.on_enqueue(flow, packet)
        self._reposition(flow)

    # -- shaper ------------------------------------------------------------

    def _on_shaper_release(self, entry: ShaperEntry, now: int) -> None:
        flow, stage = entry.next_stage
        chain = flow.leaf.chain
        if stage < len(chain):
            clock = chain[stage].clock
            clock.advance(entry.packet.size, now)
            self.shaper.insert(entry.packet, clock.t, (flow, stage + 1))
        else:
            packet, ts = entry.packet, entry.ts
            packet.next = None
            packet.release_ts = ts if ts > now else now
            self._deliver(flow, packet)

    def shaper_release(self, now: int) -> int:
        shaper = self.shaper
        if shaper.next_due > now:
            return 0
        n = shaper.release(now, self._on_shaper_release)
        self.stats.released += n
        return n

    def next_event_time(self) -> int | None:
        return self.shaper.next_event_time()

    # -- dequeue path ------------------------------------------------------

    def _reposition(self, flow: FlowState) -> None:
        """File a flow under its current policy key in its leaf queue, then
        climb sched_parent, filing each node under the least key in its
        own queue. An entry's key is its handle's bucket (None with no
        handle), and the climb stops at the first entry, the flow included,
        whose key did not change: no queue changed there, so no key above
        it can have. A key of None takes the entry out; a queued entry
        keeps its handle and moves to its new bucket."""
        obj = flow
        node = flow.leaf
        key = self.policy.key(flow, node.num_buckets)
        while True:
            handle = obj.handle
            if handle is None:
                if key is None:
                    return
                obj.handle = node.queue.insert(key, obj)
            elif key is None:
                node.queue.remove(handle)
                obj.handle = None
            elif key == handle.rank:
                return
            else:
                node.queue.move(handle, key)
            obj = node
            node = node.sched_parent
            if node is None:
                return
            key = obj.queue.min_rank()

    def dequeue(self, now: int = 0) -> Packet | None:
        """Pop the next packet work-conservingly; None when nothing is
        schedulable (shaped packets still in flight do not count). Walks
        down from `top` to the head node of the bucket each queue's
        min_rank names: one call per level and no peek_min tuple."""
        node = self.top
        while True:
            queue = node.queue
            rank = queue.min_rank()
            if rank is None:
                return None
            obj = queue.heads[rank].item
            if isinstance(obj, FlowState):
                break
            node = obj
        flow = obj
        packet = flow.head
        flow.count -= 1
        if flow.count:
            flow.head = packet.next
            packet.next = None
        else:
            flow.head = flow.tail = None
        flow.in_flight -= 1
        self.stats.dequeued += 1
        self.policy.on_dequeue(flow, packet)
        self._reposition(flow)
        return packet

    # -- introspection -----------------------------------------------------

    def pending(self) -> int:
        """Packets admitted but not yet dequeued (fifos plus shaper)."""
        return sum(f.in_flight for f in self.flows.values())

    def schedulable(self) -> bool:
        return self.top.queue.min_rank() is not None
