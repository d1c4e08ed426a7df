"""Reference models the benchmark checks the scheduler's outputs against.

They run after the clock stops, on what the timed loop logged. Each one
follows the scheduler's actual choices (so one wrong pick does not make every
later pick look wrong) and marks a pick wrong when it differs from the
policy's exact rule.
"""

from __future__ import annotations

import heapq
import math
from collections import deque


class PfabricReference:
    """Exact pFabric order with a lazily invalidated heap.

    Same rule as ``pktsched.sim.oracle_order("pfabric", ...)``: serve the
    flow with the smallest flow rank, ties broken by when that rank was last
    set. The flow rank is the rank of the first packet of a newly active
    flow, ``min(rank, old)`` on later enqueues, and ``min(served rank, new
    head rank)`` after a dequeue. Each operation costs O(log flows) instead
    of the oracle's O(flows).
    """

    def __init__(self):
        self.fifos: dict[str, deque] = {}
        self.frank: dict[str, float] = {}
        self.seq: dict[str, int] = {}
        self._counter = 0
        self._heap: list = []

    def _rerank(self, fid: str, rank) -> None:
        self.frank[fid] = rank
        self.seq[fid] = c = self._counter
        self._counter += 1
        heapq.heappush(self._heap, (rank, c, fid))

    def enqueue(self, fid: str, pid: int, rank: int) -> None:
        fifo = self.fifos.get(fid)
        if fifo is None:
            fifo = self.fifos[fid] = deque()
        fifo.append((pid, rank))
        old = self.frank.get(fid, math.inf)
        new = rank if len(fifo) == 1 else min(rank, old)
        if new != old or len(fifo) == 1:
            self._rerank(fid, new)

    def peek(self) -> str | None:
        """Flow the policy serves next, or None when every flow is empty."""
        heap = self._heap
        while heap:
            _, c, fid = heap[0]
            if self.seq[fid] == c and self.fifos[fid]:
                return fid
            heapq.heappop(heap)
        return None

    def dequeue(self, fid: str) -> int:
        """Serve the head of `fid` (the scheduler's pick); returns its id."""
        fifo = self.fifos[fid]
        pid, rank = fifo.popleft()
        if fifo:
            new = min(rank, fifo[0][1])
            if new != self.frank[fid]:
                self._rerank(fid, new)
        else:
            self.frank[fid] = math.inf
        return pid

    def run(self, ops) -> list:
        """Free-running order for ('enq', packet) / ('deq',) operations, in
        the format of ``oracle_order``. Test hook."""
        order = []
        for op in ops:
            if op[0] == "enq":
                p = op[1]
                self.enqueue(p.flow_id, p.id, p.rank)
            else:
                fid = self.peek()
                if fid is not None:
                    order.append((fid, self.dequeue(fid)))
        return order


class MultisetMin:
    """Multiset of integers with exact minimum, for the hold-model replay."""

    def __init__(self, values=()):
        self._heap = list(values)
        heapq.heapify(self._heap)
        self._count: dict[int, int] = {}
        for v in self._heap:
            self._count[v] = self._count.get(v, 0) + 1

    def add(self, v: int) -> None:
        heapq.heappush(self._heap, v)
        self._count[v] = self._count.get(v, 0) + 1

    def min(self) -> int | None:
        heap, count = self._heap, self._count
        while heap and not count.get(heap[0]):
            heapq.heappop(heap)
        return heap[0] if heap else None

    def discard(self, v: int) -> bool:
        """Remove one copy of v; False when v is not present."""
        n = self._count.get(v, 0)
        if n == 0:
            return False
        self._count[v] = n - 1
        return True


def rate_violations(events, rate_bps: float, slack_bytes: float) -> int:
    """Count events that break a token-bucket envelope.

    `events` is a time-sorted list of (t_ns, size_bytes). Event j violates
    the envelope when, for some i <= j, the bytes of events i..j exceed
    ``rate * (t_j - t_i) + slack``. One pass: keep the best window start.
    """
    per_ns = rate_bps / 1e9
    violations = 0
    prefix = 0  # bytes of events before the current one
    best = -math.inf  # max over i of (per_ns * t_i - bytes before i)
    for t, size in events:
        best = max(best, per_ns * t - prefix)
        prefix += size
        if prefix - per_ns * t + best > slack_bytes:
            violations += 1
    return violations


def backlogged_time(intervals) -> int:
    """Total length of the union of (start, end) intervals given in order of
    start time, as one flow's FIFO-ordered packets produce them."""
    total = 0
    cur_s = cur_e = None
    for s, e in intervals:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total
