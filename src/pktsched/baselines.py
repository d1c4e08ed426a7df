"""Baseline queues for benchmarking and differential testing.

BhQueue is the bucket array of bitmap_pq with its nonempty ranks in an
indexed binary heap (eager removal, so pop sequences match the bitmap queues
bit for bit). HeapQueue is the plain comparison-based reference; it is
written in Python on purpose so that throughput comparisons against the
(also pure-Python) bucketed queues measure the algorithms rather than the
runtime.
"""

from __future__ import annotations

from .bitmap_pq import BucketArray


class _IndexedMinHeap:
    """Min-heap of distinct integers with O(log n) arbitrary removal."""

    def __init__(self):
        self._heap: list[int] = []
        self._pos: dict[int, int] = {}

    def peek(self) -> int:
        return self._heap[0]

    def push(self, value: int) -> None:
        heap = self._heap
        heap.append(value)
        self._pos[value] = len(heap) - 1
        self._sift_up(len(heap) - 1)

    def remove(self, value: int) -> None:
        pos = self._pos.pop(value)
        heap = self._heap
        last = heap.pop()
        if pos < len(heap):
            heap[pos] = last
            self._pos[last] = pos
            self._sift_down(pos)
            self._sift_up(pos)

    def _sift_up(self, pos: int) -> None:
        heap, posmap = self._heap, self._pos
        value = heap[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if heap[parent] <= value:
                break
            heap[pos] = heap[parent]
            posmap[heap[pos]] = pos
            pos = parent
        heap[pos] = value
        posmap[value] = pos

    def _sift_down(self, pos: int) -> None:
        heap, posmap = self._heap, self._pos
        n = len(heap)
        value = heap[pos]
        while True:
            child = 2 * pos + 1
            if child >= n:
                break
            if child + 1 < n and heap[child + 1] < heap[child]:
                child += 1
            if heap[child] >= value:
                break
            heap[pos] = heap[child]
            posmap[heap[pos]] = pos
            pos = child
        heap[pos] = value
        posmap[value] = pos


class BhQueue(BucketArray):
    """Bucketed min-queue over ranks [0, num_buckets): bitmap_pq's bucket
    array, with its nonempty ranks indexed by a binary heap in place of
    FfsQueue's bitmap. Only min_rank and the two occupancy hooks are its
    own; the size and range checks, handles, remove, move, detach_bucket,
    relink, pop_min and peek_min come from the array."""

    def __init__(self, num_buckets: int):
        super().__init__(num_buckets)
        self._heap = _IndexedMinHeap()

    def _set_bit(self, rank: int) -> None:
        self._heap.push(rank)

    def _clear_bit(self, rank: int) -> None:
        self._heap.remove(rank)

    def min_rank(self) -> int | None:
        return self._heap.peek() if self._len else None


class HeapQueue:
    """Comparison-based min-queue (binary heap) with FIFO tie-break."""

    def __init__(self):
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0

    def __len__(self):
        return len(self._heap)

    def insert(self, rank: int, item) -> None:
        heap = self._heap
        entry = (rank, self._seq, item)
        self._seq += 1
        heap.append(entry)
        pos = len(heap) - 1
        while pos > 0:
            parent = (pos - 1) >> 1
            if heap[parent][:2] <= entry[:2]:
                break
            heap[pos] = heap[parent]
            pos = parent
        heap[pos] = entry

    def min_rank(self) -> int | None:
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop_min(self):
        heap = self._heap
        if not heap:
            return None
        rank, _, item = heap[0]
        last = heap.pop()
        n = len(heap)
        if n:
            pos = 0
            key = last[:2]
            while True:
                child = 2 * pos + 1
                if child >= n:
                    break
                if child + 1 < n and heap[child + 1][:2] < heap[child][:2]:
                    child += 1
                if heap[child][:2] >= key:
                    break
                heap[pos] = heap[child]
                pos = child
            heap[pos] = last
        return rank, item
