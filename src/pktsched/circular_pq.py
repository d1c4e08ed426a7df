"""Circular bucketed queues over a moving rank window.

Two fixed-range inner queues cover adjacent windows of q_size ranks each:
a primary window [h_index, h_index + q_size) and a buffer window immediately
after it. When the primary drains, the two queues swap roles by pointer
exchange and h_index advances by q_size. Ranks are absolute integers mapped
by subtraction, never by modulo, so the occupancy bitmaps stay truthful.

Items whose rank lies beyond both windows are parked in the LAST buffer
bucket until the windows catch up. Nothing else records them: a node's
abs_rank says whether it is parked. Each rotation re-files the new
primary's last bucket, one window at a time, before a later insert can
reach a parked rank, so the primary never holds a parked entry, its head
is always the least rank, and items of one rank keep FIFO order. This
holds for cFFS and the circular approximate queue alike.

insert and move take any integer rank. A rank below the window, a rank
past both windows of an empty queue, and a queue whose entries all sit in
the buffer's last bucket re-anchor the window: every entry is re-filed
against a window start at or below the rank (or the least queued rank),
in O(len). Apart from that, the window moves only by rotation.

Each item sits directly on an inner queue's BucketNode, whose abs_rank slot
keeps its absolute rank; insert returns that node as the handle. Re-filing
(at a rotation or a re-anchor) detaches the node and relinks the same node
into its new bucket, so a handle stays valid because it is the queued
node, and remove is O(1). move re-ranks a queued item in O(1): within the
primary window the inner queue relinks the node; anywhere else the node is
removed and filed again as insert files it.
"""

from __future__ import annotations

from .bitmap_pq import FfsQueue
from .errors import InvalidHandleError, QueueStateError


class CircularWindowQueue:
    """Window-swap machinery shared by cFFS and the circular approximate queue.

    Subclasses provide _make_inner() building a fixed-range min-queue with the
    insert/remove/move/detach_bucket/relink/pop_min/peek_min/min_rank/__len__
    surface of FfsQueue: an FfsQueue for cFFS, an ApproxMinQueue for the
    approximate queue. Both keep their items in bitmap_pq's BucketArray, so
    a handle is a BucketNode, and a stale or foreign one raises
    InvalidHandleError from either.

    One placement rule: insert and move file any integer rank, in rank
    order with FIFO among ties. h_index moves only in rotate and in
    _reanchor, which re-files every entry, O(len), when a rank lies below
    the window or every entry sits in the buffer's last bucket.
    """

    def __init__(self, q_size: int):
        if q_size <= 0:
            raise ValueError("q_size must be positive")
        self.q_size = q_size
        self.h_index = 0
        self.primary = self._make_inner()
        self.secondary = self._make_inner()
        self.count = 0
        self.rotations = 0

    def _make_inner(self):
        raise NotImplementedError

    def __len__(self) -> int:
        return self.count

    def insert(self, rank: int, item):
        """File item under rank, any integer; returns a handle for
        remove(). A rank below the window, or past both windows of an
        empty queue (nothing to drain first), re-anchors the window."""
        offset = rank - self.h_index
        if offset < 0 or (self.count == 0 and offset >= 2 * self.q_size):
            self._reanchor(rank)
        node = self._file(rank, item)
        self.count += 1
        return node

    def _file(self, rank: int, item, node=None):
        """File item under rank in a new node, or relink the detached
        `node` (item unused) under its abs_rank; returns the node. A rank
        past both windows is parked in the last buffer bucket."""
        q = self.q_size
        offset = rank - self.h_index
        if offset < q:
            inner = self.primary
        else:
            inner = self.secondary
            offset = q - 1 if offset >= 2 * q else offset - q
        if node is None:
            node = inner.insert(offset, item)
            node.abs_rank = rank
        else:
            inner.relink(node, offset)
        return node

    def remove(self, handle):
        """Detach the item filed under `handle` and return it, in O(1).
        Anything but one of this queue's queued nodes, such as a popped or
        removed handle, raises InvalidHandleError."""
        # where a node lives follows from its rank: parked nodes sit in the
        # secondary's last bucket; the inner queue checks it owns the node
        q = self.q_size
        try:
            offset = handle.abs_rank - self.h_index
        except (AttributeError, TypeError):  # not a circular queue's node
            raise InvalidHandleError("handle is stale or foreign") from None
        inner = self.primary if offset < q else self.secondary
        item = inner.remove(handle)
        self.count -= 1
        return item

    def move(self, handle, rank: int) -> None:
        """Re-file the item under `handle` at rank, at the tail of its
        bucket as remove then insert would; the handle stays the queued
        node. Within the primary window the inner queue relinks the node;
        otherwise it is removed and filed again, after a re-anchor for a
        rank below the window. A handle that remove would reject raises
        InvalidHandleError, before the window moves."""
        h = self.h_index
        try:
            old = handle.abs_rank - h
        except (AttributeError, TypeError):
            raise InvalidHandleError("handle is stale or foreign") from None
        new = rank - h
        if old < self.q_size and 0 <= new < self.q_size:
            self.primary.move(handle, new)
        else:
            self.remove(handle)
            if rank < h:
                self._reanchor(rank)
            self._file(rank, None, handle)
            self.count += 1
        handle.abs_rank = rank

    def rotate(self) -> None:
        """Swap primary/buffer roles, advance the window by q_size, and
        re-file the new primary's last bucket, which holds every entry
        parked past the old windows (one head check when it is empty):
        the primary never holds a parked entry, and a rank keeps FIFO
        order."""
        if len(self.primary) != 0:
            raise QueueStateError("rotate requires an empty primary window")
        self.primary, self.secondary = self.secondary, self.primary
        self.h_index += self.q_size
        self.rotations += 1
        for node in self.primary.detach_bucket(self.q_size - 1):
            self._file(node.abs_rank, None, node)

    def _reanchor(self, rank: int | None) -> None:
        """Re-file every entry against the window holding `rank`, or the
        least queued rank when rank is None. Detaches one nonempty bucket
        per inner min_rank, so O(len + nonempty buckets)."""
        nodes = []
        for inner in (self.primary, self.secondary):
            while (bucket := inner.min_rank()) is not None:
                nodes += inner.detach_bucket(bucket)
        if rank is None:
            rank = min(node.abs_rank for node in nodes)
        self.h_index = (rank // self.q_size) * self.q_size
        for node in nodes:
            self._file(node.abs_rank, None, node)

    def _settle(self) -> None:
        """Rotate (or re-anchor) until the primary is nonempty. Callers
        call it only when the primary reported empty, so a nonempty
        primary costs no length check."""
        while len(self.primary) == 0:
            if self.secondary.min_rank() == self.q_size - 1:
                # everything left sits in the buffer's last bucket, perhaps
                # parked far past both windows: rotating there one window
                # at a time could take arbitrarily long
                self._reanchor(None)
            else:
                self.rotate()

    # The primary never holds a parked entry, so its head is the least rank
    # and a primary bucket is the absolute rank minus h_index.

    def pop_min(self):
        if self.count == 0:
            return None
        got = self.primary.pop_min()
        if got is None:
            self._settle()
            got = self.primary.pop_min()
        self.count -= 1
        return self.h_index + got[0], got[1]

    def min_rank(self) -> int | None:
        if self.count == 0:
            return None
        bucket = self._min_bucket()  # may rotate, moving h_index
        return self.h_index + bucket

    def _min_bucket(self) -> int:
        # the primary's least bucket; the queue must be nonempty
        bucket = self.primary.min_rank()
        if bucket is None:
            self._settle()
            bucket = self.primary.min_rank()
        return bucket

    def peek_min(self):
        if self.count == 0:
            return None
        got = self.primary.peek_min()
        if got is None:
            self._settle()
            got = self.primary.peek_min()
        return self.h_index + got[0], got[1]


class CffsQueue(CircularWindowQueue):
    """Circular hierarchical FFS queue: two FFS windows with pointer swap."""

    def _make_inner(self) -> FfsQueue:
        return FfsQueue(self.q_size)

    def min_bucket_items(self) -> list:
        """Every item in the least nonempty bucket, in FIFO order."""
        if self.count == 0:
            return []
        return self.primary.bucket_items(self._min_bucket())

    def pop_min_bucket(self):
        """Remove the least nonempty bucket whole: (rank, items in FIFO
        order), or None when empty. Their handles become stale."""
        if self.count == 0:
            return None
        bucket = self._min_bucket()
        items = self.primary.pop_bucket(bucket)
        self.count -= len(items)
        return self.h_index + bucket, items
