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
removed and filed again by relink. relink files a detached node the
caller holds (insert files its new node through it when the rank lies
outside both windows), and detach_bucket unlinks a primary bucket whole
and returns its nodes, so an item that is its own node (a BucketNode
subclass, as core.ShaperEntry is) costs one object, and draining the
least bucket costs one min_rank probe.
"""

from __future__ import annotations

from .bitmap_pq import BucketNode, FfsQueue
from .errors import InvalidHandleError, QueueStateError, RankRangeError


class CircularWindowQueue:
    """Window-swap machinery shared by cFFS and the circular approximate queue.

    Subclasses provide _make_inner() building a bitmap_pq.BucketArray
    subclass over [0, q_size): an FfsQueue for cFFS, an
    ApproxGradientQueue for the approximate queue. The window machinery
    calls its insert/remove/move/detach_bucket/relink/pop_min/min_rank/
    __len__ and reads its heads, so a handle is a BucketNode, and a stale
    or foreign one raises InvalidHandleError from either.

    One placement rule: insert and move file any integer rank, in rank
    order with FIFO among ties. h_index moves only in rotate and in
    _reanchor, which re-files every entry, O(len), when a rank lies below
    the window or every entry sits in the buffer's last bucket.
    """

    def __init__(self, q_size: int):
        if type(q_size) is not int or q_size <= 0:
            raise ValueError("q_size must be a positive integer")
        self.q_size = q_size
        self.h_index = 0
        self.primary = self._make_inner()
        self.secondary = self._make_inner()
        self.rotations = 0

    def _make_inner(self):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.primary) + len(self.secondary)

    def insert(self, rank: int, item):
        """File item under rank, any integer, in a new node, as relink
        files it; returns the node as the handle for remove(). A rank in
        either window goes straight into that window's queue, which saves
        relink's calls on most inserts (97% of them on the approximate
        queue's hold workload)."""
        q = self.q_size
        offset = rank - self.h_index
        if 0 <= offset < q:
            node = self.primary.insert(offset, item)
        elif q <= offset < 2 * q:
            node = self.secondary.insert(offset - q, item)
        else:
            node = BucketNode()
            node.item = item
            node.queue = None
            self.relink(node, rank)
            return node
        node.abs_rank = rank
        return node

    def relink(self, node, rank: int) -> None:
        """File a detached node under rank: one that detach_bucket
        returned, or a new node of a BucketNode subclass whose queue is
        None (core.ShaperEntry). The node is then its own handle. A still
        queued node raises InvalidHandleError before anything changes. A
        rank in the primary window goes straight into the primary's relink
        (every shaper stage filed within the window takes this path). A
        rank below the window, or past both windows of an empty queue
        (nothing to drain first), re-anchors the window."""
        if node.queue is not None:
            raise InvalidHandleError("node is still queued")
        node.abs_rank = rank
        offset = rank - self.h_index
        if 0 <= offset < self.q_size:
            self.primary.relink(node, offset)
            return
        if offset < 0 or (offset >= 2 * self.q_size and not len(self)):
            self._reanchor(rank)
        self._file(node)

    def _file(self, node) -> None:
        """Relink a detached node under its abs_rank, which must not lie
        below the window. A rank past both windows is parked in the last
        buffer bucket."""
        q = self.q_size
        offset = node.abs_rank - self.h_index
        if offset < q:
            self.primary.relink(node, offset)
        else:
            self.secondary.relink(node, q - 1 if offset >= 2 * q else offset - q)

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
        return inner.remove(handle)

    def move(self, handle, rank: int) -> None:
        """Re-file the item under `handle` at rank, at the tail of its
        bucket as remove then insert would; the handle stays the queued
        node. Within the primary window the inner queue relinks the node;
        otherwise it is removed and filed again by relink. A handle that
        remove would reject raises InvalidHandleError, before the window
        moves."""
        h = self.h_index
        try:
            old = handle.abs_rank - h
        except (AttributeError, TypeError):
            raise InvalidHandleError("handle is stale or foreign") from None
        new = rank - h
        if old < self.q_size and 0 <= new < self.q_size:
            self.primary.move(handle, new)
            handle.abs_rank = rank
        else:
            self.remove(handle)
            self.relink(handle, rank)

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
            self._file(node)

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
            self._file(node)

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
        got = self.primary.pop_min()
        if got is None:
            if not len(self.secondary):
                return None
            self._settle()
            got = self.primary.pop_min()
        return self.h_index + got[0], got[1]

    def min_rank(self) -> int | None:
        """The least queued rank, or None when empty. It always lies in
        the primary window: an empty primary is settled first, which may
        move h_index. For the r it returns, primary.heads[r - h_index].item
        is what pop_min would return: read-only, as BucketArray.heads."""
        bucket = self.primary.min_rank()
        if bucket is None:
            if not len(self.secondary):
                return None
            self._settle()
            bucket = self.primary.min_rank()
        return self.h_index + bucket

    def detach_bucket(self, rank: int) -> list:
        """Unlink the bucket of `rank`, which must lie in the primary
        window (the rank min_rank returns does), and return its nodes in
        FIFO order, each out of the queue with queue, prev and next None.
        relink files one again."""
        offset = rank - self.h_index
        if not 0 <= offset < self.q_size:
            raise RankRangeError(f"rank {rank} outside the primary window")
        return self.primary.detach_bucket(offset)

    def peek_min(self):
        """(rank, item) that pop_min would return, without removing it:
        min_rank, then the primary's bucket head."""
        rank = self.min_rank()
        if rank is None:
            return None
        return rank, self.primary.heads[rank - self.h_index].item


class CffsQueue(CircularWindowQueue):
    """Circular hierarchical FFS queue: two FFS windows with pointer swap."""

    def _make_inner(self) -> FfsQueue:
        return FfsQueue(self.q_size)

    def min_bucket_items(self) -> list:
        """Every item in the least nonempty bucket, in FIFO order."""
        rank = self.min_rank()
        if rank is None:
            return []
        return self.primary.bucket_items(rank - self.h_index)
