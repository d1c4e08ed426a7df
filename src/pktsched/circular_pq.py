"""Circular bucketed queues over a moving rank window.

Two fixed-range inner queues cover adjacent windows of q_size ranks each:
a primary window [h_index, h_index + q_size) and a buffer window immediately
after it. When the primary drains, the two queues swap roles by pointer
exchange and h_index advances by q_size. Ranks are absolute integers mapped
by subtraction, never by modulo, so the occupancy bitmaps stay truthful.

Items whose rank lies beyond both windows are parked in the LAST buffer
bucket until the windows catch up. Each rotation re-files that bucket, one
window at a time, before a later insert can reach a parked rank, so the
primary never holds a parked entry, its head is always the least rank, and
items of one rank keep FIFO order. This holds for cFFS and the circular
approximate queue alike.

insert returns the inner queue's node as a handle for O(1) remove. Re-filing
moves an entry to a fresh node, so the entry it leaves behind keeps a forward
link to the new node; the handle follows that link. The link points from the
old entry to the new node, never back, so no reference cycle outlives a pop.
"""

from __future__ import annotations

from .bitmap_pq import DEFAULT_WORD_WIDTH, FfsQueue
from .errors import InvalidHandleError, QueueStateError, StaleRankError


class _Entry:
    # node: set only when the entry is re-filed, to the node now holding it.
    __slots__ = ("rank", "item", "node")

    def __init__(self, rank, item):
        self.rank = rank
        self.item = item


class CircularWindowQueue:
    """Window-swap machinery shared by cFFS and the circular approximate queue.

    Subclasses provide _make_inner() building a fixed-range min-queue with the
    insert/remove/pop_min/pop_bucket/peek_min/min_rank/__len__ surface of
    FfsQueue: an FfsQueue for cFFS, an ApproxMinQueue for the approximate
    queue. Both keep their items in bitmap_pq's BucketArray, so a handle is
    a BucketNode and a stale one raises InvalidHandleError from either.
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
        self._overflow = 0  # entries parked in the last buffer bucket

    def _make_inner(self):
        raise NotImplementedError

    def __len__(self) -> int:
        return self.count

    def insert(self, rank: int, item):
        """File item under rank; returns a handle for remove()."""
        if rank < self.h_index:
            raise StaleRankError(f"rank {rank} below window start {self.h_index}")
        q = self.q_size
        if self.count == 0 and rank >= self.h_index + 2 * q:
            # nothing to drain, so snap the window to cover the rank
            self.h_index = (rank // q) * q
        node = self._file(rank, item)
        self.count += 1
        return node

    def insert_exact(self, rank: int, item):
        """Insert under the exact rank, moving the window down first when
        the rank lies below it (see rebase); returns a handle."""
        if rank < self.h_index:
            self.rebase(rank)
        return self.insert(rank, item)

    def _file(self, rank: int, item):
        q = self.q_size
        offset = rank - self.h_index
        if offset < q:
            return self.primary.insert(offset, _Entry(rank, item))
        if offset >= 2 * q:  # parked in the last buffer bucket
            self._overflow += 1
            offset = 2 * q - 1
        return self.secondary.insert(offset - q, _Entry(rank, item))

    def remove(self, handle):
        """Detach the item filed under `handle` and return it; O(1) unless
        its entry was re-filed, then O(number of re-files)."""
        node = handle
        while not node.in_queue:
            node = getattr(node.item, "node", None)
            if node is None:
                raise InvalidHandleError("handle is stale")
        entry = node.item
        # where an entry lives follows from its rank: parked entries sit in
        # the secondary's last bucket
        q = self.q_size
        offset = entry.rank - self.h_index
        if offset < q:
            self.primary.remove(node)
        else:
            if offset >= 2 * q:
                self._overflow -= 1
            self.secondary.remove(node)
        self.count -= 1
        return entry.item

    def rotate(self) -> None:
        """Swap primary/buffer roles, advance the window by q_size, and
        re-file the new primary's last bucket, which holds every entry
        parked past the old windows: the primary never holds one, and a
        rank keeps FIFO order."""
        if len(self.primary) != 0:
            raise QueueStateError("rotate requires an empty primary window")
        self.primary, self.secondary = self.secondary, self.primary
        self.h_index += self.q_size
        self.rotations += 1
        if self._overflow:
            self._overflow = 0  # _file counts the entries parked again
            for entry in self.primary.pop_bucket(self.q_size - 1):
                entry.node = self._file(entry.rank, entry.item)

    def rebase(self, rank: int) -> None:
        """Lower the window start to cover `rank`, so an item may be filed
        below every entry already queued (a future timestamp earlier than
        all pending ones). Re-files every entry, O(len(self))."""
        if rank < self.h_index:
            self._refile_all((rank // self.q_size) * self.q_size)

    def _resnap(self) -> None:
        self._refile_all(None)

    def _refile_all(self, h_index: int | None) -> None:
        """Re-file every entry against a window starting at h_index, or at
        the window of the least rank when h_index is None."""
        entries = []
        for inner in (self.primary, self.secondary):
            while True:
                got = inner.pop_min()
                if got is None:
                    break
                entries.append(got[1])
        self._overflow = 0
        if h_index is None:
            q = self.q_size
            h_index = (min(e.rank for e in entries) // q) * q
        self.h_index = h_index
        for e in entries:
            e.node = self._file(e.rank, e.item)

    def _settle(self) -> None:
        # the primary never holds a parked entry, so its head is the least
        # rank once it is nonempty
        while len(self.primary) == 0:
            if self._overflow == self.count:
                # everything left is parked past both windows: rotating
                # there one window at a time could take arbitrarily long
                self._resnap()
            else:
                self.rotate()

    def pop_min(self):
        if self.count == 0:
            return None
        self._settle()
        _, entry = self.primary.pop_min()
        self.count -= 1
        return entry.rank, entry.item

    def min_rank(self) -> int | None:
        if self.count == 0:
            return None
        self._settle()
        return self.primary.peek_min()[1].rank

    def peek_min(self):
        if self.count == 0:
            return None
        self._settle()
        entry = self.primary.peek_min()[1]
        return entry.rank, entry.item


class CffsQueue(CircularWindowQueue):
    """Circular hierarchical FFS queue: two FFS windows with pointer swap."""

    def __init__(self, q_size: int, word_width: int = DEFAULT_WORD_WIDTH):
        self.word_width = word_width
        super().__init__(q_size)

    def _make_inner(self) -> FfsQueue:
        return FfsQueue(self.q_size, self.word_width)

    def min_bucket_items(self) -> list:
        """Every item in the least nonempty bucket, in FIFO order."""
        if self.count == 0:
            return []
        self._settle()
        primary = self.primary
        return [e.item for e in primary.bucket_items(primary.min_rank())]

    def pop_min_bucket(self):
        """Remove the least nonempty bucket whole: (rank, items in FIFO
        order), or None when empty. Their handles become stale."""
        if self.count == 0:
            return None
        self._settle()
        primary = self.primary
        bucket = primary.min_rank()
        entries = primary.pop_bucket(bucket)
        self.count -= len(entries)
        return self.h_index + bucket, [e.item for e in entries]
