"""Bucketed integer priority queues: one bucket array, three occupancy indexes.

BucketArray holds doubly-linked FIFO buckets over the ranks [0, num_buckets)
and reports each bucket's empty<->nonempty transition to its subclass. It
keeps one list, heads, of one slot per bucket: a bucket's head links back to
its tail through prev, so appending needs no second list of tails. Its
handles are the bucket nodes themselves: remove and move take one in O(1),
and detach_bucket unlinks a whole bucket and returns its nodes, which
relink can file again. Each operation splices its links in its own
frame; the occupancy hooks are the only calls it makes. The array also
owns the surface every queue over it shares: the size check, the range
check, pop_min and peek_min. A subclass supplies only the index: min_rank
and the two hooks.

FfsQueue indexes occupancy with a hierarchy of bitmaps (one bit per bucket
at the leaf, one bit per word above), so min_rank locates the lowest
nonempty bucket with one find-first-set probe (the lowest set bit) per
level, or with none when its floor hint already names that bucket.
gradient_pq.ApproxGradientQueue indexes the same array with curvature
accumulators instead, and baselines.BhQueue with a binary heap of ranks.
"""

from __future__ import annotations

from .errors import InvalidHandleError, RankRangeError


class BucketNode:
    """Handle to one enqueued item; supports O(1) unlink from its bucket.

    rank is the bucket the node sits in, and queue the BucketArray it is
    linked in (None once popped, removed or detached), so an array accepts
    only its own queued nodes. next is the node behind it in its bucket,
    None at the tail. prev is the node ahead of it, except at the bucket's
    head, where prev names the bucket's tail (the head itself when it is
    alone). abs_rank is set only by a queue that files absolute ranks under
    relative buckets (circular_pq).

    The class has no __init__: BucketNode() is an empty node, and whoever
    builds one sets its slots. BucketArray.insert sets item, rank, queue
    and next, then prev as it links the node. relink sets queue, rank,
    next and prev on a detached node, whose item (and queue, None) its
    builder set. circular_pq sets abs_rank on every node it files.
    """

    __slots__ = ("item", "rank", "abs_rank", "prev", "next", "queue")


class BucketArray:
    """FIFO buckets over the integer ranks [0, num_buckets), with insert
    handles for O(1) removal and move. The array keeps one list, heads:
    each bucket is a doubly-linked chain from its head, and the head's prev
    names the chain's tail, so a bucket costs one list slot. A whole bucket
    can be detached and its nodes relinked elsewhere, so a handle stays
    valid through a re-file. insert, move, relink and detach_bucket reject
    a rank outside [0, num_buckets) with RankRangeError, before anything
    changes.

    The array does no search of its own: a subclass keeps an occupancy index
    over it and finds the bucket to serve. A subclass defines three methods
    and needs nothing else: min_rank(), the bucket pop_min and peek_min
    serve next or None when empty; _set_bit(rank), which the array calls
    when a bucket becomes nonempty; and _clear_bit(rank), when it becomes
    empty. Nothing else changes occupancy. The bit hooks are the only
    calls insert, remove, move, relink and detach_bucket make: each splices
    its own links, in one frame. heads[rank], bucket[rank]'s first node or
    None, is for callers to read, never write: heads[min_rank()].item is
    the item pop_min serves next, reached with no call of the array's.
    """

    def __init__(self, num_buckets: int):
        if type(num_buckets) is not int or num_buckets <= 0:
            raise ValueError("num_buckets must be a positive integer")
        self.num_buckets = num_buckets
        self.heads: list[BucketNode | None] = [None] * num_buckets
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def insert(self, rank: int, item) -> BucketNode:
        """Append item to bucket[rank]; returns a handle for O(1) removal."""
        if not 0 <= rank < self.num_buckets:
            raise RankRangeError(f"rank {rank} outside [0, {self.num_buckets})")
        node = BucketNode()
        node.item = item
        node.rank = rank
        node.queue = self
        node.next = None
        head = self.heads[rank]
        if head is None:
            self.heads[rank] = node.prev = node
            self._set_bit(rank)
        else:
            tail = head.prev
            tail.next = head.prev = node
            node.prev = tail
        self._len += 1
        return node

    def _pop_head(self, rank: int):
        # the head's successor becomes the head and inherits its link to
        # the tail
        node = self.heads[rank]
        nxt = node.next
        self.heads[rank] = nxt
        if nxt is None:
            self._clear_bit(rank)
        else:
            nxt.prev = node.prev
            node.next = None
        node.prev = node.queue = None
        self._len -= 1
        return node.item

    def detach_bucket(self, rank: int) -> list[BucketNode]:
        """Unlink bucket[rank] whole and return its nodes in FIFO order.
        They are out of the queue, stale until relink files one again."""
        if not 0 <= rank < self.num_buckets:
            raise RankRangeError(f"rank {rank} outside [0, {self.num_buckets})")
        node = self.heads[rank]
        if node is None:
            return []
        self.heads[rank] = None
        self._clear_bit(rank)
        nodes = []
        while node is not None:
            nodes.append(node)
            nxt = node.next
            node.prev = node.next = node.queue = None
            node = nxt
        self._len -= len(nodes)
        return nodes

    def remove(self, handle: BucketNode):
        """Detach a previously inserted item; the handle becomes stale. A
        handle not queued in this array raises InvalidHandleError."""
        try:
            owned = handle.queue is self
        except AttributeError:  # not a BucketNode
            owned = False
        if not owned:
            raise InvalidHandleError("handle is stale or foreign")
        rank = handle.rank
        prev, nxt = handle.prev, handle.next
        if prev.next is handle:  # not the head
            prev.next = nxt
            if nxt is None:
                self.heads[rank].prev = prev
            else:
                nxt.prev = prev
        else:  # the head: prev is the tail, whose next is None
            self.heads[rank] = nxt
            if nxt is None:
                self._clear_bit(rank)
            else:
                nxt.prev = prev
        handle.prev = handle.next = handle.queue = None
        self._len -= 1
        return handle.item

    def move(self, handle: BucketNode, rank: int) -> None:
        """Relink a queued item at the tail of bucket[rank], as remove then
        insert would, keeping its handle valid."""
        if not 0 <= rank < self.num_buckets:
            raise RankRangeError(f"rank {rank} outside [0, {self.num_buckets})")
        try:
            owned = handle.queue is self
        except AttributeError:
            owned = False
        if not owned:
            raise InvalidHandleError("handle is stale or foreign")
        heads = self.heads
        old = handle.rank
        prev, nxt = handle.prev, handle.next
        if prev.next is handle:  # not the head
            prev.next = nxt
            if nxt is None:
                heads[old].prev = prev
            else:
                nxt.prev = prev
        else:  # the head: prev is the tail, whose next is None
            heads[old] = nxt
            if nxt is None:
                self._clear_bit(old)
            else:
                nxt.prev = prev
        handle.rank = rank
        handle.next = None
        head = heads[rank]
        if head is None:
            heads[rank] = handle.prev = handle
            self._set_bit(rank)
        else:
            tail = head.prev
            tail.next = head.prev = handle
            handle.prev = tail

    def relink(self, node: BucketNode, rank: int) -> None:
        """File a detached node (see detach_bucket) at the tail of
        bucket[rank]; the node is a valid handle again."""
        if not 0 <= rank < self.num_buckets:
            raise RankRangeError(f"rank {rank} outside [0, {self.num_buckets})")
        if node.queue is not None:
            raise InvalidHandleError("node is still queued")
        node.queue = self
        node.rank = rank
        node.next = None
        head = self.heads[rank]
        if head is None:
            self.heads[rank] = node.prev = node
            self._set_bit(rank)
        else:
            tail = head.prev
            tail.next = head.prev = node
            node.prev = tail
        self._len += 1

    def pop_min(self):
        """Remove and return (rank, item) from the bucket min_rank names,
        or None when empty."""
        rank = self.min_rank()
        if rank is None:
            return None
        return rank, self._pop_head(rank)

    def peek_min(self):
        """(rank, item) that pop_min would return, without removing it."""
        rank = self.min_rank()
        if rank is None:
            return None
        return rank, self.heads[rank].item

    def bucket_items(self, rank: int) -> list:
        out = []
        node = self.heads[rank]
        while node is not None:
            out.append(node.item)
            node = node.next
        return out


class FfsQueue(BucketArray):
    """Hierarchical FFS-based bucketed min-queue over ranks [0, num_buckets).

    The bitmap words are 64 bits wide, so the bitmap has ceil(log_64 N)
    levels; level 0 carries one bit per bucket and each level above carries
    one bit per word below it. A full probe touches exactly one word per
    level. _set_bit and _clear_bit start at the leaf word and stop at the
    first word that was nonempty before (set) or stays nonempty after
    (clear), so a bucket transition whose leaf word holds other buckets
    writes that one word; the levels above change only when the leaf word
    fills from empty or empties.

    _floor is a lower bound on the least nonempty bucket: _set_bit lowers
    it, and _clear_bit leaves it, since clearing a bit never fills a lower
    bucket, except that it resets _floor to num_buckets when it empties the
    bitmap, so the bucket that next fills the empty queue becomes the
    floor. When bucket[_floor] is nonempty it is the least, with no probe;
    otherwise a full probe finds the least and raises _floor to it. So a
    queue whose least bucket keeps items, gains them below, or is refilled
    from empty finds it in O(1). probe_count counts the FFS probes of full
    probes only.
    """

    def __init__(self, num_buckets: int):
        super().__init__(num_buckets)
        # levels[0] covers buckets; levels[k] covers the words of levels[k-1]
        levels = []
        n = num_buckets
        while True:
            words = (n + 63) >> 6
            levels.append([0] * words)
            if words == 1:
                break
            n = words
        self._levels = levels
        self._top_down = levels[::-1]
        self.depth = len(levels)
        self.probe_count = 0
        self._floor = num_buckets  # no nonempty bucket lies below it

    def _set_bit(self, index: int) -> None:
        if index < self._floor:
            self._floor = index
        for level in self._levels:
            word_idx = index >> 6
            old = level[word_idx]
            level[word_idx] = old | (1 << (index & 63))
            if old != 0:
                return
            index = word_idx

    def _clear_bit(self, index: int) -> None:
        for level in self._levels:
            word_idx = index >> 6
            word = level[word_idx] & ~(1 << (index & 63))
            level[word_idx] = word
            if word:
                return
            index = word_idx
        # the top word is zero, so the queue is empty: the bucket that
        # fills it next is its least
        self._floor = self.num_buckets

    def min_rank(self) -> int | None:
        """The least nonempty bucket, or None when empty: bucket[_floor]
        when it is nonempty, else one full probe, which raises _floor to
        its answer."""
        if self._len == 0:
            return None
        idx = self._floor
        if self.heads[idx] is not None:
            return idx
        idx = 0
        for level in self._top_down:
            word = level[idx]
            idx = (idx << 6) + (word & -word).bit_length() - 1
        self.probe_count += self.depth  # one FFS probe per level
        self._floor = idx
        return idx

    def check_bitmap(self) -> bool:
        """Recompute every bitmap level from scratch and compare. Test hook."""
        expected = [0] * len(self._levels[0])
        for i in range(self.num_buckets):
            if self.heads[i] is not None:
                expected[i >> 6] |= 1 << (i & 63)
        levels = [expected]
        while len(levels[-1]) > 1:
            below = levels[-1]
            above = [0] * ((len(below) + 63) >> 6)
            for j, word in enumerate(below):
                if word:
                    above[j >> 6] |= 1 << (j & 63)
            levels.append(above)
        return levels == self._levels
