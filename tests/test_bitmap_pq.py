"""Flat/hierarchical FFS queue tests against independent oracles."""

import random
import tracemalloc

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pktsched.baselines import BhQueue
from pktsched.bitmap_pq import BucketArray, FfsQueue
from pktsched.circular_pq import CffsQueue
from pktsched.errors import InvalidHandleError, RankRangeError
from pktsched.gradient_pq import ApproxGradientQueue, CircularApproxQueue


# The multiset test below draws an RNG seed and runs 3000 steps from it:
# shrinking a seed simplifies nothing, and one failing draw shrank for
# minutes with no output, so it skips the shrink phase.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


class MultisetOracle:
    """Sorted multiset with FIFO tie-break, implemented naively."""

    def __init__(self):
        self.items = []  # (rank, seq, item)
        self.seq = 0

    def insert(self, rank, item):
        self.items.append((rank, self.seq, item))
        self.seq += 1

    def pop_min(self):
        if not self.items:
            return None
        best = min(self.items, key=lambda t: (t[0], t[1]))
        self.items.remove(best)
        return best[0], best[2]

    def __len__(self):
        return len(self.items)


def test_fifo_within_bucket():
    q = FfsQueue(16)
    q.insert(5, "a")
    q.insert(5, "b")
    q.insert(5, "c")
    assert [q.pop_min()[1] for _ in range(3)] == ["a", "b", "c"]


def test_rank_range_checked():
    q = FfsQueue(8)
    with pytest.raises(RankRangeError):
        q.insert(8, "x")
    with pytest.raises(RankRangeError):
        q.insert(-1, "x")


def test_empty_queue_behaviour():
    q = FfsQueue(8)
    assert q.pop_min() is None
    assert q.peek_min() is None
    assert q.min_rank() is None
    assert len(q) == 0


def test_peek_matches_pop():
    q = FfsQueue(64)
    for rank in (9, 3, 40, 3):
        q.insert(rank, rank)
    assert q.peek_min() == (3, 3)
    assert q.pop_min() == (3, 3)
    assert q.min_rank() == 3


class ScanQueue(BucketArray):
    """A bucket queue of only the three methods BucketArray asks for: it
    keeps no index and scans heads for the least nonempty bucket."""

    def min_rank(self):
        return next((rank for rank, head in enumerate(self.heads)
                     if head is not None), None)

    def _set_bit(self, rank):
        pass

    def _clear_bit(self, rank):
        pass


def test_bucket_array_needs_only_three_methods():
    q = ScanQueue(8)
    assert q.peek_min() is None and q.pop_min() is None
    for rank, item in ((3, "a"), (1, "b"), (3, "c"), (0, "d"), (1, "e")):
        q.insert(rank, item)
    served = []
    while (peeked := q.peek_min()) is not None:
        popped = q.pop_min()
        assert popped == peeked
        served.append(popped)
    assert served == [(0, "d"), (1, "b"), (1, "e"), (3, "a"), (3, "c")]
    assert len(q) == 0 and q.pop_min() is None


def test_multi_level_hierarchy_depths():
    assert FfsQueue(64).depth == 1
    assert FfsQueue(65).depth == 2
    assert FfsQueue(4096).depth == 2
    assert FfsQueue(4097).depth == 3
    assert FfsQueue(100_000).depth == 3
    assert FfsQueue(262_144).depth == 3
    assert FfsQueue(262_145).depth == 4


def test_probe_count_bounded_by_depth():
    q = FfsQueue(100_000)
    for rank in (99_999, 1, 50_000):
        q.insert(rank, rank)
    before = q.probe_count
    assert q.pop_min() == (1, 1)  # the floor names bucket 1 exactly
    assert q.probe_count == before
    assert q.pop_min() == (50_000, 50_000)  # the floor is stale: full probe
    assert q.probe_count - before == q.depth


@pytest.mark.parametrize("empty_by", ["pop_min", "remove", "detach_bucket"])
@pytest.mark.parametrize("num_buckets", [64, 65, 4097, 262_145])
def test_insert_into_empty_needs_no_probe(num_buckets, empty_by):
    """Whichever call empties the queue resets the floor, at every bitmap
    depth (1 to 4 levels here), so a bucket filled above the old least is
    found with no full probe."""
    q = FfsQueue(num_buckets)
    old, new = num_buckets // 3, num_buckets - 1
    handle = q.insert(old, "a")
    assert q.min_rank() == old
    if empty_by == "pop_min":
        assert q.pop_min() == (old, "a")
    elif empty_by == "remove":
        assert q.remove(handle) == "a"
    else:
        assert [n.item for n in q.detach_bucket(old)] == ["a"]
    q.insert(new, "b")  # fills the only nonempty bucket: the floor is exact
    before = q.probe_count
    assert q.min_rank() == new
    assert q.probe_count == before


# queue kind -> (queue, ranks to insert): one rank per window of a
# circular queue (primary, buffer, parked past both), the least first
HANDLE_QUEUES = {
    "ffs": (lambda: FfsQueue(4097), (5, 64, 4096)),
    "approx": (ApproxGradientQueue, (5, 64, 500)),
    "cffs": (lambda: CffsQueue(64), (5, 64 + 5, 1000)),
    "capprox": (lambda: CircularApproxQueue(64), (5, 64 + 5, 1000)),
}


@pytest.mark.parametrize("kind", sorted(HANDLE_QUEUES))
def test_insert_handles_are_complete_nodes(kind):
    """BucketNode has no __init__, so the code that builds a node must set
    every slot a reader touches: a queued handle reads prev, next, queue,
    rank and item (and abs_rank in a circular queue) without an
    AttributeError, and a popped or removed handle passed to remove or
    move raises InvalidHandleError, not AttributeError."""
    make, ranks = HANDLE_QUEUES[kind]
    q = make()
    circular = hasattr(q, "h_index")
    handles = [q.insert(rank, f"item{rank}") for rank in ranks]
    for handle, rank in zip(handles, ranks):
        assert handle.item == f"item{rank}"
        assert handle.queue is not None
        assert handle.next is None and handle.prev is handle  # alone
        assert type(handle.rank) is int
        if circular:
            assert handle.abs_rank == rank
        else:
            assert handle.rank == rank
    popped, removed = handles[0], handles[1]
    assert q.pop_min() == (ranks[0], popped.item)
    assert q.remove(removed) == removed.item
    for stale in (popped, removed):
        assert stale.queue is None and stale.prev is None
        assert stale.next is None
        with pytest.raises(InvalidHandleError):
            q.remove(stale)
        with pytest.raises(InvalidHandleError):
            q.move(stale, ranks[0])
    assert len(q) == 1


def test_handle_removal():
    q = FfsQueue(16)
    h1 = q.insert(4, "a")
    q.insert(4, "b")
    h3 = q.insert(7, "c")
    assert q.remove(h1) == "a"
    assert q.pop_min() == (4, "b")
    assert q.remove(h3) == "c"
    assert len(q) == 0
    with pytest.raises(InvalidHandleError):
        q.remove(h1)  # handle already consumed
    with pytest.raises(InvalidHandleError):
        q.remove("not a handle")


def test_removal_clears_bitmap_bits():
    q = FfsQueue(128)
    h = q.insert(100, "only")
    q.remove(h)
    assert q.min_rank() is None
    assert q.check_bitmap()


# The least bucket counts of bitmap depth 2, 3 and 4 (64-bit words).
DEEP_SIZES = (65, 4097, 262_145)


def _draw_rank(rng, n):
    """A rank in [0, n): uniform, or among the lowest or the highest 130
    ranks. Those span at least two level-0 words at each end, and the
    highest also the last two words of every level below the top, which
    uniform draws over a deep queue would almost never reach."""
    band = rng.randrange(3)
    if band == 0:
        return rng.randrange(n)
    if band == 1:
        return rng.randrange(min(n, 130))
    return rng.randrange(max(0, n - 130), n)


@pytest.mark.parametrize("n", DEEP_SIZES)
def test_random_ops_match_oracle(n):
    """Every level below the top sets bits in more than one word, and the
    final drain clears them all."""
    rng = random.Random(12345)
    q = FfsQueue(n)
    oracle = MultisetOracle()
    seen = [set() for _ in q._levels]  # words found nonzero, per level
    for step in range(20_000):
        if oracle.items and rng.random() < 0.45:
            assert q.pop_min() == oracle.pop_min()
        else:
            rank = _draw_rank(rng, n)
            q.insert(rank, step)
            oracle.insert(rank, step)
        if step % 100 == 0:
            for words, level in zip(seen, q._levels):
                words.update(j for j, word in enumerate(level) if word)
    assert all(len(words) > 1 for words, level in zip(seen, q._levels)
               if len(level) > 1)
    while len(oracle):
        assert q.pop_min() == oracle.pop_min()
    assert q.pop_min() is None
    assert q.check_bitmap()


def _word_edge_ranks(n):
    """The ranks where a bitmap word ends, as far as they lie in [0, n):
    64k - 1 and 64k (leaf words) and 4096k - 1 and 4096k (level-1 words)
    for k = 1 and 2, 262 143 and 262 144 (level-2 words), 0 and n - 1."""
    edges = {0, n - 1, 262_143, 262_144}
    for k in (1, 2):
        edges.update((64 * k - 1, 64 * k, 4096 * k - 1, 4096 * k))
    return sorted(r for r in edges if r < n)


@pytest.mark.parametrize("descending", [False, True], ids=["up", "down"])
@pytest.mark.parametrize("n", (64, *DEEP_SIZES))
def test_word_edge_ops_keep_bitmap_exact(n, descending):
    """insert, move, remove, detach_bucket, relink and pop_min at the
    ranks where bitmap words end, at bitmap depth 1 to 4, walking the
    edges upward and downward. After every operation every level is
    recomputed from the buckets (check_bitmap) and min_rank is the least
    rank of a sorted model. _set_bit and _clear_bit stop at the leaf word
    unless it fills from empty or empties, so an upper level they fail to
    update shows here."""
    ranks = _word_edge_ranks(n)
    if descending:
        ranks.reverse()
    q = FfsQueue(n)
    live = {}  # the model: queued handle -> its rank

    def check():
        assert q.check_bitmap()
        assert q.min_rank() == (min(live.values()) if live else None)
        assert len(q) == len(live)

    # each edge bucket filled, then a second node behind the first, which
    # leaves every word as it was
    handles = []
    for rank in ranks + ranks:
        handles.append(q.insert(rank, rank))
        live[handles[-1]] = rank
        check()
    # the first node of each bucket moves to the mirrored edge
    for handle, rank in zip(handles, reversed(ranks)):
        q.move(handle, rank)
        live[handle] = rank
        check()
    for handle in handles[::2]:
        q.remove(handle)
        del live[handle]
        check()
    # each edge bucket detached whole and its nodes relinked one edge on
    for i, rank in enumerate(ranks):
        nodes = q.detach_bucket(rank)
        for node in nodes:
            del live[node]
        check()
        for node in nodes:
            q.relink(node, ranks[(i + 1) % len(ranks)])
            live[node] = node.rank
            check()
    while live:
        head = q.heads[q.min_rank()]
        assert q.pop_min() == (live.pop(head), head.item)
        check()


def test_exhaustive_small_sequences():
    """Every insert/pop interleaving over four ranks matches the oracle at
    each bitmap depth; ranks cycle deterministically per pattern. The four
    ranks (the ends and the middle of the queue) sit in more than one word
    of every level below the top."""
    for n in DEEP_SIZES:
        ranks = (0, n // 2, n - 2, n - 1)
        q = FfsQueue(n)
        for pattern in range(1 << 10):
            oracle = MultisetOracle()
            rank = 0
            for bit in range(10):
                if pattern >> bit & 1 and len(oracle):
                    assert q.pop_min() == oracle.pop_min()
                else:
                    r = ranks[(rank * 3 + bit) % 4]
                    rank += 1
                    q.insert(r, bit)
                    oracle.insert(r, bit)
            while len(oracle):
                assert q.pop_min() == oracle.pop_min()
            assert q.pop_min() is None
        assert q.check_bitmap()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 255)), max_size=60))
def test_bitmap_consistency_property(ops):
    q = FfsQueue(256)
    for is_pop, rank in ops:
        if is_pop:
            q.pop_min()
        else:
            q.insert(rank, rank)
        assert q.check_bitmap()


def _check_occupancy(q) -> None:
    """The occupancy index matches the buckets: the bitmap of an FfsQueue,
    the heap of a BhQueue (exactly the nonempty ranks, in heap order), the
    mask and accumulators of an ApproxGradientQueue."""
    if isinstance(q, FfsQueue):
        assert q.check_bitmap()
        return
    if isinstance(q, BhQueue):
        heap = q._heap._heap
        assert sorted(heap) == [r for r in range(q.num_buckets) if q.bucket_items(r)]
        assert all(heap[(i - 1) >> 1] < heap[i] for i in range(1, len(heap)))
        assert all(q._heap._pos[r] == i for i, r in enumerate(heap))
        return
    state = q.state
    mask = sum(1 << r for r in range(q.num_buckets) if q.bucket_items(r))
    assert state.occupied == mask
    assert (state.a, state.b) == state.recompute()


def _check_links(q) -> None:
    """Every bucket is a well-formed chain of q's own nodes: each node sits
    under its bucket's rank, each node past the head has its back-link,
    the head's prev names the last node reached by next (the head itself
    when alone), that node's next is None, and the bucket lengths add up to
    len(q). A chain longer than len(q), such as a cycle, fails rather than
    hangs."""
    total = 0
    for r in range(q.num_buckets):
        head = node = q.heads[r]
        while node is not None:
            assert node.rank == r and node.queue is q
            total += 1
            assert total <= len(q)
            if node.next is None:
                assert head.prev is node
            else:
                assert node.next.prev is node
            node = node.next
    assert total == len(q)


QUEUES = {
    **{f"ffs{n}": (lambda n=n: FfsQueue(n)) for n in DEEP_SIZES},
    "approx": ApproxGradientQueue,
    "bh": lambda: BhQueue(100),
}


@settings(max_examples=8, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(QUEUES)),
       drain_least=st.booleans())
@example(seed=0, kind="approx", drain_least=False)
@example(seed=5768908, kind="approx", drain_least=False)
@example(seed=0, kind="ffs262145", drain_least=True)
@example(seed=0, kind="bh", drain_least=True)
def test_move_and_detach_bucket_match_multiset(seed, kind, drain_least):
    """insert / move / detach_bucket / remove / pop against a bucket-list
    multiset (FIFO within a bucket), with the occupancy index checked every
    step (an FfsQueue's bitmap, O(buckets) to recompute, at the end of the
    run); a moved handle stays valid and a drained one goes stale.
    detach_bucket returns the bucket's own handles in FIFO order, each
    unlinked (queue, prev and next None) and rejected by remove and move
    from then on. FfsQueue and BhQueue pop the least bucket;
    ApproxGradientQueue pops the head of whichever bucket its search names.
    With drain_least, move, detach_bucket and remove take from the least
    nonempty bucket, so its floor hint goes stale. Every 250 steps and at
    the end, every bucket's links are checked whole.

    For FfsQueue, every step also checks that no nonempty bucket lies below
    _floor; for FfsQueue and BhQueue, that min_rank and peek_min name the
    least nonempty bucket and its head."""
    rng = random.Random(seed)
    q = QUEUES[kind]()
    approx = kind == "approx"
    buckets: dict[int, list] = {}  # rank -> items in FIFO order
    where = {}  # live item -> rank
    handles = {}
    dead = []
    drained = moved = 0

    def least():
        return min((r for r, items in buckets.items() if items), default=None)

    def pick_item():
        if drain_least:
            return rng.choice(buckets[least()])
        return rng.choice(list(where))

    for step in range(3_000):
        if step % 250 == 0:
            _check_links(q)
        op = rng.random()
        if not where or op < 0.4:
            rank = _draw_rank(rng, q.num_buckets)
            handles[step] = q.insert(rank, step)
            buckets.setdefault(rank, []).append(step)
            where[step] = rank
        elif op < 0.7:
            item = pick_item()
            rank = _draw_rank(rng, q.num_buckets)
            q.move(handles[item], rank)
            buckets[where[item]].remove(item)
            buckets.setdefault(rank, []).append(item)
            where[item] = rank
            moved += 1
        elif op < 0.8:
            if drain_least:
                rank = least()
            elif op < 0.78:
                rank = rng.choice(list(where.values()))
            else:  # most likely an empty bucket
                rank = _draw_rank(rng, q.num_buckets)
            nodes = q.detach_bucket(rank)
            got = [node.item for node in nodes]
            assert got == buckets.pop(rank, [])
            for node in nodes:
                assert node is handles.pop(node.item)
                assert node.queue is node.prev is node.next is None
                del where[node.item]
                dead.append(node)
            if nodes:
                with pytest.raises(InvalidHandleError):
                    q.remove(nodes[0])
                with pytest.raises(InvalidHandleError):
                    q.move(nodes[-1], 0)
            drained += bool(nodes)
        elif op < 0.9:
            if approx:
                rank, item = q.pop_min()
            else:
                rank = least()
                item = buckets[rank][0]
                assert q.pop_min() == (rank, item)
            assert buckets[rank].pop(0) == item
            del where[item]
            dead.append(handles.pop(item))
        elif op < 0.97 or not dead:
            item = pick_item()
            assert q.remove(handles[item]) == item
            buckets[where.pop(item)].remove(item)
            dead.append(handles.pop(item))
        else:
            stale = rng.choice(dead)
            with pytest.raises(InvalidHandleError):
                q.remove(stale)
            with pytest.raises(InvalidHandleError):
                q.move(stale, 0)
        assert len(q) == len(where)
        if isinstance(q, FfsQueue):  # its bitmap is checked at the end
            assert not where or q._floor <= least()
        else:
            _check_occupancy(q)
        if not approx:
            rank = least()
            assert q.min_rank() == rank
            assert q.peek_min() == (None if rank is None
                                    else (rank, buckets[rank][0]))
    assert drained > 0 and moved > 0
    _check_occupancy(q)
    _check_links(q)
    for node in dead:
        assert node.prev is None and node.next is None


def test_move_rejects_bad_rank():
    q = FfsQueue(8)
    h = q.insert(3, "x")
    q.insert(3, "y")
    with pytest.raises(RankRangeError):
        q.move(h, 8)
    with pytest.raises(RankRangeError):
        q.detach_bucket(-1)
    q.move(h, 3)  # same bucket: relinked at its tail
    assert [node.item for node in q.detach_bucket(3)] == ["y", "x"]


SPLICE_QUEUES = {"ffs130": lambda: FfsQueue(130), "approx": ApproxGradientQueue,
                 "bh": lambda: BhQueue(130)}


@pytest.mark.parametrize("kind", sorted(SPLICE_QUEUES))
def test_move_splices_every_position(kind):
    """move takes the head, a middle node, the tail or the sole node of
    bucket 70 and appends it to empty bucket 0 (another bitmap word, below
    the FfsQueue floor), to nonempty bucket 129 (a third word), or to its
    own bucket, where it lands at the tail."""
    for size, pos in ((3, 0), (3, 1), (3, 2), (1, 0)):
        for dest in (0, 129, 70):
            q = SPLICE_QUEUES[kind]()
            buckets = {0: [], 70: [f"x{i}" for i in range(size)], 129: ["y"]}
            handles = {item: q.insert(70, item) for item in buckets[70]}
            q.insert(129, "y")
            item = buckets[70].pop(pos)
            buckets[dest].append(item)
            q.move(handles[item], dest)
            for rank, items in buckets.items():
                assert q.bucket_items(rank) == items
            _check_links(q)
            _check_occupancy(q)
            if isinstance(q, FfsQueue):
                assert q._floor <= min(r for r, items in buckets.items() if items)


@pytest.mark.parametrize("op", ["insert", "move", "relink", "detach_bucket"])
@pytest.mark.parametrize("kind", sorted(SPLICE_QUEUES))
def test_rank_range_rejected_before_any_change(kind, op):
    """insert, move, relink and detach_bucket reject ranks -1 and
    num_buckets with RankRangeError and leave the queue as it was: the
    same buckets and items, well-formed links, a true occupancy index, and
    the detached node still detached. A list would index -1 from its end,
    so the check has a lower bound too."""
    q = SPLICE_QUEUES[kind]()
    n = q.num_buckets
    handle = q.insert(0, "a")
    q.insert(n - 1, "z")
    q.insert(1, "b")
    (loose,) = q.detach_bucket(1)
    calls = {"insert": lambda rank: q.insert(rank, "new"),
             "move": lambda rank: q.move(handle, rank),
             "relink": lambda rank: q.relink(loose, rank),
             "detach_bucket": q.detach_bucket}
    before = [q.bucket_items(r) for r in range(n)]
    for rank in (-1, n):
        with pytest.raises(RankRangeError):
            calls[op](rank)
        assert [q.bucket_items(r) for r in range(n)] == before
        assert len(q) == 2 and loose.queue is None and handle.rank == 0
        _check_links(q)
        _check_occupancy(q)


@pytest.mark.parametrize("make, windows", [
    (lambda: FfsQueue(20_000), 1),
    (ApproxGradientQueue, 1),
    (lambda: CffsQueue(1024), 2),
], ids=["ffs20000", "approx", "cffs1024"])
def test_bucket_footprint(make, windows):
    """A bucket costs one list slot: building a queue allocates at most
    8.5 B per bucket per window, plus 1 KiB for the objects and the
    occupancy index's words. A second list of tails would cost 16 B per
    bucket. A first queue is built untraced, so caches filled on first
    use (the gradient queue's weight table) are not counted."""
    make()
    tracemalloc.start()
    try:
        q = make()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buckets = q.num_buckets if windows == 1 else windows * q.q_size
    assert size <= 8.5 * buckets + 1024
