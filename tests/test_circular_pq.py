"""Circular (moving-window) queue tests."""

import heapq
import random
from collections import defaultdict, deque

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pktsched.bitmap_pq import FfsQueue
from pktsched.circular_pq import CffsQueue
from pktsched.errors import InvalidHandleError, QueueStateError
from pktsched.gradient_pq import CircularApproxQueue

# The seed-driven tests below draw an RNG seed and run 10^4 steps from it:
# shrinking a seed simplifies nothing, and one failing draw shrank for
# minutes with no output, so those tests skip the shrink phase.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def test_window_mapping_q8():
    q = CffsQueue(8)
    q.insert(6, "in-window")
    q.insert(13, "buffer")
    q.insert(99, "overflow")
    # rank 6 -> primary bucket 6; rank 13 -> buffer bucket 5;
    # rank 99 -> last buffer bucket, parked past both windows
    assert len(q.primary.bucket_items(6)) == 1
    assert len(q.secondary.bucket_items(5)) == 1
    assert len(q.secondary.bucket_items(7)) == 1
    node = q.secondary.heads[7]
    assert node.item == "overflow"
    assert node.abs_rank == 99 >= q.h_index + 2 * q.q_size


def test_rotation_advances_window():
    q = CffsQueue(8)
    for r in range(8):
        q.insert(r, r)
    q.insert(9, 9)
    assert q.h_index == 0
    for r in range(8):
        assert q.pop_min() == (r, r)
    assert q.pop_min() == (9, 9)  # forces a rotation first
    assert q.h_index == 8
    assert q.rotations == 1


def test_overflow_survives_multiple_rotations():
    q = CffsQueue(8)
    q.insert(3, "a")
    q.insert(99, "z")  # lands 12 windows ahead
    assert q.pop_min() == (3, "a")
    assert q.pop_min() == (99, "z")
    assert q.h_index == 96  # 99 lives in window [96, 104)
    assert q.pop_min() is None


def test_snap_on_empty_insert():
    q = CffsQueue(8)
    q.insert(1000, "far")
    assert q.h_index == 1000  # (1000 // 8) * 8
    assert q.pop_min() == (1000, "far")


def test_rotate_requires_empty_primary():
    q = CffsQueue(8)
    q.insert(2, "x")
    with pytest.raises(QueueStateError):
        q.rotate()


def test_peek_and_min_rank_transparent():
    q = CffsQueue(4)
    q.insert(7, "later")
    q.insert(30, "way-later")
    assert q.min_rank() == 7
    assert q.peek_min() == (7, "later")
    assert q.pop_min() == (7, "later")
    assert q.min_rank() == 30


def test_fifo_within_rank():
    q = CffsQueue(16)
    q.insert(5, "a")
    q.insert(5, "b")
    assert q.pop_min() == (5, "a")
    assert q.pop_min() == (5, "b")


def test_overflow_fifo_among_equal_ranks():
    q = CffsQueue(4)
    q.insert(0, "now")
    for tag in ("p", "q", "r"):
        q.insert(50, tag)
    assert q.pop_min() == (0, "now")
    assert [q.pop_min()[1] for _ in range(3)] == ["p", "q", "r"]


def test_circular_approx_parked_entry_leaves_before_later_tie():
    # default 524-rank windows: 1053 is parked past both; min_rank rotates
    # the windows, and the rotation re-files it before B arrives
    q = CircularApproxQueue()
    for rank, item in ((0, "x"), (525, "y"), (1053, "A")):
        q.insert(rank, item)
    assert q.pop_min() == (0, "x")
    assert q.min_rank() == 525
    q.insert(1053, "B")
    assert [q.pop_min() for _ in range(3)] == [(525, "y"), (1053, "A"),
                                               (1053, "B")]


def test_windowed_random_ops_match_fifo_oracle():
    """Ranks kept inside the two live windows: FIFO ties must hold exactly."""
    rng = random.Random(777)
    q = CffsQueue(32)
    pending = []  # (rank, seq) oracle
    seq = 0
    for _ in range(30_000):
        if pending and rng.random() < 0.5:
            best = min(pending)
            pending.remove(best)
            assert q.pop_min() == best
        else:
            rank = q.h_index + rng.randrange(2 * q.q_size)
            q.insert(rank, seq)
            pending.append((rank, seq))
            seq += 1
    while pending:
        best = min(pending)
        pending.remove(best)
        assert q.pop_min() == best


def test_overflow_random_ops_preserve_rank_order():
    """Far-future ranks park in the overflow bucket, and rotation re-files
    them before a later insert can reach their rank: pop order is exact by
    rank and FIFO among ties."""
    rng = random.Random(333)
    q = CffsQueue(32)
    pending = []  # (rank, seq) oracle
    low = 0
    for seq in range(20_000):
        if pending and rng.random() < 0.5:
            best = min(pending)
            pending.remove(best)
            assert q.pop_min() == best
            low = max(low, best[0])
        else:
            rank = max(low, q.h_index) + rng.randrange(200)
            q.insert(rank, seq)
            pending.append((rank, seq))
    while pending:
        best = min(pending)
        pending.remove(best)
        assert q.pop_min() == best


def test_count_tracks_content():
    q = CffsQueue(8)
    assert len(q) == 0
    q.insert(0, 0)
    q.insert(100, 1)
    assert len(q) == 2
    q.pop_min()
    q.pop_min()
    assert len(q) == 0
    assert q.pop_min() is None


class _CountingCffs(CffsQueue):
    resnaps = 0  # re-anchors to the least rank, all entries being parked

    def _reanchor(self, rank):
        self.resnaps += rank is None
        super()._reanchor(rank)


def _bucket_nodes(array, index) -> list:
    """The nodes of array's bucket[index], head first."""
    nodes = []
    node = array.heads[index]
    while node is not None:
        nodes.append(node)
        node = node.next
    return nodes


def _overflow_recount(q) -> int:
    """Entries parked past their window, counted from the buckets."""
    n = 0
    for inner, start in ((q.primary, q.h_index), (q.secondary, q.h_index + q.q_size)):
        n += sum(e.abs_rank >= start + q.q_size for e in _bucket_nodes(inner, q.q_size - 1))
    return n


def _primary_holds_no_parked_entry(q) -> bool:
    window_end = q.h_index + q.q_size
    return all(e.abs_rank < window_end for e in _bucket_nodes(q.primary, q.q_size - 1))


def _head(q):
    """The item the primary's bucket head names after min_rank, which the
    circular queue's contract says pop_min returns next. h_index is read
    after min_rank, which may rotate the window."""
    rank = q.min_rank()
    return q.primary.heads[rank - q.h_index].item


def _window(q, rank) -> int:
    """0 for the primary window, 1 for the buffer window, 2 past both."""
    return min((rank - q.h_index) // q.q_size, 2)


def _assert_every_move_kind(moves) -> None:
    """Moves ran within each window, across them, into and out of the
    parked bucket, and below the window."""
    assert moves[0, 0] and moves[1, 1] and moves[2, 2]
    assert moves[0, 1] and moves[1, 0]
    assert moves[0, 2] + moves[1, 2] and moves[2, 0] + moves[2, 1]
    assert moves["below"]


# (old window, new window) of one move of each kind _assert_every_move_kind
# asserts, apart from a move below the window
MOVE_KINDS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (2, 0))


def _draw_move(q, rng, live, moves, span):
    """(item, rank) of the next move. While moves lacks a kind of
    MOVE_KINDS that a live item can make, a move of that kind: a live item
    of its old window and a rank in its new one. Otherwise a random live
    item and a rank in [h_index, h_index + span). Random draws alone miss a
    kind on some seeds, such as a buffer item moved into a primary window
    of 524 ranks."""
    q_size, h = q.q_size, q.h_index
    missing = [kind for kind in MOVE_KINDS if not moves.get(kind)]
    if missing:
        by_window = defaultdict(list)
        for item, rank in live.items():
            by_window[_window(q, rank)].append(item)
        for old, new in missing:
            if by_window[old]:
                width = span - 2 * q_size if new == 2 else q_size
                return (rng.choice(by_window[old]),
                        h + new * q_size + rng.randrange(width))
    return rng.choice(list(live)), h + rng.randrange(span)


@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1), q_size=st.sampled_from([4, 8, 16]),
       windows=st.integers(3, 8))
def test_handle_remove_matches_multiset(seed, q_size, windows):
    """insert / remove / move / pop_min / detach_bucket / peek_min against
    a brute-force multiset, with ranks spanning several windows so
    rotation, overflow parking (also in a drained bucket) and the re-anchor
    of an all-parked queue all fire, and inserts and moves below the
    window, moves within and across windows and into and out of the parked
    bucket; len and the primary's lack of parked entries are checked
    every step."""
    rng = random.Random(seed)
    q = _CountingCffs(q_size)
    live = {}  # item -> rank
    heap = []  # (rank, item), stale once the item leaves `live` or moves
    handles = {}
    dead = []  # handles of items already popped or removed
    moves = defaultdict(int)  # (old window, new window) -> count; "below"
    max_overflow = 0
    filling = True

    def least():
        while live.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)
        return heap[0][0]

    for step in range(10_000):
        if step % 400 == 0:
            filling = not filling
        op = rng.random()
        if not live or op < (0.7 if filling else 0.2):
            rank = q.h_index + rng.randrange(windows * q_size)
            if op < 0.02:  # below every queued entry: re-anchors the window
                rank = max(0, q.h_index - rng.randrange(2 * q_size))
            handles[step] = q.insert(rank, step)
            live[step] = rank
            heapq.heappush(heap, (rank, step))
        elif op < 0.72:
            rank, item = q.pop_min()
            assert rank == least() and live.pop(item) == rank
            dead.append(handles.pop(item))
        elif op < 0.77:
            rank = q.min_rank()  # settles, so the bucket lies in the primary
            assert rank == least()
            nodes = q.detach_bucket(rank)
            assert all(n.queue is None and n.prev is None and n.next is None
                       for n in nodes)
            items = [n.item for n in nodes]
            assert sorted(items) == sorted(i for i, r in live.items() if r == rank)
            if op < 0.745:  # filed again, below the window too: same handles
                rank = max(0, q.h_index + rng.randrange(-q_size, windows * q_size))
                for node in nodes:
                    q.relink(node, rank)
                    live[node.item] = rank
                    heapq.heappush(heap, (rank, node.item))
            else:
                for item in items:
                    del live[item]
                    dead.append(handles.pop(item))
                with pytest.raises(InvalidHandleError):
                    q.remove(dead[-1])
        elif op < 0.82:
            rank, item = q.peek_min()
            assert rank == least() == q.min_rank() and live[item] == rank
            assert _head(q) == item
        elif op < 0.9:
            least_of = None
            if 0.83 <= op < 0.845:
                q.min_rank()  # settles the primary
                least_of = (q.primary if op < 0.8375 else q.secondary).peek_min()
            item, rank = _draw_move(q, rng, live, moves, windows * q_size)
            if op < 0.83:  # below every queued entry: re-anchors the window
                rank = max(0, q.h_index - rng.randrange(1, 2 * q_size))
                moves["below"] += rank < q.h_index
            else:
                if least_of is not None:
                    # the least item of the primary or of the buffer, whose
                    # few entries random picks seldom reach, moved within
                    # the two windows
                    item = least_of[1]
                    rank = q.h_index + rng.randrange(2 * q_size)
                moves[_window(q, live[item]), _window(q, rank)] += 1
            handle = handles[item]
            q.move(handle, rank)
            assert handles[item] is handle and handle.abs_rank == rank
            live[item] = rank
            heapq.heappush(heap, (rank, item))
        elif op < 0.97 or not dead:
            item = rng.choice(list(live))
            assert q.remove(handles[item]) == item
            del live[item]
            dead.append(handles.pop(item))
        elif op < 0.99:
            with pytest.raises(InvalidHandleError):
                if op < 0.98:
                    q.remove(rng.choice(dead))
                else:
                    q.move(rng.choice(dead), q.h_index)
        else:  # a queued node is refused before a re-anchor could move it
            handle = handles[rng.choice(list(live))]
            h_index, abs_rank = q.h_index, handle.abs_rank
            with pytest.raises(InvalidHandleError):
                q.relink(handle, h_index - 1)
            assert (q.h_index, handle.abs_rank) == (h_index, abs_rank)
        assert len(q) == len(live)
        # rotation re-files parked entries, so none waits in the primary
        assert _primary_holds_no_parked_entry(q)
        max_overflow = max(max_overflow, _overflow_recount(q))
    while live:
        rank, item = q.pop_min()
        assert rank == least() and live.pop(item) == rank
    assert q.pop_min() is None and q.min_rank() is None and len(q) == 0
    assert q.rotations > 0 and max_overflow > 0 and q.resnaps > 0
    _assert_every_move_kind(moves)


@settings(max_examples=5, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1), q_size=st.sampled_from([8, 32, 524]),
       windows=st.integers(3, 8))
@example(seed=5931, q_size=524, windows=7)  # random draws made no 1 -> 0 move
def test_circular_approx_keeps_fifo_among_ties(seed, q_size, windows):
    """insert / remove / move / pop_min on the circular approximate queue,
    with ranks spanning several windows so parked entries are re-filed at
    rotations, inserts below the window, and moves of every kind. The
    gradient estimate may pop a rank above the least, but each popped item
    is the oldest live item of its rank, a moved item counting from its
    move."""
    rng = random.Random(seed)
    q = CircularApproxQueue(q_size)
    live = {}  # item -> rank
    ties = defaultdict(deque)  # rank -> live items in insertion order
    handles = {}
    moves = defaultdict(int)
    max_overflow = 0
    filling = True
    for step in range(8_000):
        if step % 400 == 0:
            filling = not filling
        op = rng.random()
        if not live or op < (0.7 if filling else 0.2):
            rank = q.h_index + rng.randrange(windows * q_size)
            if op < 0.02:  # below every queued entry: re-anchors the window
                rank = max(0, q.h_index - rng.randrange(2 * q_size))
            handles[step] = q.insert(rank, step)
            live[step] = rank
            ties[rank].append(step)
        elif op < 0.75:
            head = _head(q)
            rank, item = q.pop_min()
            assert item == head and live.pop(item) == rank
            assert ties[rank].popleft() == item
            del handles[item]
        elif op < 0.87:
            item, rank = _draw_move(q, rng, live, moves, windows * q_size)
            if op < 0.76:  # below every queued entry: re-anchors the window
                rank = max(0, q.h_index - rng.randrange(1, 2 * q_size))
                moves["below"] += rank < q.h_index
            else:
                moves[_window(q, live[item]), _window(q, rank)] += 1
            q.move(handles[item], rank)
            ties[live[item]].remove(item)
            ties[rank].append(item)
            live[item] = rank
        else:
            item = rng.choice(list(live))
            assert q.remove(handles.pop(item)) == item
            ties[live.pop(item)].remove(item)
        assert len(q) == len(live)
        assert _primary_holds_no_parked_entry(q)
        max_overflow = max(max_overflow, _overflow_recount(q))
    while live:
        rank, item = q.pop_min()
        assert live.pop(item) == rank and ties[rank].popleft() == item
    assert q.pop_min() is None and len(q) == 0
    assert q.rotations > 0 and max_overflow > 0
    _assert_every_move_kind(moves)


def test_handle_follows_refiled_entry():
    q = CffsQueue(4)
    q.insert(0, "head")
    far = q.insert(30, "far")  # parked in the overflow bucket
    assert _overflow_recount(q) == 1
    assert q.pop_min() == (0, "head")
    assert q.peek_min() == (30, "far")  # re-filed by _reanchor
    assert _overflow_recount(q) == 0
    assert q.remove(far) == "far"
    assert len(q) == 0
    with pytest.raises(InvalidHandleError):
        q.remove(far)


def _home(q, handle):
    """(array, bucket) a queued node's abs_rank maps to, parked ranks in
    the secondary's last bucket."""
    offset = handle.abs_rank - q.h_index
    inner = q.primary if offset < q.q_size else q.secondary
    return inner, min(offset, 2 * q.q_size - 1) % q.q_size


def _handles_sit_in_their_buckets(q, handles) -> bool:
    """Every handle is a node linked in the bucket its rank maps to."""
    where = {}  # id(node) -> (array, bucket) of every linked node
    for array in (q.primary, q.secondary):
        for bucket in range(array.num_buckets):
            for node in _bucket_nodes(array, bucket):
                where[id(node)] = (array, bucket)
    return len(where) == len(handles) == len(q) and all(
        (h.queue, h.rank) == _home(q, h) == where.get(id(h)) for h in handles)


@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1), q_size=st.sampled_from([4, 8, 16]),
       windows=st.integers(3, 8), approx=st.booleans())
def test_handle_is_the_queued_node(seed, q_size, windows, approx):
    """The handle insert returns is the node in the bucket, through
    rotations, re-anchors and move alike: every live handle is checked
    to sit in the bucket its rank maps to, and remove(handle) returns its
    item. A popped or removed handle raises InvalidHandleError."""
    rng = random.Random(seed)
    q = CircularApproxQueue(q_size) if approx else _CountingCffs(q_size)
    live = {}  # item -> handle
    dead = []
    refiles = 0
    for step in range(3_000):
        # the last 300 steps of each 1000 drain the queue: a primary that
        # empties with entries behind it makes the windows rotate
        filling = step % 1000 < 700
        op = rng.random()
        if not live or op < 0.5 and filling:
            rank = q.h_index + rng.randrange(windows * q_size)
            if op < 0.03:  # below the window: re-anchors it
                rank = max(0, q.h_index - rng.randrange(1, 2 * q_size))
                refiles += rank < q.h_index
            handle = q.insert(rank, step)
            assert handle.item == step and handle.abs_rank == rank
            live[step] = handle
        elif op < 0.5 or 0.55 <= op < 0.7:
            head = _head(q)
            _, item = q.pop_min()
            assert item == head
            dead.append(live.pop(item))
        elif op < 0.55:
            q._reanchor(None)
            refiles += 1
        elif op < 0.8:
            item = rng.choice(list(live))
            rank = q.h_index + rng.randrange(windows * q_size)
            q.move(live[item], rank)
            assert live[item].item == item and live[item].abs_rank == rank
        elif op < 0.95 or not dead:
            item = rng.choice(list(live))
            handle = live.pop(item)
            assert q.remove(handle) == item
            dead.append(handle)
        else:
            with pytest.raises(InvalidHandleError):
                if op < 0.975:
                    q.remove(rng.choice(dead))
                else:
                    q.move(rng.choice(dead), q.h_index)
        if step % 25 == 0 or op < 0.55 or 0.7 <= op < 0.8:
            assert _handles_sit_in_their_buckets(q, live.values())
    for item, handle in list(live.items()):
        assert q.remove(handle) == item
        with pytest.raises(InvalidHandleError):
            q.remove(handle)
    assert len(q) == 0 and q.rotations > 0 and refiles > 0


@pytest.mark.parametrize("rank", [3000, 5000])
def test_insert_into_empty_cffs_needs_no_probe(rank):
    # 3000 lands in the primary window, 5000 in the buffer, which the
    # settle step rotates in: either window's floor names the bucket
    q = CffsQueue(4096)
    q.insert(100, "a")
    assert q.pop_min() == (100, "a")
    q.insert(rank, "b")
    before = q.primary.probe_count + q.secondary.probe_count
    assert q.min_rank() == rank
    assert q.primary.probe_count + q.secondary.probe_count == before


_MOVE_QUEUES = [pytest.param(lambda: CffsQueue(8), id="cffs"),
                pytest.param(lambda: CircularApproxQueue(8), id="approx")]


@pytest.mark.parametrize("make", _MOVE_QUEUES)
@pytest.mark.parametrize("old, new", [(2, 5), (12, 14), (30, 40), (3, 12),
                                      (12, 3), (3, 40), (40, 3), (40, 12)])
def test_moved_handle_leaves_after_its_destination_bucket(make, old, new):
    # q_size 8: within the primary, within the buffer, within the parked
    # bucket, across windows, into and out of the parked bucket
    q = make()
    q.insert(0, "anchor")  # keeps the window at [0, 8)
    moved = q.insert(old, "moved")
    for tag in ("a", "b"):
        q.insert(new, tag)
    q.move(moved, new)
    assert moved.abs_rank == new and len(q) == 4
    assert _overflow_recount(q) == (3 if new >= 16 else 0)
    assert [q.pop_min() for _ in range(4)] == [
        (0, "anchor"), (new, "a"), (new, "b"), (new, "moved")]
    assert q.pop_min() is None and _overflow_recount(q) == 0


@pytest.mark.parametrize("make", _MOVE_QUEUES)
@pytest.mark.parametrize("ranks", [(15, 15, 15), (15, 40, 15, 15, 40)],
                         ids=["unparked", "mixed"])
def test_settle_with_only_the_buffers_last_bucket_filled(make, ranks):
    # q_size 8, window [0, 8): 15 is the buffer's last rank and 40 is
    # parked past both windows, so once 0 leaves every entry sits in the
    # buffer's last bucket; the window then starts at 8, as a rotation
    # would leave it, and each rank keeps FIFO order
    q = make()
    q.insert(0, "anchor")
    for seq, rank in enumerate(ranks):
        q.insert(rank, seq)
    assert q.pop_min() == (0, "anchor") and q.h_index == 0
    want = sorted((rank, seq) for seq, rank in enumerate(ranks))
    assert q.pop_min() == want[0] and q.h_index == 8
    assert [q.pop_min() for _ in want[1:]] == want[1:]
    assert q.pop_min() is None and q.h_index == max(ranks) // 8 * 8


@pytest.mark.parametrize("make", _MOVE_QUEUES)
def test_insert_below_window_lands_in_rank_order(make):
    # q_size 8: after the pop the window starts at 16, with 99 parked;
    # 15 and then 3 lie below it and re-anchor it, which parks 20 too
    q = make()
    q.insert(3, "gone")
    q.insert(20, "a")
    q.insert(99, "far")
    assert q.pop_min() == (3, "gone")
    assert q.min_rank() == 20 and q.h_index == 16
    assert _overflow_recount(q) == 1
    for rank, tag in ((15, "b"), (20, "c"), (3, "d"), (15, "e")):
        q.insert(rank, tag)
        assert q.h_index <= rank
    assert q.h_index == 0 and _overflow_recount(q) == 3
    assert [q.pop_min() for _ in range(6)] == [
        (3, "d"), (15, "b"), (15, "e"), (20, "a"), (20, "c"), (99, "far")]
    assert q.pop_min() is None and len(q) == 0


@pytest.mark.parametrize("make", _MOVE_QUEUES)
def test_move_below_window_lands_in_rank_order(make):
    # q_size 8: after the pops the window starts at 16, with 99 parked
    q = make()
    h = {tag: q.insert(rank, tag) for rank, tag in (
        (3, "gone"), (4, "popped"), (20, "x"), (17, "t"), (99, "far"))}
    assert q.pop_min() == (3, "gone") and q.pop_min() == (4, "popped")
    assert q.min_rank() == 17 and q.h_index == 16
    assert _overflow_recount(q) == 1
    # a popped handle is rejected before the window moves
    with pytest.raises(InvalidHandleError):
        q.move(h["popped"], 5)
    assert q.h_index == 16 and len(q) == 3
    q.move(h["x"], 12)  # below: the window re-anchors at 8
    assert q.h_index == 8 and _overflow_recount(q) == 1
    h["b"] = q.insert(12, "b")
    q.move(h["t"], 12)  # within the window, after b
    q.move(h["far"], 2)  # parked, then below: the window re-anchors at 0
    assert q.h_index == 0 and _overflow_recount(q) == 0
    assert all(h[tag].abs_rank == rank for tag, rank in (
        ("x", 12), ("b", 12), ("t", 12), ("far", 2)))
    assert [q.pop_min() for _ in range(4)] == [
        (2, "far"), (12, "x"), (12, "b"), (12, "t")]
    assert q.pop_min() is None and len(q) == 0


@pytest.mark.parametrize("make", _MOVE_QUEUES)
def test_move_of_a_popped_handle_raises(make):
    q = make()
    h = q.insert(4, "x")
    q.insert(6, "y")
    assert q.pop_min() == (4, "x")
    with pytest.raises(InvalidHandleError):
        q.move(h, 5)
    assert len(q) == 1 and q.pop_min() == (6, "y")


@pytest.mark.parametrize("make", [
    pytest.param(lambda: FfsQueue(8), id="ffs"), *_MOVE_QUEUES])
def test_foreign_handle_is_rejected(make):
    """A live handle of another queue, a plain FfsQueue node in a circular
    queue, or None: remove and move raise InvalidHandleError and neither
    queue changes."""
    a, b = make(), make()
    h = a.insert(3, "a-item")
    b.insert(5, "b-item")
    strangers = [h, None, object()]
    if not isinstance(b, FfsQueue):
        strangers.append(FfsQueue(8).insert(3, "plain"))
    for stranger in strangers:
        with pytest.raises(InvalidHandleError):
            b.remove(stranger)
        with pytest.raises(InvalidHandleError):
            b.move(stranger, 6)
    assert len(a) == len(b) == 1
    assert a.pop_min() == (3, "a-item") and b.pop_min() == (5, "b-item")
    assert a.pop_min() is None and b.pop_min() is None
