"""Scheduler engine tests: timestamps, the single shaper, and the tree."""

import heapq
import math
import random
import tracemalloc

import pytest

from pktsched.bench import BenchConfig
from pktsched.config import build_tree, single_level_config
from pktsched.core import (NS_PER_SEC, Packet, RateClock, Shaper,
                           ShaperEntry, TreeStats)
from pktsched.errors import ConfigError, InvalidHandleError, RankRangeError
from pktsched.policies import HClockScheduler
from pktsched.sim import MTU, Workload, oracle_order, run_sim
from sim_trace import max_window_bytes, queued, record_served


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(0, "f0", 0)
    with pytest.raises(ValueError):
        Packet(0, "f0", -5)
    # a size is a positive int and a rank a nonnegative int; bools are
    # neither, and float ranks 2.7 and 2.2 would share one bucket
    for size, rank in ((1500.5, 0), (True, 0), (100, -3), (100, 2.7),
                       (100, 2.2), (100, True)):
        with pytest.raises(ValueError):
            Packet(1, "f0", size, rank=rank)
    assert Packet(1, "f0", 1, rank=0).rank == 0


def test_rejected_packet_leaves_tree_empty():
    """A packet with a bad rank or size is refused before the tree sees
    it: nothing is counted, and its flow still takes packets."""
    tree = build_tree(single_level_config("pfabric", ["a"]))
    for size, rank in ((100, -3), (1500.5, 0), (100, 2.7)):
        with pytest.raises(ValueError):
            tree.enqueue(Packet(1, "a", size, rank=rank))
    assert tree.pending() == 0
    assert tree.enqueue(Packet(2, "a", 100, rank=3))
    assert tree.pending() == 1 and tree.dequeue().id == 2


@pytest.mark.parametrize("fid", ["free", "limited"])
def test_bad_rank_set_after_build_is_refused_at_enqueue(fid):
    """A rank set on a built packet is checked again by enqueue: a bad
    one raises RankRangeError before anything is counted or queued, for
    an unshaped flow and for one under a leaf limit alike, and the flow's
    next valid packet is served."""
    tree = build_tree({"policy": "pfabric",
                       "nodes": [{"id": "root", "parent": None},
                                 {"id": "open", "parent": "root"},
                                 {"id": "slow", "parent": "root",
                                  "limit": 1_500_000}],
                       "flows": {"free": "open", "limited": "slow"}})
    for bad in (-3, 2.7, True):
        packet = Packet(1, fid, 100)
        packet.rank = bad
        with pytest.raises(RankRangeError):
            tree.enqueue(packet, 0)
    assert tree.pending() == 0 and tree.stats == TreeStats()
    assert not queued(tree.flows[fid]) and len(tree.shaper) == 0
    assert tree.enqueue(Packet(2, fid, 100, rank=5), 0)
    now = tree.next_event_time() or 0
    tree.shaper_release(now)
    assert tree.dequeue(now).id == 2 and tree.pending() == 0


def _clock_state(clock):
    return None if clock is None else (clock.t, clock.rem)


@pytest.mark.parametrize("sched", ["tree", "hclock"])
def test_bad_size_set_after_build_is_refused_at_enqueue(sched):
    """A size set on a built packet is checked again by enqueue: a size
    that is not a positive int raises ValueError before anything is
    counted, queued or clocked, on a flow under a leaf limit of the tree
    and on a reserved, limited hClock flow alike, and the flow's next
    valid packet is served."""
    if sched == "tree":
        s = build_tree({"policy": "fifo",
                        "nodes": [{"id": "root", "parent": None},
                                  {"id": "slow", "parent": "root",
                                   "limit": 1_500_000}],
                        "flows": {"f": "slow"}})
        clocks = [s.flows["f"].leaf.chain[0].clock]
        shaper = s.shaper
    else:
        s = HClockScheduler()
        flow = s.add_flow("f", reservation=500_000, limit=1_000_000, share=2.0)
        clocks = [flow.r_clock, flow.l_clock, flow.s_clock]
        shaper = s._shaper
    before = [_clock_state(clock) for clock in clocks]
    for bad in (-3000, 2.5, 0, True):
        packet = Packet(1, "f", 1500)
        packet.size = bad
        with pytest.raises(ValueError):
            s.enqueue(packet, 0)
    assert [_clock_state(clock) for clock in clocks] == before
    assert s.pending() == 0 and len(shaper) == 0
    if sched == "tree":
        assert not queued(s.flows["f"]) and s.stats == TreeStats()
    else:
        assert not s.flows["f"].fifo
    assert s.enqueue(Packet(2, "f", 1500), 0)
    now = s.next_event_time() or 0
    s.shaper_release(now)
    assert s.dequeue(now).id == 2 and s.pending() == 0


def test_rate_clock_basic():
    clock = RateClock(1_500_000)
    # 1500 B at 1.5 MB/s is exactly 1 ms; advance returns the start
    assert clock.advance(1500, now=0) == 0
    assert clock.t == 1_000_000
    # back-to-back: second packet ends at 2 ms
    assert clock.advance(1500, now=0) == 1_000_000
    assert clock.t == 2_000_000


def test_rate_clock_max_rule():
    clock = RateClock(1_500_000)
    clock.t = 5_000_000
    # now is ahead of the clock: the later of the two anchors the timestamp
    assert clock.advance(1500, now=9_000_000) == 9_000_000
    assert clock.t == 10_000_000


def test_rate_clock_rejects_bad_rate():
    for rate in (0, -1, -2.5, math.nan, math.inf, None, True):
        with pytest.raises(ConfigError):
            RateClock(rate)


def test_rate_clock_is_exact_over_a_million_packets():
    """10^6 MTUs at 7 MB/s, back to back, end at floor(bytes * 10^9 / rate)
    exactly; rounding each packet to a whole ns (214 285.71 ns filed as
    214 286) would end 285 714.3 ns after the exact end, 285 715 past
    the floor."""
    clock = RateClock(7e6)
    for _ in range(10**6):
        clock.advance(1500, 0)
    assert clock.t == 1500 * 10**6 * NS_PER_SEC // (7 * 10**6) == 214_285_714_285
    assert 10**6 * round(1500 * NS_PER_SEC / 7e6) - clock.t == 285_715


def test_rate_clock_converts_a_float_rate_exactly():
    """A rate that is no integer is taken at its exact binary value: after
    B bytes the clock reads floor(B * 10^9 / rate) of that value."""
    rate = 1234.5678  # bytes/s; as a double, n / d with d = 2^42
    n, d = rate.as_integer_ratio()
    clock = RateClock(rate)
    total = 0
    for size in (64, 1500, 9000, 1, 333) * 50:
        clock.advance(size, 0)
        total += size
        assert clock.t == total * d * NS_PER_SEC // n
    # one byte at 0.5 B/s is exactly 2 s
    half = RateClock(0.5)
    half.advance(1, 0)
    assert half.t == 2 * NS_PER_SEC


def test_rate_clock_catch_up_drops_the_remainder():
    """A catch-up to `now` past t restarts the clock at `now` with no
    remainder; at `now` == t the remainder is kept, since the exact time
    t + rem lies past it."""
    clock = RateClock(7e6)  # 1500 B last 214 285 5/7 ns
    clock.advance(1500, 0)
    assert (clock.t, clock.rem) == (214_285, 5)
    clock.advance(1500, 214_285)  # not past t: the 5/7 ns carries
    assert (clock.t, clock.rem) == (428_571, 3)
    assert clock.advance(1500, 428_572) == 428_572  # past t: dropped
    assert (clock.t, clock.rem) == (428_572 + 214_285, 5)


def test_shaper_release_timing():
    shaper = Shaper(horizon_ns=2_000_000_000, num_buckets=20_000)
    assert shaper.granularity == 100_000
    out = []
    shaper.insert("a", 250_000, None)
    shaper.insert("b", 1_000_000, None)
    handler = lambda entry, now: out.append(entry.packet)
    assert shaper.release(100_000, handler) == 0
    assert shaper.release(250_000, handler) == 1
    assert out == ["a"]
    assert shaper.next_event_time() == 1_000_000
    shaper.release(2_000_000, handler)
    assert out == ["a", "b"]
    assert shaper.next_event_time() is None


def test_shaper_past_due_clamps_to_window_start():
    shaper = Shaper(num_buckets=100, horizon_ns=10_000_000)
    shaper.insert("x", 5_000_000, None)
    out = []
    shaper.release(5_000_000, lambda e, now: out.append(e.packet))
    shaper.insert("late", 1_000, None)  # rank would precede the window
    shaper.release(5_000_000, lambda e, now: out.append(e.packet))
    assert out == ["x", "late"]


def test_shaper_files_future_timestamp_below_window():
    shaper = Shaper()
    shaper.insert("late", 5 * NS_PER_SEC, None)  # snaps the window to 4 s
    shaper.insert("early", NS_PER_SEC, None)  # future, but below the window
    out = []
    assert shaper.release(1_500_000_000, lambda e, now: out.append(e.packet)) == 1
    assert out == ["early"]
    assert shaper.next_event_time() == 5 * NS_PER_SEC


def test_shaper_entries_are_complete_nodes():
    """ShaperEntry has no __init__, so Shaper.insert and the relink that
    files an entry set its slots: a queued entry reads every slot (item,
    packet, ts, next_stage, prev, next, queue, rank, abs_rank) without an
    AttributeError, in the primary window, the buffer window and parked
    past both, and a released entry passed to the queue's remove or move
    raises InvalidHandleError."""
    shaper = Shaper(horizon_ns=64_000, num_buckets=64)  # 1 us granules
    stamps = (5_000, 70_000, 500_000)  # primary, buffer, parked
    for i, ts in enumerate(stamps):
        shaper.insert(Packet(i, "f", 100), ts, ("flow", i))
    queue = shaper._queue
    entries = [entry for window in (queue.primary, queue.secondary)
               for entry in window.heads if entry is not None]
    assert sorted(entry.ts for entry in entries) == list(stamps)
    for entry in entries:
        i = entry.packet.id
        assert entry.item is None and entry.next_stage == ("flow", i)
        assert entry.abs_rank == entry.ts // 1000
        assert entry.queue in (queue.primary, queue.secondary)
        assert entry.next is None and entry.prev is entry
        assert type(entry.rank) is int
    released = []
    assert shaper.release(10**9, lambda entry, now: released.append(entry)) == 3
    assert [entry.ts for entry in released] == list(stamps)
    for entry in released:
        assert entry.queue is entry.prev is entry.next is None
        with pytest.raises(InvalidHandleError):
            queue.remove(entry)
        with pytest.raises(InvalidHandleError):
            queue.move(entry, queue.h_index)


class _Boom(Exception):
    pass


class _PerEntryShaper:
    """Reference: one heap entry per packet, popped one at a time in
    (bucket, insertion) order while its bucket is due."""

    def __init__(self, granularity):
        self.granularity = granularity
        self.heap = []
        self.seq = 0

    def __len__(self):
        return len(self.heap)

    def insert(self, packet, ts, next_stage):
        entry = ShaperEntry()
        entry.packet, entry.ts, entry.next_stage = packet, ts, next_stage
        heapq.heappush(self.heap, (ts // self.granularity, self.seq, entry))
        self.seq += 1

    def release(self, now, handler):
        limit = now // self.granularity
        n = 0
        while self.heap and self.heap[0][0] <= limit:
            entry = heapq.heappop(self.heap)[2]
            n += 1
            handler(entry, now)
        return n

    def next_event_time(self):
        return self.heap[0][0] * self.granularity if self.heap else None


def _parked(queue) -> int:
    """Entries of a cFFS parked past both windows, counted from the
    buffer's last bucket, the only bucket that holds them."""
    end = queue.h_index + 2 * queue.q_size
    node, n = queue.secondary.heads[queue.q_size - 1], 0
    while node is not None:
        n += node.abs_rank >= end
        node = node.next
    return n


def test_shaper_bucket_release_matches_per_entry_model():
    """20k random inserts and releases on a shaper and on the per-entry
    model. The handler re-inserts later stages, some due at once (drained
    in the same release, after the rest of their bucket), some in the
    future, and raises partway through some buckets. One insert in 20 lands
    2 to 8 windows ahead, past both windows. Release order, the time of
    each release, len and next_event_time must agree exactly."""
    gran, q = 100, 16  # 16 buckets of 100 ns: windows rotate often
    shaper = Shaper(horizon_ns=gran * q, num_buckets=q)
    model = _PerEntryShaper(gran)
    below = []  # ranks filed below the queue's window
    queue = shaper._queue
    reanchor = queue._reanchor

    def spy(rank):
        if rank is not None and rank < queue.h_index:
            below.append(rank)
        reanchor(rank)

    queue._reanchor = spy
    rng = random.Random(2024)
    counts = dict(raised_mid_bucket=0, due_reinserts=0, multi_entry_buckets=0,
                  most_parked=0)

    def delay(pid, stage):
        # deterministic per entry, so both sides compute the same stage
        # timestamps; a third are due at once, the rest under half a window
        h = (pid * 2654435761 + stage * 40503) % 3
        return 0 if h == 0 else (pid * 7 + stage * 13) % (q * gran // 2)

    def make_handler(sched, log):
        def handler(entry, now):
            pid, stage = entry.packet, entry.next_stage
            log.append((pid, stage, entry.ts, now))
            if pid % 41 == 0 and stage == 1:
                raise _Boom
            if stage < 3:
                d = delay(pid, stage)
                counts["due_reinserts"] += d == 0
                sched.insert(pid, now + d, stage + 1)
        return handler

    got, want = [], []
    handler, ref_handler = make_handler(shaper, got), make_handler(model, want)
    now = pid = checked = 0
    for _ in range(20_000):
        if rng.random() < 0.45:
            r = rng.random()
            if r < 0.05:  # past both windows: filed in the overflow bucket
                d = rng.randrange(2 * q * gran, 8 * q * gran)
            else:
                d = rng.randrange(q * gran // 2) if r < 0.8 else 0
            shaper.insert(pid, now + d, 1)
            model.insert(pid, now + d, 1)
            counts["most_parked"] = max(counts["most_parked"], _parked(queue))
            pid += 1
        else:
            limit = now // gran
            due = [r for r, _, _ in model.heap if r <= limit]
            counts["multi_entry_buckets"] += len(due) > len(set(due))
            try:
                n = shaper.release(now, handler)
            except _Boom:
                with pytest.raises(_Boom):
                    model.release(now, ref_handler)
                # entries left in the raising entry's bucket
                counts["raised_mid_bucket"] += bool(
                    model.heap and model.heap[0][0] == got[-1][2] // gran)
            else:
                assert model.release(now, ref_handler) == n
            r = rng.random()
            if r < 0.05 and not len(model):
                now += rng.randrange(5 * q * gran)  # idle: the window snaps
            elif r < 0.5:
                now += rng.randrange(gran)  # within a granule
            else:
                now += rng.randrange(4 * gran)
        assert got[checked:] == want[checked:]
        checked = len(got)
        assert len(shaper) == len(model)
        assert shaper.next_event_time() == model.next_event_time()
    assert counts["raised_mid_bucket"] > 0 and counts["multi_entry_buckets"] > 0
    assert counts["due_reinserts"] > 0 and below and counts["most_parked"] > 1


def test_late_shaper_release_delivers_every_packet():
    """A release two shaper windows past the queue's window start re-stages
    each entry at the next limit, relative to the release's `now`, and
    every packet is delivered once, paced from that `now`."""
    tree = build_tree({
        "policy": "fifo",
        "nodes": [{"id": "root", "parent": None, "limit": 1_000_000},
                  {"id": "a", "parent": "root", "limit": 400_000},
                  {"id": "b", "parent": "root", "limit": 400_000}],
        "flows": {"f0": "a", "f1": "b"},
    })
    tree.enqueue(Packet(0, "f0", 1500), 0)
    tree.enqueue(Packet(1, "f1", 1500), 1_000_000)
    now = 5 * NS_PER_SEC
    assert tree.shaper_release(now) == 2
    assert tree.pending() == 2 and len(tree.shaper) == 2
    got = []
    while (t := tree.next_event_time()) is not None:
        now = max(now, t)
        tree.shaper_release(now)
        while (pkt := tree.dequeue(now)) is not None:
            got.append((pkt.id, pkt.release_ts))
    # the root stage paces both at 1 MB/s from the late release
    assert got == [(0, now - 1_500_000), (1, now)]
    assert tree.pending() == 0


class _NoCalls:
    """Stands in for a queue (a shaper's cFFS by default): any use of it
    fails the test."""

    def __init__(self, what="cFFS"):
        self.what = what

    def __getattr__(self, name):
        raise AssertionError(f"{self.what} used: {name}")


def test_idle_release_and_next_event_time_touch_no_cffs():
    """A release with nothing due, and next_event_time, read the shaper's
    cached due time alone, on both schedulers; so does hClock's dequeue
    while every backlogged flow is parked."""
    tree = build_tree({"policy": "fifo",
                       "nodes": [{"id": "root", "parent": None},
                                 {"id": "leaf", "parent": "root",
                                  "limit": 1_500_000}],
                       "flows": {"f0": "leaf"}})
    tree.enqueue(Packet(0, "f0", 1500), 0)
    tree.enqueue(Packet(1, "f0", 1500), 0)
    hclock = build_tree({"policy": "hclock",
                         "flow_params": {"f0": {"limit": 1_500_000.0}}})
    for pid in range(3):
        hclock.enqueue(Packet(pid, "f0", 1500), 0)
    assert hclock.dequeue(0).id == 0  # the next head's l tag is 1 ms out
    for sched, shaper, pid in ((tree, tree.shaper, 0), (hclock, hclock._shaper, 1)):
        queue, shaper._queue = shaper._queue, _NoCalls()
        assert sched.next_event_time() == 1_000_000
        assert sched.shaper_release(999_999) == 0
        if sched is hclock:
            assert sched.dequeue(999_999) is None
        shaper._queue = queue
        assert sched.shaper_release(1_000_000) == 1
        assert sched.dequeue(1_000_000).id == pid
        assert sched.next_event_time() == 2_000_000


def test_idle_tree_poll_does_not_call_shaper_release():
    """While the shaper's cached due time lies ahead, the tree's
    shaper_release returns 0 without calling Shaper.release; at the due
    time it releases the packet as before."""
    tree = build_tree({"policy": "fifo",
                       "nodes": [{"id": "root", "parent": None},
                                 {"id": "leaf", "parent": "root",
                                  "limit": 1_500_000}],
                       "flows": {"f0": "leaf"}})
    tree.enqueue(Packet(0, "f0", 1500), 0)
    shaper = tree.shaper
    due = shaper.next_due
    assert due == 1_000_000

    def no_release(now, handler):
        raise AssertionError(f"Shaper.release called at {now} before {due}")

    shaper.release = no_release
    assert tree.shaper_release(due - 1) == 0
    del shaper.release  # back to Shaper.release
    assert tree.stats.released == 0
    assert tree.shaper_release(due) == 1
    assert tree.stats.released == 1
    assert tree.dequeue(due).id == 0


def _paced_single_level(pace: float) -> dict:
    cfg = single_level_config("fifo", ["f0", "f1"])
    cfg["nodes"][0]["limit"] = pace
    return cfg


def test_pass_through_root_queue_is_never_used_and_still_paces():
    """single_level_config's root has one child, so scheduling never uses
    its queue; its limit still paces every packet, in the tree's own calls
    and through run_sim."""
    pace = 1_500_000  # bytes/s: one 1500 B packet per ms
    tree = build_tree(_paced_single_level(pace))
    tree.root.queue = _NoCalls("pass-through root queue")
    assert tree.top is tree.nodes["leaf"]
    for pid in range(4):
        assert tree.enqueue(Packet(pid, f"f{pid % 2}", 1500), 0)
    assert not tree.schedulable() and tree.dequeue(0) is None
    assert tree.next_event_time() == 1_000_000
    assert tree.shaper_release(2_000_000) == 2
    assert tree.schedulable()
    assert tree.dequeue(2_000_000).id == 0
    assert tree.dequeue(2_000_000).id == 1
    assert not tree.schedulable() and tree.next_event_time() == 3_000_000
    assert tree.shaper_release(4_000_000) == 2
    assert tree.dequeue(4_000_000).id == 2
    assert tree.dequeue(4_000_000).id == 3 and tree.pending() == 0

    tree = build_tree(_paced_single_level(pace))
    tree.root.queue = _NoCalls("pass-through root queue")
    served = record_served(tree)
    m = run_sim(tree, Workload(num_flows=2, duration_ns=500_000_000, seed=1,
                               link_rate=10_000_000.0, flow_cap=8))
    assert m.conserved()
    window = 100_000_000
    both = [(t, "all", pid, size, rank) for t, _, pid, size, rank in served]
    assert max_window_bytes(both, "all", window) <= pace * window // NS_PER_SEC + MTU
    sent = m.per_flow_bytes["f0"] + m.per_flow_bytes["f1"]
    assert sent >= 0.9 * pace * 0.5


MBPS = 125_000  # bytes/sec per megabit


def fig_tree(leaf_mbps=7, parent_mbps=10, pace_mbps=None):
    nodes = [
        {"id": "root", "parent": None,
         "limit": pace_mbps * MBPS if pace_mbps else None},
        {"id": "agg", "parent": "root", "limit": parent_mbps * MBPS},
        {"id": "leaf", "parent": "agg", "limit": leaf_mbps * MBPS},
        {"id": "other", "parent": "root"},  # no rate limit on this path
    ]
    return {
        "policy": "fifo",
        "nodes": nodes,
        "flows": {"f0": "leaf", "f1": "other"},
    }


def test_shaped_leaf_packet_walks_stage_chain():
    tree = build_tree(fig_tree())
    pkt = Packet(0, "f0", 1500)
    assert tree.enqueue(pkt, now=0)
    # still inside the shaper: nothing schedulable yet
    assert tree.dequeue(0) is None
    assert len(tree.shaper) == 1
    # first stage: 1500 B at 7 Mbps -> 1 714 285 5/7 ns, floored
    t1 = 1_714_285
    assert tree.nodes["leaf"].clock.t == t1
    tree.shaper_release(t1)
    # second stage: re-enters the shaper keyed by the 10 Mbps parent
    assert len(tree.shaper) == 1
    t2 = t1 + 1500 * NS_PER_SEC // (10 * MBPS)
    assert tree.nodes["agg"].clock.t == t2
    tree.shaper_release(t2)
    assert len(tree.shaper) == 0
    got = tree.dequeue(t2)
    assert got is pkt
    assert pkt.release_ts >= t1


def test_each_stage_is_one_shaper_insert_and_released_detached():
    """With leaf, parent and root limits, every stage of a packet is one
    call of tree.shaper.insert whose next_stage carries 1, 2 and 3 in
    order (benchmark checks read next_stage[1] there), and the release
    handler gets the very entry the shaper's cFFS linked, out of the queue
    (queue, prev and next None)."""
    tree = build_tree(fig_tree(leaf_mbps=7, parent_mbps=10, pace_mbps=12))
    shaper, queue = tree.shaper, tree.shaper._queue
    stages, filed, handed = {}, {}, {}
    insert, relink, on_release = shaper.insert, queue.relink, tree._on_shaper_release

    def spy_insert(packet, ts, next_stage):
        stages.setdefault(packet.id, []).append(next_stage[1])
        insert(packet, ts, next_stage)

    def spy_relink(node, rank):
        filed.setdefault(node.packet.id, []).append(node)
        relink(node, rank)

    def spy_handler(entry, now):
        assert entry.queue is None and entry.prev is None and entry.next is None
        handed.setdefault(entry.packet.id, []).append(entry)
        on_release(entry, now)

    shaper.insert, queue.relink = spy_insert, spy_relink
    tree._on_shaper_release = spy_handler
    packets = [Packet(i, "f0", 1500) for i in range(4)]
    for p in packets:
        assert tree.enqueue(p, 0)
    got = []
    while (t := tree.next_event_time()) is not None:
        tree.shaper_release(t)
        while (p := tree.dequeue(t)) is not None:
            got.append(p)
    assert got == packets
    assert stages == {p.id: [1, 2, 3] for p in packets}
    for i in stages:
        assert len(filed[i]) == len(handed[i]) == 3
        assert all(a is b for a, b in zip(filed[i], handed[i]))


def test_unshaped_flow_bypasses_shaper():
    tree = build_tree(fig_tree())
    pkt = Packet(0, "f1", 1500)
    tree.enqueue(pkt, now=0)
    assert len(tree.shaper) == 0
    assert tree.dequeue(0) is pkt


def test_flow_cap_backpressure():
    cfg = single_level_config("fifo", ["f0"], flow_cap=2)
    tree = build_tree(cfg)
    assert tree.enqueue(Packet(0, "f0", 100), 0)
    assert tree.enqueue(Packet(1, "f0", 100), 0)
    assert not tree.enqueue(Packet(2, "f0", 100), 0)
    assert tree.stats.deferred == 1
    tree.dequeue(0)
    assert tree.enqueue(Packet(3, "f0", 100), 0)


def test_single_level_hclock_refuses_flow_cap():
    """hClock has no per-flow backpressure, so a flow_cap is refused."""
    assert "flow_cap" not in single_level_config("hclock", ["f0"])
    with pytest.raises(ConfigError, match="flow_cap"):
        single_level_config("hclock", ["f0", "f1"], flow_cap=4)


def test_unknown_flow_rejected():
    tree = build_tree(single_level_config("fifo", ["f0"]))
    with pytest.raises(ConfigError):
        tree.enqueue(Packet(0, "ghost", 100), 0)


def test_dequeue_is_work_conserving():
    tree = build_tree(single_level_config("fifo", ["a", "b"]))
    for i, fid in enumerate(["a", "b", "a"]):
        tree.enqueue(Packet(i, fid, 100), now=0)
    # clock argument is irrelevant to eligibility: everything already queued
    order = [tree.dequeue(0).id for _ in range(3)]
    assert order == [0, 1, 2]
    assert tree.dequeue(0) is None


def test_pending_counts_shaper_and_fifos():
    tree = build_tree(fig_tree())
    tree.enqueue(Packet(0, "f0", 1500), 0)  # parked in shaper
    tree.enqueue(Packet(1, "f1", 1500), 0)  # directly schedulable
    assert tree.pending() == 2
    assert tree.schedulable()
    tree.dequeue(0)
    assert tree.pending() == 1
    assert not tree.schedulable()  # the rest still sits in the shaper


def _built_tree_bytes(num_flows: int) -> int:
    """Bytes a built one-level pFabric tree of num_flows flows holds."""
    cfg = single_level_config("pfabric", [f"f{i}" for i in range(num_flows)],
                              flow_cap=8)
    tracemalloc.start()
    try:
        tree = build_tree(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tree.flows) == num_flows
    return held


def test_per_flow_memory_stays_flat():
    """A flow's FIFO is a chain through its own packets, so an idle flow
    allocates nothing beyond its FlowState: the bytes a built tree holds
    grow by at most 256 per flow from 1024 to 4096 flows (113 with the
    chain; a deque per flow costs 857)."""
    per_flow = (_built_tree_bytes(4096) - _built_tree_bytes(1024)) / 3072
    assert per_flow <= 256, per_flow


@pytest.mark.parametrize("policy", ["fifo", "lqf", "pfabric"])
def test_drained_flows_hold_no_packet(policy):
    """After a shaped tree drains, through a limited leaf and an unlimited
    one, every flow's chain is empty (head and tail None, count 0) and no
    served packet still links to another."""
    cfg = fig_tree()
    cfg["policy"] = policy
    tree = build_tree(cfg)
    rng = random.Random(3)
    served = []
    for i in range(40):
        now = i * 200_000
        tree.enqueue(Packet(i, rng.choice(["f0", "f1"]), 1500,
                            rank=rng.randrange(64)), now)
        tree.shaper_release(now)
        if rng.random() < 0.4 and (p := tree.dequeue(now)) is not None:
            served.append(p)
    while True:
        while (p := tree.dequeue(now)) is not None:
            served.append(p)
        if (now := tree.next_event_time()) is None:
            break
        tree.shaper_release(now)
    assert sorted(p.id for p in served) == list(range(40))
    for flow in tree.flows.values():
        assert flow.head is None and flow.tail is None and flow.count == 0
    assert all(p.next is None for p in served)


def test_every_delivery_calls_the_instance_hook_once():
    """Delivery looks tree.policy.on_enqueue up on each call, so a hook
    shadowed on the policy instance after build (as the benchmark's stage
    check does) sees every packet that reaches a flow's FIFO exactly once,
    in delivery order, already linked at its flow's tail: on the unshaped
    enqueue path (f1) and on the shaper's release path (f0)."""
    tree = build_tree(fig_tree())
    seen = []
    hook = tree.policy.on_enqueue

    def spy(flow, packet):
        assert flow.tail is packet
        seen.append(packet.id)
        hook(flow, packet)

    tree.policy.on_enqueue = spy
    delivered = []

    def note_deliveries():
        """Append each packet newly on a flow's FIFO, as it lies there."""
        for fid in ("f0", "f1"):
            for p in queued(tree.flows[fid]):
                if p.id not in delivered:
                    delivered.append(p.id)
        assert seen == delivered

    now = 0
    for i in range(24):
        now = i * 400_000
        tree.enqueue(Packet(i, "f1" if i % 3 == 0 else "f0", 1500), now)
        note_deliveries()
        tree.shaper_release(now)
        note_deliveries()
        if i % 4 == 3:
            tree.dequeue(now)
    while (t := tree.next_event_time()) is not None:
        tree.shaper_release(t)
        note_deliveries()
        while tree.dequeue(t) is not None:
            pass
    assert sorted(seen) == list(range(24))


@pytest.mark.parametrize("fid", ["f1", "f0"])
def test_a_queued_packet_is_refused_until_dequeued(fid):
    """Enqueue refuses a packet the tree still holds, before counting
    anything: on its flow's FIFO (head, inside or tail) and, on the
    limited flow f0, in the shaper too. Once dequeue has returned it, it
    is taken again."""
    tree = build_tree(fig_tree())
    packets = [Packet(i, fid, 100) for i in range(3)]
    for p in packets:
        assert tree.enqueue(p, 0)

    def refused():
        stats = TreeStats(**vars(tree.stats))
        for p in packets:
            with pytest.raises(ValueError, match="still queued"):
                tree.enqueue(p, 0)
        assert tree.stats == stats and tree.pending() == 3

    def release_all():
        while (t := tree.next_event_time()) is not None:
            tree.shaper_release(t)

    refused()
    if len(tree.shaper):  # f0: every packet waits in the shaper
        assert not queued(tree.flows[fid])
        release_all()
        refused()
    assert queued(tree.flows[fid]) == packets
    first = tree.dequeue()
    assert first is packets[0] and first.next is None
    assert tree.enqueue(first, 10**9)
    release_all()
    assert [tree.dequeue() for _ in range(3)] == [*packets[1:], first]
    assert tree.dequeue() is None


def _drive_against_brute_force(tree, nb: int, ops: int = 100_000, seed: int = 7):
    """Run `ops` random enqueues and dequeues (ranks in [0, nb + 4), at
    most 16 packets per flow) and check the tree by brute force.

    After every dequeue the served flow held the least key of all
    backlogged flows. After every operation each flow, and each node filed
    in a scheduling parent, is filed under the least policy key of the
    flows below it, in that parent's queue, its key read off its handle's
    bucket; every node with one child has no handle and an empty queue,
    and `top` is filed nowhere either. Returns (served, kept, changed):
    dequeues, and operations that left the acted flow's key as it was or
    changed it."""
    key = tree.policy.key
    flows = tree.flows
    nodes = tree.nodes.values()

    def below(node):
        out = []
        for flow in flows.values():
            cur = flow.leaf
            while cur is not None and cur is not node:
                cur = cur.parent
            if cur is node:
                out.append(flow)
        return out

    ordering = [node for node in nodes if len(node.children) != 1]
    filed = [(node, below(node)) for node in ordering if node.sched_parent is not None]
    idle = [node for node in nodes if len(node.children) == 1] + [tree.top]
    # each ordering queue against what it should hold: flows on a leaf,
    # ordering nodes whose scheduling parent it is
    held = [(node, [f for f in flows.values() if f.leaf is node]
             + [n for n in ordering if n.sched_parent is node])
            for node in ordering]
    rng = random.Random(seed)
    kept = changed = served = 0

    def filed_key(obj):
        """The key an entry is filed under: its handle's bucket, or None."""
        return None if obj.handle is None else obj.handle.rank

    def check_filing():
        for flow in flows.values():
            k = key(flow, nb)
            assert filed_key(flow) == k
            if k is None:
                assert flow.handle is None
            else:
                assert flow.handle.queue is flow.leaf.queue and flow.handle.rank == k
        for node, group in filed:
            k = min((filed_key(f) for f in group if filed_key(f) is not None), default=None)
            assert filed_key(node) == k, node.id
            if k is None:
                assert node.handle is None
            else:
                handle = node.handle
                assert handle.queue is node.sched_parent.queue
                assert handle.rank == k and handle.item is node
        for node, members in held:
            assert len(node.queue) == sum(filed_key(m) is not None for m in members), node.id
        for node in idle:
            assert filed_key(node) is None and node.handle is None, node.id
            if len(node.children) == 1:
                assert len(node.queue) == 0, node.id

    for pid in range(ops):
        if rng.random() < 0.5:
            fid = rng.choice(list(flows))
            flow = flows[fid]
            if len(queued(flow)) >= 16:
                continue
            before = filed_key(flow)
            tree.enqueue(Packet(pid, fid, 100, rank=rng.randrange(nb + 4)))
        else:
            keys = {fid: key(f, nb) for fid, f in flows.items() if queued(f)}
            packet = tree.dequeue()
            if packet is None:
                assert not keys
                continue
            fid = packet.flow_id
            assert keys[fid] == min(keys.values())
            flow = flows[fid]
            before = keys[fid]
            served += 1
        if filed_key(flow) == before:
            kept += 1
        else:
            changed += 1
        check_filing()
    return served, kept, changed


def _drive_fifo_against_oracle(tree, ops: int = 100_000, seed: int = 7) -> int:
    """Run `ops` random enqueues and dequeues (at most 16 packets per
    flow) on a FIFO tree and check the served (flow, id) sequence against
    oracle_order("fifo"). A FIFO tree files nothing in its nodes, so after
    every operation each node queue is empty and no node or flow has a
    handle. Returns the number of dequeues."""
    flows = tree.flows
    nodes = tree.nodes.values()
    rng = random.Random(seed)
    trace, served = [], []
    for pid in range(ops):
        if rng.random() < 0.5:
            fid = rng.choice(list(flows))
            if flows[fid].count >= 16:
                continue
            packet = Packet(pid, fid, 100)
            tree.enqueue(packet)
            trace.append(("enq", packet))
        else:
            trace.append(("deq",))
            if (packet := tree.dequeue()) is not None:
                served.append((packet.flow_id, packet.id))
        assert all(not len(node.queue) and node.handle is None for node in nodes)
    assert all(flow.handle is None for flow in flows.values())
    assert served == oracle_order("fifo", trace)
    return len(served)


@pytest.mark.parametrize("policy", ["pfabric", "lqf", "fifo"])
def test_two_level_tree_matches_brute_force(policy):
    """10^5 enqueues and dequeues on a root over 4 leaves of 6 flows, with
    keys that often repeat (8 buckets, clamped ranks and lengths), checked
    by _drive_against_brute_force. A flow that keeps its key leaves the
    tree untouched, so a stale key or handle above it would show here.
    FIFO queues up to 16 packets per flow behind 8-bucket nodes, and its
    served order is checked against oracle_order by
    _drive_fifo_against_oracle."""
    nb, per_leaf = 8, 6
    leaves = [f"leaf{i}" for i in range(4)]
    tree = build_tree({
        "policy": policy,
        "nodes": [{"id": "root", "parent": None, "num_buckets": nb}]
        + [{"id": leaf, "parent": "root", "num_buckets": nb} for leaf in leaves],
        "flows": {f"{leaf}f{j}": leaf for leaf in leaves for j in range(per_leaf)},
    })
    if policy == "fifo":
        assert _drive_fifo_against_oracle(tree) > 30_000
        return
    served, kept, changed = _drive_against_brute_force(tree, nb)
    assert served > 30_000 and kept > 10_000 and changed > 10_000


PASS_THROUGH_TREES = {
    # node id -> parent id (None: the root), parents first; leaves take flows
    "single": {"root": None},
    "root_leaf": {"root": None, "leaf": "root"},
    "root_mid_4": {"root": None, "mid": "root",
                   **{f"leaf{i}": "mid" for i in range(4)}},
    "nested": {"root": None, "A": "root", "A1": "A", "A1a": "A1", "A1b": "A1",
               "B": "root"},
}


@pytest.mark.parametrize("shape", sorted(PASS_THROUGH_TREES))
@pytest.mark.parametrize("policy", ["pfabric", "lqf", "fifo"])
def test_pass_through_trees_match_brute_force(policy, shape):
    """Trees with one-child nodes, 10^5 operations each: a node with one
    child is skipped by scheduling, so its queue stays empty and its key
    and handle None, while every ordering node still holds the least key
    below it and each dequeue serves the least key. FIFO is checked
    against oracle_order by _drive_fifo_against_oracle."""
    nb = 8
    parents = PASS_THROUGH_TREES[shape]
    leaves = [n for n in parents if n not in parents.values()]
    per_leaf = max(2, 12 // len(leaves))
    tree = build_tree({
        "policy": policy,
        "nodes": [{"id": n, "parent": p, "num_buckets": nb} for n, p in parents.items()],
        "flows": {f"{leaf}f{j}": leaf for leaf in leaves for j in range(per_leaf)},
    })
    if policy == "fifo":
        assert _drive_fifo_against_oracle(tree) > 30_000
        return
    served, kept, changed = _drive_against_brute_force(tree, nb)
    assert served > 30_000 and kept > 10_000 and changed > 10_000


def _random_tree_config(rng: random.Random) -> dict:
    """1 to 40 nodes declared parents first: each node after the root hangs
    below the node declared just before it (so one-child chains form) or
    below a random earlier node. About a third of the nodes, at any level,
    carry a limit, and every leaf holds one to three flows."""
    nodes = [{"id": "n0", "parent": None, "num_buckets": 8}]
    for i in range(1, rng.randint(1, 40)):
        parent = nodes[-1] if rng.random() < 0.4 else rng.choice(nodes)
        nodes.append({"id": f"n{i}", "parent": parent["id"], "num_buckets": 8})
    for nc in nodes:
        if rng.random() < 0.3:
            nc["limit"] = rng.randint(1, 100) * 1e6
    parents = {nc["parent"] for nc in nodes}
    leaves = [nc["id"] for nc in nodes if nc["id"] not in parents]
    return {"policy": rng.choice(["fifo", "lqf", "pfabric"]), "nodes": nodes,
            "flows": {f"{leaf}f{j}": leaf for leaf in leaves
                      for j in range(rng.randint(1, 3))}}


def test_tree_structure_matches_a_walk_over_parent_links():
    """200 seeded random trees: each node's chain, sched_parent and place in
    tree.nodes, each flow's leaf and the tree's top, against a walk up the
    config's parent links."""
    rng = random.Random(32)
    seen = {"top below root": 0, "inner pass-through": 0, "inner limit": 0}
    for _ in range(200):
        cfg = _random_tree_config(rng)
        tree = build_tree(cfg)
        parent = {nc["id"]: nc["parent"] for nc in cfg["nodes"]}
        limited = {nc["id"] for nc in cfg["nodes"] if "limit" in nc}
        children = {n: [c for c, p in parent.items() if p == n] for n in parent}

        def ancestors(n):
            """The proper ancestors of n, nearest first."""
            up = []
            while parent[n] is not None:
                n = parent[n]
                up.append(n)
            return up

        order = list(tree.nodes)
        assert sorted(order) == sorted(parent)
        for nid, node in tree.nodes.items():
            up = ancestors(nid)
            assert node.id == nid and node.parent is (
                None if not up else tree.nodes[up[0]])
            assert node.chain == tuple(tree.nodes[n] for n in [nid, *up]
                                       if n in limited)
            sched = [n for n in up if len(children[n]) >= 2]
            assert node.sched_parent is (tree.nodes[sched[0]] if sched else None)
            assert all(order.index(n) < order.index(nid) for n in up)
            if up and children[nid]:
                seen["inner pass-through"] += len(children[nid]) == 1
                seen["inner limit"] += nid in limited
        tops = [n for n in parent if len(children[n]) != 1
                and all(len(children[a]) == 1 for a in ancestors(n))]
        assert [tree.top.id] == tops
        seen["top below root"] += parent[tops[0]] is not None
        for fid, leaf in cfg["flows"].items():
            assert tree.flows[fid].leaf is tree.nodes[leaf]
    assert min(seen.values()) >= 20, seen


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        build_tree({"policy": "nope", "nodes": [{"id": "r", "parent": None}],
                    "flows": {"f": "r"}})
    with pytest.raises(ConfigError):
        build_tree({"policy": "fifo", "nodes": [], "flows": {"f": "r"}})
    with pytest.raises(ConfigError):  # two roots
        build_tree({"policy": "fifo",
                    "nodes": [{"id": "a", "parent": None},
                              {"id": "b", "parent": None}],
                    "flows": {"f": "a"}})
    with pytest.raises(ConfigError):  # parent declared after child
        build_tree({"policy": "fifo",
                    "nodes": [{"id": "kid", "parent": "late"},
                              {"id": "late", "parent": None}],
                    "flows": {"f": "kid"}})
    with pytest.raises(ConfigError):  # a child reusing the root's id
        build_tree({"policy": "fifo",
                    "nodes": [{"id": "r", "parent": None},
                              {"id": "r", "parent": "r"}],
                    "flows": {"f": "r"}})
    with pytest.raises(ConfigError):  # two leaves with one id
        build_tree({"policy": "fifo",
                    "nodes": [{"id": "r", "parent": None},
                              {"id": "l", "parent": "r"},
                              {"id": "l", "parent": "r"}],
                    "flows": {"f": "l"}})
    with pytest.raises(ConfigError):  # flow mapped to a non-leaf
        build_tree({"policy": "fifo",
                    "nodes": [{"id": "r", "parent": None},
                              {"id": "l", "parent": "r"}],
                    "flows": {"f": "r"}})
    with pytest.raises(ConfigError):  # a misspelt node key
        build_tree({"policy": "fifo",
                    "nodes": [{"id": "r", "parent": None, "limt": 1e6}],
                    "flows": {"f": "r"}})
    with pytest.raises(ConfigError):  # a node key nothing reads
        build_tree({"policy": "lqf",
                    "nodes": [{"id": "r", "parent": None, "granularity": 2.0}],
                    "flows": {"f": "r"}})
    with pytest.raises(ConfigError):  # per-flow parameters on a tree
        build_tree({"policy": "pfabric",
                    "nodes": [{"id": "r", "parent": None}],
                    "flows": {"f": "r"},
                    "flow_params": {"f": {"limit": 1e6}}})
    with pytest.raises(ConfigError):  # a shaper key nothing reads
        build_tree({"policy": "fifo",
                    "nodes": [{"id": "r", "parent": None}],
                    "flows": {"f": "r"}, "shaper": {"horizon": 1}})
    with pytest.raises(ConfigError):  # hClock has no tree
        build_tree({"policy": "hclock",
                    "nodes": [{"id": "r", "parent": None}],
                    "flow_params": {"f": {}}})
    with pytest.raises(ConfigError):  # a misspelt hClock flow key
        build_tree({"policy": "hclock", "flow_params": {"f": {"limt": 1e6}}})
    with pytest.raises(ConfigError):  # hClock with no flows
        build_tree({"policy": "hclock", "flow_params": {}})
    for rates in ({"limit": 0}, {"limit": -1e6}, {"reservation": -1e6},
                  {"reservation": 0}):  # a rate that is not positive
        with pytest.raises(ConfigError):
            build_tree({"policy": "hclock", "flow_params": {"f": rates}})
    for rates in ({"share": math.nan}, {"share": math.inf}, {"share": None},
                  {"limit": True}, {"limit": "5"}, {"reservation": math.nan}):
        with pytest.raises(ConfigError):  # a rate that is not a finite number
            build_tree({"policy": "hclock", "flow_params": {"f": rates}})
    for bad in (0, "5", True, math.nan, math.inf):  # a node limit likewise
        with pytest.raises(ConfigError):
            build_tree({"policy": "fifo",
                        "nodes": [{"id": "r", "parent": None, "limit": bad}],
                        "flows": {"f": "r"}})
    for bad in (0, -1, "3", 2.5, True):  # a flow cap is None or a positive int
        with pytest.raises(ConfigError):
            build_tree({"policy": "fifo",
                        "nodes": [{"id": "r", "parent": None}],
                        "flows": {"f": "r"}, "flow_cap": bad})
    for bad in ({"num_buckets": 0}, {"num_buckets": 2.0},
                {"pkts_per_bucket": 0}, {"pkts_per_bucket": math.nan}):
        with pytest.raises(ConfigError):  # a drain benchmark with no items
            BenchConfig(**bad)
    for bad in (0, -4, 2.5, True, "64"):  # bucket counts are positive ints
        with pytest.raises(ConfigError):
            build_tree({"policy": "fifo",
                        "nodes": [{"id": "r", "parent": None, "num_buckets": bad}],
                        "flows": {"f": "r"}})
        with pytest.raises(ConfigError):
            build_tree({"policy": "fifo",
                        "nodes": [{"id": "r", "parent": None}],
                        "flows": {"f": "r"}, "shaper": {"num_buckets": bad}})
    tree = {"policy": "fifo", "nodes": [{"id": "r", "parent": None},
                                        {"id": "l", "parent": "r"}],
            "flows": {"f": "l"}}
    for key, bad in (("flows", ["f", "l"]), ("flows", {"f": ["l"]}),
                     ("nodes", 3), ("policy", ["fifo"]),
                     ("nodes", [{"id": ["r"], "parent": None}]),
                     ("nodes", [{"id": "r", "parent": None},
                                {"id": "l", "parent": ["r"]}])):
        with pytest.raises(ConfigError):  # a malformed shape
            build_tree({**tree, key: bad})
    with pytest.raises(ConfigError):  # hClock flow_params as a list
        build_tree({"policy": "hclock", "flow_params": [{"f": {}}]})
    top_list = tmp_path / "tree.json"
    top_list.write_text("[1]")
    with pytest.raises(ConfigError):  # a tree file that is not an object
        build_tree(str(top_list))
    for bad in (0, -1, 2e9, None):  # and so is the shaper horizon
        with pytest.raises(ConfigError):
            build_tree({"policy": "fifo",
                        "nodes": [{"id": "r", "parent": None}],
                        "flows": {"f": "r"}, "shaper": {"horizon_ns": bad}})


@pytest.mark.parametrize("fid", [1, 2.5, None, ("f",)])
def test_flow_ids_must_be_strings(fid):
    """A flow id is a string, as node ids are, in a tree's flows and in
    hClock's flow_params alike."""
    with pytest.raises(ConfigError):
        build_tree({"policy": "fifo", "nodes": [{"id": "r", "parent": None}],
                    "flows": {fid: "r"}})
    with pytest.raises(ConfigError):
        build_tree({"policy": "hclock", "flow_params": {fid: {}}})


def test_load_policy_tree_sources(tmp_path):
    from pktsched.config import load_policy_tree
    cfg = single_level_config("fifo", ["f0"])
    assert load_policy_tree(cfg) is cfg
    import json
    text = json.dumps(cfg)
    assert load_policy_tree(text) == cfg
    path = tmp_path / "tree.json"
    path.write_text(text)
    assert load_policy_tree(str(path)) == cfg
    for bad in ("{broken json", "[1]", ' [{"policy": "fifo"}]'):
        with pytest.raises(ConfigError):
            load_policy_tree(bad)
    with pytest.raises(ConfigError, match="missing.json"):  # names the path
        load_policy_tree(str(tmp_path / "missing.json"))
