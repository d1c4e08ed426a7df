"""Policy hook and hClock scheduler tests."""

import random

import pytest

from pktsched.config import build_tree, single_level_config
from pktsched.core import Packet
from pktsched.errors import ConfigError
from pktsched.policies import HClockScheduler, LqfPolicy, PfabricPolicy
from sim_trace import queued


def enq(tree, pid, fid, rank=0, size=1500):
    tree.enqueue(Packet(pid, fid, size, rank=rank), 0)


# -- LQF ----------------------------------------------------------------------

def test_lqf_serves_longest_queue():
    tree = build_tree(single_level_config("lqf", ["A", "B"]))
    for pid in range(3):
        enq(tree, pid, "A")
    for pid in range(3, 8):
        enq(tree, pid, "B")
    # B leads 5 to 3; LQF drains B until the lengths level out
    served = [tree.dequeue(0).flow_id for _ in range(2)]
    assert served == ["B", "B"]
    # once tied, every dequeue must come from a flow of maximal length
    flows = tree.flows
    for _ in range(6):
        longest = max(len(queued(f)) for f in flows.values())
        pkt = tree.dequeue(0)
        assert len(queued(flows[pkt.flow_id])) == longest - 1
    assert tree.dequeue(0) is None


def test_lqf_rank_updates_on_both_hooks():
    policy = LqfPolicy()
    tree = build_tree(single_level_config("lqf", ["A"]))
    flow = tree.flows["A"]
    enq(tree, 0, "A")
    enq(tree, 1, "A")
    assert flow.rank == 2
    tree.dequeue(0)
    assert flow.rank == 1
    key_full = policy.key(flow, 1024)
    tree.dequeue(0)
    assert policy.key(flow, 1024) is None  # empty flow leaves the queue
    assert key_full == 1024 - 1 - 1


# -- pFabric ------------------------------------------------------------------

def test_pfabric_serves_shortest_remaining_flow():
    tree = build_tree(single_level_config("pfabric", ["A", "B", "C"]))
    enq(tree, 0, "A", rank=5)
    enq(tree, 1, "B", rank=4)
    enq(tree, 2, "C", rank=3)
    assert [tree.dequeue(0).flow_id for _ in range(3)] == ["C", "B", "A"]


def test_pfabric_flow_rank_follows_min_rule():
    tree = build_tree(single_level_config("pfabric", ["A"]))
    flow = tree.flows["A"]
    enq(tree, 0, "A", rank=9)
    assert flow.rank == 9
    enq(tree, 1, "A", rank=4)  # newer packet with less remaining
    assert flow.rank == 4
    pkt = tree.dequeue(0)
    assert pkt.id == 0  # strict per-flow FIFO despite the rank
    assert flow.rank == 4  # min(popped 9, front 4)
    tree.dequeue(0)
    assert not queued(flow) and flow.handle is None  # emptied, out of the queue
    enq(tree, 2, "A", rank=7)  # the first packet of a refill sets the rank
    assert flow.rank == 7
    assert tree.dequeue(0).id == 2


def test_pfabric_key_clamps_to_last_bucket():
    policy = PfabricPolicy()
    cfg = single_level_config("pfabric", ["A"])
    for node in cfg["nodes"]:
        node["num_buckets"] = 16
    tree = build_tree(cfg)
    flow = tree.flows["A"]
    enq(tree, 0, "A", rank=1_000_000)
    assert policy.key(flow, 16) == 15


# -- FIFO ---------------------------------------------------------------------

def test_fifo_global_arrival_order():
    tree = build_tree(single_level_config("fifo", ["A", "B"]))
    for pid, fid in enumerate(["B", "A", "B", "A"]):
        enq(tree, pid, fid)
    assert [tree.dequeue(0).id for _ in range(4)] == [0, 1, 2, 3]


# -- hClock -------------------------------------------------------------------

def test_hclock_tag_arithmetic():
    s = HClockScheduler()
    s.add_flow("f", reservation=1_500_000, limit=3_000_000, share=1.0)
    s.enqueue(Packet(0, "f", 1500), now=0)
    flow = s.flows["f"]
    # tags queued with the packet are the pre-increment values
    assert flow.fifo[0][:3] == (0, 0, 0)
    # clocks advanced by size/rate: r by 1 ms, l by 0.5 ms
    assert flow.r_clock.t == 1_000_000
    assert flow.l_clock.t == 500_000
    # share clock: size / (share * nominal rate) -> 120 us at 12.5 MB/s
    assert flow.s_clock.t == 120_000
    # where size/rate is no whole ns, tags are the exact clock's floors:
    # 1000 B take 142 857 1/7 ns at 7 MB/s and 26 666 2/3 ns at share 3
    s.add_flow("g", reservation=7e6, share=3)
    for pid in range(3):
        s.enqueue(Packet(pid, "g", 1000), now=0)
    flow = s.flows["g"]
    assert [entry[:3] for entry in flow.fifo] == [(0, 0, 0), (142_857, 0, 26_666),
                                                  (285_714, 0, 53_333)]
    assert all(type(tag) is int for entry in flow.fifo for tag in entry[:3])
    assert (flow.r_clock.t, flow.s_clock.t) == (428_571, 80_000)


def test_hclock_parameter_validation():
    s = HClockScheduler()
    with pytest.raises(ConfigError):
        s.add_flow("bad", reservation=2_000_000, limit=1_000_000)
    with pytest.raises(ConfigError):
        s.add_flow("bad2", share=0)
    s.add_flow("ok")
    with pytest.raises(ConfigError):
        s.add_flow("ok")  # duplicate
    with pytest.raises(ConfigError):
        s.enqueue(Packet(0, "ghost", 100), 0)


def test_hclock_reservation_beats_share():
    s = HClockScheduler()
    s.add_flow("res", reservation=1_500_000, share=1.0)
    s.add_flow("big", share=100.0)
    s.enqueue(Packet(0, "big", 1500), 0)
    s.enqueue(Packet(1, "res", 1500), 0)
    # both heads are due; phase 1 picks the reservation-carrying flow first
    assert s.dequeue(0).flow_id == "res"
    assert s.dequeue(0).flow_id == "big"


def test_hclock_limit_gates_eligibility():
    s = HClockScheduler()
    s.add_flow("f", limit=1_500_000, share=1.0)
    s.enqueue(Packet(0, "f", 1500), 0)
    s.enqueue(Packet(1, "f", 1500), 0)
    assert s.dequeue(0).id == 0  # first head has l-tag 0
    # second head's l-tag is 1 ms: not servable earlier
    assert s.dequeue(500_000) is None
    assert s.next_eligible_time(500_000) == 1_000_000
    assert s.dequeue(1_000_000).id == 1


def test_hclock_share_proportionality_drain():
    s = HClockScheduler()
    s.add_flow("x", share=1.0)
    s.add_flow("y", share=3.0)
    for pid in range(40):
        s.enqueue(Packet(pid, "x", 1500), 0)
        s.enqueue(Packet(100 + pid, "y", 1500), 0)
    served = [s.dequeue(0).flow_id for _ in range(40)]
    # y's virtual time advances 3x slower: about 3 of every 4 slots are y's
    assert served.count("y") == pytest.approx(30, abs=2)


def test_hclock_idle_catch_up():
    s = HClockScheduler()
    s.add_flow("idle", share=1.0)
    s.add_flow("busy", share=1.0)
    for pid in range(20):
        s.enqueue(Packet(pid, "busy", 1500), 0)
    for _ in range(10):
        s.dequeue(0)
    # a reactivating flow must not burst on credit accumulated while idle:
    # its share tag snaps forward to the busy flow's head tag
    s.enqueue(Packet(99, "idle", 1500), now=0)
    busy_head = s.flows["busy"].fifo[0][2]
    assert s.flows["idle"].fifo[0][2] >= busy_head
    served = [s.dequeue(0).flow_id for _ in range(6)]
    assert served.count("idle") <= 3


def test_hclock_backlog_counts():
    s = HClockScheduler()
    s.add_flow("f")
    assert s.backlog() == 0
    s.enqueue(Packet(0, "f", 100), 0)
    assert s.backlog() == 1
    s.dequeue(0)
    assert s.backlog() == 0
    assert s.dequeue(0) is None
    assert s.next_eligible_time(0) is None


def test_hclock_idle_catch_up_with_parked_flows():
    s = HClockScheduler()
    s.add_flow("p1", limit=1_500_000, share=1.0)
    s.add_flow("p2", limit=1_500_000, share=2.0)
    s.add_flow("idle", share=1.0)
    for pid in range(3):
        s.enqueue(Packet(pid, "p1", 1500), 0)
        s.enqueue(Packet(10 + pid, "p2", 1500), 0)
    assert {s.dequeue(0).flow_id, s.dequeue(0).flow_id} == {"p1", "p2"}
    # both next heads have l-tag 1 ms: every active flow is parked
    assert s.dequeue(0) is None
    heads = [s.flows[f].fifo[0][2] for f in ("p1", "p2")]
    s.enqueue(Packet(99, "idle", 1500), now=0)
    # parked flows count as active: the share tag snaps to their least head
    assert s.flows["idle"].fifo[0][2] == min(heads) == 60_000
    assert s.dequeue(0).flow_id == "idle"


def test_hclock_backlogged_flow_banks_no_limit_credit():
    """A flow kept backlogged but served below its limit (here by a far
    larger share) must not bank limit credit and burst once it is free.

    Every packet's limit tag is at least its arrival time and one
    size / limit after the tag before it, so a window holds at most
    limit * window of tags that start inside it plus the packets already
    queued when it opens: limit * window + CAP MTUs.
    """
    mtu, cap, tx_ns = 1500, 4, 150_000  # 10 MB/s link
    limit, window = 1_500_000, 100_000_000
    s = HClockScheduler()
    s.add_flow("a", limit=limit, share=1.0)
    s.add_flow("b", share=100.0)
    pid = now = 0
    sent_a = []
    while now < 1_000_000_000:
        for fid in ("a", "b"):
            if fid == "b" and now >= 200_000_000:
                continue  # b stops being refilled
            while len(s.flows[fid].fifo) < cap:
                s.enqueue(Packet(pid, fid, mtu), now)
                pid += 1
        p = s.dequeue(now)
        if p is None:
            now = s.next_eligible_time(now)
            continue
        if p.flow_id == "a":
            sent_a.append(now)
        now += tx_ns
    most = first = 0
    for last, t in enumerate(sent_a):
        while t - sent_a[first] >= window:
            first += 1
        most = max(most, (last - first + 1) * mtu)
    assert most <= limit * window // 1_000_000_000 + cap * mtu


def test_hclock_backlogged_flow_banks_no_reservation_credit():
    """Reservations that oversubscribe the link: a reserved flow kept
    backlogged but served below its reservation must not bank reservation
    credit and later hold the link in the reservation phase.

    A and B each reserve 8 MB/s of a 10 MB/s link; B stops being refilled
    at 200 ms and C (share 100) starts then. From the first 100 ms window
    on, A's reservation is 8 MB/s and C takes most of the other 2 MB/s.
    """
    mtu, cap, tx_ns = 1500, 4, 150_000  # 10 MB/s link
    window, stop = 100_000_000, 200_000_000
    s = HClockScheduler()
    s.add_flow("a", reservation=8_000_000, share=1.0)
    s.add_flow("b", reservation=8_000_000, share=1.0)
    s.add_flow("c", share=100.0)
    pid = now = 0
    sent = {"a": [0] * 5, "c": [0] * 5}  # bytes per window from `stop` on
    while now < stop + 5 * window:
        for fid in ("a", "b", "c"):
            if (fid, now < stop) in (("b", False), ("c", True)):
                continue  # b runs until `stop`, c from then on
            while len(s.flows[fid].fifo) < cap:
                s.enqueue(Packet(pid, fid, mtu), now)
                pid += 1
        p = s.dequeue(now)
        if p.flow_id in sent and now >= stop:
            sent[p.flow_id][(now - stop) // window] += p.size
        now += tx_ns
    for c_bytes, a_bytes in zip(sent["c"], sent["a"]):
        assert c_bytes >= 150_000  # at least 1.5 MB/s in every window
        assert a_bytes <= 850_000


@pytest.mark.parametrize("seed", [1, 2])
def test_hclock_long_trace_invariants(seed):
    """10^4+ random operations over reserved, limited and plain flows with
    limit rates that are no whole ns per byte: no packet leaves before its
    limit tag, dequeue returns None only when every pending head's limit
    bucket is ahead, dequeue(next_eligible_time(now)) always succeeds, one
    granule late at most, and idle catch-up snaps exactly to the least
    head tag."""
    rng = random.Random(seed)
    gran = HClockScheduler.GRANULARITY_NS
    s = HClockScheduler()
    for i in range(12):
        limit = rng.choice([None, 0.7e6, 1.3e6, 3.1e6])
        reservation = None
        if rng.random() < 0.4:
            reservation = rng.choice([0.3e6, 0.6e6])
        s.add_flow(f"f{i}", reservation=reservation, limit=limit,
                   share=rng.choice([1.0, 2.0, 4.0]))
    fids = list(s.flows)
    l_tag = {}
    now = pid = 0
    served = empty = 0
    for _ in range(12_000):
        if rng.random() < 0.5:
            fid = rng.choice(fids)
            flow = s.flows[fid]
            active = [f.fifo[0][2] for f in s.flows.values() if f.fifo]
            catch_up = not flow.fifo and active
            floor = max(flow.s_clock.t, min(active)) if catch_up else None
            s.enqueue(Packet(pid, fid, rng.randint(64, 1500)), now)
            if catch_up:  # idle catch-up snaps to the least head tag
                assert flow.fifo[0][2] == floor
            l_tag[pid] = flow.fifo[-1][1]
            pid += 1
            continue
        pkt = s.dequeue(now)
        _check_hclock_filing(s, now)
        if pkt is None:
            pending = [f.fifo[0][1] for f in s.flows.values() if f.fifo]
            assert s.backlog() == pid - served  # enqueued minus served
            if not pending:
                assert s.next_eligible_time(now) is None
                continue
            buckets = [-(-t // gran) * gran for t in pending]
            assert min(buckets) > now
            t = s.next_eligible_time(now)
            assert t == min(buckets) and t - min(pending) < gran
            now = t
            pkt = s.dequeue(now)
            _check_hclock_filing(s, now)
            assert pkt is not None
            empty += 1
        assert l_tag.pop(pkt.id) <= now
        served += 1
        now += rng.choice([0, 0, 1_000, rng.randint(1, 120_000)])
    assert served > 4_000 and empty > 100


def _filed_under(queue, handle, rank) -> bool:
    """handle is a node of the circular `queue`, linked in the bucket that
    `rank` maps to (ranks past both windows in the buffer's last bucket)."""
    q = queue.q_size
    offset = rank - queue.h_index
    inner = queue.primary if offset < q else queue.secondary
    return (handle.abs_rank == rank and handle.queue is inner
            and handle.rank == min(offset, 2 * q - 1) % q)


def _check_hclock_filing(s, now) -> None:
    """Each eligible flow's handles are queued nodes filed under its head
    keys; parked and idle flows hold none. _r_due is at most the least
    reservation bucket's time."""
    eligible = reserved = parked = 0
    r_ranks = [f.r_handle.abs_rank for f in s.flows.values() if f.r_handle]
    assert not r_ranks or s._r_due <= min(r_ranks) * s.GRANULARITY_NS
    for flow in s.flows.values():
        if flow.s_handle is None:
            assert flow.r_handle is None
            parked += len(flow.fifo) > 0
            continue
        eligible += 1
        r_tag, l_tag, s_tag, _ = flow.fifo[0]
        assert l_tag <= now and flow.s_handle.item is flow
        # a share key below the window when filed is raised to its start
        key = s_tag // s.GRANULARITY_NS
        rank = flow.s_handle.abs_rank
        assert rank == key or (rank > key and rank % s.NUM_BUCKETS == 0)
        assert _filed_under(s._s_queue, flow.s_handle, rank)
        if flow.r_clock is not None:
            reserved += 1
            assert flow.r_handle.item is flow
            assert _filed_under(s._r_queue, flow.r_handle,
                                -(-r_tag // s.GRANULARITY_NS))
        else:
            assert flow.r_handle is None
    assert (eligible, reserved, parked) == (
        len(s._s_queue), len(s._r_queue), len(s._shaper))


def test_hclock_serves_a_reservation_filed_below_the_due_bound():
    """Reserved flow a's r tags lie 30 ms apart, so once it is served the
    reservation bound is tight and 30 ms ahead. Reserved flow b, whose
    share tags run 120 ms apart, then becomes eligible with an r tag due
    at once: from idle, and when the Shaper releases it. Each time the
    next dequeue serves b, which only the reservation phase can: its
    share entry sits behind a and c, or far ahead of them."""
    s = HClockScheduler()
    s.add_flow("a", reservation=50_000)
    s.add_flow("b", reservation=1_000_000, limit=1_000_000, share=0.001)
    s.add_flow("c")
    pid = 0
    for fid in "acacacacac":
        s.enqueue(Packet(pid, fid, 1500), 0)
        pid += 1
    assert s.dequeue(0).flow_id == "a"  # r tag 0: due
    assert s.dequeue(0).flow_id == "c"  # the share phase; a's r is 30 ms out
    assert s._r_due == 30_000_000
    now = 1_000_000
    for _ in range(2):  # from idle: r tag now; l of the second is 2.5 ms
        s.enqueue(Packet(pid, "b", 1500), now)
        pid += 1
    assert s.dequeue(now).flow_id == "b"
    _check_hclock_filing(s, now)
    assert len(s._shaper) == 1  # b parked until 2.5 ms
    assert s.dequeue(now).flow_id in ("a", "c")
    assert s._r_due == 30_000_000
    now = 2_500_000
    assert s.dequeue(now).flow_id == "b"  # unparked with r = l = 2.5 ms
    _check_hclock_filing(s, now)


def test_hclock_files_flows_in_place_past_both_windows():
    """A 1.5 s run, past the 20 ms windows of both circular queues: the
    share queue rotates, and the reservation queue's window re-anchors
    lower when a reserved flow falls below it, since a slow reserved flow
    keeps its r tags far ahead. The filing is checked after every
    dequeue, so a flow's entries follow its head through every move."""
    rng = random.Random(11)
    s = HClockScheduler()
    # shares sum to 2, so the share clock runs at about half the link's
    s.add_flow("slow", reservation=50_000, share=0.5)  # r tags 30 ms apart
    s.add_flow("burst", reservation=1_000_000, share=0.25)
    s.add_flow("lim", limit=1_000_000, share=0.25)
    s.add_flow("both", reservation=200_000, limit=300_000, share=0.25)
    s.add_flow("p1", share=0.25)
    s.add_flow("p2", share=0.5)
    r_queue = s._r_queue
    r_start = r_queue.h_index
    lowered = pid = now = served = 0
    while now < 1_500_000_000:
        for fid, flow in s.flows.items():
            # burst sends for 20 ms out of every 70 ms, the rest always
            if fid == "burst" and now % 70_000_000 >= 20_000_000:
                continue
            while len(flow.fifo) < 3:
                s.enqueue(Packet(pid, fid, rng.choice([200, 1500])), now)
                pid += 1
        # enqueue and dequeue (admitting parked flows) may both lower it
        lowered += r_queue.h_index < r_start
        r_start = r_queue.h_index
        pkt = s.dequeue(now)
        lowered += r_queue.h_index < r_start
        r_start = r_queue.h_index
        if pkt is None:
            now = s.next_eligible_time(now)
            continue
        _check_hclock_filing(s, now)
        served += 1
        now += pkt.size * 80  # 12.5 MB/s link
    assert served > 10_000
    assert s._s_queue.rotations > 10 and lowered > 0
