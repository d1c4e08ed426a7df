"""Discrete-event simulation tests: determinism, conservation, shaping
conformance, and differential checks against brute-force oracles."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktsched.config import build_tree, single_level_config
from pktsched.core import Packet
from pktsched.errors import ConfigError, QueueStateError
from pktsched.sim import MTU, Workload, oracle_order, run_sim
from sim_trace import max_window_bytes, min_gap_ns, record_served

MBPS = 125_000  # bytes/sec per megabit


def small_workload(**kw):
    defaults = dict(num_flows=2, duration_ns=20_000_000, seed=1,
                    link_rate=10_000_000.0, flow_cap=8)
    defaults.update(kw)
    return Workload(**defaults)


@pytest.mark.parametrize("bad", [
    {"link_rate": 0}, {"link_rate": -5.0}, {"link_rate": math.nan},
    {"link_rate": math.inf}, {"link_rate": True},
    {"arrival_rate": 0}, {"arrival_rate": -5.0}, {"arrival_rate": math.nan},
    {"sizes": (0,)}, {"sizes": (1500.0,)}, {"sizes": (64, 0)},
    {"sizes": (64, "1500")},
    {"flow_cap": 0}, {"flow_cap": -1}, {"flow_cap": 2.0},
    {"seed": [1]}, {"seed": 1.5}, {"seed": "x"}, {"seed": True},
    {"sizes": ()}, {"sizes": 1500}, {"sizes": [1500]}, {"sizes": (True,)},
    {"flow_cap": None},
])
def test_workload_rejects_malformed_numbers(bad):
    with pytest.raises(ConfigError):
        small_workload(**bad)


def test_sizes_is_the_one_size_field():
    """A single size fixes every packet's size; no second field can
    contradict it."""
    with pytest.raises(TypeError):
        small_workload(packet_size=9000, size_mix=(64,))
    sched = build_tree(single_level_config("fifo", ["f0", "f1"]))
    served = record_served(sched)
    m = run_sim(sched, small_workload(sizes=(9000,)))
    assert m.dequeued > 0
    assert {size for _, _, _, size, _ in served} == {9000}


def test_same_seed_same_trace():
    cfg = single_level_config("pfabric", ["f0", "f1"])
    mix = (64, 512, 1500)
    traces = []
    for seed in (1, 1, 2):
        sched = build_tree(cfg)
        traces.append(record_served(sched))
        run_sim(sched, small_workload(sizes=mix, seed=seed))
    a, b, c = traces
    assert a == b
    assert c != a


def test_packet_conservation():
    for policy in ("fifo", "lqf", "pfabric"):
        cfg = single_level_config(policy, ["f0", "f1"])
        m = run_sim(cfg, small_workload())
        assert m.conserved()
        assert m.dequeued > 0


def test_zero_duration_empty_metrics():
    sched = build_tree(single_level_config("fifo", ["f0", "f1"]))
    served = record_served(sched)
    m = run_sim(sched, small_workload(duration_ns=0))
    assert m.enqueued == m.dequeued == m.pending == 0
    assert served == []
    assert m.throughput_bps("f0") == 0.0


@pytest.mark.parametrize("policy", ["pfabric", "hclock"])
def test_memory_does_not_grow_with_run_length(policy):
    """Four backlogged flows on a 125 MB/s link for 50 ms and for 400 ms
    (4 167 and 33 334 packets) peak at the same traced memory: a run
    keeps counts and per-flow totals, nothing per served packet."""
    peaks, dequeued = [], []
    for duration in (50_000_000, 400_000_000):
        workload = small_workload(num_flows=4, duration_ns=duration,
                                  link_rate=125_000_000.0)
        cfg = single_level_config(policy, workload.flow_ids())
        tracemalloc.start()
        try:
            dequeued.append(run_sim(cfg, workload).dequeued)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert dequeued[1] > 7 * dequeued[0]
    assert peaks[1] - peaks[0] < 64 * 1024


def test_backlogged_respects_flow_cap():
    cfg = single_level_config("fifo", ["f0"])
    m = run_sim(cfg, small_workload(num_flows=1, flow_cap=4))
    assert m.pending <= 4
    assert m.conserved()


def test_rate_driven_arrivals():
    cfg = single_level_config("fifo", ["f0"])
    # arrivals at 1 MB/s against a 10 MB/s link: no standing backlog
    m = run_sim(cfg, small_workload(num_flows=1, arrival_rate=1_000_000.0,
                                    duration_ns=50_000_000))
    assert m.conserved()
    assert m.dequeued >= 30  # ~33 packets of 1500 B in 50 ms
    assert m.pending <= 2


def test_throughput_tracks_link_rate():
    cfg = single_level_config("fifo", ["f0"])
    m = run_sim(cfg, small_workload(num_flows=1, duration_ns=100_000_000))
    # backlogged single flow saturates the 10 MB/s (80 Mbps) link
    assert m.throughput_bps("f0") == pytest.approx(80_000_000, rel=0.05)


def test_shaped_leaf_conforms_to_limit():
    cfg = {
        "policy": "fifo",
        "nodes": [
            {"id": "root", "parent": None},
            {"id": "agg", "parent": "root", "limit": 10 * MBPS},
            {"id": "leaf", "parent": "agg", "limit": 7 * MBPS},
        ],
        "flows": {"f0": "leaf"},
    }
    sched = build_tree(cfg)
    served = record_served(sched)
    m = run_sim(sched, small_workload(num_flows=1, duration_ns=500_000_000,
                                      link_rate=12_500_000.0))
    window = 100_000_000
    budget = 7 * MBPS * window // 1_000_000_000 + 1500
    assert max_window_bytes(served, "f0", window) <= budget
    # goodput lands near the 7 Mbps cap, not the 10 Mbps one
    assert m.throughput_bps("f0") == pytest.approx(7_000_000, rel=0.1)


def test_shaped_two_level_fifo_serves_in_delivery_order():
    """Two limited tenants over four leaves (two of them limited) drain
    through a slower link, so packets queue behind the shaper. Over more
    than 3 x 1024 deliveries, three times a node's 1024 buckets, the
    served FIFO ranks (delivery sequence numbers) strictly increase."""
    cfg = {"policy": "fifo",
           "nodes": [{"id": "root", "parent": None},
                     {"id": "t0", "parent": "root", "limit": 4_000_000},
                     {"id": "t1", "parent": "root", "limit": 4_000_000},
                     {"id": "l0", "parent": "t0", "limit": 1_500_000},
                     {"id": "l1", "parent": "t0"},
                     {"id": "l2", "parent": "t1", "limit": 1_500_000},
                     {"id": "l3", "parent": "t1"}],
           "flows": {f"f{i}": f"l{i % 4}" for i in range(8)}}
    sched = build_tree(cfg)
    served = record_served(sched)
    m = run_sim(sched, small_workload(num_flows=8, duration_ns=1_200_000_000,
                                      link_rate=5_000_000.0))
    assert m.conserved() and len(served) > 3 * 1024
    ranks = [rank for *_, rank in served]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))


def test_slow_leaf_shapes_timestamps_past_both_shaper_windows():
    """Two flows of 32 MTU packets on a leaf limited to 20 kB/s: their
    shaper timestamps reach 4.8 s, past both 2 s windows of the default
    shaper. The shaper files them in its overflow bucket, and the run
    completes within the limit."""
    limit = 20_000
    cfg = {"policy": "fifo",
           "nodes": [{"id": "root", "parent": None},
                     {"id": "leaf", "parent": "root", "limit": limit}],
           "flows": {"f0": "leaf", "f1": "leaf"}}
    m = run_sim(cfg, small_workload(duration_ns=10_000_000_000, flow_cap=32))
    assert m.conserved()
    sent = m.per_flow_bytes["f0"] + m.per_flow_bytes["f1"]
    assert 0.9 * limit * 10 < sent <= limit * 10 + MTU


def test_hclock_no_packet_leaves_before_its_limit_tag():
    """Flows limited to 20 and 30 kB/s beside a free flow, 4 MTU packets
    each: the limited flows' l tags run up to 4 packets (200 ms) ahead of
    the clock, past both 20 ms windows of hClock's shaper."""
    sched = build_tree({"policy": "hclock",
                        "flow_params": {"f0": {"limit": 20_000.0},
                                        "f1": {"limit": 30_000.0},
                                        "f2": {}}})
    l_tags = {}

    def enqueue(packet, now, _enqueue=sched.enqueue):
        _enqueue(packet, now)
        l_tags[packet.id] = sched.flows[packet.flow_id].fifo[-1][1]
        return True

    sched.enqueue = enqueue
    served = record_served(sched)
    m = run_sim(sched, small_workload(num_flows=3, duration_ns=2_000_000_000,
                                      flow_cap=4))
    assert m.conserved()
    assert all(t >= l_tags[pid] for t, _, pid, _, _ in served)
    for fid, limit in (("f0", 20_000), ("f1", 30_000)):
        assert 0.9 * limit * 2 < m.per_flow_bytes[fid] <= limit * 2 + 4 * MTU
    assert sum(fid == "f2" for _, fid, _, _, _ in served) > 13_000


def test_hclock_sim_share_split():
    cfg = {"policy": "hclock",
           "flow_params": {"f0": {"share": 1.0}, "f1": {"share": 3.0}}}
    m = run_sim(cfg, small_workload(duration_ns=200_000_000))
    total = m.per_flow_bytes["f0"] + m.per_flow_bytes["f1"]
    assert m.per_flow_bytes["f1"] / total == pytest.approx(0.75, abs=0.05)


def test_hclock_sim_limit_respected():
    cfg = {"policy": "hclock",
           "flow_params": {"f0": {"limit": 1_000_000.0, "share": 1.0},
                           "f1": {"share": 1.0}}}
    sched = build_tree(cfg)
    served = record_served(sched)
    run_sim(sched, small_workload(duration_ns=500_000_000))
    window = 100_000_000
    assert max_window_bytes(served, "f0", window) <= 100_000 + 1500


def test_rate_driven_arrivals_with_a_size_mix():
    # 16 flows at 100 kB/s each for 1 s; sizes drawn from the mix average
    # 1000 B, so arrivals come every 10 ms, not every 1500 B's 15 ms
    cfg = single_level_config("fifo", [f"f{i}" for i in range(16)])
    rate = 100_000.0
    m = run_sim(cfg, small_workload(num_flows=16, sizes=(500, 1500),
                                    arrival_rate=rate,
                                    duration_ns=1_000_000_000))
    total = sum(m.per_flow_bytes.values())
    assert total == pytest.approx(16 * rate, rel=0.05)


def test_hclock_sim_honours_arrival_rate():
    # 1500 B every 15 ms per flow: arrivals at 0, 15, 30 and 45 ms
    cfg = single_level_config("hclock", ["f0", "f1"])
    m = run_sim(cfg, small_workload(arrival_rate=100_000.0,
                                    duration_ns=50_000_000))
    assert m.enqueued == 8
    assert m.dequeued == 8 and m.pending == 0


@pytest.mark.parametrize("policy", ["fifo", "hclock"])
def test_flow_cap_none_means_one(policy):
    # at a cap of 1 at most one packet per flow waits
    sched = build_tree(single_level_config(policy, ["f0", "f1"]))
    served = record_served(sched)
    m = run_sim(sched, small_workload(flow_cap=1))
    assert m.pending <= 2
    assert m.enqueued == m.dequeued + m.pending
    assert m.dequeued > 0
    packets = [sum(fid == f for _, fid, _, _, _ in served) for f in ("f0", "f1")]
    assert packets[0] == pytest.approx(packets[1], abs=1)


@pytest.mark.parametrize("flow_cap", [1])
def test_single_flow_refilled_at_link_rate(flow_cap):
    # each dequeue empties the flow; it must be topped up before the
    # link's next turn even though nothing else is queued
    cfg = single_level_config("fifo", ["f0"])
    m = run_sim(cfg, small_workload(num_flows=1, flow_cap=flow_cap,
                                    duration_ns=100_000_000))
    assert m.throughput_bps("f0") == pytest.approx(80_000_000, rel=0.05)


def test_hclock_free_flow_not_held_by_parked_flow():
    # with cap 1 the free flow empties on every dequeue while the limited
    # one is parked; the link still runs at its rate
    cfg = {"policy": "hclock",
           "flow_params": {"f0": {"limit": 1_000_000.0, "share": 1.0},
                           "f1": {"share": 1.0}}}
    m = run_sim(cfg, small_workload(flow_cap=1, duration_ns=500_000_000))
    secs = m.duration_ns / 1e9
    assert m.per_flow_bytes["f0"] / secs == pytest.approx(1_000_000, rel=0.05)
    assert m.per_flow_bytes["f1"] / secs == pytest.approx(9_000_000, rel=0.05)


def test_workload_cap_replaces_config_cap():
    # a config cap below the workload's is overridden, so nothing is
    # refused and the pFabric ranks are those of an uncapped tree
    workload = small_workload(sizes=(64, 512, 1500))
    capped = build_tree(dict(single_level_config("pfabric", ["f0", "f1"]),
                             flow_cap=2))
    uncapped = build_tree(single_level_config("pfabric", ["f0", "f1"]))
    served, ref_served = record_served(capped), record_served(uncapped)
    m = run_sim(capped, workload)
    ref = run_sim(uncapped, workload)
    assert served == ref_served
    assert (m.enqueued, m.deferred, m.pending) == \
        (ref.enqueued, ref.deferred, ref.pending) == (290, 0, 15)


def test_sim_rejects_flow_missing_from_config():
    with pytest.raises(ConfigError):
        run_sim(single_level_config("hclock", ["f0"]), small_workload())
    with pytest.raises(ConfigError):
        run_sim(single_level_config("fifo", ["f0"]), small_workload())


class _StuckScheduler:
    """Claims a packet is schedulable but never dequeues one."""

    def __init__(self):
        self.dequeues = 0

    def enqueue(self, packet, now):
        return True

    def shaper_release(self, now):
        return 0

    def dequeue(self, now):
        self.dequeues += 1
        return None

    def schedulable(self):
        return True

    def next_event_time(self):
        return None

    def pending(self):
        return 0


def test_sim_fails_when_schedulable_scheduler_dequeues_nothing():
    # without the check the clock would creep 1 ns per loop iteration
    sched = _StuckScheduler()
    with pytest.raises(QueueStateError):
        run_sim(sched, small_workload())
    assert sched.dequeues == 1


@st.composite
def loop_runs(draw):
    """A config and a workload for the simulation loop: any policy, some
    flows rate limited (a leaf limit, root pacing, or an hClock limit)."""
    policy = draw(st.sampled_from(["fifo", "lqf", "pfabric", "hclock"]))
    n = draw(st.integers(1, 8))
    flow_ids = [f"f{i}" for i in range(n)]
    rates = st.sampled_from([None, 150_000.0, 600_000.0, 2_500_000.0])
    limits = {fid: draw(rates) for fid in flow_ids}
    if policy == "hclock":
        params = {}
        for fid in flow_ids:
            p = {"share": draw(st.sampled_from([1.0, 2.0, 4.0]))}
            if limits[fid] is not None:
                p["limit"] = limits[fid]
            if draw(st.booleans()):
                p["reservation"] = min(100_000.0, limits[fid] or 100_000.0)
            params[fid] = p
        cfg = {"policy": policy, "flow_params": params}
    else:
        pace = draw(rates)
        nodes = [{"id": "root", "parent": None, "limit": pace}]
        nodes += [{"id": f"leaf{fid}", "parent": "root", "limit": limits[fid]}
                  for fid in flow_ids]
        cfg = {"policy": policy, "nodes": nodes,
               "flows": {fid: f"leaf{fid}" for fid in flow_ids}}
        if pace is not None:
            limits = {fid: min(pace, lim or pace)
                      for fid, lim in limits.items()}
    workload = Workload(
        num_flows=n,
        duration_ns=draw(st.sampled_from([50_000_000, 250_000_000])),
        seed=draw(st.integers(0, 1000)),
        link_rate=10_000_000.0,
        flow_cap=draw(st.sampled_from([1, 4])),
        arrival_rate=draw(st.sampled_from([None, 300_000.0, 2_000_000.0])),
    )
    return cfg, workload, limits


@settings(max_examples=60, deadline=None)
@given(loop_runs())
def test_one_loop_properties(run):
    """Every policy through the one loop: packets are conserved, each flow
    leaves in id order, nothing leaves at or after the duration, a
    limited flow keeps to its limit over every 100 ms window, and a
    backlogged run with an unlimited flow keeps the link busy.

    The trace records when a packet leaves on the link, after its limit
    has released it. Up to flow_cap of a flow's packets can wait there
    past their release time, so a window holds at most the limiter's own
    envelope (limit times the window plus one granule, the shaper's early
    release, plus one MTU) plus flow_cap MTUs."""
    cfg, workload, limits = run
    sched = build_tree(cfg)
    served = record_served(sched)
    m = run_sim(sched, workload)
    assert m.conserved()
    last = {}
    for t, fid, pid, _, _ in served:
        assert t < workload.duration_ns
        assert pid > last.get(fid, -1)
        last[fid] = pid
    window, granule = 100_000_000, 100_000
    cap = workload.flow_cap
    for fid, limit in limits.items():
        if limit is not None:
            budget = limit * (window + granule) / 1e9 + (cap + 1) * MTU
            assert max_window_bytes(served, fid, window) <= budget
    if workload.arrival_rate is None and None in limits.values():
        link_bytes = workload.link_rate * workload.duration_ns / 1e9
        assert sum(m.per_flow_bytes.values()) >= link_bytes - MTU


def test_min_gap_helper():
    assert min_gap_ns([]) is None
    assert min_gap_ns([(0, "f", 0, 10, 0)]) is None
    trace = [(0, "f", 0, 10, 0), (5, "f", 1, 10, 0), (12, "f", 2, 10, 0)]
    assert min_gap_ns(trace) == 5


def test_max_window_bytes_sliding():
    trace = [(0, "f", 0, 100, 0), (50, "f", 1, 100, 0), (150, "f", 2, 100, 0)]
    assert max_window_bytes(trace, "f", 100) == 200
    assert max_window_bytes(trace, "f", 200) == 300
    assert max_window_bytes(trace, "other", 100) == 0


# -- differential tests against the brute-force oracles ------------------------

def replay_on_tree(policy, flow_ids, ops):
    tree = build_tree(single_level_config(policy, flow_ids))
    order = []
    for op in ops:
        if op[0] == "enq":
            tree.enqueue(op[1], 0)
        else:
            pkt = tree.dequeue(0)
            if pkt is not None:
                order.append((pkt.flow_id, pkt.id))
    return order


def random_trace(rng, policy, max_flows=5, max_packets=100):
    flow_ids = [f"f{i}" for i in range(rng.randint(1, max_flows))]
    remaining = {fid: rng.randint(5, 60) for fid in flow_ids}
    ops = []
    pid = 0
    n = rng.randint(1, max_packets)
    for _ in range(n):
        if ops and rng.random() < 0.4:
            ops.append(("deq",))
            continue
        fid = rng.choice(flow_ids)
        rank = remaining[fid] if policy == "pfabric" else 0
        remaining[fid] = max(remaining[fid] - 1, 0)
        ops.append(("enq", Packet(pid, fid, 1500, rank=rank)))
        pid += 1
    ops.extend([("deq",)] * pid)  # drain
    return flow_ids, ops


@pytest.mark.parametrize("policy", ["pfabric", "lqf", "fifo"])
def test_engine_matches_oracle(policy):
    rng = random.Random(hash(policy) & 0xFFFF)
    for _ in range(60):
        flow_ids, ops = random_trace(rng, policy)
        assert replay_on_tree(policy, flow_ids, ops) == oracle_order(policy, ops)


@pytest.mark.parametrize("policy", ["pfabric", "lqf", "fifo"])
def test_engine_matches_oracle_long_trace(policy):
    """12k operations over 24 flows: flows drain and come back, and keys
    change on most operations, so queued flows and the leaf node are
    re-filed in place many times. pFabric ranks stay below the leaf's
    1024 buckets, where the key clamps. FIFO hands out about 6k sequence
    numbers, past the leaf's 1024 buckets, around a backlog of ~100."""
    rng = random.Random(len(policy))
    flow_ids = [f"f{i}" for i in range(24)]
    remaining = {fid: rng.randint(200, 1000) for fid in flow_ids}
    ops = []
    backlog = 0
    for pid in range(12_000):
        # bursts of arrivals, then of departures, around a backlog of ~100
        if backlog and rng.random() < (0.7 if backlog > 100 else 0.4):
            ops.append(("deq",))
            backlog -= 1
            continue
        fid = rng.choice(flow_ids[:rng.randint(1, len(flow_ids))])
        rank = remaining[fid] if policy == "pfabric" else 0
        remaining[fid] = max(remaining[fid] - rng.randint(0, 2), 1)
        ops.append(("enq", Packet(pid, fid, 1500, rank=rank)))
        backlog += 1
    ops.extend([("deq",)] * backlog)
    want = oracle_order(policy, ops)
    assert len(want) == sum(op[0] == "enq" for op in ops)
    assert replay_on_tree(policy, flow_ids, ops) == want
