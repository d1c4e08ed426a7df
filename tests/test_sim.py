"""Discrete-event simulation tests: determinism, conservation, batching,
shaping conformance, and differential checks against brute-force oracles."""

import random

import pytest

from pktsched.config import build_tree, single_level_config
from pktsched.core import Packet
from pktsched.sim import (Workload, max_window_bytes, min_gap_ns,
                          oracle_order, run_sim)

MBPS = 125_000  # bytes/sec per megabit


def small_workload(**kw):
    defaults = dict(num_flows=2, duration_ns=20_000_000, seed=1,
                    link_rate=10_000_000.0, flow_cap=8)
    defaults.update(kw)
    return Workload(**defaults)


def test_same_seed_same_trace():
    cfg = single_level_config("pfabric", ["f0", "f1"])
    mix = (64, 512, 1500)
    a = run_sim(cfg, small_workload(size_mix=mix))
    b = run_sim(cfg, small_workload(size_mix=mix))
    assert a.trace == b.trace
    c = run_sim(cfg, small_workload(size_mix=mix, seed=2))
    assert c.trace != a.trace


def test_packet_conservation():
    for policy in ("fifo", "lqf", "pfabric"):
        cfg = single_level_config(policy, ["f0", "f1"])
        m = run_sim(cfg, small_workload())
        assert m.conserved()
        assert m.dequeued > 0


def test_zero_duration_empty_metrics():
    cfg = single_level_config("fifo", ["f0", "f1"])
    m = run_sim(cfg, small_workload(duration_ns=0))
    assert m.enqueued == m.dequeued == m.pending == 0
    assert m.trace == []
    assert m.throughput_bps("f0") == 0.0


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


def test_batching_respects_byte_threshold():
    cfg = single_level_config("fifo", ["f0"])
    m = run_sim(cfg, small_workload(num_flows=1, batch_bytes=10_240,
                                    flow_cap=32))
    # trace timestamps group into turns of at most ceil(10240/1500)=7 packets
    by_time = {}
    for t, *_ in m.trace:
        by_time[t] = by_time.get(t, 0) + 1
    assert max(by_time.values()) <= 7
    assert m.conserved()


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
    m = run_sim(cfg, small_workload(num_flows=1, duration_ns=500_000_000,
                                    link_rate=12_500_000.0))
    window = 100_000_000
    budget = 7 * MBPS * window // 1_000_000_000 + 1500
    assert max_window_bytes(m.trace, "f0", window) <= budget
    # goodput lands near the 7 Mbps cap, not the 10 Mbps one
    assert m.throughput_bps("f0") == pytest.approx(7_000_000, rel=0.1)


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
    m = run_sim(cfg, small_workload(duration_ns=500_000_000))
    window = 100_000_000
    assert max_window_bytes(m.trace, "f0", window) <= 100_000 + 1500


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


@pytest.mark.parametrize("policy", ["pfabric", "lqf"])
def test_engine_matches_oracle_long_trace(policy):
    """12k operations over 24 flows: flows drain and come back, and keys
    change on most operations, so queued flows and the leaf node are
    re-filed in place many times. pFabric ranks stay below the leaf's
    1024 buckets, where the key clamps."""
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
