"""Acceptance gate: one test per top-level criterion, each emitting a single
pass/fail line. These intentionally re-derive expectations from independent
oracles (stdlib heap, exhaustive enumeration, brute-force policy replay)
rather than from the implementation under test.
"""

import heapq
import random
import time

import pytest

from pktsched.baselines import BhQueue
from pktsched.bench import BenchConfig, run_bench, run_error_preset, \
    run_error_sweep
from pktsched.bitmap_pq import FfsQueue
from pktsched.circular_pq import CffsQueue
from pktsched.config import build_tree, single_level_config
from pktsched.core import Packet
from pktsched.gradient_pq import ApproxRange, CurvatureState
from pktsched.sim import Workload, oracle_order, run_sim
from sim_trace import max_window_bytes, min_gap_ns, record_served

MBPS = 125_000  # bytes/sec per megabit
MTU = 1500


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_theorem_exhaustive():
    """ceil(b/a) equals the max nonempty index for all 2^16 patterns."""
    t0 = time.perf_counter()
    failures = 0
    for mask in range(1, 1 << 16):
        s = CurvatureState(alpha=1)
        m = mask
        i = 0
        while m:
            if m & 1:
                s.mark(i, True)
            m >>= 1
            i += 1
        if s.max_index() != mask.bit_length() - 1:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5.0
    assert report(1, ok, f"2^16 patterns, {failures} failures, {elapsed:.2f}s")


class _HeapOracle:
    """Sorted multiset with FIFO tie-break, backed by the stdlib heap."""

    def __init__(self):
        self.heap = []
        self.seq = 0

    def insert(self, rank, item):
        heapq.heappush(self.heap, (rank, self.seq, item))
        self.seq += 1

    def pop_min(self):
        rank, _, item = heapq.heappop(self.heap)
        return rank, item

    def __len__(self):
        return len(self.heap)


def _run_ops_against_oracle(make_queue, draw_rank, ops_per_seed, seed):
    rng = random.Random(seed)
    q = make_queue()
    oracle = _HeapOracle()
    violations = 0
    for step in range(ops_per_seed):
        if len(oracle) and rng.random() < 0.5:
            if q.pop_min() != oracle.pop_min():
                violations += 1
        else:
            rank = draw_rank(rng, q)
            q.insert(rank, step)
            oracle.insert(rank, step)
    while len(oracle):
        if q.pop_min() != oracle.pop_min():
            violations += 1
    return violations


def test_criterion_2_queue_oracle_equivalence():
    """10^6 randomized ops per queue type across 20 seeds, zero violations."""
    ops_per_seed = 50_000  # x20 seeds = 10^6 per queue type
    n = 1024
    cases = {
        "bitmap": (lambda: FfsQueue(n), lambda rng, q: rng.randrange(n)),
        "circular": (lambda: CffsQueue(n),
                     lambda rng, q: q.h_index + rng.randrange(2 * n)),
        "bh": (lambda: BhQueue(n), lambda rng, q: rng.randrange(n)),
    }
    total = 0
    for make_queue, draw_rank in cases.values():
        for seed in range(20):
            total += _run_ops_against_oracle(make_queue, draw_rank,
                                             ops_per_seed, seed)
    ok = total == 0
    assert report(2, ok, f"3 queue types x 20 seeds x 50k ops, "
                         f"{total} ordering violations")


def test_criterion_3_approx_calibration():
    spec = ApproxRange.calibrate(16)
    checks = (spec.i0 == 124, spec.imax == 647, spec.capacity == 523,
              int(abs(spec.shift)) == 22)
    ok = all(checks)
    assert report(3, ok, f"alpha=16: (i0, imax, capacity) = ({spec.i0}, "
                         f"{spec.imax}, {spec.capacity}) |u|~{abs(spec.shift):.4f}")


def test_criterion_4_error_trend():
    preset_ok = (run_error_preset("all_full")["error"] == 0
                 and run_error_preset("even_spacing")["error"] == 0)
    rows = run_error_sweep(alpha=16, seeds=range(10), trials=6000)
    occupancies = [r["occupancy"] for r in rows]
    errors = [r["mean_abs_err"] for r in rows]
    trend_ok = all(b <= a * 1.05 + 1e-9 for a, b in zip(errors, errors[1:]))
    ok = preset_ok and trend_ok
    detail = ", ".join(f"{o}:{e:.2f}" for o, e in zip(occupancies, errors))
    assert report(4, ok, f"presets zero-error={preset_ok}; mean|err| {detail}")


def _paired_ratio(cfg_a: BenchConfig, cfg_b: BenchConfig, reps: int = 30):
    """Median over paired repetitions of (throughput A / throughput B).

    Timing A and B back to back within each repetition keeps background CPU
    load drift from landing entirely on one contender, and alternating which
    runs first keeps a cost of running first or second off either one.
    """
    import statistics

    from pktsched.bench import _drain_once, _fill_ranks
    rng = random.Random(cfg_a.seed)
    ranks = _fill_ranks(cfg_a, rng, cfg_a.num_buckets)
    for _ in range(cfg_a.warmup):
        _drain_once(cfg_a.queue, cfg_a.num_buckets, ranks)
        _drain_once(cfg_b.queue, cfg_b.num_buckets, ranks)
    ratios = []
    for rep in range(reps):
        if rep % 2:
            tb, _ = _drain_once(cfg_b.queue, cfg_b.num_buckets, ranks)
            ta, _ = _drain_once(cfg_a.queue, cfg_a.num_buckets, ranks)
        else:
            ta, _ = _drain_once(cfg_a.queue, cfg_a.num_buckets, ranks)
            tb, _ = _drain_once(cfg_b.queue, cfg_b.num_buckets, ranks)
        ratios.append(tb / ta)
    return statistics.median(ratios)


# criterion 5's band for the dense approx/cFFS throughput ratio
CRITERION_5_BAND = (0.9, 1.15)


def criterion_5_dense_ratio() -> float:
    """Criterion 5's approx/cFFS throughput ratio on a dense 523-bucket
    drain (tools/crit5_ratio.py repeats it)."""
    dense = dict(num_buckets=523, pkts_per_bucket=None, occupancy=1.0,
                 repetitions=10, warmup=3, seed=0)
    # a dense drain takes about 1 ms on a 2-vCPU VM, so over 30 pairs one
    # slow stretch of a shared host can move the median out of the band;
    # 300 pairs take about 1 s and keep it steady
    return _paired_ratio(BenchConfig(queue="approx", **dense),
                         BenchConfig(queue="cffs", **dense), reps=300)


def test_criterion_5_relative_performance():
    base = dict(num_buckets=10_000, pkts_per_bucket=1.0, repetitions=10,
                warmup=3, seed=0)
    speedup = _paired_ratio(BenchConfig(queue="cffs", **base),
                            BenchConfig(queue="heap", **base))
    ratio = criterion_5_dense_ratio()
    low, high = CRITERION_5_BAND
    ok = speedup >= 2.0 and low <= ratio <= high
    assert report(5, ok, f"cffs/heap={speedup:.2f}x (need >=2), "
                         f"approx/cffs={ratio:.3f} (need [{low},{high}])")


def _random_pfabric_trace(rng):
    flow_ids = [f"f{i}" for i in range(rng.randint(1, 5))]
    remaining = {fid: rng.randint(5, 60) for fid in flow_ids}
    ops = []
    pid = 0
    for _ in range(rng.randint(1, 100)):
        if ops and rng.random() < 0.4:
            ops.append(("deq",))
            continue
        fid = rng.choice(flow_ids)
        ops.append(("enq", Packet(pid, fid, MTU, rank=remaining[fid])))
        remaining[fid] = max(remaining[fid] - 1, 0)
        pid += 1
    ops.extend([("deq",)] * pid)
    return flow_ids, ops


def test_criterion_6_pfabric_differential():
    rng = random.Random(606)
    mismatches = 0
    for _ in range(100):
        flow_ids, ops = _random_pfabric_trace(rng)
        tree = build_tree(single_level_config("pfabric", flow_ids))
        got = []
        for op in ops:
            if op[0] == "enq":
                tree.enqueue(op[1], 0)
            else:
                pkt = tree.dequeue(0)
                if pkt is not None:
                    got.append((pkt.flow_id, pkt.id))
        if got != oracle_order("pfabric", ops):
            mismatches += 1
    ok = mismatches == 0
    assert report(6, ok, f"100 random traces, {mismatches} mismatches")


def test_criterion_7_hclock_conformance():
    link = 12_500_000.0  # bytes/sec
    duration = 1_000_000_000
    # feasible reservations: 10 x 1 MB/s on a 12.5 MB/s link; two flows also
    # carry a 1.2 MB/s limit
    params = {}
    for i in range(10):
        params[f"f{i}"] = {"reservation": 1_000_000.0, "share": 1.0}
    params["f0"]["limit"] = 1_200_000.0
    params["f1"]["limit"] = 1_200_000.0
    wl = Workload(num_flows=10, duration_ns=duration, link_rate=link,
                  flow_cap=32, seed=0)
    sched = build_tree({"policy": "hclock", "flow_params": params})
    served = record_served(sched)
    m = run_sim(sched, wl)
    res_ok = all(m.per_flow_bytes.get(f, 0) >= 0.95 * 1_000_000
                 for f in params)
    window = 100_000_000
    limit_ok = all(max_window_bytes(served, f, window) <= 120_000 + MTU
                   for f in ("f0", "f1"))
    # zero reservations: throughput follows the configured shares
    shares = {f"f{i}": float(i + 1) for i in range(10)}
    m2 = run_sim({"policy": "hclock",
                  "flow_params": {f: {"share": s} for f, s in shares.items()}},
                 wl)
    total = sum(m2.per_flow_bytes.values())
    share_sum = sum(shares.values())
    share_ok = all(
        abs(m2.per_flow_bytes.get(f, 0) / total - s / share_sum)
        <= 0.05 * (s / share_sum)
        for f, s in shares.items())
    ok = res_ok and limit_ok and share_ok
    assert report(7, ok, f"reservations>=95%={res_ok}, "
                         f"limit window={limit_ok}, shares within 5%={share_ok}")


def test_criterion_8_single_shaper_hierarchy():
    pace = 20 * MBPS
    cfg = {
        "policy": "fifo",
        "nodes": [
            {"id": "root", "parent": None, "limit": pace},
            {"id": "agg", "parent": "root", "limit": 10 * MBPS},
            {"id": "leaf", "parent": "agg", "limit": 7 * MBPS},
        ],
        "flows": {"f0": "leaf"},
    }
    wl = Workload(num_flows=1, duration_ns=1_000_000_000,
                  link_rate=12_500_000.0, flow_cap=32, seed=0)
    sched = build_tree(cfg)
    served = record_served(sched)
    m = run_sim(sched, wl)
    window = 100_000_000
    leaf_budget = 7 * MBPS * window // 1_000_000_000 + MTU
    agg_budget = 10 * MBPS * window // 1_000_000_000 + MTU
    leaf_bytes = max_window_bytes(served, "f0", window)
    leaf_ok = leaf_bytes <= leaf_budget
    agg_ok = leaf_bytes <= agg_budget  # only leaf traffic crosses agg
    gap = min_gap_ns(served)
    pace_floor = round(MTU * 1_000_000_000 / pace) - 100_000  # - granularity
    gap_ok = gap is not None and gap >= pace_floor
    goodput = m.throughput_bps("f0")
    goodput_ok = abs(goodput - 7_000_000) <= 0.05 * 7_000_000
    ok = leaf_ok and agg_ok and gap_ok and goodput_ok
    assert report(8, ok, f"leaf window {leaf_bytes}<= {leaf_budget}B={leaf_ok}, "
                         f"min gap {gap}ns>={pace_floor}={gap_ok}, "
                         f"goodput {goodput/1e6:.2f}Mbps~7={goodput_ok}")


def test_criterion_9_out_of_scope_note():
    print("[ACCEPTANCE] criterion 9: NOTE - kernel/EC2, line-rate, and "
          "network-wide flow-completion results are explicitly out of scope "
          "at desk scale; criteria 1-8 stand in with property- and "
          "trend-based checks.")
    assert True
