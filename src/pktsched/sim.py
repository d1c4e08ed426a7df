"""Discrete-event simulation harness.

A virtual integer-nanosecond clock drives a scheduler: arrivals are admitted,
the shaper releases due packets, and the link transmits at a configured rate.
Workloads are reproducible from a seed. Brute-force ordering oracles replay
the same operation sequence against naive structures and literal policy rules
for differential testing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .config import build_tree
from .core import NS_PER_SEC, Packet, SchedulerTree
from .errors import ConfigError
from .policies import HClockScheduler

MTU = 1500


@dataclass
class Workload:
    num_flows: int = 2
    packet_size: int = MTU  # fixed size; "mixed" draws are below
    size_mix: tuple[int, ...] | None = None  # overrides packet_size when set
    duration_ns: int = 1_000_000_000
    seed: int = 0
    link_rate: float = 10_000_000.0  # bytes/sec the wire can drain
    flow_cap: int = 32  # per-flow in-flight packet cap (backpressure)
    batch_bytes: int = 0  # 0 = one packet per dequeue turn
    arrival_rate: float | None = None  # bytes/sec per flow; None = backlogged
    flow_packets: int = 10_000  # remaining-size counter start (pfabric ranks)

    def flow_ids(self) -> list[str]:
        return [f"f{i}" for i in range(self.num_flows)]

    def draw_size(self, rng: random.Random) -> int:
        if self.size_mix:
            return rng.choice(self.size_mix)
        return self.packet_size


@dataclass
class SimMetrics:
    duration_ns: int = 0
    enqueued: int = 0
    dequeued: int = 0
    deferred: int = 0
    pending: int = 0
    per_flow_bytes: dict = field(default_factory=dict)
    per_flow_packets: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)  # (time, flow, pkt, size, rank)

    def record(self, t: int, pkt: Packet) -> None:
        self.dequeued += 1
        self.per_flow_bytes[pkt.flow_id] = \
            self.per_flow_bytes.get(pkt.flow_id, 0) + pkt.size
        self.per_flow_packets[pkt.flow_id] = \
            self.per_flow_packets.get(pkt.flow_id, 0) + 1
        self.trace.append((t, pkt.flow_id, pkt.id, pkt.size, pkt.rank))

    def throughput_bps(self, flow_id: str) -> float:
        if self.duration_ns == 0:
            return 0.0
        return self.per_flow_bytes.get(flow_id, 0) * 8 * NS_PER_SEC / self.duration_ns

    def conserved(self) -> bool:
        return self.enqueued == self.dequeued + self.pending


def max_window_bytes(trace, flow_id: str, window_ns: int) -> int:
    """Largest byte total the flow achieved over any sliding window."""
    events = [(t, size) for t, fid, _, size, _ in trace if fid == flow_id]
    best = 0
    total = 0
    lo = 0
    for hi, (t, size) in enumerate(events):
        total += size
        while events[lo][0] <= t - window_ns:
            total -= events[lo][1]
            lo += 1
        best = max(best, total)
    return best


def min_gap_ns(trace) -> int | None:
    """Smallest inter-release gap across consecutive trace entries."""
    if len(trace) < 2:
        return None
    return min(b[0] - a[0] for a, b in zip(trace, trace[1:]))


class _FlowSource:
    """Seeded per-flow packet factory: sizes, ids, and remaining-size ranks."""

    def __init__(self, workload: Workload, rng: random.Random):
        self.workload = workload
        self.rng = rng
        self.next_id = 0
        self.remaining = {fid: workload.flow_packets for fid in workload.flow_ids()}

    def make(self, fid: str) -> Packet:
        size = self.workload.draw_size(self.rng)
        rank = max(self.remaining[fid], 0)
        self.remaining[fid] -= 1
        pkt = Packet(self.next_id, fid, size, rank=rank)
        self.next_id += 1
        return pkt


def run_sim(config, workload: Workload) -> SimMetrics:
    """Run a policy configuration against a workload; dispatches to the
    scheduler-tree or hClock engine based on the policy name."""
    if isinstance(config, dict) and config.get("policy") == "hclock":
        return run_hclock_sim(config, workload)
    tree = config if isinstance(config, SchedulerTree) else build_tree(config)
    if workload.flow_cap is not None:
        tree.flow_cap = workload.flow_cap
    return run_tree_sim(tree, workload)


def run_tree_sim(tree: SchedulerTree, workload: Workload) -> SimMetrics:
    rng = random.Random(workload.seed)
    source = _FlowSource(workload, rng)
    metrics = SimMetrics(duration_ns=workload.duration_ns)
    flow_ids = workload.flow_ids()
    for fid in flow_ids:
        if fid not in tree.flows:
            raise ConfigError(f"workload flow {fid} not in policy tree")
    tx_ns = {fid: 0 for fid in flow_ids}  # next arrival (rate-driven mode)
    now = 0
    next_tx = 0
    duration = workload.duration_ns
    while now < duration:
        # arrivals
        if workload.arrival_rate is None:
            for fid in flow_ids:
                flow = tree.flows[fid]
                while flow.in_flight < (workload.flow_cap or 1):
                    if tree.enqueue(source.make(fid), now):
                        metrics.enqueued += 1
                    else:
                        break
        else:
            gap = round(workload.packet_size * NS_PER_SEC / workload.arrival_rate)
            for fid in flow_ids:
                while tx_ns[fid] <= now:
                    if tree.enqueue(source.make(fid), now):
                        metrics.enqueued += 1
                    else:
                        metrics.deferred += 1
                    tx_ns[fid] += gap
        tree.shaper_release(now)
        # transmit
        while now >= next_tx:
            if workload.batch_bytes > 0:
                batch = tree.dequeue_batch(now, workload.batch_bytes)
            else:
                pkt = tree.dequeue(now)
                batch = [pkt] if pkt is not None else []
            if not batch:
                break
            for pkt in batch:
                metrics.record(now, pkt)
            next_tx = now + round(sum(p.size for p in batch)
                                  * NS_PER_SEC / workload.link_rate)
        # advance the clock to the next interesting instant
        candidates = [duration]
        shaper_t = tree.next_event_time()
        if shaper_t is not None:
            candidates.append(max(shaper_t, now + 1))
        if tree.schedulable():
            candidates.append(max(next_tx, now + 1))
        if workload.arrival_rate is not None:
            candidates.append(max(min(tx_ns.values()), now + 1))
        elif not tree.schedulable() and shaper_t is None:
            # backlogged but nothing in flight can only mean zero duration
            candidates.append(now + 1)
        now = min(candidates)
    metrics.pending = tree.pending()
    metrics.enqueued = tree.stats.enqueued
    metrics.deferred = tree.stats.deferred
    return metrics


def run_hclock_sim(config: dict, workload: Workload) -> SimMetrics:
    """Backlogged hClock run: flows stay topped up to the cap and the wire
    drains at link_rate; eligibility follows the virtual-time tags. Only a
    dequeue drains a flow, so after the initial fill only the flow just
    served is topped up."""
    sched = HClockScheduler()
    params = config.get("flow_params", {})
    for fid in workload.flow_ids():
        p = params.get(fid, {})
        sched.add_flow(fid, reservation=p.get("reservation"),
                       limit=p.get("limit"), share=p.get("share", 1.0))
    rng = random.Random(workload.seed)
    source = _FlowSource(workload, rng)
    metrics = SimMetrics(duration_ns=workload.duration_ns)
    now = 0
    duration = workload.duration_ns
    cap = workload.flow_cap

    def top_up(flow):
        while flow.len < cap:
            sched.enqueue(source.make(flow.id), now)
            metrics.enqueued += 1

    for flow in sched.flows.values():
        top_up(flow)
    while now < duration:
        pkt = sched.dequeue(now)
        if pkt is not None:
            metrics.record(now, pkt)
            now += round(pkt.size * NS_PER_SEC / workload.link_rate)
            if now < duration:
                top_up(sched.flows[pkt.flow_id])
            continue
        nxt = sched.next_eligible_time(now)
        if nxt is None:
            break
        now = max(nxt, now + 1)
    metrics.pending = sched.backlog()
    return metrics


# -- brute-force ordering oracles -------------------------------------------

def oracle_order(policy: str, ops) -> list:
    """Reference dequeue order for a small trace of ('enq', packet) /
    ('deq',) operations, using naive structures and literal policy rules.
    Packets are dicts or Packet objects with flow_id, id, size, rank."""
    if policy == "pfabric":
        return _oracle_pfabric(ops)
    if policy == "lqf":
        return _oracle_lqf(ops)
    if policy == "fifo":
        return _oracle_fifo(ops)
    raise ConfigError(f"no oracle for policy {policy!r}")


def _pkt_fields(pkt):
    if isinstance(pkt, Packet):
        return pkt.flow_id, pkt.id, pkt.rank
    return pkt["flow_id"], pkt["id"], pkt.get("rank", 0)


def _oracle_pfabric(ops) -> list:
    fifos: dict[str, list] = {}
    frank: dict[str, float] = {}
    seq: dict[str, int] = {}
    counter = 0
    order = []
    for op in ops:
        if op[0] == "enq":
            fid, pid, rank = _pkt_fields(op[1])
            fifo = fifos.setdefault(fid, [])
            fifo.append((pid, rank))
            old = frank.get(fid, math.inf)
            new = rank if len(fifo) == 1 else min(rank, old)
            if new != old or len(fifo) == 1:
                seq[fid] = counter
                counter += 1
            frank[fid] = new
        else:
            active = [f for f, q in fifos.items() if q]
            if not active:
                continue
            fid = min(active, key=lambda f: (frank[f], seq[f]))
            pid, rank = fifos[fid].pop(0)
            order.append((fid, pid))
            if fifos[fid]:
                new = min(rank, fifos[fid][0][1])
                if new != frank[fid]:
                    seq[fid] = counter
                    counter += 1
                frank[fid] = new
            else:
                frank[fid] = math.inf
    return order


def _oracle_lqf(ops) -> list:
    fifos: dict[str, list] = {}
    seq: dict[str, int] = {}
    counter = 0
    order = []
    for op in ops:
        if op[0] == "enq":
            fid, pid, _ = _pkt_fields(op[1])
            fifos.setdefault(fid, []).append(pid)
            seq[fid] = counter
            counter += 1
        else:
            active = [f for f, q in fifos.items() if q]
            if not active:
                continue
            fid = min(active, key=lambda f: (-len(fifos[f]), seq[f]))
            order.append((fid, fifos[fid].pop(0)))
            seq[fid] = counter
            counter += 1
    return order


def _oracle_fifo(ops) -> list:
    pending: list = []
    order = []
    for op in ops:
        if op[0] == "enq":
            fid, pid, _ = _pkt_fields(op[1])
            pending.append((fid, pid))
        elif pending:
            order.append(pending.pop(0))
    return order
