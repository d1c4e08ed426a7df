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
from .core import NS_PER_SEC, Packet, RateClock, positive_real
from .errors import ConfigError, QueueStateError

MTU = 1500
FLOW_PACKETS = 10_000  # remaining-size counter start (pfabric ranks)


@dataclass
class Workload:
    """A seeded traffic source for run_sim. Each packet's size is drawn
    uniformly from `sizes`, a nonempty tuple of positive integers; one
    size, (MTU,) by default, fixes it."""

    num_flows: int = 2
    sizes: tuple[int, ...] = (MTU,)
    duration_ns: int = 1_000_000_000
    seed: int = 0
    link_rate: float = 10_000_000.0  # bytes/sec the wire can drain
    flow_cap: int = 32  # per-flow in-flight packet cap
    arrival_rate: float | None = None  # bytes/sec per flow; None = backlogged

    def __post_init__(self):
        if not positive_real(self.link_rate):
            raise ConfigError("link_rate must be a positive number")
        if self.arrival_rate is not None and not positive_real(self.arrival_rate):
            raise ConfigError("arrival_rate must be None or a positive number")
        if type(self.sizes) is not tuple or not self.sizes or any(
                type(size) is not int or size <= 0 for size in self.sizes):
            raise ConfigError("sizes must be a nonempty tuple of positive integers")
        if type(self.seed) is not int:
            raise ConfigError("seed must be an integer")
        # a zero duration is an empty run
        for name, low in (("num_flows", 1), ("flow_cap", 1), ("duration_ns", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}")

    def flow_ids(self) -> list[str]:
        return [f"f{i}" for i in range(self.num_flows)]


@dataclass
class SimMetrics:
    duration_ns: int = 0
    enqueued: int = 0
    dequeued: int = 0
    deferred: int = 0
    pending: int = 0
    per_flow_bytes: dict = field(default_factory=dict)

    def record(self, pkt: Packet) -> None:
        self.dequeued += 1
        fid = pkt.flow_id
        self.per_flow_bytes[fid] = self.per_flow_bytes.get(fid, 0) + pkt.size

    def throughput_bps(self, flow_id: str) -> float:
        if self.duration_ns == 0:
            return 0.0
        return self.per_flow_bytes.get(flow_id, 0) * 8 * NS_PER_SEC / self.duration_ns

    def conserved(self) -> bool:
        return self.enqueued == self.dequeued + self.pending


class _FlowSource:
    """Seeded per-flow packet factory: sizes, ids, and remaining-size ranks."""

    def __init__(self, workload: Workload, rng: random.Random):
        self.workload = workload
        self.rng = rng
        self.next_id = 0
        self.remaining = dict.fromkeys(workload.flow_ids(), FLOW_PACKETS)

    def make(self, fid: str) -> Packet:
        size = self.rng.choice(self.workload.sizes)
        rank = max(self.remaining[fid], 0)
        self.remaining[fid] -= 1
        pkt = Packet(self.next_id, fid, size, rank=rank)
        self.next_id += 1
        return pkt


def run_sim(config, workload: Workload) -> SimMetrics:
    """Run a scheduler against a workload. `config` is a scheduler (a
    SchedulerTree or an HClockScheduler) or a config build_tree accepts.

    The clock visits each event in turn: arrivals are offered, the
    scheduler's time-driven stage releases what is due, and the link
    dequeues a packet whenever it is free. A flow never holds more than
    flow_cap packets: backlogged flows are topped up to it, rate-driven
    arrivals past it are deferred. flow_cap replaces a scheduler's own
    cap. The metrics hold counts and per-flow byte totals only: a caller
    that wants the served sequence wraps the scheduler's dequeue."""
    sched = build_tree(config) if isinstance(config, (dict, str)) else config
    flow_ids = workload.flow_ids()
    source = _FlowSource(workload, random.Random(workload.seed))
    metrics = SimMetrics(duration_ns=workload.duration_ns)
    cap = workload.flow_cap
    if hasattr(sched, "flow_cap"):
        sched.flow_cap = None  # in_flight below holds the cap
    in_flight = dict.fromkeys(flow_ids, 0)
    refill = dict.fromkeys(flow_ids)  # backlogged flows below the cap
    link = RateClock(workload.link_rate)  # t: when the link is next free
    arrivals = None  # rate-driven: t is when every flow next sends a packet
    if workload.arrival_rate is not None:
        # sum(sizes) bytes at len(sizes) x the rate: the mean size at the rate
        sizes = workload.sizes
        arrivals = RateClock(workload.arrival_rate * len(sizes))
    now = 0
    duration = workload.duration_ns

    def offer(fid: str) -> bool:
        packet = source.make(fid)
        if in_flight[fid] < cap and sched.enqueue(packet, now):
            in_flight[fid] += 1
            metrics.enqueued += 1
            return True
        metrics.deferred += 1
        return False

    while now < duration:
        if arrivals is None:
            # only flows served since the last event can be below the cap;
            # a flow the scheduler refuses waits until it is served again
            for fid in refill:
                while in_flight[fid] < cap and offer(fid):
                    pass
            refill.clear()
        elif now >= arrivals.t:
            for fid in flow_ids:
                offer(fid)
            arrivals.advance(sum(sizes), 0)
        sched.shaper_release(now)
        while now >= link.t:
            packet = sched.dequeue(now)
            if packet is None:
                if sched.schedulable():
                    # the clock could not advance past a free link
                    raise QueueStateError(
                        f"{type(sched).__name__} is schedulable but "
                        f"dequeued nothing at {now} ns")
                break
            metrics.record(packet)
            in_flight[packet.flow_id] -= 1
            refill[packet.flow_id] = None
            link.advance(packet.size, now)
        # advance the clock to the next interesting instant
        t = duration
        event_t = sched.next_event_time()
        if event_t is not None:
            t = min(t, event_t)
        if sched.schedulable():
            t = min(t, link.t)
        elif arrivals is None and any(in_flight[fid] == 0 for fid in refill):
            # a backlogged flow emptied here may be servable once topped
            # up; a flow with packets left is served by its head first
            t = now
        if arrivals is not None:
            t = min(t, arrivals.t)
        now = max(t, now + 1)
    metrics.pending = sched.pending()
    return metrics


# -- brute-force ordering oracles -------------------------------------------

def oracle_order(policy: str, ops) -> list:
    """Reference dequeue order for a small trace of ('enq', packet) /
    ('deq',) operations, using naive structures and literal policy rules.
    The packets are Packet objects; an oracle reads flow_id, id and rank."""
    oracle = _ORACLES.get(policy)
    if oracle is None:
        raise ConfigError(f"no oracle for policy {policy!r}")
    return oracle(ops)


def _oracle_pfabric(ops) -> list:
    fifos: dict[str, list] = {}
    frank: dict[str, float] = {}
    seq: dict[str, int] = {}
    counter = 0
    order = []
    for op in ops:
        if op[0] == "enq":
            pkt = op[1]
            fid, pid, rank = pkt.flow_id, pkt.id, pkt.rank
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
            fid, pid = op[1].flow_id, op[1].id
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
            fid, pid = op[1].flow_id, op[1].id
            pending.append((fid, pid))
        elif pending:
            order.append(pending.pop(0))
    return order


_ORACLES = {"pfabric": _oracle_pfabric, "lqf": _oracle_lqf, "fifo": _oracle_fifo}
