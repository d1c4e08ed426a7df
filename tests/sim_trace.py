"""Served-packet traces for the simulation tests, and a tree flow's queue.

run_sim keeps no per-packet record, so a test that checks the order or the
timing of what a scheduler served records it from outside: record_served
wraps the scheduler's dequeue. A trace is a list of
(time, flow, pkt, size, rank) tuples, one per served packet. queued lists
what a tree flow holds, read from its chain of packets."""


def queued(flow) -> list:
    """The packets on a core.FlowState's FIFO, head first: its chain
    through Packet.next, which must hold exactly flow.count packets."""
    packets = []
    packet = flow.head
    while packet is not None and len(packets) < flow.count:
        packets.append(packet)
        packet = packet.next
    assert len(packets) == flow.count and packet is None
    assert flow.tail is (packets[-1] if packets else None)
    return packets


def record_served(sched) -> list:
    """Shadow sched.dequeue on the instance; each packet it returns
    appends (now, flow_id, id, size, rank) to the list returned here."""
    served = []
    dequeue = sched.dequeue

    def recording_dequeue(now):
        packet = dequeue(now)
        if packet is not None:
            served.append((now, packet.flow_id, packet.id, packet.size,
                           packet.rank))
        return packet

    sched.dequeue = recording_dequeue
    return served


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
