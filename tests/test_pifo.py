"""The abstraction claim, checked against PIFO (Sivaraman et al., SIGCOMM
'16): there a rank is fixed when an element is enqueued. The reference
here is the PIFO tree the paper sets against its own model: one root PIFO
holding one element per packet, which references the packet's flow and is
ranked at enqueue, over per-flow FIFOs. Popping the root serves the head
of the flow its least element names.

On one-level traces from criterion 6's generator (seed 606) the tree
matches oracle_order for FIFO, LQF and pFabric. The PIFO matches it for
FIFO only: LQF's rank is a queue length and pFabric's a flow's least
remaining size, and both move after the element is filed.
"""

import heapq
import random

import pytest

from pktsched.config import build_tree, single_level_config
from pktsched.core import Packet
from pktsched.sim import oracle_order
from test_acceptance import _random_pfabric_trace

TRACES = 200
SEED = 606


def pifo_order(policy: str, ops) -> list:
    """(flow, pkt) in the order the root PIFO serves a trace."""
    fifos: dict[str, list] = {}
    pifo: list = []
    order = []
    for seq, op in enumerate(ops):
        if op[0] == "enq":
            packet = op[1]
            fifo = fifos.setdefault(packet.flow_id, [])
            fifo.append(packet)
            rank = {"fifo": seq, "lqf": -len(fifo), "pfabric": packet.rank}[policy]
            heapq.heappush(pifo, (rank, seq, packet.flow_id))
        elif pifo:
            fid = heapq.heappop(pifo)[2]
            order.append((fid, fifos[fid].pop(0).id))
    return order


def tree_order(policy: str, flow_ids, ops) -> list:
    tree = build_tree(single_level_config(policy, flow_ids))
    order = []
    for op in ops:
        if op[0] == "enq":
            tree.enqueue(op[1], 0)
        elif (packet := tree.dequeue(0)) is not None:
            order.append((packet.flow_id, packet.id))
    return order


def test_tree_matches_the_oracle_and_the_pifo_only_for_fifo():
    diverging = {}
    for policy in ("fifo", "lqf", "pfabric"):
        rng = random.Random(SEED)  # the same traces for every policy
        diverging[policy] = 0
        for _ in range(TRACES):
            flow_ids, ops = _random_pfabric_trace(rng)
            # the oracle and the PIFO first: the FIFO policy re-ranks packets
            want = oracle_order(policy, ops)
            diverging[policy] += pifo_order(policy, ops) != want
            assert tree_order(policy, flow_ids, ops) == want
    print(f"PIFO differs from oracle_order on {diverging} of {TRACES} traces")
    assert diverging["fifo"] == 0
    assert diverging["lqf"] >= 1 and diverging["pfabric"] >= 1


# The first diverging trace of seed 606, for LQF and pFabric alike: its
# second. "flow:rank" enqueues the next packet id, "-" dequeues, and the
# queue drains at the end.
FIRST_DIVERGING_606 = """
    2:19 0:30 0:29 0:28 - - 4:10 4:9 - - - 4:8 1:38 - - - 3:45 3:44 - 1:37
    4:7 - 3:43 3:42 - - 4:6 4:5 4:4 0:27 - 4:3 3:41 3:40 3:39 - - - - - 0:26
    - 2:18 - 4:2 4:1 1:36 - 1:35 4:0 4:0 4:0 3:38 2:17 - - - 3:37 - - - 3:36
    4:0 3:35 - 3:34 - 2:16 4:0 - 2:15 1:34 - 1:33 - 1:32 - 4:0 3:33 2:14 2:13
    0:25 - - 2:12 1:31 3:32 3:31 - - 2:11 1:30 3:30
"""


def literal_trace(text: str) -> tuple[list, list]:
    """(flow ids, ops) of a trace written as FIRST_DIVERGING_606 is."""
    ops, pid = [], 0
    for token in text.split():
        if token == "-":
            ops.append(("deq",))
            continue
        flow, rank = token.split(":")
        ops.append(("enq", Packet(pid, f"f{flow}", 1500, rank=int(rank))))
        pid += 1
    flow_ids = sorted({op[1].flow_id for op in ops if op[0] == "enq"})
    return flow_ids, ops + [("deq",)] * pid


@pytest.mark.parametrize("policy", ["lqf", "pfabric"])
def test_first_diverging_trace(policy):
    flow_ids, ops = literal_trace(FIRST_DIVERGING_606)
    want = oracle_order(policy, ops)
    assert len(want) == 56
    assert pifo_order(policy, ops) != want
    assert tree_order(policy, flow_ids, ops) == want
