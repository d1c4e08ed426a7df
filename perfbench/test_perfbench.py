"""Tests of the benchmark's own reference models and harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import pktsched  # noqa: E402
from pktsched import Packet, oracle_order  # noqa: E402
from reference import (MultisetMin, PfabricReference, backlogged_time,  # noqa: E402
                       rate_violations)
from run import Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def random_trace(seed: int, n_ops: int = 120):
    rng = random.Random(seed)
    flows = [f"f{i}" for i in range(rng.randint(1, 6))]
    ops, pid = [], 0
    for _ in range(n_ops):
        if rng.random() < 0.55:
            # few distinct ranks, so rank ties and equal flow ranks are common
            ops.append(("enq", Packet(pid, rng.choice(flows), 100,
                                      rank=rng.randint(0, 8))))
            pid += 1
        else:
            ops.append(("deq",))
    return ops


@pytest.mark.parametrize("seed", range(40))
def test_pfabric_reference_matches_oracle(seed):
    ops = random_trace(seed)
    assert PfabricReference().run(ops) == oracle_order("pfabric", ops)


def test_pfabric_reference_follows_actual_picks():
    ref = PfabricReference()
    ref.enqueue("a", 0, 5)
    ref.enqueue("b", 1, 3)
    assert ref.peek() == "b"
    assert ref.dequeue("a") == 0  # a wrong pick is applied, not replaced
    assert ref.peek() == "b"
    assert ref.dequeue("b") == 1
    assert ref.peek() is None


def test_multiset_min():
    ms = MultisetMin([5, 3, 3])
    assert ms.min() == 3
    assert ms.discard(3) and ms.min() == 3
    assert ms.discard(3) and ms.min() == 5
    assert not ms.discard(4)
    ms.add(1)
    assert ms.min() == 1


def test_rate_violations():
    rate = 1e6  # bytes/s: one 1000-byte packet per ms
    paced = [(i * 1_000_000, 1000) for i in range(10)]
    assert rate_violations(paced, rate, slack_bytes=1000) == 0
    burst = paced + [(9_000_001, 1000), (9_000_002, 1000)]
    assert rate_violations(burst, rate, slack_bytes=1000) == 2
    # a late start leaves no credit for a later burst beyond the slack
    late = [(0, 1000), (5_000_000, 1000), (5_000_001, 1000)]
    assert rate_violations(late, rate, slack_bytes=1000) == 1


def test_backlogged_time_unions_overlaps():
    assert backlogged_time([(0, 10), (5, 20), (30, 40)]) == 30
    assert backlogged_time([]) == 0


def short(name: str, packets: int):
    """The workload with a shorter replay, so a test runs in well under a
    second."""
    return type(f"Short_{name}", (WORKLOADS[name],), {"packets": packets})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_episode_passes_checks(name):
    wl = short(name, 8 * 40)(pktsched, seed=3)
    run = Run(wl, trace=True)
    run.episode(traced=False)
    run.episode(traced=True)
    assert run.failures == 0, run.notes
    assert run.attempted == 2 * wl.packets
    assert len(run.rates[False]) == wl.LAPS
    for name_, (value, _) in run.per_layer().items():
        assert value == value, name_  # no NaN


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_does_not_change_the_order(name):
    logs = []
    for traced in (False, True):
        wl = short(name, 8 * 30)(pktsched, seed=5)
        inputs = wl.prepare()
        state, _ = wl.setup(inputs)
        if traced:
            from tracing import Tracer
            wl.instrument(Tracer(), state)
        log = wl.replay(state, inputs, [], lambda: None)
        served = log[0] if isinstance(log, tuple) else log
        logs.append([getattr(p, "id", p) for p in served])
    assert logs[0] == logs[1]
