"""Hash what each benchmark workload serves, to compare two checkouts.

    python3 tools/served_hash.py [--root DIR] [--against OTHER]
                                 [--workload W ...] [--seed S ...]

For each workload and seed, replays one episode of the benchmark workload
in ``DIR/perfbench/workloads.py`` against the package in ``DIR/src`` (DIR
defaults to the checkout this script sits in) and prints one line: the
SHA-256 of the served packet ids and the reference error count. For
``approx_hold`` it prints two hashes, one of the popped ranks and one of
the popped (rank, item) pairs, so a change that keeps the ranks but not
which item leaves among equal ranks shows. The ``sim_*`` lines run the
simulation loop instead: ``run_sim`` from ``DIR/src`` on one fixed
workload per seed (a paced root over limited and unlimited leaves for the
tree policies; for ``sim_deep_*``, a paced one-child root, a limited
pass-through tenant and two ordering levels; reserved, limited and
unequally shared flows for hClock; a size mix and a flow cap of 4),
hashing the served (time, flow, id, size, rank) tuples, recorded by
wrapping the scheduler's ``dequeue``, and the dequeued count. Nothing is
timed; two checkouts that serve the same sequences print the same lines.

With ``--against OTHER`` it replays DIR and OTHER, each in a subprocess of
its own (a process imports one pktsched only), prints DIR's lines, then
every line that differs, both sides of it (a line that one checkout does
not print reads None), and last ``identical: k of n lines``. It exits 0
when both print the same lines, 1 when any line differs, and 2 when a
replay fails. So a change meant to alter some lines still shows that
every other line is the same.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pfabric_4k", "shaped_fifo", "hclock_256", "approx_hold")
SIM_NAMES = ("sim_fifo", "sim_lqf", "sim_pfabric", "sim_hclock",
             "sim_deep_fifo", "sim_deep_lqf", "sim_deep_pfabric")
# node -> (parent, limit), parents first: a paced root with one child,
# mid, which orders tenants a and b; a is a limited pass-through over grp,
# so mid and the nodes it orders below it (grp, b) are two ordering levels
DEEP_TREE = {"root": (None, 8_000_000.0), "mid": ("root", None),
             "a": ("mid", 3_000_000.0), "grp": ("a", None),
             "a0": ("grp", 1_000_000.0), "a1": ("grp", None),
             "b": ("mid", None), "b0": ("b", 2_000_000.0), "b1": ("b", None)}


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def load(root: Path):
    """The pktsched package and perfbench's workload table of a checkout."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import pktsched
    from workloads import WORKLOADS
    src = (root / "src" / "pktsched").resolve()
    if Path(pktsched.__file__).resolve().parent != src:
        raise ImportError(f"pktsched imported from {pktsched.__file__}, not {root}")
    return pktsched, WORKLOADS


def served_line(pk, cls, seed: int) -> str:
    wl = cls(pk, seed)
    inputs = wl.prepare()
    state, _ = wl.setup(inputs)
    pairs = []
    if cls.name == "approx_hold":
        pop = state.pop_min

        def recording_pop():
            got = pop()
            pairs.append(got)
            return got

        state.pop_min = recording_pop  # replay binds the attribute
    log = wl.replay(state, inputs, [], lambda: None)
    errors = wl.check(state, inputs, log).errors
    if cls.name == "approx_hold":
        hashes = f"ranks {digest(log)} pairs {digest(pairs)}"
    else:
        served = log[0] if isinstance(log, tuple) else log
        hashes = f"ids {digest(p.id for p in served)}"
    return f"{cls.name} seed {seed}: {hashes} errors {errors}"


def sim_config(policy: str) -> dict:
    """Six flows: for a tree policy, two per leaf under a root paced below
    the link, two of the three leaves limited, or for "deep_" and a tree
    policy, spread over DEEP_TREE's leaves; for hClock, reservations,
    limits and shares that differ from flow to flow."""
    if policy.startswith("deep_"):
        nodes = [{"id": n, "parent": p, "limit": limit}
                 for n, (p, limit) in DEEP_TREE.items()]
        parents = {p for p, _ in DEEP_TREE.values()}
        leaves = [n for n in DEEP_TREE if n not in parents]
        return {"policy": policy.removeprefix("deep_"), "nodes": nodes,
                "flows": {f"f{i}": leaves[i % len(leaves)] for i in range(6)}}
    if policy == "hclock":
        return {"policy": "hclock", "flow_params": {
            "f0": {"reservation": 1_000_000.0, "share": 1.0},
            "f1": {"limit": 500_000.0, "share": 2.0},
            "f2": {"reservation": 500_000.0, "limit": 2_000_000.0, "share": 4.0},
            "f3": {"share": 1.0},
            "f4": {"limit": 1_500_000.0, "share": 3.0},
            "f5": {"share": 0.5}}}
    limits = (1_000_000.0, None, 3_000_000.0)
    nodes = [{"id": "root", "parent": None, "limit": 8_000_000.0}]
    nodes += [{"id": f"leaf{i}", "parent": "root", "limit": limit}
              for i, limit in enumerate(limits)]
    return {"policy": policy, "nodes": nodes,
            "flows": {f"f{i}": f"leaf{i // 2}" for i in range(6)}}


def sim_line(pk, name: str, seed: int) -> str:
    workload = pk.Workload(num_flows=6, sizes=(64, 512, 1500),
                           duration_ns=200_000_000, seed=seed,
                           link_rate=10_000_000.0, flow_cap=4)
    sched = pk.build_tree(sim_config(name.removeprefix("sim_")))
    served = []
    dequeue = sched.dequeue

    def recording_dequeue(now):
        packet = dequeue(now)
        if packet is not None:
            served.append((now, packet.flow_id, packet.id, packet.size,
                           packet.rank))
        return packet

    sched.dequeue = recording_dequeue  # run_sim binds the attribute
    m = pk.run_sim(sched, workload)
    return f"{name} seed {seed}: trace {digest(served)} dequeued {m.dequeued}"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                    help="source checkout holding src/ and perfbench/")
    ap.add_argument("--against", type=Path, default=None,
                    help="second checkout to compare with --root")
    # extend: a repeated flag adds to the list; the defaults are filled in
    # after parsing, because extend would append to a default list
    ap.add_argument("--workload", nargs="+", action="extend", default=None,
                    choices=WORKLOAD_NAMES + SIM_NAMES)
    ap.add_argument("--seed", nargs="+", action="extend", type=int, default=None)
    args = ap.parse_args(argv)
    args.workload = args.workload or list(WORKLOAD_NAMES + SIM_NAMES)
    args.seed = args.seed or [1, 2, 3]
    return args


def replay_lines(root: Path, args) -> list[str]:
    """The lines this script prints for `root`, from a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--root", str(root),
           "--workload", *args.workload, "--seed", *map(str, args.seed)]
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout.splitlines()


def compare(args) -> int:
    try:
        ours = replay_lines(args.root, args)
        theirs = replay_lines(args.against, args)
    except subprocess.CalledProcessError as err:
        sys.stderr.write(err.stderr)
        return 2
    print("\n".join(ours))
    pairs = list(zip_longest(ours, theirs))
    same = 0
    for number, (a, b) in enumerate(pairs, 1):
        if a == b:
            same += 1
        else:
            print(f"line {number} differs: {args.root}: {a!r} "
                  f"vs {args.against}: {b!r}")
    print(f"identical: {same} of {len(pairs)} lines")
    return 0 if same == len(pairs) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.against is not None:
        return compare(args)
    pk, workloads = load(args.root.resolve())
    for name in args.workload:
        for seed in args.seed:
            line = (sim_line(pk, name, seed) if name in SIM_NAMES
                    else served_line(pk, workloads[name], seed))
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
