"""Hash what each benchmark workload serves, to compare two checkouts.

    python3 tools/served_hash.py [--root DIR] [--against OTHER]
                                 [--workload W ...] [--seed S ...]

For each workload and seed, replays one episode of the benchmark workload
in ``DIR/perfbench/workloads.py`` against the package in ``DIR/src`` (DIR
defaults to the checkout this script sits in) and prints one line: the
SHA-256 of the served packet ids and the reference error count. For
``approx_hold`` it prints two hashes, one of the popped ranks and one of
the popped (rank, item) pairs, so a change that keeps the ranks but not
which item leaves among equal ranks shows. Nothing is timed; two checkouts
that serve the same sequences print the same lines.

With ``--against OTHER`` it replays DIR and OTHER, each in a subprocess of
its own (a process imports one pktsched only), prints DIR's lines, and
exits 1 naming the first line that differs (a line that one checkout does
not print reads None), 0 when both print the same lines, and 2 when a
replay fails.
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


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                    help="source checkout holding src/ and perfbench/")
    ap.add_argument("--against", type=Path, default=None,
                    help="second checkout to compare with --root")
    # extend: a repeated flag adds to the list; the defaults are filled in
    # after parsing, because extend would append to a default list
    ap.add_argument("--workload", nargs="+", action="extend", default=None,
                    choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", nargs="+", action="extend", type=int, default=None)
    args = ap.parse_args(argv)
    args.workload = args.workload or list(WORKLOAD_NAMES)
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
    for number, (a, b) in enumerate(zip_longest(ours, theirs), 1):
        if a != b:
            print(f"line {number} differs: {args.root}: {a!r} "
                  f"vs {args.against}: {b!r}")
            return 1
    print(f"identical: {len(ours)} lines")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.against is not None:
        return compare(args)
    pk, workloads = load(args.root.resolve())
    for name in args.workload:
        for seed in args.seed:
            print(served_line(pk, workloads[name], seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
