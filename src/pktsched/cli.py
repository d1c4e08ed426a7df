"""Command-line driver: microbenchmarks, error sweeps and simulations.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import BenchConfig, rows_to_csv, run_bench, run_error_sweep
from .config import POLICY_NAMES, read_json_object, single_level_config
from .errors import ConfigError, PktschedError
from .sim import Workload, run_sim

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_config_file(args: argparse.Namespace) -> None:
    """Values from --config override the flags (the file wins); a key
    that is not a flag of the subcommand is a ConfigError, and so is an
    empty --config path."""
    if getattr(args, "config", None) is None:
        return
    overrides = read_json_object(args.config)
    flags = vars(args).keys() - {"command", "func"}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise ConfigError(f"{args.config}: {key!r} is not a flag of "
                              f"{args.command}")
        setattr(args, dest, value)


def _cmd_bench(args) -> int:
    if type(args.seed) is not int or type(args.seeds) is not int or args.seeds < 1:
        raise ConfigError("seed must be an integer and seeds a positive integer")
    if not isinstance(args.queue, list):
        raise ConfigError(f"queue must be a list of queue kinds, not {args.queue!r}")
    # every config is checked before the first drain runs
    configs = [
        BenchConfig(
            queue=queue,
            num_buckets=args.buckets,
            pkts_per_bucket=None if args.occupancy is not None else args.pkts_per_bucket,
            occupancy=args.occupancy,
            repetitions=args.repetitions,
            warmup=args.warmup,
            seed=seed,
        )
        for queue in args.queue
        for seed in range(args.seed, args.seed + args.seeds)
    ]
    _write(rows_to_csv([run_bench(cfg) for cfg in configs]), args.output)
    return EXIT_OK


def _cmd_error_sweep(args) -> int:
    if type(args.seeds) is not int or args.seeds < 1:
        raise ConfigError("seeds must be a positive integer")
    occupancies = args.occupancies or None
    rows = run_error_sweep(alpha=args.alpha, occupancies=occupancies,
                           seeds=range(args.seeds))
    _write(rows_to_csv(rows, columns=list(rows[0])), args.output)
    return EXIT_OK


def _cmd_sim(args) -> int:
    if args.tree is not None and not isinstance(args.tree, (str, dict)):
        raise ConfigError("tree must be a policy-tree file path or object")
    workload = Workload(
        num_flows=args.flows,
        sizes=(args.packet_size,),
        duration_ns=args.duration_ns,
        seed=args.seed,
        link_rate=args.link_rate,
        flow_cap=args.flow_cap,
        arrival_rate=args.arrival_rate,
    )
    # an empty tree, '' or {}, is refused by build_tree, never replaced
    config = (args.tree if args.tree is not None
              else single_level_config(args.policy, workload.flow_ids()))
    metrics = run_sim(config, workload)
    summary = {
        "duration_ns": metrics.duration_ns,
        "enqueued": metrics.enqueued,
        "dequeued": metrics.dequeued,
        "deferred": metrics.deferred,
        "pending": metrics.pending,
        "conserved": metrics.conserved(),
        "per_flow_bytes": metrics.per_flow_bytes,
        "throughput_bps": {fid: metrics.throughput_bps(fid)
                           for fid in metrics.per_flow_bytes},
    }
    _write(json.dumps(summary, indent=2) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pktsched",
        description="Bucketed priority queue benchmarks and scheduler simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="drain-throughput microbenchmark")
    bench.add_argument("--queue", nargs="+", default=["cffs"],
                       help="queue kinds: cffs hffs approx bh heap")
    bench.add_argument("--buckets", type=int, default=10_000)
    bench.add_argument("--pkts-per-bucket", type=float, default=1.0)
    bench.add_argument("--occupancy", type=float, default=None)
    bench.add_argument("--repetitions", type=int, default=10)
    bench.add_argument("--warmup", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--seeds", type=int, default=1,
                       help="number of consecutive seeds per queue kind")
    bench.add_argument("--config", help="JSON file overriding these flags")
    bench.add_argument("--output", help="CSV path (default stdout)")
    bench.set_defaults(func=_cmd_bench)

    sweep = sub.add_parser("error-sweep",
                           help="approximate-queue error vs occupancy")
    sweep.add_argument("--alpha", type=int, default=16)
    sweep.add_argument("--occupancies", nargs="*", type=float, default=None)
    sweep.add_argument("--seeds", type=int, default=10)
    sweep.add_argument("--config", help="JSON file overriding these flags")
    sweep.add_argument("--output", help="CSV path (default stdout)")
    sweep.set_defaults(func=_cmd_error_sweep)

    sim = sub.add_parser("sim", help="discrete-event scheduler simulation")
    sim.add_argument("--policy", default="fifo", choices=POLICY_NAMES)
    sim.add_argument("--tree", help="policy-tree JSON file (overrides --policy)")
    sim.add_argument("--flows", type=int, default=2)
    sim.add_argument("--packet-size", type=int, default=1500)
    sim.add_argument("--duration-ns", type=int, default=100_000_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--link-rate", type=float, default=10_000_000.0,
                     help="bytes per second")
    sim.add_argument("--flow-cap", type=int, default=32)
    sim.add_argument("--arrival-rate", type=float, default=None,
                     help="bytes/sec per flow; omit for a backlogged source")
    sim.add_argument("--config", help="JSON file overriding these flags")
    sim.add_argument("--output", help="JSON summary path (default stdout)")
    sim.set_defaults(func=_cmd_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PktschedError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
