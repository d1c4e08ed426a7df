"""Run the benchmark on two checkouts in alternation and compare them.

    python3 tools/ab_bench.py --against PARENT --workload W [W ...] --pairs N
                              [--root DIR] [--seconds S] [--seed SEED]
                              [--trace] [--json FILE]

For each workload, runs ``python3 perfbench/run.py --workload W --seed SEED
--seconds S --trace 0`` N times in DIR (the change; defaults to the
checkout this script sits in) and N times in PARENT, back to back in
pairs, PARENT first in odd-numbered pairs, so drift in the machine's load
lands on both sides alike. The run length defaults to ``run_seconds`` in
DIR's ``BENCHMARK.json``, and SEED to 1. Each run uses its own
checkout's ``src`` and ``perfbench``; nothing in either is changed.

It prints every pair (both values and their ratio, change over parent, per
end-to-end metric), then per metric the median and quartiles of each side,
the median of the pairwise ratios, and how many pairs the change reads
better, in the direction DIR's ``BENCHMARK.json`` gives (ties count for
neither). Each metric with a ``bound`` there also gets a verdict:
``worse than bound`` when the change's median is worse than the parent's
by more than the bound (a fraction of the parent's median); ``better``
when the change reads better in at least 9 of every 10 pairs and the
medians differ, in its favour, by more than the parent's interquartile
spread; otherwise ``unresolved``. A run that exits nonzero or fails a
check is counted in ``failed_runs`` and its pair is left out. With
``--json`` the summary is also written in the layout of the
``end_to_end`` section of ``BENCH_*.json``.

With ``--trace`` the runs are ``--trace 1`` runs instead, and the same
pairing and summary cover the ``per_layer`` metrics of ``BENCHMARK.json``,
in the directions it gives them. One traced run per side does not locate
a saving; paired traced runs show which layer's figures move on every
pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seconds: float, seed: int,
             trace: int) -> dict | None:
    """Metric name -> value of one run in `root`; None when the run fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    out = json.loads(proc.stdout.splitlines()[-1])
    if not out["correct"]:
        return None
    return {name: m["value"] for name, m in out["metrics"].items()}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def better(change: float, parent: float, direction: str) -> bool:
    return change > parent if direction == "higher" else change < parent


def verdict(parent: list, change: list, direction: str, bound: float) -> str:
    """'worse than bound', 'better' or 'unresolved' (see the module
    docstring) for one metric's paired runs."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = p_med - c_med if direction == "higher" else c_med - p_med
    if worse > bound * abs(p_med):
        return "worse than bound"
    q1, q3 = quartiles(parent)
    wins = sum(better(c, p, direction) for c, p in zip(change, parent))
    if 10 * wins >= 9 * len(parent) and -worse > q3 - q1:
        return "better"
    return "unresolved"


def summarize(runs: dict, metrics: dict) -> dict:
    """Per metric: each side's median and quartiles, the median pairwise
    ratio, the change's relative move, its count of better pairs and,
    for a metric with a bound, the verdict."""
    out = {}
    for name, spec in metrics.items():
        direction = spec["better"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        if not parent:
            continue
        p_med, c_med = statistics.median(parent), statistics.median(change)
        (p_q1, p_q3), (c_q1, c_q3) = quartiles(parent), quartiles(change)
        ratios = [c / p for c, p in zip(change, parent) if p]
        out[name] = {k: round(v, 4) for k, v in (
            ("parent_median", p_med), ("parent_q1", p_q1), ("parent_q3", p_q3),
            ("change_median", c_med), ("change_q1", c_q1), ("change_q3", c_q3),
            ("change_rel", c_med / p_med - 1 if p_med else 0.0),
            ("ratio_median", statistics.median(ratios) if ratios else 1.0))}
        out[name]["change_better_pairs"] = sum(
            better(c, p, direction) for c, p in zip(change, parent))
        if "bound" in spec:
            out[name]["verdict"] = verdict(parent, change, direction,
                                           spec["bound"])
        out[name]["parent_runs"] = [round(v, 4) for v in parent]
        out[name]["change_runs"] = [round(v, 4) for v in change]
    return out


def compare(args, workload: str, metrics: dict) -> dict:
    runs = {"parent": [], "change": []}
    failed = 0
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        got = {}
        for side in order:
            root = args.against if side == "parent" else args.root
            got[side] = run_once(root, workload, args.seconds, args.seed,
                                 args.trace)
        failed += sum(v is None for v in got.values())
        if None in got.values():
            print(f"{workload} pair {pair}: a run failed; pair left out", flush=True)
            continue
        for side in runs:
            runs[side].append(got[side])
        cells = []
        for name in metrics:
            p, c = got["parent"][name], got["change"][name]
            ratio = f"{c / p:.4f}" if p else "-"
            cells.append(f"{name} {p:.6g} -> {c:.6g} ({ratio})")
        print(f"{workload} pair {pair} ({order[0]} first): " + "; ".join(cells),
              flush=True)
    summary = summarize(runs, metrics)
    for name, m in summary.items():
        tail = f", verdict {m['verdict']}" if "verdict" in m else ""
        print(f"{workload} {name}: parent {m['parent_median']:.6g} "
              f"[{m['parent_q1']:.6g}, {m['parent_q3']:.6g}], change "
              f"{m['change_median']:.6g} [{m['change_q1']:.6g}, "
              f"{m['change_q3']:.6g}], median ratio {m['ratio_median']:.4f}, "
              f"change better in {m['change_better_pairs']} of "
              f"{len(runs['parent'])} pairs{tail}", flush=True)
    return {"pairs": len(runs["parent"]), "failed_runs": failed,
            "metrics": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                    help="checkout of the change")
    ap.add_argument("--against", type=Path, required=True,
                    help="checkout of the parent")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed passed to perfbench/run.py")
    ap.add_argument("--trace", action="store_const", const=1, default=0,
                    help="compare the per-layer metrics of traced runs")
    ap.add_argument("--json", type=Path, default=None,
                    help="write the summary here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    args.root, args.against = args.root.resolve(), args.against.resolve()
    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[section]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    report = {
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace {args.trace}",
        "pairing": "parent and change back to back, parent first in "
                   "odd-numbered pairs; each side runs from its own checkout",
        "quartiles": "statistics.quantiles(method='inclusive'); ratio_median "
                     "is the median of change/parent over pairs; "
                     "change_better_pairs counts pairs where the change reads "
                     "better, ties for neither; *_runs list the runs in order",
        "verdict": "per metric with a bound: 'worse than bound' when the "
                   "change's median is worse than the parent's by more "
                   "than bound x the parent's median; 'better' when the "
                   "change reads better in at least 9 of 10 pairs and the "
                   "medians differ in its favour by more than the "
                   "parent's q3 - q1; else 'unresolved'",
        "workloads": {w: compare(args, w, metrics) for w in args.workload},
    }
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(w["failed_runs"] for w in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
