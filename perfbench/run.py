"""Scheduler benchmark: replay one workload and print its metrics.

    python3 perfbench/run.py --workload pfabric_4k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the scheduler is imported from its
``src`` directory. The run repeats episodes until ``--seconds`` have passed.
An episode builds the scheduler and does the initial fill (``setup_s``),
replays a fixed number of packets of the seeded workload in a closed loop,
timed in laps (``pkts_per_s`` and the per-packet times), then checks every
output against a reference model. Every episode of a run replays the same
inputs. Timings are medians over laps, scaled to a reference machine speed
measured beside each lap (see ``calibrate``); the summary lines also give
the uncalibrated figures.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics. With ``--trace 1`` untraced and traced episodes alternate, and the
JSON holds the per-layer metrics from the traced ones plus
``trace.overhead_frac``. Lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_EPISODES = 3


def import_pktsched():
    src = ROOT / "src"
    if not (src / "pktsched" / "__init__.py").is_file():
        raise ImportError(f"no pktsched package under {src}")
    sys.path.insert(0, str(src))
    import pktsched
    if Path(pktsched.__file__).resolve().parent != src / "pktsched":
        raise ImportError(f"pktsched imported from {pktsched.__file__}, not {src}")
    return pktsched


def percentile(sorted_vals, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


# Time of calibrate() on the reference machine (2 vCPU, Python 3.11). Every
# timing is reported at this speed; see calibrate().
CAL_REF_NS = 400_000
QUANTILE_SAMPLES = 2000  # per-packet samples behind each p50/p99 estimate


class _Cell:
    __slots__ = ("key", "next")

    def __init__(self, key, nxt):
        self.key = key
        self.next = nxt

    def bump(self) -> int:
        return self.key + 1


_TABLE = [i & 255 for i in range(1 << 17)]  # 1 MiB of references, read out of order


def calibrate() -> int:
    """Wall ns of a fixed pure-Python loop shaped like the scheduler's work:
    small objects, method calls, dict and list operations, find-first-set on
    64-bit words, and reads spread over a table larger than the L2 cache.

    The benchmark shares its machine: the speed of the CPU it gets swings by
    up to 2x from one second to the next. Timed right next to each lap, this
    loop slows down with it, and CAL_REF_NS / calibrate() is the machine's
    speed at that moment. Timings are multiplied by that speed to read as on
    the reference machine; a slower scheduler still reads slower, because
    the loop does not run any of its code.
    """
    t0 = perf_counter_ns()
    d: dict[int, int] = {}
    window: list[_Cell] = []
    head = None
    s = 0
    for i in range(600):
        k = i & 63
        d[k] = d.get(k, 0) + 1
        head = _Cell(k, head if i & 7 else None)
        word = (i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        s += head.bump() + _TABLE[(i * 40503) & 0x1FFFF] + (word & -word).bit_length()
        window.append(head)
        if len(window) > 32:
            window.pop(0)
    return perf_counter_ns() - t0


class Run:
    """Episodes of one workload and what they measured."""

    def __init__(self, workload, trace: bool):
        from tracing import Tracer
        self.wl = workload
        self.trace = trace
        self.tracer = Tracer()
        # per lap, by traced: pkts/s and machine speed (CAL_REF_NS / calibrate)
        self.rates = {False: [], True: []}
        self.speeds = {False: [], True: []}
        # per-packet ns quantiles of each group of untraced laps holding
        # QUANTILE_SAMPLES samples or more
        self.p50s: list[float] = []
        self.p99s: list[float] = []
        self.setups: list[float] = []
        self.setup_speeds: list[float] = []
        self.builds: list[float] = []
        self.counts: dict[str, int] = {}  # counter deltas, traced episodes
        self.traced_pkts = 0
        self.attempted = self.errors = self.failures = 0
        self.notes: set[str] = set()
        self.props: dict[str, float] = {}
        self.peak_rss_mb = None

    def episode(self, traced: bool) -> None:
        wl = self.wl
        # the queues' bucket lists are reference cycles: free the last
        # episode's before this one, so its collection is not timed here
        gc.collect()
        inputs = wl.prepare()
        cal = calibrate()
        t0 = perf_counter()
        state, build_s = wl.setup(inputs)
        setup_s = perf_counter() - t0
        speed = 2 * CAL_REF_NS / (cal + calibrate())
        self.setups.append(setup_s)
        self.setup_speeds.append(speed)
        self.builds.append(build_s * speed)
        if traced:
            wl.instrument(self.tracer, state)
            before = wl.counters(state)
        samples: list[int] = []
        marks: list[tuple[int, int, int]] = []

        def lap_end():
            # (lap end, calibration ns, next lap start): calibration runs
            # between laps, outside their timing
            t = perf_counter_ns()
            c = calibrate()
            marks.append((t, c, perf_counter_ns()))

        log = wl.replay(state, inputs, samples, lap_end)
        if self.peak_rss_mb is None:
            # read once, before the checks: later episodes reuse the same
            # memory
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        lap = wl.lap
        group = -(-QUANTILE_SAMPLES // lap)  # laps per quantile estimate
        scaled: list[float] = []
        for j, ((_, c0, start), (end, c1, _)) in enumerate(zip(marks, marks[1:])):
            speed = 2 * CAL_REF_NS / (c0 + c1)
            self.rates[traced].append(lap * 1e9 / (end - start))
            self.speeds[traced].append(speed)
            if traced:
                continue
            scaled.extend(x * speed for x in samples[j * lap:(j + 1) * lap])
            if (j + 1) % group == 0:
                scaled.sort()
                self.p50s.append(percentile(scaled, 0.50))
                self.p99s.append(percentile(scaled, 0.99))
                scaled = []
        if traced:
            for key, v in wl.counters(state).items():
                self.counts[key] = self.counts.get(key, 0) + v - before[key]
            self.traced_pkts += len(samples)
        chk = wl.check(state, inputs, log)
        self.attempted += len(samples)
        self.errors += chk.errors
        self.failures += chk.failures
        self.notes.update(chk.notes)
        self.props = chk.props

    def go(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        i = 0
        while i < MIN_EPISODES or perf_counter() < deadline:
            self.episode(traced=self.trace and i % 2 == 1)
            i += 1

    def rate(self, traced: bool) -> float:
        """Median lap pkts/s at the reference speed."""
        return statistics.median(
            r / v for r, v in zip(self.rates[traced], self.speeds[traced]))

    def end_to_end(self) -> dict:
        # medians over laps: a burst of noise on the machine slows a few
        # laps, not the median
        return {
            "pkts_per_s": (self.rate(False), "packets/s"),
            "pkt_ns_p50": (statistics.median(self.p50s), "ns"),
            "pkt_ns_p99": (statistics.median(self.p99s), "ns"),
            "correct_frac": (1 - self.errors / self.attempted, "fraction"),
            "setup_s": (statistics.median(
                t * v for t, v in zip(self.setups, self.setup_speeds)), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }

    def raw(self) -> str:
        """The uncalibrated figures, for the summary."""
        return (f"uncalibrated: pkts_per_s {statistics.median(self.rates[False]):.1f}, "
                f"setup_s {statistics.median(self.setups):.6f}; machine speed "
                f"{statistics.median(self.speeds[False]):.3f} of the reference")

    def per_layer(self) -> dict:
        tr = self.tracer
        c = self.counts.get
        pkts = self.traced_pkts
        speed = statistics.median(self.speeds[True])

        def per(n, d):
            return n / d if d else 0.0

        def self_ns(name):
            return tr.mean_self_ns(name) * speed

        hooks = speed * sum(tr.self_ns(f"policies.{m}")
                            for m in ("on_enqueue", "on_dequeue", "key"))
        hclock_ops = 0
        if tr.calls("policies.hclock.dequeue"):
            hclock_ops = tr.calls("circular_pq.insert") + tr.calls("circular_pq.pop_min")
        deq_calls = tr.calls("core.tree.dequeue")
        m = {
            "core.tree.enqueue.self_ns": (self_ns("core.tree.enqueue"), "ns"),
            "core.tree.dequeue.self_ns": (self_ns("core.tree.dequeue"), "ns"),
            "core.tree.shaper_release.self_ns":
                (self_ns("core.tree.shaper_release"), "ns"),
            "core.tree.dequeue.empty_frac":
                (per(deq_calls - c("dequeued", 0), deq_calls), "fraction"),
            "core.tree.deferred_frac":
                (per(c("deferred", 0), tr.calls("core.tree.enqueue")), "fraction"),
            "core.shaper.insert.self_ns": (self_ns("core.shaper.insert"), "ns"),
            "core.shaper.stages_per_pkt":
                (per(tr.calls("core.shaper.insert"), pkts), "1/pkt"),
            "core.shaper.release.ns_per_entry":
                (per(tr.total_ns("core.shaper.release") * speed,
                     c("released", 0)), "ns"),
            "core.shaper.release.entries_per_call":
                (per(c("released", 0), tr.calls("core.shaper.release")), "1/call"),
            "policies.hooks.self_ns": (per(hooks, pkts), "ns/pkt"),
            "policies.key.calls_per_pkt": (per(tr.calls("policies.key"), pkts), "1/pkt"),
            "policies.hclock.enqueue.self_ns":
                (self_ns("policies.hclock.enqueue"), "ns"),
            "policies.hclock.dequeue.self_ns":
                (self_ns("policies.hclock.dequeue"), "ns"),
            "policies.hclock.next_eligible_time.self_ns":
                (self_ns("policies.hclock.next_eligible_time"), "ns"),
            "policies.hclock.queue_ops_per_pkt": (per(hclock_ops, pkts), "1/pkt"),
            "bitmap_pq.insert.self_ns": (self_ns("bitmap_pq.insert"), "ns"),
            "bitmap_pq.remove.self_ns": (self_ns("bitmap_pq.remove"), "ns"),
            "bitmap_pq.peek_min.self_ns": (self_ns("bitmap_pq.peek_min"), "ns"),
            "bitmap_pq.min_rank.calls_per_pkt":
                (per(tr.calls("bitmap_pq.min_rank"), pkts), "1/pkt"),
            "bitmap_pq.probes_per_pkt": (per(c("probes", 0), pkts), "1/pkt"),
            "circular_pq.insert.self_ns": (self_ns("circular_pq.insert"), "ns"),
            "circular_pq.pop_min.self_ns": (self_ns("circular_pq.pop_min"), "ns"),
            "circular_pq.min_rank.self_ns": (self_ns("circular_pq.min_rank"), "ns"),
            "circular_pq.peek_min.self_ns": (self_ns("circular_pq.peek_min"), "ns"),
            "circular_pq.rotations_per_kpkt":
                (per(1000 * c("rotations", 0), pkts), "1/kpkt"),
            "gradient_pq.insert.self_ns": (self_ns("gradient_pq.insert"), "ns"),
            "gradient_pq.pop_min.self_ns": (self_ns("gradient_pq.pop_min"), "ns"),
            # every pop, peek and min_rank of a window runs one estimate
            "gradient_pq.estimate_hit_frac":
                (per(c("estimate_hits", 0),
                     sum(tr.calls(f"gradient_pq.{m}")
                         for m in ("pop_min", "peek_min", "min_rank"))),
                 "fraction"),
            "gradient_pq.search_steps_per_pop":
                (per(c("search_steps", 0), c("pops", 0)), "1/pop"),
            "config.build_tree_s": (statistics.median(self.builds), "s"),
            "trace.overhead_frac":
                (1 - self.rate(True) / self.rate(False), "fraction"),
        }
        return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        pk = import_pktsched()
    except ImportError as exc:
        print(f"perfbench: cannot import the scheduler: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(cls(pk, args.seed), trace=bool(args.trace))
    run.go(args.seconds)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    episodes = len(run.setups)
    print(f"workload {args.workload} seed {args.seed}: {episodes} episodes of "
          f"{cls.packets} packets in laps of {cls.packets // cls.LAPS}; "
          f"p50/p99 are medians over {len(run.p50s)} groups of "
          f"{QUANTILE_SAMPLES} or more per-packet samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:16.6f} {unit}")
    print("  " + run.raw())
    print("  properties: " + json.dumps(
        {k: round(v, 6) for k, v in run.props.items()}))
    print(f"  reference errors {run.errors} of {run.attempted}; "
          f"unexplained failures {run.failures}")
    for note in sorted(run.notes):
        print(f"  FAILED CHECK: {note}")
    print(json.dumps({
        "correct": run.failures == 0,
        "attempted": run.attempted,
        "failed": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
