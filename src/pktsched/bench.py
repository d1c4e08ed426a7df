"""Microbenchmarks: fill a queue, drain it under wall-clock timing.

Each of the five kinds drains by pop_min until empty: cffs (CffsQueue),
hffs (FfsQueue), approx (ApproxGradientQueue), bh (BhQueue) and heap
(HeapQueue).

Rows come out with a fixed CSV schema:
queue, buckets, fill_mode, fill_value, seed, mops, mops_min, mops_max,
mean_abs_err, p99_abs_err, mean_search_len. Error columns are only nonzero
for the approximate queue and are measured on a separate instrumented pass
so they never distort the timed drain.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import time
from dataclasses import dataclass, field

from .baselines import BhQueue, HeapQueue
from .bitmap_pq import FfsQueue
from .circular_pq import CffsQueue
from .core import positive_real
from .errors import ConfigError
from .gradient_pq import ApproxGradientQueue, ApproxRange

CSV_COLUMNS = ["queue", "buckets", "fill_mode", "fill_value", "seed", "mops",
               "mops_min", "mops_max", "mean_abs_err", "p99_abs_err",
               "mean_search_len"]

QUEUE_KINDS = ("cffs", "hffs", "approx", "bh", "heap")


@dataclass
class BenchConfig:
    queue: str = "cffs"
    num_buckets: int = 10_000
    pkts_per_bucket: float | None = 1.0  # exactly one fill mode may be set
    occupancy: float | None = None
    repetitions: int = 10
    warmup: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.queue not in QUEUE_KINDS:
            raise ConfigError(f"unknown queue kind {self.queue!r}")
        if (self.pkts_per_bucket is None) == (self.occupancy is None):
            raise ConfigError(
                "set exactly one of pkts_per_bucket / occupancy")
        if type(self.num_buckets) is not int or self.num_buckets < 1:
            raise ConfigError("num_buckets must be a positive integer")
        if self.queue == "approx":
            # more ranks than priorities would fold several onto each one
            slots = ApproxRange.calibrate().capacity + 1
            if self.num_buckets > slots:
                raise ConfigError(f"approx holds at most {slots} buckets, "
                                  f"not {self.num_buckets}")
        if self.pkts_per_bucket is not None and not positive_real(self.pkts_per_bucket):
            raise ConfigError("pkts_per_bucket must be a positive number")
        if self.occupancy is not None and not (positive_real(self.occupancy)
                                               and self.occupancy <= 1):
            raise ConfigError("occupancy must be in (0, 1]")
        for name, low in (("repetitions", 1), ("warmup", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}")

    @property
    def fill_mode(self) -> str:
        return "occupancy" if self.occupancy is not None else "pkts_per_bucket"

    @property
    def fill_value(self) -> float:
        return self.occupancy if self.occupancy is not None else self.pkts_per_bucket


def _fill_ranks(cfg: BenchConfig, rng: random.Random, num_buckets: int) -> list[int]:
    if cfg.occupancy is not None:
        nonempty = max(1, round(cfg.occupancy * num_buckets))
        buckets = rng.sample(range(num_buckets), nonempty)
        return sorted(buckets)  # one item per chosen bucket
    total = max(1, round(cfg.pkts_per_bucket * num_buckets))
    return [rng.randrange(num_buckets) for _ in range(total)]


def _make_queue(kind: str, num_buckets: int):
    if kind == "hffs":
        return FfsQueue(num_buckets)
    if kind == "cffs":
        return CffsQueue(num_buckets)
    if kind == "bh":
        return BhQueue(num_buckets)
    if kind == "heap":
        return HeapQueue()
    raise ConfigError(f"unknown queue kind {kind!r}")


def pop_error(q: ApproxGradientQueue):
    """pop_min on a nonempty approximate queue, as (error, priority, item):
    the true least priority, read off q.state.occupied before the pop,
    minus the popped one, so the error is never positive."""
    occupied = q.state.occupied
    p, item = q.pop_min()
    return (occupied & -occupied).bit_length() - 1 - p, p, item


def _drain_once(kind: str, num_buckets: int, ranks: list[int],
                with_errors: bool = False):
    """Fill then fully drain; returns (elapsed_seconds, approx_stats|None)."""
    if kind == "approx":
        q = ApproxGradientQueue()
        span = q.num_buckets
        # rank r scales onto the priorities [0, span) from the top down,
        # as the error presets and sweep lay their patterns
        for r in ranks:
            q.insert(span - 1 - (r * span) // num_buckets, r)
        t0 = time.perf_counter()
        if not with_errors:
            while q.pop_min() is not None:
                pass
            return time.perf_counter() - t0, None
        errs = []
        while len(q):
            errs.append(abs(pop_error(q)[0]))
        elapsed = time.perf_counter() - t0
        errs.sort()
        return elapsed, {
            "mean_abs_err": sum(errs) / len(errs),
            "p99_abs_err": errs[min(len(errs) - 1, int(0.99 * len(errs)))],
            "mean_search_len": q.search_steps / max(q.pops, 1),
        }
    q = _make_queue(kind, num_buckets)
    for r in ranks:
        q.insert(r, r)
    t0 = time.perf_counter()
    while True:
        if q.pop_min() is None:
            break
    return time.perf_counter() - t0, None


def run_bench(cfg: BenchConfig) -> dict:
    """One CSV row: median drain throughput over the timed repetitions."""
    rng = random.Random(cfg.seed)
    ranks = _fill_ranks(cfg, rng, cfg.num_buckets)
    n = len(ranks)
    for _ in range(cfg.warmup):
        _drain_once(cfg.queue, cfg.num_buckets, ranks)
    rates = []
    for _ in range(cfg.repetitions):
        elapsed, _ = _drain_once(cfg.queue, cfg.num_buckets, ranks)
        rates.append(n / elapsed / 1e6)
    stats = {"mean_abs_err": 0.0, "p99_abs_err": 0.0, "mean_search_len": 0.0}
    if cfg.queue == "approx":
        _, stats = _drain_once(cfg.queue, cfg.num_buckets, ranks, with_errors=True)
    return {
        "queue": cfg.queue,
        "buckets": cfg.num_buckets,
        "fill_mode": cfg.fill_mode,
        "fill_value": cfg.fill_value,
        "seed": cfg.seed,
        "mops": statistics.median(rates),
        "mops_min": min(rates),
        "mops_max": max(rates),
        **stats,
    }


# -- error sweep --------------------------------------------------------------

def _preset_priorities(preset: str, rng_spec: ApproxRange) -> list[int]:
    """A named occupancy pattern, laid from the top priority (capacity,
    the lightest weight, where rounding is largest) downward."""
    top, alpha = rng_spec.capacity, rng_spec.alpha
    if preset == "even_spacing":
        return list(range(top, -1, -alpha))
    if preset == "all_full":
        return list(range(top + 1))
    if preset == "half_plus_outlier":
        # a dense top half pulls the estimate above a lone outlier at the
        # 1/4 mark; the pull only wins while the pattern spans less than
        # ~18*alpha buckets, so scope it to 16*alpha
        span = min(top, 16 * alpha)
        dense = list(range(top - span // 2, top + 1))
        return dense + [top - (3 * span) // 4]
    raise ConfigError(f"unknown preset {preset!r}")


def run_error_preset(preset: str, alpha: int = 16) -> dict:
    """Signed error of one pop_min on a named occupancy pattern."""
    rng_spec = ApproxRange.calibrate(alpha)
    q = ApproxGradientQueue(rng_spec)
    for p in _preset_priorities(preset, rng_spec):
        q.insert(p, p)
    error = pop_error(q)[0]
    return {"preset": preset, "alpha": alpha, "error": error,
            "estimate_hit": q.estimate_hits == 1}


def run_error_sweep(alpha: int = 16, occupancies=None, seeds=range(10),
                    trials: int = 200) -> list[dict]:
    """Mean absolute fetch error and search length per occupancy ratio.

    The nonempty ratio is HELD constant and the occupancy pattern stays a
    uniform random sample of that ratio: each trial pops the least priority
    (recording its signed error), puts the fetched item straight back,
    then moves one uniformly chosen occupied bucket to a uniformly chosen
    empty one. Draining instead would slide the pattern down through every
    ratio and bias the bottom of the range empty. Priorities are drawn
    as capacity - j for a uniform j, from the top down as the presets are
    laid.
    """
    if type(alpha) is not int or alpha < 2:
        raise ConfigError("alpha must be an integer >= 2")
    if occupancies is None:
        occupancies = [round(0.3 + 0.1 * i, 1) for i in range(8)]
    elif not isinstance(occupancies, (list, tuple)) or not all(
            positive_real(occ) and occ <= 1 for occ in occupancies):
        raise ConfigError("occupancies must be a list of numbers in (0, 1]")
    rng_spec = ApproxRange.calibrate(alpha)
    top = rng_spec.capacity
    span = top + 1
    rows = []
    for occ in occupancies:
        abs_errs = []
        search = []
        for seed in seeds:
            rng = random.Random(seed)
            q = ApproxGradientQueue(rng_spec)
            nonempty = max(1, round(occ * span))
            occupied = rng.sample(range(top, -1, -1), nonempty)
            handles = {p: q.insert(p, p) for p in occupied}
            for _ in range(trials):
                error, p, item = pop_error(q)
                abs_errs.append(abs(error))
                handles[p] = q.insert(p, item)
                if nonempty < span:
                    pos = rng.randrange(nonempty)
                    src = occupied[pos]
                    while True:
                        dst = top - rng.randrange(span)
                        if dst not in handles:
                            break
                    q.remove(handles.pop(src))
                    handles[dst] = q.insert(dst, dst)
                    occupied[pos] = dst
            search.append(q.search_steps / max(q.pops, 1))
        rows.append({
            "alpha": alpha,
            "occupancy": occ,
            "mean_abs_err": sum(abs_errs) / len(abs_errs),
            "max_abs_err": max(abs_errs),
            "mean_search_len": sum(search) / len(search),
        })
    return rows


# -- CSV emission ---------------------------------------------------------------

def rows_to_csv(rows: list[dict], columns=None) -> str:
    if columns is None:
        columns = CSV_COLUMNS if rows and "queue" in rows[0] else list(rows[0])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()
