"""Exact and approximate gradient queues.

A gradient queue tracks bucket occupancy algebraically: each nonempty bucket
i contributes weight 2^(i/alpha) to accumulator `a` and i * 2^(i/alpha) to
accumulator `b`. With alpha = 1 the weights grow fast enough that
ceil(b / a) is exactly the maximum nonempty index. With alpha > 1 the damped
weights cover a far wider index range in one floating-point word at the cost
of exactness: b / a lands a known constant below the maximum index, and the
estimate

    round(b / a + |u(alpha)|),   u(alpha) = 1 / (1 - 2^(1/alpha))

is a hint that a short linear search turns into the actual maximum. The decay
term g(alpha, M) = (2^(1/alpha))^(-M - 1) bounds how far below the valid
index range can start before the shift stops being constant. a and b are
exact sums of whole-number weights at every alpha (fixed point for alpha >
1), so they do not drift with run length.

ApproxGradientQueue is the min-ordered form over priorities p = imax - i:
fixed_point_weights builds its table reversed, so p weighs what index
imax - p weighs in the algebra above, b / a lands the same constant above
the least priority, and the estimate is round(b / a + u(alpha)). A pop's
error, true least minus popped priority, is never positive; the queue
keeps no record of it, and bench.pop_error measures it from outside. The
queue keeps its items in bitmap_pq's BucketArray, the bucket array under
FfsQueue: the array reports each bucket's empty<->nonempty transition to
CurvatureState.mark, and the estimate-plus-search stands in for the FFS
probe. Only the occupancy index differs between the two queues.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bitmap_pq import BucketArray
from .circular_pq import CircularWindowQueue
from .errors import QueueStateError

DEFAULT_ALPHA = 16
DEFAULT_G_THRESHOLD = 4.5e-3

# Largest valid index per alpha, chosen so every accumulator term stays well
# inside the double mantissa. The alpha=16 reference configuration is pinned
# at 647 (giving 523 buckets above the i0=124 cutoff).
_CALIBRATED_IMAX = {16: 647}


def shift_u(alpha: int) -> float:
    """u(alpha) = 1 / (1 - 2^(1/alpha)); negative, ~-alpha/ln 2 for large alpha."""
    return 1.0 / (1.0 - 2.0 ** (1.0 / alpha))


def decay_g(alpha: int, m: int) -> float:
    """g(alpha, M) = 2^(-(M + 1)/alpha): residual error of the constant shift."""
    return 2.0 ** (-(m + 1) / alpha)


@functools.lru_cache(maxsize=16)
def fixed_point_weights(alpha: int, min_index: int, max_index: int) -> tuple:
    """The min-ordered weight table: entry p is the weight of index
    i = max_index - p, round(2^(i/alpha) * 2^F), at least 1, for p in
    [0, max_index]. The sums of weights and of p * weight are whole
    numbers, so a and b are exact. F is the largest integer that keeps the
    sum of i * weight over every index below 2^53 (the sum of p * weight
    is smaller), and the weights are doubles, which then add and subtract
    exactly at float speed, as long as that F still gives each entry in
    [0, max_index - min_index] more weight than the one after it. Where it
    does not (alpha 27 and up at the calibrated ranges), F is raised until
    it does and the weights are Python ints: exact too, but slower. At
    alpha = 16 and max_index = 647, F = -2 and entry 523 (index 124) weighs
    54. Cached, since every window of a queue uses the same weights; the
    tuple is immutable."""
    exact = [2.0 ** (i / alpha) for i in range(max_index + 1)]

    def scaled(f: int) -> list[int]:
        return [max(1, round(math.ldexp(w, f))) for w in exact]

    def increasing(weights: list[int]) -> bool:
        return all(weights[i - 1] < weights[i]
                   for i in range(min_index + 1, max_index + 1))

    f = 52 - math.floor(math.log2(sum(i * w for i, w in enumerate(exact))))
    weights = scaled(f)
    while sum(i * w for i, w in enumerate(weights)) >= 1 << 53:
        f -= 1
        weights = scaled(f)
    if increasing(weights):
        return tuple(map(float, reversed(weights)))
    while not increasing(weights := scaled(f)):
        f += 1
    return tuple(reversed(weights))


class _PowersOfTwo:
    """The alpha = 1 weight table, unbounded: entry i is 2^i."""

    __slots__ = ()

    def __getitem__(self, i: int) -> int:
        return 1 << i


_POWERS_OF_TWO = _PowersOfTwo()


class CurvatureState:
    """The (a, b) accumulator pair encoding occupancy of a gradient queue.

    a and b are exact sums of whole numbers at every alpha, so after every
    mark they equal recompute(), however long the run. Index i weighs 2^i
    for alpha = 1 (Python ints), the exact max-ordered queue. For alpha > 1
    the table is min-ordered (see fixed_point_weights): index p weighs
    round(2^((max_index - p)/alpha) * 2^F), so index 0 is the heaviest and
    the weights strictly decrease over [0, max_index - min_index] at every
    alpha: held in doubles where F keeps b below 2^53 with every index
    occupied, as at alpha = 16, and in Python ints where that F would round
    neighbouring weights together. The weights are precomputed for indices
    [0, max_index]; alpha = 1 indexes a table that computes 2^i, so mark
    reads every weight as _w[i], with no call of weight(). An occupancy
    bitmask guards against double-marking and lets tests recompute a and b
    independently.
    """

    def __init__(self, alpha: int = 1, max_index: int | None = None,
                 min_index: int = 0):
        if alpha < 1:
            raise ValueError("alpha must be a positive integer")
        self.alpha = alpha
        self.occupied = 0  # bitmask of nonempty indices
        self.a = self.b = 0
        if alpha == 1:
            self._w = _POWERS_OF_TWO
        else:
            if max_index is None:
                raise ValueError("alpha > 1 needs max_index")
            # precomputed weights keep pow() off the mark hot path
            self._w = fixed_point_weights(alpha, min_index, max_index)

    def weight(self, i: int):
        return self._w[i]

    def mark(self, i: int, nonempty: bool) -> None:
        """Record the empty<->nonempty transition of bucket i."""
        bit = 1 << i
        if nonempty:
            if self.occupied & bit:
                raise QueueStateError(f"bucket {i} already marked nonempty")
            self.occupied |= bit
            w = self._w[i]
            self.a += w
            self.b += i * w
        else:
            if not self.occupied & bit:
                raise QueueStateError(f"bucket {i} already marked empty")
            self.occupied ^= bit
            w = self._w[i]
            self.a -= w
            self.b -= i * w

    def max_index(self) -> int | None:
        """Exact maximum nonempty index via ceil(b/a). Requires alpha == 1."""
        if self.alpha != 1:
            raise QueueStateError("exact lookup requires alpha == 1")
        if self.occupied == 0:
            return None
        return -(-self.b // self.a)

    def recompute(self):
        """(a, b) summed from scratch over the occupancy mask. Test oracle."""
        a = b = 0
        mask = self.occupied
        i = 0
        while mask:
            if mask & 1:
                w = self.weight(i)
                a += w
                b += i * w
            mask >>= 1
            i += 1
        return a, b


@dataclass(frozen=True)
class ApproxRange:
    """Valid index window [i0, imax] of an approximate gradient queue, and
    the one place its alpha is set: calibrate(alpha). i0 is the least index
    whose decay g(alpha, i0) is within DEFAULT_G_THRESHOLD, and imax follows
    from alpha: 647 at alpha = 16, else i0 + 32 * alpha. Either way the
    heaviest unscaled weight, 2^(imax / alpha), stays below about 2^41, well
    inside the double mantissa."""

    alpha: int
    i0: int
    imax: int
    shift: float  # u(alpha), negative

    @property
    def capacity(self) -> int:
        return self.imax - self.i0

    @classmethod
    def calibrate(cls, alpha: int = DEFAULT_ALPHA) -> "ApproxRange":
        if type(alpha) is not int or alpha < 2:
            raise ValueError("approximate ranges need an integer alpha >= 2")
        i0 = 0
        while decay_g(alpha, i0) > DEFAULT_G_THRESHOLD:
            i0 += 1
        imax = _CALIBRATED_IMAX.get(alpha, i0 + 32 * alpha)
        return cls(alpha, i0, imax, shift_u(alpha))


class ApproxGradientQueue(BucketArray):
    """Approximate min-queue over the priorities [0, num_buckets): the
    bucket array of FfsQueue with the curvature state in place of the
    bitmap. num_buckets is at most range.capacity + 1, the default.

    Priority p weighs what index imax - p weighs in the max-ordered algebra
    of the module docstring (the min-ordered table of fixed_point_weights),
    so priority 0 is the heaviest, and b / a, a weighted mean of the
    nonempty priorities, lands about |u| above the least of them. pop_min
    checks the estimate round(b / a + u) first, then searches linearly
    upward from it and, on a total miss, downward. Estimate hits, pops and
    search lengths are counted for instrumentation; a pop's error, true
    least priority (the lowest bit of state.occupied) minus popped priority,
    is never positive, and bench.pop_error reads it. The search itself never
    consults the oracle mask.

    The weights are rounded to whole numbers (CurvatureState), and each
    priority in [0, capacity] weighs strictly more than the one above it at
    every alpha. At the calibrated ranges priority capacity weighs at least
    54 for every alpha from 2 to 64, a rounding error of up to 0.9% there.
    The weights are doubles up to alpha 26 and Python ints, exact but
    slower to mark, from alpha 27 up.
    """

    def __init__(self, rng: ApproxRange | None = None,
                 num_buckets: int | None = None):
        self.range = rng if rng is not None else ApproxRange.calibrate()
        slots = self.range.capacity + 1
        super().__init__(slots if num_buckets is None else num_buckets)
        if self.num_buckets > slots:
            raise ValueError(f"num_buckets must be at most {slots}")
        self.state = CurvatureState(self.range.alpha, self.range.imax,
                                    self.range.i0)
        # instrumentation
        self.estimate_hits = 0
        self.pops = 0
        self.search_steps = 0

    @property
    def inner(self) -> "ApproxGradientQueue":
        """The queue itself, for readers that address a circular window's
        gradient queue as `window.inner` (perfbench's approx_hold
        counters)."""
        return self

    def _set_bit(self, index: int) -> None:
        self.state.mark(index, True)

    def _clear_bit(self, index: int) -> None:
        self.state.mark(index, False)

    def estimate_index(self) -> int | None:
        """One-shot hint for the least nonempty priority; not a guarantee."""
        if self._len == 0:
            return None
        state = self.state
        est = round(state.b / state.a + self.range.shift)
        # b / a is a weighted mean of nonempty priorities and the shift is
        # negative, so only priority 0 can cut the estimate
        return est if est > 0 else 0

    def min_rank(self) -> int | None:
        """The nonempty priority the estimate-plus-search procedure finds,
        not always the least, or None when empty: the estimate, else the
        first nonempty bucket above it, else the first below it."""
        est = self.estimate_index()
        if est is None:
            return None
        heads = self.heads
        if heads[est] is not None:
            self.estimate_hits += 1
            return est
        steps = 0
        for i in range(est + 1, self.num_buckets):
            steps += 1
            if heads[i] is not None:
                self.search_steps += steps
                return i
        for i in range(est - 1, -1, -1):
            steps += 1
            if heads[i] is not None:
                self.search_steps += steps
                return i
        raise QueueStateError("curvature state claims items but buckets are empty")

    def pop_min(self):
        """Remove and return (priority, item) from the bucket min_rank
        names, as BucketArray.pop_min does, counting the pop."""
        p = self.min_rank()
        if p is None:
            return None
        self.pops += 1
        return p, self._pop_head(p)


class CircularApproxQueue(CircularWindowQueue):
    """Moving-window approximate queue: two gradient-queue windows with
    pointer swap, sharing the window semantics of the circular FFS queue."""

    def __init__(self, q_size: int | None = None):
        rng = ApproxRange.calibrate()
        slots = rng.capacity + 1
        if q_size is None:
            q_size = slots
        elif type(q_size) is not int or not 1 <= q_size <= slots:
            raise ValueError(f"q_size must be an integer in [1, {slots}]")
        self._range = rng
        super().__init__(q_size)

    def _make_inner(self) -> ApproxGradientQueue:
        return ApproxGradientQueue(self._range, self.q_size)
