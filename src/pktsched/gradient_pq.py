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

ApproxGradientQueue keeps its items in bitmap_pq's BucketArray, the bucket
array under FfsQueue: the array reports each bucket's empty<->nonempty
transition to CurvatureState.mark, and the estimate-plus-search stands in
for the FFS probe. Only the occupancy index differs between the two queues.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bitmap_pq import BucketArray, BucketNode
from .circular_pq import CircularWindowQueue
from .errors import QueueStateError, RankRangeError

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
    """Weight i = round(2^(i/alpha) * 2^F), at least 1, for i in
    [0, max_index]. The sums of weights and of i * weight are whole
    numbers, so a and b are exact. F is the largest integer that keeps the
    sum of i * weight over every index below 2^53, and the weights are
    doubles, which then add and subtract exactly at float speed, as long
    as that F still gives each index in [min_index, max_index] more weight
    than the one below it. Where it does not (alpha 27 and up at the
    calibrated ranges), F is raised until it does and the weights are
    Python ints: exact too, but slower. At alpha = 16 and max_index = 647,
    F = -2 and min_index 124 weighs 54. Cached, since every window of a
    queue uses the same weights; the tuple is immutable."""
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
        return tuple(map(float, weights))
    while not increasing(weights := scaled(f)):
        f += 1
    return tuple(weights)


class CurvatureState:
    """The (a, b) accumulator pair encoding occupancy of a gradient queue.

    a and b are exact sums of whole numbers at every alpha, so after every
    mark they equal recompute(), however long the run. Index i weighs 2^i
    for alpha = 1 (Python ints). For alpha > 1 it weighs
    round(2^(i/alpha) * 2^F) (see fixed_point_weights), which strictly
    increases over [min_index, max_index] at every alpha: held in doubles
    where F keeps b below 2^53 with every index occupied, as at alpha = 16,
    and in Python ints where that F would round neighbouring weights
    together. The weights are precomputed for indices [0, max_index]. An
    occupancy bitmask guards against double-marking and lets tests
    recompute a and b independently.
    """

    def __init__(self, alpha: int = 1, max_index: int | None = None,
                 min_index: int = 0):
        if alpha < 1:
            raise ValueError("alpha must be a positive integer")
        self.alpha = alpha
        self.occupied = 0  # bitmask of nonempty indices
        self.a = self.b = 0
        if alpha == 1:
            self._w = None
        else:
            if max_index is None:
                raise ValueError("alpha > 1 needs max_index")
            # precomputed weights keep pow() off the mark hot path
            self._w = fixed_point_weights(alpha, min_index, max_index)

    def weight(self, i: int):
        return 1 << i if self._w is None else self._w[i]

    def mark(self, i: int, nonempty: bool) -> None:
        """Record the empty<->nonempty transition of bucket i."""
        bit = 1 << i
        if nonempty:
            if self.occupied & bit:
                raise QueueStateError(f"bucket {i} already marked nonempty")
            self.occupied |= bit
            w = self.weight(i)
            self.a += w
            self.b += i * w
        else:
            if not self.occupied & bit:
                raise QueueStateError(f"bucket {i} already marked empty")
            self.occupied ^= bit
            w = self.weight(i)
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
    the one place its alpha is set: calibrate(alpha)."""

    alpha: int
    i0: int
    imax: int
    shift: float  # u(alpha), negative

    @property
    def capacity(self) -> int:
        return self.imax - self.i0

    @classmethod
    def calibrate(cls, alpha: int = DEFAULT_ALPHA,
                  imax: int | None = None) -> "ApproxRange":
        if alpha < 2:
            raise ValueError("approximate ranges need alpha >= 2")
        i0 = 0
        while decay_g(alpha, i0) > DEFAULT_G_THRESHOLD:
            i0 += 1
        if imax is None:
            imax = _CALIBRATED_IMAX.get(alpha, i0 + 32 * alpha)
        if 2.0 ** (imax / alpha) >= 2.0 ** 53:
            raise ValueError("imax weight exceeds double mantissa budget")
        return cls(alpha=alpha, i0=i0, imax=imax, shift=shift_u(alpha))


class ApproxGradientQueue(BucketArray):
    """Approximate max-queue over bucket indices [i0, imax]: the bucket
    array of FfsQueue with the curvature state in place of the bitmap.

    pop_max estimates the maximum nonempty index from the curvature state in
    one step, then linearly searches downward (and upward on a total miss)
    from the estimate. Search lengths are counted for instrumentation, and
    with record_errors set each pop appends its signed index error to
    `errors` (off by default: the list grows by one per pop). The search
    itself never consults the oracle mask.

    The weights are rounded to whole numbers (CurvatureState), and each
    index in [i0, imax] weighs strictly more than the one below it at
    every alpha. At the calibrated ranges i0 weighs at least 54 for every
    alpha from 2 to 64, a rounding error of up to 0.9% there. The weights
    are doubles up to alpha 26 and Python ints, exact but slower to mark,
    from alpha 27 up.
    """

    def __init__(self, rng: ApproxRange | None = None):
        self.range = rng if rng is not None else ApproxRange.calibrate()
        super().__init__(self.range.i0, self.range.imax + 1)
        self.state = CurvatureState(self.range.alpha, self.range.imax,
                                    self.range.i0)
        # instrumentation
        self.estimate_hits = 0
        self.pops = 0
        self.search_steps = 0
        self.errors: list[int] = []
        self.record_errors = False

    def _set_bit(self, index: int) -> None:
        self.state.mark(index, True)

    def _clear_bit(self, index: int) -> None:
        self.state.mark(index, False)

    def estimate_index(self) -> int | None:
        """One-shot hint for the maximum nonempty index; not a guarantee."""
        if self._len == 0:
            return None
        state = self.state
        est = round(state.b / state.a - self.range.shift)
        # b / a is a weighted mean of nonempty indices and the shift is
        # negative, so only the top of the range can cut the estimate
        return est if est < self.hi else self.hi - 1

    def true_max_index(self) -> int | None:
        """Actual maximum nonempty index, from the occupancy mask. Oracle."""
        if self.state.occupied == 0:
            return None
        return self.state.occupied.bit_length() - 1

    def _max_bucket(self) -> int | None:
        est = self.estimate_index()
        if est is None:
            return None
        heads = self._heads
        if heads[est] is not None:
            self.estimate_hits += 1
            return est
        steps = 0
        for i in range(est - 1, self.lo - 1, -1):
            steps += 1
            if heads[i] is not None:
                self.search_steps += steps
                return i
        for i in range(est + 1, self.hi):
            steps += 1
            if heads[i] is not None:
                self.search_steps += steps
                return i
        raise QueueStateError("curvature state claims items but buckets are empty")

    def pop_max(self):
        """Remove and return (index, item) from the first nonempty bucket the
        estimate-plus-search procedure finds."""
        index = self._max_bucket()
        if index is None:
            return None
        self.pops += 1
        if self.record_errors:
            self.errors.append(index - self.true_max_index())
        return index, self._pop_head(index)

    def peek_max(self):
        index = self._max_bucket()
        if index is None:
            return None
        return index, self._heads[index].item


class ApproxMinQueue:
    """Min-orientation mirror of the approximate queue.

    Priorities p in [0, num_buckets) map onto internal indices imax - p, so
    min-priority pops become max-index pops. Exposes the FfsQueue surface so
    it can back a circular window.
    """

    def __init__(self, num_buckets: int | None = None,
                 rng: ApproxRange | None = None):
        self.inner = ApproxGradientQueue(rng)
        cap = self.inner.range.capacity
        if num_buckets is None:
            num_buckets = cap + 1
        if num_buckets > cap + 1:
            raise ValueError(f"window of {num_buckets} exceeds capacity {cap + 1}")
        self.num_buckets = num_buckets

    def __len__(self) -> int:
        return len(self.inner)

    def _index(self, p: int) -> int:
        if not 0 <= p < self.num_buckets:
            raise RankRangeError(f"priority {p} outside configured window")
        return self.inner.range.imax - p

    def _priority(self, index: int) -> int:
        return self.inner.range.imax - index

    def insert(self, p: int, item) -> BucketNode:
        return self.inner.insert(self._index(p), item)

    def remove(self, handle: BucketNode):
        return self.inner.remove(handle)

    def move(self, handle: BucketNode, p: int) -> None:
        self.inner.move(handle, self._index(p))

    def detach_bucket(self, p: int) -> list[BucketNode]:
        return self.inner.detach_bucket(self._index(p))

    def relink(self, node: BucketNode, p: int) -> None:
        self.inner.relink(node, self._index(p))

    def pop_min(self):
        got = self.inner.pop_max()
        if got is None:
            return None
        index, item = got
        return self._priority(index), item

    def peek_min(self):
        got = self.inner.peek_max()
        if got is None:
            return None
        index, item = got
        return self._priority(index), item

    def min_rank(self) -> int | None:
        got = self.inner.peek_max()
        if got is None:
            return None
        return self._priority(got[0])


class CircularApproxQueue(CircularWindowQueue):
    """Moving-window approximate queue: two mirrored windows with pointer swap,
    sharing the window semantics of the circular FFS queue."""

    def __init__(self, q_size: int | None = None):
        rng = ApproxRange.calibrate()
        if q_size is None:
            q_size = rng.capacity + 1
        self._range = rng
        super().__init__(q_size)

    def _make_inner(self) -> ApproxMinQueue:
        return ApproxMinQueue(num_buckets=self.q_size, rng=self._range)
