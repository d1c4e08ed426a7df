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
index range can start before the shift stops being constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bitmap_pq import BucketNode
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


class CurvatureState:
    """The (a, b) accumulator pair encoding occupancy of a gradient queue.

    alpha = 1 keeps a and b as exact integers; alpha > 1 uses doubles. An
    occupancy bitmask guards against double-marking and lets tests recompute
    a and b independently.
    """

    def __init__(self, alpha: int = 1, max_index: int | None = None):
        if alpha < 1:
            raise ValueError("alpha must be a positive integer")
        self.alpha = alpha
        self.a = 0 if alpha == 1 else 0.0
        self.b = 0 if alpha == 1 else 0.0
        self.occupied = 0  # bitmask of nonempty indices
        # precomputed weights keep pow() off the mark hot path
        self._w = None
        if alpha > 1 and max_index is not None:
            self._w = [2.0 ** (i / alpha) for i in range(max_index + 1)]

    def weight(self, i: int):
        if self.alpha == 1:
            return 1 << i
        if self._w is not None and i < len(self._w):
            return self._w[i]
        return 2.0 ** (i / self.alpha)

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
            self.occupied &= ~bit
            w = self.weight(i)
            self.a -= w
            self.b -= i * w
            if self.occupied == 0 and self.alpha > 1:
                self.a = 0.0
                self.b = 0.0

    def max_index(self) -> int | None:
        """Exact maximum nonempty index via ceil(b/a). Requires alpha == 1."""
        if self.alpha != 1:
            raise QueueStateError("exact lookup requires alpha == 1")
        if self.occupied == 0:
            return None
        return -(-self.b // self.a)

    def recompute(self):
        """(a, b) summed from scratch over the occupancy mask. Test oracle."""
        a = 0 if self.alpha == 1 else 0.0
        b = 0 if self.alpha == 1 else 0.0
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
    """Valid index window [i0, imax] of an approximate gradient queue."""

    alpha: int
    i0: int
    imax: int
    shift: float  # u(alpha), negative

    @property
    def capacity(self) -> int:
        return self.imax - self.i0

    @classmethod
    def calibrate(cls, alpha: int = DEFAULT_ALPHA,
                  g_threshold: float = DEFAULT_G_THRESHOLD,
                  imax: int | None = None) -> "ApproxRange":
        if alpha < 2:
            raise ValueError("approximate ranges need alpha >= 2")
        i0 = 0
        while decay_g(alpha, i0) > g_threshold:
            i0 += 1
        if imax is None:
            imax = _CALIBRATED_IMAX.get(alpha, i0 + 32 * alpha)
        if 2.0 ** (imax / alpha) >= 2.0 ** 53:
            raise ValueError("imax weight exceeds double mantissa budget")
        return cls(alpha=alpha, i0=i0, imax=imax, shift=shift_u(alpha))


class ApproxGradientQueue:
    """Approximate max-queue over bucket indices [i0, imax].

    pop_max estimates the maximum nonempty index from the curvature state in
    one step, then linearly searches downward (and upward on a total miss)
    from the estimate. Search lengths are counted for instrumentation, and
    with record_errors set each pop appends its signed index error to
    `errors` (off by default: the list grows by one per pop). The search
    itself never consults the oracle mask.
    """

    def __init__(self, rng: ApproxRange | None = None, alpha: int = DEFAULT_ALPHA,
                 rounding: str = "nearest"):
        self.range = rng if rng is not None else ApproxRange.calibrate(alpha)
        if rounding not in ("nearest", "ceil"):
            raise ValueError("rounding must be 'nearest' or 'ceil'")
        self.rounding = rounding
        self.state = CurvatureState(self.range.alpha, max_index=self.range.imax)
        n = self.range.imax - self.range.i0 + 1
        self._heads: list[BucketNode | None] = [None] * n
        self._tails: list[BucketNode | None] = [None] * n
        self._len = 0
        # instrumentation
        self.estimate_hits = 0
        self.pops = 0
        self.search_steps = 0
        self.errors: list[int] = []
        self.record_errors = False

    def __len__(self) -> int:
        return self._len

    def _slot(self, index: int) -> int:
        if not self.range.i0 <= index <= self.range.imax:
            raise RankRangeError(
                f"index {index} outside [{self.range.i0}, {self.range.imax}]")
        return index - self.range.i0

    def insert(self, index: int, item) -> BucketNode:
        slot = self._slot(index)
        node = BucketNode(item, index)
        tail = self._tails[slot]
        if tail is None:
            self._heads[slot] = node
            self.state.mark(index, True)
        else:
            tail.next = node
            node.prev = tail
        self._tails[slot] = node
        self._len += 1
        return node

    def estimate_index(self) -> int | None:
        """One-shot hint for the maximum nonempty index; not a guarantee."""
        if self._len == 0:
            return None
        raw = self.state.b / self.state.a - self.range.shift
        est = math.ceil(raw) if self.rounding == "ceil" else round(raw)
        return min(max(est, self.range.i0), self.range.imax)

    def true_max_index(self) -> int | None:
        """Actual maximum nonempty index, from the occupancy mask. Oracle."""
        if self.state.occupied == 0:
            return None
        return self.state.occupied.bit_length() - 1

    def _find_max(self):
        if self._len == 0:
            return None
        state = self.state
        rng = self.range
        raw = state.b / state.a - rng.shift
        est = math.ceil(raw) if self.rounding == "ceil" else round(raw)
        slot = min(max(est, rng.i0), rng.imax) - rng.i0
        heads = self._heads
        if heads[slot] is not None:
            self.estimate_hits += 1
            return slot
        steps = 0
        for s in range(slot - 1, -1, -1):
            steps += 1
            if heads[s] is not None:
                self.search_steps += steps
                return s
        for s in range(slot + 1, len(heads)):
            steps += 1
            if heads[s] is not None:
                self.search_steps += steps
                return s
        raise QueueStateError("curvature state claims items but buckets are empty")

    def pop_max(self):
        """Remove and return (index, item) from the first nonempty bucket the
        estimate-plus-search procedure finds."""
        slot = self._find_max()
        if slot is None:
            return None
        index = slot + self.range.i0
        self.pops += 1
        if self.record_errors:
            self.errors.append(index - self.true_max_index())
        node = self._heads[slot]
        nxt = node.next
        self._heads[slot] = nxt
        if nxt is None:
            self._tails[slot] = None
            # inline of state.mark(index, False) for the known-nonempty case
            state = self.state
            state.occupied &= ~(1 << index)
            w = state._w[index]
            state.a -= w
            state.b -= index * w
            if state.occupied == 0:
                state.a = 0.0
                state.b = 0.0
        else:
            nxt.prev = None
            node.next = None
        node.in_queue = False
        self._len -= 1
        return index, node.item

    def remove(self, handle: BucketNode):
        """Detach a previously inserted item by its insert handle."""
        if not isinstance(handle, BucketNode) or not handle.in_queue:
            raise QueueStateError("handle is stale or foreign")
        slot = handle.rank - self.range.i0
        if handle.prev is None:
            self._heads[slot] = handle.next
        else:
            handle.prev.next = handle.next
        if handle.next is None:
            self._tails[slot] = handle.prev
        else:
            handle.next.prev = handle.prev
        if self._heads[slot] is None:
            self.state.mark(handle.rank, False)
        handle.prev = handle.next = None
        handle.in_queue = False
        self._len -= 1
        return handle.item

    def peek_max(self):
        slot = self._find_max()
        if slot is None:
            return None
        return slot + self.range.i0, self._heads[slot].item


class ApproxMinQueue:
    """Min-orientation mirror of the approximate queue.

    Priorities p in [p_base, p_base + capacity] map bijectively onto internal
    indices imax - (p - p_base), so min-priority pops become max-index pops.
    Exposes the FfsQueue surface so it can back a circular window.
    """

    def __init__(self, num_buckets: int | None = None, p_base: int = 0,
                 rng: ApproxRange | None = None, alpha: int = DEFAULT_ALPHA):
        self.inner = ApproxGradientQueue(rng=rng, alpha=alpha)
        cap = self.inner.range.capacity
        if num_buckets is None:
            num_buckets = cap + 1
        if num_buckets > cap + 1:
            raise ValueError(f"window of {num_buckets} exceeds capacity {cap + 1}")
        self.num_buckets = num_buckets
        self.p_base = p_base

    def __len__(self) -> int:
        return len(self.inner)

    def _index(self, p: int) -> int:
        if not self.p_base <= p < self.p_base + self.num_buckets:
            raise RankRangeError(f"priority {p} outside configured window")
        return self.inner.range.imax - (p - self.p_base)

    def _priority(self, index: int) -> int:
        return self.p_base + (self.inner.range.imax - index)

    def insert(self, p: int, item) -> BucketNode:
        return self.inner.insert(self._index(p), item)

    def remove(self, handle: BucketNode):
        return self.inner.remove(handle)

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

    def __init__(self, q_size: int | None = None, alpha: int = DEFAULT_ALPHA):
        self.alpha = alpha
        rng = ApproxRange.calibrate(alpha)
        if q_size is None:
            q_size = rng.capacity + 1
        self._range = rng
        super().__init__(q_size)

    def _make_inner(self) -> ApproxMinQueue:
        return ApproxMinQueue(num_buckets=self.q_size, rng=self._range)
