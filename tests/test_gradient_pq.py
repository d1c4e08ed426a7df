"""Exact and approximate gradient queue tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktsched.baselines import BhQueue
from pktsched.bench import pop_error
from pktsched.bitmap_pq import FfsQueue
from pktsched.circular_pq import CffsQueue
from pktsched.errors import QueueStateError, RankRangeError
from pktsched.gradient_pq import (ApproxGradientQueue, ApproxRange,
                                  CircularApproxQueue, CurvatureState,
                                  decay_g, shift_u)


def oracle_max_index(mask: int):
    return mask.bit_length() - 1 if mask else None


def test_exact_accumulators_small():
    s = CurvatureState(alpha=1)
    s.mark(0, True)
    s.mark(1, True)
    s.mark(2, True)
    assert (s.a, s.b) == (7, 10)  # 1+2+4, 0+2+8
    assert s.max_index() == 2
    s.mark(1, False)
    assert (s.a, s.b) == (5, 8)
    assert s.max_index() == 2


def test_double_mark_guard():
    s = CurvatureState(alpha=1)
    s.mark(3, True)
    with pytest.raises(QueueStateError):
        s.mark(3, True)
    s.mark(3, False)
    with pytest.raises(QueueStateError):
        s.mark(3, False)


def test_exact_max_small_patterns():
    for mask in range(1, 1 << 10):
        s = CurvatureState(alpha=1)
        for i in range(10):
            if mask >> i & 1:
                s.mark(i, True)
        assert s.max_index() == oracle_max_index(mask)
        assert (s.a, s.b) == s.recompute()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, (1 << 20) - 1), st.integers(0, 19))
def test_exact_max_survives_bit_flips(mask, flip):
    s = CurvatureState(alpha=1)
    for i in range(20):
        if mask >> i & 1:
            s.mark(i, True)
    s.mark(flip, not (mask >> flip & 1))
    mask ^= 1 << flip
    if mask:
        assert s.max_index() == oracle_max_index(mask)


def test_approx_accumulator_drift_bounded():
    rng = random.Random(42)
    spec = ApproxRange.calibrate()
    s = CurvatureState(alpha=16, max_index=spec.imax, min_index=spec.i0)
    live = set()
    for _ in range(200_000):
        if live and rng.random() < 0.5:
            i = rng.choice(sorted(live))
            s.mark(i, False)
            live.discard(i)
        else:
            i = rng.randrange(spec.capacity + 1)
            if i not in live:
                s.mark(i, True)
                live.add(i)
    a, b = s.recompute()
    assert abs(s.a - a) <= 1e-6 * max(a, 1.0)
    assert abs(s.b - b) <= 1e-6 * max(b, 1.0)


def test_calibration_reference_values():
    spec = ApproxRange.calibrate(16)
    assert spec.i0 == 124
    assert spec.imax == 647
    assert spec.capacity == 523
    assert int(abs(spec.shift)) == 22
    assert shift_u(16) == pytest.approx(-22.5867, abs=1e-4)
    # i0 is the first index whose decay term clears the threshold
    assert decay_g(16, 124) <= 4.5e-3 < decay_g(16, 123)


def test_fixed_point_weights_strictly_increase():
    """Rounding never gives two neighbouring valid indices one weight, at
    every alpha from 2 to 64; the default alpha keeps double weights, and
    the sums at full occupancy are exact. The table is min-ordered, so w
    below is it reversed: w[i] is the weight of priority imax - i."""
    for alpha in range(2, 65):
        spec = ApproxRange.calibrate(alpha)
        w = CurvatureState(alpha, spec.imax, spec.i0)._w[::-1]
        assert all(w[i - 1] < w[i] for i in range(spec.i0 + 1, spec.imax + 1))
        assert all(w[i] == int(w[i]) >= 1 for i in range(spec.imax + 1))
        if type(w[0]) is float:
            assert sum(i * w[i] for i in range(spec.imax + 1)) < 2 ** 53
        assert (type(w[0]) is float) == (alpha < 27)
    w = CurvatureState(16, 647, 124)._w[::-1]
    assert (w[124], w[647]) == (54.0, round(2 ** (647 / 16 - 2)))


@pytest.mark.parametrize("name,value", [
    ("alpha", 2.5), ("alpha", 16.0), ("alpha", True), ("alpha", "16"),
    ("alpha", 1),
])
def test_calibration_rejects_non_integer_alpha_and_imax(name, value):
    """A non-integer alpha, or one below 2, raises ValueError, not a
    TypeError from a queue built on the range later. alpha is the only
    parameter calibrate takes; imax follows from it."""
    with pytest.raises(ValueError):
        ApproxRange.calibrate(**{name: value})


def test_all_full_pops_exactly():
    q = ApproxGradientQueue()
    spec = q.range
    for p in range(spec.capacity + 1):
        q.insert(p, p)
    expect = 0
    errors = []
    while len(q):
        error, p, item = pop_error(q)
        errors.append(error)
        assert p == item == expect
        expect += 1
    assert errors == [0] * (spec.capacity + 1)


def test_even_alpha_spacing_zero_error():
    q = ApproxGradientQueue()
    spec = q.range
    ps = list(range(spec.capacity, -1, -spec.alpha))
    for p in ps:
        q.insert(p, p)
    errors = []
    for want in reversed(ps):
        error, p, _ = pop_error(q)
        errors.append(error)
        assert p == want
    assert all(e == 0 for e in errors)


def test_half_full_plus_outlier_negative_error():
    # a dense top half pulls the estimate above a lone low outlier when the
    # pattern is narrow enough for the dense mass to dominate its weight
    q = ApproxGradientQueue()
    spec = q.range
    top = spec.capacity
    span = 16 * spec.alpha
    for p in range(top - span // 2, top + 1):
        q.insert(p, p)
    outlier = top - (3 * span) // 4
    q.insert(outlier, outlier)
    est = q.estimate_index()
    assert est > outlier  # the estimate misses the outlier entirely
    error, _, _ = pop_error(q)
    assert error < 0


@pytest.mark.parametrize("alpha,worst", [(4, -16), (8, -44), (16, -108),
                                         (32, -256)])
def test_adversarial_family_worst_error(alpha, worst):
    """Priority 0 plus every priority from k to capacity, for every k: a
    pop's error is never positive, and its worst is exactly `worst`."""
    spec = ApproxRange.calibrate(alpha)
    errors = []
    for k in range(1, spec.capacity + 1):
        q = ApproxGradientQueue(spec)
        q.insert(0, 0)
        for p in range(k, spec.capacity + 1):
            q.insert(p, p)
        errors.append(pop_error(q)[0])
    assert max(errors) <= 0
    assert min(errors) == worst


def test_single_item_at_top_found_exactly():
    q = ApproxGradientQueue()
    q.insert(0, "top")
    error, p, item = pop_error(q)
    assert (p, item) == (0, "top")
    assert error == 0
    assert len(q) == 0
    assert q.pop_min() is None


def test_estimate_clamped_to_range():
    q = ApproxGradientQueue()
    q.insert(q.range.capacity, "lo")
    est = q.estimate_index()
    assert 0 <= est <= q.range.capacity


def test_index_range_enforced():
    q = ApproxGradientQueue()
    with pytest.raises(RankRangeError):
        q.insert(-1, "x")
    with pytest.raises(RankRangeError):
        q.insert(q.range.capacity + 1, "x")


def test_contiguous_block_pops_its_top():
    q = ApproxGradientQueue()
    top = q.range.capacity
    for p in range(top, top - 50, -1):
        q.insert(p, p)
    p, _ = q.pop_min()
    assert p == top - 49


def test_handle_removal():
    q = ApproxGradientQueue()
    h = q.insert(347, "a")
    q.insert(347, "b")
    q.insert(447, "c")
    assert q.remove(h) == "a"
    assert q.pop_min() == (347, "b")
    assert q.pop_min() == (447, "c")
    with pytest.raises(QueueStateError):
        q.remove(h)


def test_instrumentation_counters():
    q = ApproxGradientQueue()
    top = q.range.capacity
    for p in range(top, top - 20, -2):
        q.insert(p, p)
    errors = []
    while len(q):
        errors.append(pop_error(q)[0])
    assert q.pops == 10
    assert q.estimate_hits + sum(1 for _ in errors) >= 10
    assert len(errors) == 10


def test_window_round_trip():
    """A window of the default num_buckets, capacity + 1 = 524 priorities,
    and one of 8; priority p weighs what index imax - p weighs."""
    spec = ApproxRange.calibrate()
    q = ApproxGradientQueue()
    assert q.num_buckets == 524
    assert [q.state.weight(p) for p in (0, 523)] == [
        round(2 ** (647 / 16 - 2)), 54.0]
    q.insert(5, "five")
    q.insert(0, "zero")
    q.insert(523, "last")
    assert q.min_rank() == 0
    assert q.pop_min() == (0, "zero")
    assert q.pop_min() == (5, "five")
    assert q.peek_min() == (523, "last")
    with pytest.raises(RankRangeError):
        q.insert(524, "beyond")
    w = ApproxGradientQueue(spec, 8)
    w.insert(7, "seven")
    w.insert(3, "three")
    assert w.pop_min() == (3, "three")
    assert w.pop_min() == (7, "seven")
    with pytest.raises(RankRangeError):
        w.insert(8, "beyond")


@pytest.mark.parametrize("num_buckets", [525, 0, -3, -1, 2.5, 8.0, True, "8"])
def test_window_size_validated(num_buckets):
    """num_buckets must be an int, not a bool, in [1, capacity + 1]: a
    window that would reject every priority, or accept a fractional one,
    is refused when built. The other bucketed queues refuse every size
    here the same way, with a ValueError that names their size parameter,
    except that 525 (above a gradient window's capacity + 1) is a valid
    size for all but CircularApproxQueue."""
    with pytest.raises(ValueError):
        ApproxGradientQueue(num_buckets=num_buckets)
    assert ApproxGradientQueue(num_buckets=1).num_buckets == 1
    makers = ((FfsQueue, "num_buckets"), (BhQueue, "num_buckets"),
              (CffsQueue, "q_size"), (CircularApproxQueue, "q_size"))
    if num_buckets == 525:
        makers = makers[3:]
    for make, name in makers:
        with pytest.raises(ValueError, match=name):
            make(num_buckets)


def test_circular_approx_windowed_ops():
    q = CircularApproxQueue(q_size=256)
    q.insert(10, "a")
    q.insert(300, "b")   # buffer window
    q.insert(4000, "c")  # overflow
    assert q.pop_min() == (10, "a")
    assert q.pop_min() == (300, "b")
    assert q.pop_min() == (4000, "c")
    assert q.h_index == 3840  # snapped into 4000's window


def test_circular_approx_random_multiset_complete():
    """The inner queue is approximate, so pops may come out slightly out of
    order — but every inserted rank must come out exactly once."""
    rng = random.Random(9)
    q = CircularApproxQueue(q_size=128)
    pending = []
    for _ in range(4000):
        if pending and rng.random() < 0.5:
            rank, item = q.pop_min()
            assert rank == item
            pending.remove(rank)
        else:
            rank = q.h_index + rng.randrange(300)
            q.insert(rank, rank)
            pending.append(rank)
    while pending:
        rank, _ = q.pop_min()
        pending.remove(rank)  # raises if the rank was never inserted
    assert q.pop_min() is None

