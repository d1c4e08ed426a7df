"""Exact and approximate gradient queue tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktsched.errors import QueueStateError, RankRangeError
from pktsched.gradient_pq import (ApproxGradientQueue, ApproxMinQueue,
                                  ApproxRange, CircularApproxQueue,
                                  CurvatureState, decay_g, shift_u)


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
            i = rng.randrange(spec.i0, spec.imax + 1)
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
    the sums at full occupancy are exact."""
    for alpha in range(2, 65):
        spec = ApproxRange.calibrate(alpha)
        w = CurvatureState(alpha, spec.imax, spec.i0)._w
        assert all(w[i - 1] < w[i] for i in range(spec.i0 + 1, spec.imax + 1))
        assert all(w[i] == int(w[i]) >= 1 for i in range(spec.imax + 1))
        if type(w[0]) is float:
            assert sum(i * w[i] for i in range(spec.imax + 1)) < 2 ** 53
        assert (type(w[0]) is float) == (alpha < 27)
    w = CurvatureState(16, 647, 124)._w
    assert (w[124], w[647]) == (54.0, round(2 ** (647 / 16 - 2)))


def test_calibration_rejects_mantissa_overflow():
    with pytest.raises(ValueError):
        ApproxRange.calibrate(16, imax=16 * 54)
    with pytest.raises(ValueError):
        ApproxRange.calibrate(1)


def test_all_full_pops_exactly():
    q = ApproxGradientQueue()
    q.record_errors = True
    spec = q.range
    for i in range(spec.i0, spec.imax + 1):
        q.insert(i, i)
    expect = spec.imax
    while len(q):
        index, item = q.pop_max()
        assert index == item == expect
        expect -= 1
    assert q.errors == [0] * (spec.capacity + 1)


def test_even_alpha_spacing_zero_error():
    q = ApproxGradientQueue()
    q.record_errors = True
    spec = q.range
    idxs = list(range(spec.i0, spec.imax + 1, spec.alpha))
    for i in idxs:
        q.insert(i, i)
    for want in reversed(idxs):
        index, _ = q.pop_max()
        assert index == want
    assert all(e == 0 for e in q.errors)


def test_half_full_plus_outlier_negative_error():
    # a dense bottom half pulls the estimate below a lone high outlier when
    # the pattern is narrow enough for the dense mass to dominate its weight
    q = ApproxGradientQueue()
    q.record_errors = True
    spec = q.range
    span = 16 * spec.alpha
    for i in range(spec.i0, spec.i0 + span // 2 + 1):
        q.insert(i, i)
    outlier = spec.i0 + (3 * span) // 4
    q.insert(outlier, outlier)
    est = q.estimate_index()
    assert est < outlier  # the estimate misses the outlier entirely
    q.pop_max()
    assert q.errors[0] < 0


def test_single_item_at_top_found_exactly():
    q = ApproxGradientQueue()
    q.record_errors = True
    q.insert(q.range.imax, "top")
    assert q.pop_max() == (q.range.imax, "top")
    assert q.errors == [0]
    assert len(q) == 0
    assert q.pop_max() is None


def test_estimate_clamped_to_range():
    q = ApproxGradientQueue()
    q.insert(q.range.i0, "lo")
    est = q.estimate_index()
    assert q.range.i0 <= est <= q.range.imax


def test_index_range_enforced():
    q = ApproxGradientQueue()
    with pytest.raises(RankRangeError):
        q.insert(q.range.i0 - 1, "x")
    with pytest.raises(RankRangeError):
        q.insert(q.range.imax + 1, "x")


def test_contiguous_block_pops_its_top():
    q = ApproxGradientQueue()
    for i in range(q.range.i0, q.range.i0 + 50):
        q.insert(i, i)
    index, _ = q.pop_max()
    assert index == q.range.i0 + 49


def test_handle_removal():
    q = ApproxGradientQueue()
    h = q.insert(300, "a")
    q.insert(300, "b")
    q.insert(200, "c")
    assert q.remove(h) == "a"
    assert q.pop_max() == (300, "b")
    assert q.pop_max() == (200, "c")
    with pytest.raises(QueueStateError):
        q.remove(h)


def test_instrumentation_counters():
    q = ApproxGradientQueue()
    q.record_errors = True
    for i in range(q.range.i0, q.range.i0 + 20, 2):
        q.insert(i, i)
    while len(q):
        q.pop_max()
    assert q.pops == 10
    assert q.estimate_hits + sum(1 for _ in q.errors) >= 10
    assert len(q.errors) == 10


def test_min_mirror_round_trip():
    spec = ApproxRange.calibrate()
    q = ApproxMinQueue()
    assert q._index(0) == spec.imax  # lowest priority -> top internal index
    assert q._index(523) == spec.i0
    q.insert(5, "five")
    q.insert(0, "zero")
    q.insert(523, "last")
    assert q.min_rank() == 0
    assert q.pop_min() == (0, "zero")
    assert q.pop_min() == (5, "five")
    assert q.peek_min() == (523, "last")
    with pytest.raises(RankRangeError):
        q.insert(524, "beyond")


def test_min_mirror_window_cap():
    with pytest.raises(ValueError):
        ApproxMinQueue(num_buckets=525)


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


def test_errors_recorded_only_on_request():
    q = ApproxGradientQueue()
    for i in range(q.range.i0, q.range.i0 + 20, 2):
        q.insert(i, i)
    while len(q):
        q.pop_max()
    assert q.pops == 10 and q.errors == []
