"""Baseline queue tests: BH bucketed queue and comparison heap."""

import random

import pytest

from pktsched.baselines import BhQueue, HeapQueue
from pktsched.bitmap_pq import FfsQueue
from pktsched.errors import RankRangeError


def test_bh_matches_bitmap_queue_pop_for_pop():
    rng = random.Random(2024)
    n = 512
    bh = BhQueue(n)
    ffs = FfsQueue(n)
    for step in range(40_000):
        if len(bh) and rng.random() < 0.45:
            assert bh.pop_min() == ffs.pop_min()
        else:
            rank = rng.randrange(n)
            bh.insert(rank, step)
            ffs.insert(rank, step)
    while len(bh):
        assert bh.pop_min() == ffs.pop_min()
    assert ffs.pop_min() is None


def test_bh_rank_range_and_empty():
    q = BhQueue(8)
    assert q.pop_min() is None
    assert q.min_rank() is None
    with pytest.raises(RankRangeError):
        q.insert(8, "x")


def test_heap_fifo_ties():
    q = HeapQueue()
    q.insert(3, "a")
    q.insert(3, "b")
    q.insert(1, "c")
    q.insert(3, "d")
    assert q.pop_min() == (1, "c")
    assert [q.pop_min()[1] for _ in range(3)] == ["a", "b", "d"]
    assert q.pop_min() is None


def test_heap_matches_bh_on_random_ops():
    rng = random.Random(5)
    heap = HeapQueue()
    bh = BhQueue(256)
    for step in range(20_000):
        if len(heap) and rng.random() < 0.45:
            assert heap.pop_min() == bh.pop_min()
        else:
            rank = rng.randrange(256)
            heap.insert(rank, step)
            bh.insert(rank, step)
    while len(heap):
        assert heap.pop_min() == bh.pop_min()

