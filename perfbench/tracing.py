"""Per-layer spans recorded from outside the program.

A traced run shadows the public methods of each component instance with a
wrapper that times the call. Because the scheduler calls its parts through
instance attributes (``node.queue.insert``, ``self.shaper.release``), the
wrappers see every call the layers make to each other without any change to
the program. A span's self time is its duration minus the time covered by
the spans it caused.
"""

from __future__ import annotations

from time import perf_counter_ns


class Tracer:
    def __init__(self):
        # name -> [calls, total_ns, self_ns]
        self.spans: dict[str, list[int]] = {}
        self._child_ns = [0]  # one accumulator per open span, plus the root

    def wrap(self, obj, method: str, name: str) -> None:
        """Route obj.method through a timing wrapper recorded as `name`."""
        fn = getattr(obj, method)
        rec = self.spans.setdefault(name, [0, 0, 0])
        child_ns = self._child_ns
        clock = perf_counter_ns

        def traced(*args):
            child_ns.append(0)
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child_ns.pop()
            child_ns[-1] += dt
            return result

        setattr(obj, method, traced)

    def wrap_all(self, obj, layer: str, methods) -> None:
        for m in methods:
            self.wrap(obj, m, f"{layer}.{m}")

    def calls(self, name: str) -> int:
        rec = self.spans.get(name)
        return rec[0] if rec else 0

    def total_ns(self, name: str) -> int:
        rec = self.spans.get(name)
        return rec[1] if rec else 0

    def self_ns(self, name: str) -> int:
        rec = self.spans.get(name)
        return rec[2] if rec else 0

    def mean_self_ns(self, name: str) -> float:
        """Mean self time per call; 0.0 when the method was never called."""
        n = self.calls(name)
        return self.self_ns(name) / n if n else 0.0


FFS_METHODS = ("insert", "remove", "pop_min", "peek_min", "min_rank")
CIRCULAR_METHODS = ("insert", "pop_min", "peek_min", "min_rank")
GRADIENT_METHODS = ("insert", "pop_min", "peek_min", "min_rank")


def wrap_cffs(tracer: Tracer, queue) -> None:
    """A circular queue and both of its FFS windows."""
    tracer.wrap_all(queue, "circular_pq", CIRCULAR_METHODS)
    tracer.wrap_all(queue.primary, "bitmap_pq", FFS_METHODS)
    tracer.wrap_all(queue.secondary, "bitmap_pq", FFS_METHODS)


def wrap_tree(tracer: Tracer, tree) -> None:
    """A scheduler tree: its entry points, policy hooks, every node's FFS
    queue, and the shaper with its circular queue."""
    tracer.wrap_all(tree, "core.tree", ("enqueue", "dequeue", "shaper_release"))
    tracer.wrap_all(tree.policy, "policies", ("on_enqueue", "on_dequeue", "key"))
    for node in tree.nodes.values():
        tracer.wrap_all(node.queue, "bitmap_pq", FFS_METHODS)
    tracer.wrap_all(tree.shaper, "core.shaper", ("insert", "release"))
    wrap_cffs(tracer, tree.shaper._queue)


def wrap_hclock(tracer: Tracer, sched) -> None:
    tracer.wrap_all(sched, "policies.hclock",
                    ("enqueue", "dequeue", "next_eligible_time"))
    wrap_cffs(tracer, sched._r_queue)
    wrap_cffs(tracer, sched._s_queue)


def wrap_circular_approx(tracer: Tracer, queue) -> None:
    """A circular approximate queue and its two gradient-queue windows."""
    tracer.wrap_all(queue, "circular_pq", CIRCULAR_METHODS)
    tracer.wrap_all(queue.primary, "gradient_pq", GRADIENT_METHODS)
    tracer.wrap_all(queue.secondary, "gradient_pq", GRADIENT_METHODS)
