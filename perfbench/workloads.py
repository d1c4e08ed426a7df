"""The benchmark's four workloads, replayed in virtual time.

Each workload is generated from a seed, set up through the scheduler's
public constructors, replayed by a closed loop that times every scheduler
call a transmitted packet needs, and checked afterwards against a reference
model. The timed loops only append to lists; everything else happens before
the clock starts or after it stops.

Every workload uses the constructors' default settings (bucket counts,
shaper horizon, alpha, ``record_errors``), because an embedding datapath
pays for the defaults.
"""

from __future__ import annotations

import random
from time import perf_counter, perf_counter_ns

from reference import (MultisetMin, PfabricReference, backlogged_time,
                       rate_violations)
from tracing import Tracer, wrap_circular_approx, wrap_hclock, wrap_tree

MTU = 1500
LINK_BPS = 1.25e9  # bytes/s of the virtual wire (10 Gb/s)


def tx_ns(size: int) -> int:
    return round(size * 1e9 / LINK_BPS)


class Check:
    """Outcome of the reference checks for one episode.

    `errors` counts dequeued packets the reference marks wrong. `failures`
    counts the subset that no known, documented defect explains, plus
    broken invariants (per-flow FIFO order, conservation, rate limits).
    """

    def __init__(self):
        self.errors = 0
        self.failures = 0
        self.notes: list[str] = []
        self.props: dict[str, float] = {}

    def fail(self, n: int, what: str) -> None:
        if n:
            self.failures += n
            self.notes.append(f"{what}: {n}")


def check_flow_fifo(served, chk: Check) -> None:
    """Packets of one flow leave in the order they were created."""
    last: dict[str, int] = {}
    bad = 0
    for p in served:
        if p.id < last.get(p.flow_id, -1):
            bad += 1
        last[p.flow_id] = p.id
    chk.fail(bad, "per-flow FIFO order broken")


def tree_counters(tree, ffs_queues, cffs_queues) -> dict:
    s = tree.stats
    return {
        "enqueued": s.enqueued, "dequeued": s.dequeued, "deferred": s.deferred,
        "released": s.released,
        "probes": sum(q.probe_count for q in ffs_queues),
        "rotations": sum(q.rotations for q in cffs_queues),
    }


def cffs_windows(queues) -> list:
    return [w for q in queues for w in (q.primary, q.secondary)]


class Workload:
    """Interface of one workload; `packets` is the replay length, timed in
    `LAPS` laps of equal packet counts."""

    name = ""
    packets = 0
    LAPS = 8

    @property
    def lap(self) -> int:
        return self.packets // self.LAPS

    def prepare(self):
        """Fresh mutable inputs for one episode (untimed)."""
        return None

    def setup(self, inputs):
        """Build the scheduler and do the initial fill; returns (state,
        seconds spent in config.build_tree or 0.0)."""
        raise NotImplementedError

    def replay(self, state, inputs, samples: list, lap_end):
        """Timed closed loop; appends per-packet ns to `samples` and calls
        `lap_end()` at the start and after every lap; returns the log the
        checks read."""
        raise NotImplementedError

    def check(self, state, inputs, log) -> Check:
        raise NotImplementedError

    def instrument(self, tracer: Tracer, state) -> None:
        raise NotImplementedError

    def counters(self, state) -> dict:
        return {}


# -- pfabric_4k ---------------------------------------------------------------

class PfabricWorkload(Workload):
    """Root -> leaf pFabric tree, 4096 backlogged flows kept at flow_cap=8.

    A packet's rank is its flow's remaining-packet count. Flow sizes are
    Pareto(1.1) x 20 packets; when a flow finishes, the next size in the
    seeded stream starts a new flow on the same id. Only the flow just
    served is refilled.
    """

    name = "pfabric_4k"
    FLOWS = 4096
    CAP = 8
    BUCKETS = 1024  # the config default, stated so the checks can use it
    SIZES = (64, 576, 1500)
    packets = 40_000

    def __init__(self, pk, seed: int):
        self.pk = pk
        rng = random.Random(seed)
        self.flow_ids = [f"f{i}" for i in range(self.FLOWS)]
        self.first_sizes = [self._flow_size(rng) for _ in self.flow_ids]
        self.fill = self.FLOWS * self.CAP
        # a size is drawn only when a flow finishes; each size is >= 20
        self.next_sizes = [self._flow_size(rng)
                           for _ in range(self.FLOWS + self.packets // 20 + 1)]
        self.pkt_sizes = [rng.choice(self.SIZES)
                          for _ in range(self.fill + self.packets)]
        self.config = pk.single_level_config("pfabric", self.flow_ids,
                                             flow_cap=self.CAP)

    @staticmethod
    def _flow_size(rng: random.Random) -> int:
        return int(20 * rng.paretovariate(1.1))

    def prepare(self):
        Packet = self.pk.Packet
        packets = [Packet(i, "", s) for i, s in enumerate(self.pkt_sizes)]
        remaining = {}
        k = 0
        for fid, size in zip(self.flow_ids, self.first_sizes):
            for _ in range(self.CAP):
                p = packets[k]
                k += 1
                p.flow_id, p.rank = fid, size
                size -= 1  # sizes are >= 20 > CAP, so no flow ends here
            remaining[fid] = size
        return packets, remaining

    def setup(self, inputs):
        packets = inputs[0]
        t0 = perf_counter()
        tree = self.pk.build_tree(self.config)
        build_s = perf_counter() - t0
        enq = tree.enqueue
        for p in packets[:self.fill]:
            enq(p, 0)
        return tree, build_s

    def replay(self, tree, inputs, samples, lap_end):
        packets, remaining = inputs
        redraw = iter(self.next_sizes)
        enq, rel, deq = tree.enqueue, tree.shaper_release, tree.dequeue
        clock = perf_counter_ns
        sample = samples.append
        served = []
        log = served.append
        k = self.fill
        pkt = None
        lap = self.lap
        lap_end()
        for i in range(1, self.packets + 1):
            # nothing is shaped here, but a datapath still polls the shaper
            if pkt is None:
                t0 = clock()
                rel(0)
                p = deq(0)
            else:
                t0 = clock()
                enq(pkt, 0)
                rel(0)
                p = deq(0)
            sample(clock() - t0)
            log(p)
            fid = p.flow_id
            r = remaining[fid]
            remaining[fid] = r - 1 if r > 1 else next(redraw)
            pkt = packets[k]
            k += 1
            pkt.flow_id, pkt.rank = fid, r
            if i % lap == 0:
                lap_end()
        return served

    def check(self, tree, inputs, served) -> Check:
        packets = inputs[0]
        chk = Check()
        ref = PfabricReference()
        for p in packets[:self.fill]:
            ref.enqueue(p.flow_id, p.id, p.rank)
        clamp = self.BUCKETS - 1
        clamped = active = 0
        for i, p in enumerate(served):
            want = ref.peek()
            if ref.frank[want] >= clamp:
                clamped += 1
            if want != p.flow_id:
                chk.errors += 1
                if ref.frank[want] < clamp:
                    # unclamped ranks map to distinct exact buckets, so the
                    # rank clamp cannot explain this pick
                    chk.fail(1, "pFabric misorder below the rank clamp")
            if not ref.fifos.get(p.flow_id) or ref.dequeue(p.flow_id) != p.id:
                chk.fail(1, "served packet is not its flow's head")
                return chk
            if i % 1000 == 0:
                active += sum(1 for q in ref.fifos.values() if q)
            if i + 1 < len(served):
                nxt = packets[self.fill + i]
                ref.enqueue(nxt.flow_id, nxt.id, nxt.rank)
        n = len(served)
        s = tree.stats
        chk.fail(int(s.enqueued != s.dequeued + tree.pending()), "conservation")
        chk.fail(int(s.enqueued != self.fill + n - 1), "enqueue count")
        used = packets[:self.fill + n - 1]
        chk.props = {
            "mean_backlogged_flows": active / ((n + 999) // 1000),
            "shaper_stages_per_pkt": 0.0,
            "rank_ge_buckets_frac":
                sum(1 for p in used if p.rank >= self.BUCKETS) / len(used),
            "clamped_min_frac": clamped / n,
        }
        return chk

    def instrument(self, tracer, tree):
        wrap_tree(tracer, tree)

    def counters(self, tree):
        return tree_counters(tree, [n.queue for n in tree.nodes.values()], [])


# -- shaped_fifo --------------------------------------------------------------

class ShapedFifoWorkload(Workload):
    """Three-level FIFO tree: a paced root over 16 rate-limited tenants over
    256 leaves of 4 flows each; every odd leaf is rate limited. 1024
    backlogged flows of MTU packets, kept at flow_cap=8."""

    name = "shaped_fifo"
    TENANTS = 16
    LEAVES = 256
    FLOWS_PER_LEAF = 4
    CAP = 8
    ROOT_BPS = 1.0e9  # pacing below the 1.25e9 B/s wire
    TENANT_BPS = 100e6  # 16 tenants oversubscribe the root 1.6x
    LEAF_BPS = 5e6
    BUCKETS = 1024  # config default for every node
    packets = 20_000

    def __init__(self, pk, seed: int):
        self.pk = pk
        rng = random.Random(seed)
        nodes = [{"id": "root", "parent": None, "limit": self.ROOT_BPS}]
        nodes += [{"id": f"t{i}", "parent": "root", "limit": self.TENANT_BPS}
                  for i in range(self.TENANTS)]
        self.rate = {"root": self.ROOT_BPS}
        self.rate.update({f"t{i}": self.TENANT_BPS for i in range(self.TENANTS)})
        self.chains = {}  # leaf -> rate-limited nodes its packets climb
        per_tenant = self.LEAVES // self.TENANTS
        for j in range(self.LEAVES):
            leaf, tenant = f"l{j}", f"t{j // per_tenant}"
            limited = j % 2 == 1
            nodes.append({"id": leaf, "parent": tenant,
                          "limit": self.LEAF_BPS if limited else None})
            if limited:
                self.rate[leaf] = self.LEAF_BPS
            self.chains[leaf] = ((leaf,) if limited else ()) + (tenant, "root")
        self.flow_leaf = {f"f{m}": f"l{m // self.FLOWS_PER_LEAF}"
                          for m in range(self.LEAVES * self.FLOWS_PER_LEAF)}
        self.stages_checked = False
        # the seed orders the initial fill, so each seed starts the shaper
        # from a different interleaving of flows
        self.fill_order = list(self.flow_leaf)
        rng.shuffle(self.fill_order)
        self.fill = len(self.fill_order) * self.CAP
        self.config = {"policy": "fifo", "nodes": nodes,
                       "flows": self.flow_leaf, "flow_cap": self.CAP}

    def prepare(self):
        Packet = self.pk.Packet
        packets = [Packet(i, "", MTU) for i in range(self.fill + self.packets)]
        k = 0
        for _ in range(self.CAP):
            for fid in self.fill_order:
                packets[k].flow_id = fid
                k += 1
        return packets

    def setup(self, packets):
        t0 = perf_counter()
        tree = self.pk.build_tree(self.config)
        build_s = perf_counter() - t0
        enq = tree.enqueue
        for p in packets[:self.fill]:
            enq(p, 0)
        return tree, build_s

    def replay(self, tree, packets, samples, lap_end):
        enq, rel, deq = tree.enqueue, tree.shaper_release, tree.dequeue
        next_event = tree.next_event_time
        clock = perf_counter_ns
        sample = samples.append
        served, times = [], []
        log, log_t = served.append, times.append
        tx = tx_ns(MTU)
        k = self.fill
        now = acc = n = 0
        pkt = None
        lap = self.lap
        lap_end()
        while n < self.packets:
            t0 = clock()
            if pkt is not None:
                enq(pkt, now)
            rel(now)
            p = deq(now)
            if p is None:
                t = next_event()
                acc += clock() - t0
                pkt = None
                if t is None:
                    raise RuntimeError("closed loop has nothing in flight")
                now = t if t > now else now + 1
                continue
            sample(acc + clock() - t0)
            acc = 0
            log(p)
            log_t(now)
            now += tx
            n += 1
            pkt = packets[k]
            k += 1
            pkt.flow_id = p.flow_id
            if n % lap == 0:
                lap_end()
        return served, times

    def check(self, tree, packets, log) -> Check:
        served, times = log
        chk = Check()
        # global FIFO: packet.rank is the delivery sequence number
        top = -1
        for p in served:
            if p.rank < top:
                chk.errors += 1
                if p.rank // self.BUCKETS == top // self.BUCKETS:
                    # keys are rank % num_buckets; without a wrap between
                    # the two ranks the key order is the rank order
                    chk.fail(1, "FIFO misorder without a key wrap")
            else:
                top = p.rank
        check_flow_fifo(served, chk)
        s = tree.stats
        n = len(served)
        chk.fail(int(s.enqueued != s.dequeued + tree.pending()), "conservation")
        chk.fail(int(s.enqueued != self.fill + n - 1), "enqueue count")
        chk.fail(int(s.dequeued != n), "dequeue count")
        stages = sum(len(self.chain(p.flow_id)) for p in served)
        if not self.stages_checked:
            # episodes replay identical inputs, so one check of the stage
            # exits covers them all
            self.stages_checked = True
            self.check_stage_exits(served, chk)
        gran = tree.shaper.granularity
        # a node's limit binds where packets leave its stage; the final
        # release of an inner node's packets also carries the variable
        # delay of the stages after it, so it is measured, not required
        out: dict[str, list] = {}
        for p in served:
            for node in self.chain(p.flow_id)[:-1]:
                out.setdefault(node, []).append((p.release_ts, p.size))
        burst = sum(rate_violations(sorted(evs), self.rate[node],
                                    MTU + self.rate[node] * gran / 1e9)
                    for node, evs in out.items())
        per_flow: dict[str, list] = {}
        for p, t in zip(served, times):
            per_flow.setdefault(p.flow_id, []).append((min(p.release_ts, t), t))
        busy = sum(backlogged_time(iv) for iv in per_flow.values())
        chk.props = {
            "mean_backlogged_flows": busy / times[-1] if times[-1] else 0.0,
            "shaper_stages_per_pkt": stages / n,
            "inner_node_output_over_limit_frac": burst / n,
        }
        return chk

    def chain(self, fid: str) -> tuple:
        """Rate-limited nodes a flow's packets climb, leaf first."""
        return self.chains[self.flow_leaf[fid]]

    def check_stage_exits(self, served, chk: Check) -> None:
        """Re-run the episode untimed, recording when each packet leaves
        each shaper stage, and check every limited node's envelope there."""
        inputs = self.prepare()
        tree, _ = self.setup(inputs)
        now = [0]
        exits: dict[str, list] = {}

        def on_release(t, _release=tree.shaper_release):
            now[0] = t
            return _release(t)

        def on_insert(packet, ts, next_stage, _insert=tree.shaper.insert):
            stage = next_stage[1]  # index of the stage after this entry
            if stage >= 2:
                node = self.chain(packet.flow_id)[stage - 2]
                exits.setdefault(node, []).append((now[0], packet.size))
            return _insert(packet, ts, next_stage)

        def on_deliver(flow, packet, _on_enqueue=tree.policy.on_enqueue):
            exits.setdefault("root", []).append((now[0], packet.size))
            return _on_enqueue(flow, packet)

        tree.shaper_release = on_release
        tree.shaper.insert = on_insert
        tree.policy.on_enqueue = on_deliver
        rerun, _ = self.replay(tree, inputs, [], lambda: None)
        chk.fail(int([p.id for p in rerun] != [p.id for p in served]),
                 "re-run served a different sequence")
        gran = tree.shaper.granularity
        bad = sum(rate_violations(evs, self.rate[node],
                                  MTU + self.rate[node] * gran / 1e9)
                  for node, evs in exits.items())
        chk.errors += bad
        chk.fail(bad, "stage exits exceed a rate limit by more than one MTU "
                      "plus one granule")

    def instrument(self, tracer, tree):
        wrap_tree(tracer, tree)

    def counters(self, tree):
        cffs = [tree.shaper._queue]
        ffs = [n.queue for n in tree.nodes.values()] + cffs_windows(cffs)
        return tree_counters(tree, ffs, cffs)


# -- hclock_256 ---------------------------------------------------------------

class HClockWorkload(Workload):
    """HClockScheduler with 256 backlogged flows kept at 8 packets: 64
    reserved, 64 limited (disjoint, chosen by the seed), shares drawn from
    {1, 2, 4} in equal numbers. The clock advances by the wire time of each
    packet, and via next_eligible_time when nothing is eligible."""

    name = "hclock_256"
    FLOWS = 256
    CAP = 8
    RESERVED = 64
    LIMITED = 64
    RES_BPS = 2.5e6
    LIMIT_BPS = 1.0e6
    packets = 6_000
    LAPS = 24  # short laps, so the machine speed is sampled often

    def __init__(self, pk, seed: int):
        self.pk = pk
        rng = random.Random(seed)
        self.flow_ids = [f"f{i}" for i in range(self.FLOWS)]
        picked = rng.sample(self.flow_ids, self.FLOWS)
        r, rl = self.RESERVED, self.RESERVED + self.LIMITED
        groups = (picked[:r], picked[r:rl], picked[rl:])
        self.reserved, self.limited = set(groups[0]), set(groups[1])
        # shares are dealt from a pool holding each of 1, 2 and 4 equally
        # often, group by group, so every seed gives each group (and the
        # limited flows that pile up at the head of the share queue) the
        # same mix of shares
        share = {}
        for group in groups:
            pool = [(1, 2, 4)[i % 3] for i in range(len(group))]
            rng.shuffle(pool)
            share.update(zip(group, pool))
        self.params = [
            (fid,
             self.RES_BPS if fid in self.reserved else None,
             self.LIMIT_BPS if fid in self.limited else None,
             share[fid])
            for fid in self.flow_ids]
        self.fill = self.FLOWS * self.CAP

    def prepare(self):
        Packet = self.pk.Packet
        packets = [Packet(i, "", MTU) for i in range(self.fill + self.packets)]
        k = 0
        for fid in self.flow_ids:
            for _ in range(self.CAP):
                packets[k].flow_id = fid
                k += 1
        return packets

    def setup(self, packets):
        sched = self.pk.HClockScheduler()
        for fid, res, lim, share in self.params:
            sched.add_flow(fid, reservation=res, limit=lim, share=share)
        enq = sched.enqueue
        for p in packets[:self.fill]:
            enq(p, 0)
        return sched, 0.0

    def replay(self, sched, packets, samples, lap_end):
        enq, deq = sched.enqueue, sched.dequeue
        next_eligible = sched.next_eligible_time
        clock = perf_counter_ns
        sample = samples.append
        served, times = [], []
        log, log_t = served.append, times.append
        k = self.fill
        now = acc = n = 0
        pkt = None
        lap = self.lap
        lap_end()
        while n < self.packets:
            t0 = clock()
            if pkt is not None:
                enq(pkt, now)
            p = deq(now)
            if p is None:
                t = next_eligible(now)
                acc += clock() - t0
                pkt = None
                if t is None:
                    raise RuntimeError("closed loop has no backlog")
                now = t if t > now else now + 1
                continue
            sample(acc + clock() - t0)
            acc = 0
            log(p)
            log_t(now)
            now += tx_ns(p.size)
            n += 1
            pkt = packets[k]
            k += 1
            pkt.flow_id = p.flow_id
            if n % lap == 0:
                lap_end()
        return served, times

    def check(self, sched, packets, log) -> Check:
        served, times = log
        chk = Check()
        check_flow_fifo(served, chk)
        n = len(served)
        # the fill plus n - 1 refills, less n served
        chk.fail(int(sched.backlog() != self.fill - 1), "conservation")
        # a reserved packet may wait for every other reserved flow's due
        # packet, the packet on the wire, and one tag-quantization granule
        slack = (self.RESERVED + 1) * tx_ns(MTU) + sched.GRANULARITY_NS
        sent: dict[str, int] = {}
        late = over = 0
        for p, t in zip(served, times):
            before = sent.get(p.flow_id, 0)
            sent[p.flow_id] = before + p.size
            if p.flow_id in self.limited:
                # the limit tag of this packet is the bytes sent before it at
                # the limit rate; a packet may not leave before its tag
                if before * 1e9 / self.LIMIT_BPS > t + 1:
                    over += 1
            elif p.flow_id in self.reserved:
                if t - before * 1e9 / self.RES_BPS > slack:
                    late += 1
        chk.errors += over + late
        chk.fail(over, "limit exceeded")
        chk.fail(late, "reservation missed")
        chk.props = {"mean_backlogged_flows": float(self.FLOWS),
                     "shaper_stages_per_pkt": 0.0}
        return chk

    def instrument(self, tracer, sched):
        wrap_hclock(tracer, sched)

    def counters(self, sched):
        cffs = [sched._r_queue, sched._s_queue]
        return {"probes": sum(q.probe_count for q in cffs_windows(cffs)),
                "rotations": sum(q.rotations for q in cffs)}


# -- approx_hold --------------------------------------------------------------

class ApproxHoldWorkload(Workload):
    """Hold model on CircularApproxQueue (alpha=16, 524-rank windows) at
    2000 items: pop_min, then insert(popped + 1 + Exp(mean 200))."""

    name = "approx_hold"
    ITEMS = 2000
    MEAN_GAP = 200
    packets = 100_000

    def __init__(self, pk, seed: int):
        self.pk = pk
        rng = random.Random(seed)

        def gap():
            return 1 + int(rng.expovariate(1 / self.MEAN_GAP))

        self.initial = [gap() for _ in range(self.ITEMS)]
        self.gaps = [gap() for _ in range(self.packets)]

    def setup(self, inputs):
        q = self.pk.CircularApproxQueue()
        ins = q.insert
        for i, r in enumerate(self.initial):
            ins(r, i)
        return q, 0.0

    def replay(self, q, inputs, samples, lap_end):
        pop, ins = q.pop_min, q.insert
        clock = perf_counter_ns
        sample = samples.append
        popped = []
        log = popped.append
        lap = self.lap
        lap_end()
        for i, g in enumerate(self.gaps, 1):
            t0 = clock()
            r, item = pop()
            ins(r + g, item)
            sample(clock() - t0)
            log(r)
            if i % lap == 0:
                lap_end()
        return popped

    def check(self, q, inputs, popped) -> Check:
        chk = Check()
        ms = MultisetMin(self.initial)
        size = q.q_size
        missing = past = 0
        for r, g in zip(popped, self.gaps):
            if r != ms.min():
                chk.errors += 1  # the gradient estimate missed the minimum
            if not ms.discard(r):
                missing += 1
            # the popped rank sits in the primary window, whose start is a
            # multiple of the window size; inserts past both windows overflow
            if r + g >= (r // size) * size + 2 * size:
                past += 1
            ms.add(r + g)
        chk.fail(missing, "popped a rank that was never inserted")
        chk.fail(int(len(q) != self.ITEMS), "item count")
        chk.props = {"insert_past_windows_frac": past / len(popped),
                     "mean_items": float(self.ITEMS)}
        return chk

    def instrument(self, tracer, q):
        wrap_circular_approx(tracer, q)

    def counters(self, q):
        inner = [q.primary.inner, q.secondary.inner]
        return {"rotations": q.rotations,
                "estimate_hits": sum(g.estimate_hits for g in inner),
                "search_steps": sum(g.search_steps for g in inner),
                "pops": sum(g.pops for g in inner)}


WORKLOADS = {w.name: w for w in
             (PfabricWorkload, ShapedFifoWorkload, HClockWorkload,
              ApproxHoldWorkload)}
