"""Unit tests for the queue disciplines."""

import pytest

from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import (
    DropTailQueue,
    PFabricQueue,
    PriorityQueueBank,
    REDQueue,
)


def pkt(flow=1, seq=0, size=1500, priority=0.0, queue_index=0):
    p = Packet(PacketKind.DATA, src=0, dst=1, flow_id=flow, seq=seq,
               size=size, priority=priority, queue_index=queue_index)
    return p


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(capacity_pkts=10)
        for i in range(3):
            assert q.enqueue(pkt(seq=i))
        assert [q.dequeue().seq for _ in range(3)] == [0, 1, 2]

    def test_drops_when_full(self):
        q = DropTailQueue(capacity_pkts=2)
        assert q.enqueue(pkt())
        assert q.enqueue(pkt())
        assert not q.enqueue(pkt())
        assert q.drops == 1
        assert len(q) == 2

    def test_byte_depth_tracks(self):
        q = DropTailQueue(capacity_pkts=10)
        q.enqueue(pkt(size=1000))
        q.enqueue(pkt(size=500))
        assert q.byte_depth == 1500
        q.dequeue()
        assert q.byte_depth == 500

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue().dequeue() is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_pkts=0)


class TestRed:
    def test_no_mark_below_threshold(self):
        q = REDQueue(capacity_pkts=100, mark_threshold_pkts=5)
        for i in range(5):
            p = pkt(seq=i)
            q.enqueue(p)
            assert not p.ecn_marked
        assert q.marks == 0

    def test_marks_at_threshold(self):
        q = REDQueue(capacity_pkts=100, mark_threshold_pkts=3)
        packets = [pkt(seq=i) for i in range(5)]
        for p in packets:
            q.enqueue(p)
        # Arrivals seeing >= 3 queued packets get marked: seq 3 and 4.
        assert [p.ecn_marked for p in packets] == [False, False, False, True, True]
        assert q.marks == 2

    def test_non_ecn_capable_not_marked(self):
        q = REDQueue(capacity_pkts=100, mark_threshold_pkts=1)
        q.enqueue(pkt())
        p = pkt(seq=1)
        p.ecn_capable = False
        q.enqueue(p)
        assert not p.ecn_marked

    def test_still_drops_at_capacity(self):
        q = REDQueue(capacity_pkts=2, mark_threshold_pkts=1)
        q.enqueue(pkt())
        q.enqueue(pkt())
        assert not q.enqueue(pkt())
        assert q.drops == 1


class TestPriorityBank:
    def test_strict_priority_order(self):
        q = PriorityQueueBank(num_queues=4)
        q.enqueue(pkt(seq=0, queue_index=3))
        q.enqueue(pkt(seq=1, queue_index=1))
        q.enqueue(pkt(seq=2, queue_index=0))
        q.enqueue(pkt(seq=3, queue_index=1))
        order = [q.dequeue().seq for _ in range(4)]
        assert order == [2, 1, 3, 0]

    def test_fifo_within_class(self):
        q = PriorityQueueBank(num_queues=2)
        for i in range(4):
            q.enqueue(pkt(seq=i, queue_index=1))
        assert [q.dequeue().seq for _ in range(4)] == [0, 1, 2, 3]

    def test_out_of_range_index_clamped_to_lowest(self):
        q = PriorityQueueBank(num_queues=3)
        q.enqueue(pkt(seq=0, queue_index=99))
        q.enqueue(pkt(seq=1, queue_index=1))
        assert q.dequeue().seq == 1
        assert q.dequeue().seq == 0

    def test_negative_index_clamped_to_top(self):
        q = PriorityQueueBank(num_queues=3)
        q.enqueue(pkt(seq=0, queue_index=2))
        q.enqueue(pkt(seq=1, queue_index=-1))
        assert q.dequeue().seq == 1

    def test_shared_capacity(self):
        q = PriorityQueueBank(num_queues=2, capacity_pkts=3)
        assert q.enqueue(pkt(queue_index=0))
        assert q.enqueue(pkt(queue_index=1))
        assert q.enqueue(pkt(queue_index=1))
        assert not q.enqueue(pkt(queue_index=0))
        assert q.drops == 1

    def test_per_queue_capacity_mode(self):
        q = PriorityQueueBank(num_queues=2, capacity_pkts=1, per_queue_capacity=True)
        assert q.enqueue(pkt(queue_index=0))
        assert q.enqueue(pkt(queue_index=1))
        assert not q.enqueue(pkt(queue_index=0))

    def test_per_class_marking(self):
        q = PriorityQueueBank(num_queues=2, mark_threshold_pkts=2)
        marked = []
        for i in range(3):
            p = pkt(seq=i, queue_index=0)
            q.enqueue(p)
            marked.append(p.ecn_marked)
        assert marked == [False, False, True]
        # The other class is independent: its occupancy starts at zero.
        p = pkt(seq=9, queue_index=1)
        q.enqueue(p)
        assert not p.ecn_marked

    def test_class_depth(self):
        q = PriorityQueueBank(num_queues=3)
        q.enqueue(pkt(queue_index=1))
        q.enqueue(pkt(queue_index=1))
        assert q.class_depth(1) == 2
        assert q.class_depth(0) == 0

    def test_byte_depth(self):
        q = PriorityQueueBank(num_queues=2)
        q.enqueue(pkt(size=100, queue_index=0))
        q.enqueue(pkt(size=200, queue_index=1))
        assert q.byte_depth == 300
        q.dequeue()
        assert q.byte_depth == 200


class TestPFabricQueue:
    def test_dequeues_highest_priority_first(self):
        q = PFabricQueue(capacity_pkts=10)
        q.enqueue(pkt(flow=1, seq=0, priority=50_000))
        q.enqueue(pkt(flow=2, seq=0, priority=2_000))
        q.enqueue(pkt(flow=3, seq=0, priority=90_000))
        assert q.dequeue().flow_id == 2
        assert q.dequeue().flow_id == 1
        assert q.dequeue().flow_id == 3

    def test_starvation_rule_sends_earliest_of_winning_flow(self):
        q = PFabricQueue(capacity_pkts=10)
        q.enqueue(pkt(flow=1, seq=5, priority=10_000))
        q.enqueue(pkt(flow=1, seq=6, priority=2_000))  # smaller remaining
        out = q.dequeue()
        assert out.flow_id == 1 and out.seq == 5  # earliest of flow 1

    def test_drops_lowest_priority_when_full(self):
        q = PFabricQueue(capacity_pkts=2)
        q.enqueue(pkt(flow=1, priority=10_000))
        q.enqueue(pkt(flow=2, priority=90_000))
        assert q.enqueue(pkt(flow=3, priority=1_000))  # evicts flow 2
        assert q.drops == 1
        flows = {q.dequeue().flow_id, q.dequeue().flow_id}
        assert flows == {1, 3}

    def test_arrival_dropped_if_it_is_lowest(self):
        q = PFabricQueue(capacity_pkts=2)
        q.enqueue(pkt(flow=1, priority=1_000))
        q.enqueue(pkt(flow=2, priority=2_000))
        assert not q.enqueue(pkt(flow=3, priority=99_000))
        assert q.drops == 1
        assert len(q) == 2

    def test_tie_drop_prefers_latest(self):
        q = PFabricQueue(capacity_pkts=2)
        first = pkt(flow=1, seq=0, priority=5_000)
        second = pkt(flow=1, seq=1, priority=5_000)
        q.enqueue(first)
        q.enqueue(second)
        assert not q.enqueue(pkt(flow=1, seq=2, priority=5_000))
        # Older packets of the flow survived.
        assert q.dequeue().seq == 0


class TestCountParameters:
    """Packet counts and the number of classes must be at least one after
    ``int()``: a fraction below one used to truncate silently to zero."""

    @pytest.mark.parametrize("make", [
        lambda: DropTailQueue(capacity_pkts=0.5),
        lambda: REDQueue(mark_threshold_pkts=0.5),
        lambda: REDQueue(capacity_pkts=0.99),
        lambda: PriorityQueueBank(num_queues=0.9),
        lambda: PriorityQueueBank(capacity_pkts=0.5),
        lambda: PriorityQueueBank(mark_threshold_pkts=0.5),
        lambda: PFabricQueue(capacity_pkts=0.5),
        lambda: DropTailQueue(capacity_pkts=-2),
    ])
    def test_rejects_counts_below_one(self, make):
        with pytest.raises(ValueError, match="at least 1"):
            make()

    def test_fraction_above_one_truncates(self):
        assert DropTailQueue(capacity_pkts=2.7).capacity_pkts == 2
        assert REDQueue(mark_threshold_pkts=1.5).mark_threshold_pkts == 1
        assert PriorityQueueBank(num_queues=3.2).num_queues == 3

    def test_threshold_one_does_not_mark_an_empty_queue(self):
        q = REDQueue(capacity_pkts=10, mark_threshold_pkts=1)
        first, second = pkt(seq=0), pkt(seq=1)
        q.enqueue(first)
        q.enqueue(second)
        assert not first.ecn_marked
        assert second.ecn_marked


def _lossy(inner, model):
    from repro.faults.queues import LossyQueue
    return LossyQueue(inner, model)


def _bernoulli(seed):
    from repro.faults.models import BernoulliLoss
    return BernoulliLoss(0.4, seed=seed)


def _gilbert(seed):
    from repro.faults.models import GilbertElliottLoss
    return GilbertElliottLoss(0.3, 0.4, loss_good=0.1, loss_bad=0.8,
                              seed=seed)


#: Every discipline at its smallest legal settings (where an off-by-one
#: in admit_idle would show), and LossyQueue over two of them.
IDLE_QUEUES = {
    "droptail": lambda: DropTailQueue(capacity_pkts=1),
    "red": lambda: REDQueue(capacity_pkts=1, mark_threshold_pkts=1),
    "red-default": REDQueue,
    "prio-shared": lambda: PriorityQueueBank(
        num_queues=2, capacity_pkts=1, mark_threshold_pkts=1),
    "prio-per-queue": lambda: PriorityQueueBank(
        num_queues=1, capacity_pkts=1, mark_threshold_pkts=1,
        per_queue_capacity=True),
    "pfabric": lambda: PFabricQueue(capacity_pkts=1),
    "lossy-bernoulli": lambda: _lossy(
        REDQueue(capacity_pkts=1, mark_threshold_pkts=1), _bernoulli(5)),
    "lossy-gilbert": lambda: _lossy(
        PriorityQueueBank(num_queues=3, capacity_pkts=1,
                          mark_threshold_pkts=1), _gilbert(5)),
}


def _queue_state(q):
    state = (q.drops, q.drop_bytes, q.marks, q.enqueued_total, len(q),
             q.byte_depth)
    model = getattr(q, "model", None)
    if model is not None:
        state += (q.injected_drops, model.rng.getstate(),
                  getattr(model, "in_bad_state", None))
    return state


@pytest.mark.parametrize("name", sorted(IDLE_QUEUES))
def test_admit_idle_matches_enqueue_then_dequeue(name):
    """On an empty queue, ``admit_idle(p)`` leaves the counters, the loss
    model's RNG state, the packet's ECN mark and the return value that
    ``enqueue(p)`` followed by ``dequeue()`` leaves."""
    idle, reference = IDLE_QUEUES[name](), IDLE_QUEUES[name]()
    outcomes = set()
    for i in range(200):
        kind = PacketKind.DATA if i % 4 else PacketKind.ACK
        a, b = (Packet(kind, src=0, dst=1, flow_id=i % 5, seq=i,
                       size=100 + i, priority=float(i % 7),
                       queue_index=i % 4 - 1) for _ in range(2))
        accepted = idle.admit_idle(a)
        expected = reference.enqueue(b)
        if expected:
            assert reference.dequeue() is b
        assert accepted == expected
        assert a.ecn_marked == b.ecn_marked
        assert _queue_state(idle) == _queue_state(reference)
        outcomes.add(accepted)
    assert len(idle) == 0
    if name.startswith("lossy"):
        assert outcomes == {True, False}
