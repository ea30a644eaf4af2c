"""Unit tests for the link model."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import make_data_packet
from repro.sim.queues import DropTailQueue
from repro.utils.units import GBPS, USEC


class SinkNode(Node):
    def __init__(self, sim, node_id=1, name="sink"):
        super().__init__(sim, node_id, name)
        self.received = []

    def receive(self, pkt, from_link):
        self.received.append((self.sim.now, pkt))


def make_link(sim, capacity=1 * GBPS, delay=10 * USEC, queue=None):
    src = SinkNode(sim, 0, "src")
    dst = SinkNode(sim, 1, "dst")
    link = Link(sim, "src->dst", src, dst, capacity, delay,
                queue if queue is not None else DropTailQueue(100))
    return link, dst


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.run()
    # 1500 B at 1 Gbps = 12 us, plus 10 us propagation.
    assert dst.received[0][0] == pytest.approx(22 * USEC)


def test_back_to_back_packets_serialize():
    sim = Simulator()
    link, dst = make_link(sim)
    for i in range(3):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    sim.run()
    times = [t for t, _ in dst.received]
    assert times[1] - times[0] == pytest.approx(12 * USEC)
    assert times[2] - times[1] == pytest.approx(12 * USEC)


def test_delivery_preserves_fifo_order():
    sim = Simulator()
    link, dst = make_link(sim)
    for i in range(5):
        link.send(make_data_packet(0, 1, 1, i))
    sim.run()
    assert [p.seq for _, p in dst.received] == list(range(5))


def test_send_returns_false_on_drop():
    sim = Simulator()
    link, _ = make_link(sim, queue=DropTailQueue(capacity_pkts=1))
    # First packet starts transmitting immediately (dequeued), second sits in
    # the queue, third is dropped.
    assert link.send(make_data_packet(0, 1, 1, 0))
    assert link.send(make_data_packet(0, 1, 1, 1))
    assert not link.send(make_data_packet(0, 1, 1, 2))


def test_counters_and_utilization():
    sim = Simulator()
    link, _ = make_link(sim)
    for i in range(4):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    sim.run()
    assert link.pkts_sent == 4
    assert link.bytes_sent == 6000
    assert link.data_pkts_offered == 4
    assert 0 < link.utilization(elapsed=1.0) < 1e-3


def test_loss_rate():
    sim = Simulator()
    link, _ = make_link(sim, queue=DropTailQueue(capacity_pkts=1))
    for i in range(4):
        link.send(make_data_packet(0, 1, 1, i))
    sim.run()
    assert link.loss_rate == pytest.approx(2 / 4)


def test_processors_run_on_send():
    sim = Simulator()
    link, _ = make_link(sim)
    seen = []

    class Recorder:
        def process(self, pkt, lnk):
            seen.append((pkt.seq, lnk.name))

    link.processors.append(Recorder())
    link.send(make_data_packet(0, 1, 1, 7))
    assert seen == [(7, "src->dst")]


def test_invalid_parameters():
    sim = Simulator()
    src, dst = SinkNode(sim, 0), SinkNode(sim, 1)
    with pytest.raises(ValueError):
        Link(sim, "bad", src, dst, 0, 1e-6, DropTailQueue())
    with pytest.raises(ValueError):
        Link(sim, "bad", src, dst, 1e9, -1e-6, DropTailQueue())


# ----------------------------------------------------------------------
# Outage semantics.  1500 B at 1 Gbps serializes in 12 us; the link adds
# 10 us of propagation, so an idle-link frame is on the wire over
# [0, 12) us and in flight over [12, 22) us.
# ----------------------------------------------------------------------
def test_link_down_mid_serialization_corrupts_the_frame():
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.schedule(5 * USEC, link.set_down)
    sim.run()
    assert dst.received == []
    assert link.down_drops == 1
    assert link.pkts_sent == 0 and link.bytes_sent == 0


def test_link_down_while_propagating_still_delivers():
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.schedule(15 * USEC, link.set_down)
    sim.run()
    assert [t for t, _ in dst.received] == [pytest.approx(22 * USEC)]
    assert link.down_drops == 0
    assert link.pkts_sent == 1


def test_flap_shorter_than_one_serialization_delivers():
    sim = Simulator()
    link, dst = make_link(sim)
    link.send(make_data_packet(0, 1, 1, 0, size=1500))
    sim.schedule(3 * USEC, link.set_down)
    sim.schedule(8 * USEC, link.set_up)
    sim.run()
    assert [t for t, _ in dst.received] == [pytest.approx(22 * USEC)]
    assert link.down_drops == 0
    assert link.down_transitions == 1


def test_paused_queue_resumes_at_set_up():
    sim = Simulator()
    link, dst = make_link(sim)
    for i in range(3):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    sim.schedule(5 * USEC, link.set_down, False)
    sim.schedule(100 * USEC, link.set_up)
    sim.run()
    # The frame on the wire dies; the two queued ones wait out the outage.
    assert link.down_drops == 1
    assert [p.seq for _, p in dst.received] == [1, 2]
    assert [t for t, _ in dst.received] == [pytest.approx(122 * USEC),
                                            pytest.approx(134 * USEC)]
    assert link.pkts_sent == 2 and len(link.queue) == 0


def test_sent_counters_count_at_serialization_end():
    sim = Simulator()
    link, dst = make_link(sim)
    for i in range(2):
        link.send(make_data_packet(0, 1, 1, i, size=1500))
    # 18 us: the first frame propagates, the second is still serializing.
    sim.run(until=18 * USEC)
    assert (link.pkts_sent, link.bytes_sent) == (1, 1500)
    # 30 us: the first frame arrived, the second propagates until 34 us.
    sim.run(until=30 * USEC)
    assert len(dst.received) == 1
    assert (link.pkts_sent, link.bytes_sent) == (2, 3000)
    sim.run()
    assert len(dst.received) == 2
    assert (link.pkts_sent, link.bytes_sent) == (2, 3000)
