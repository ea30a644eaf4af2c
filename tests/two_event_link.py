"""Test oracle: the two-event link model that :class:`repro.sim.link.Link`
replaced.

Each frame costs a serialization-end event (``_transmission_done``) plus
a delivery event, and a plain ``busy`` flag says whether the line is
serializing.  The production link must reproduce this model's delivery
order, timing and counters exactly; ``tests/test_link_differential.py``
runs both side by side.  Only tests import this module.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.packet import Packet
from repro.sim.trace import CAT_DROP
from repro.utils.units import transmission_delay
from repro.utils.validation import check_non_negative, check_positive


class TwoEventLink:
    """Drop-in stand-in for ``repro.sim.link.Link`` (same public surface)."""

    def __init__(self, sim, name, src, dst, capacity_bps, prop_delay, queue):
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.capacity_bps = check_positive("capacity_bps", capacity_bps)
        self.prop_delay = check_non_negative("prop_delay", prop_delay)
        self.queue = queue
        queue.drop_hook = self._on_queue_drop
        self.busy = False
        self.up = True
        self.processors: List = []
        self._in_flight: Optional[Packet] = None
        self._post = sim.post
        self.bytes_sent = 0
        self.pkts_sent = 0
        self.data_pkts_offered = 0
        self.busy_time = 0.0
        self.down_drops = 0
        self.down_transitions = 0

    def send(self, pkt: Packet) -> bool:
        if self.processors:
            for proc in self.processors:
                proc.process(pkt, self)
        if pkt.kind == 0:
            self.data_pkts_offered += 1
        if not self.up:
            self._drop_down(pkt)
            return False
        if self.queue.enqueue(pkt):
            if not self.busy:
                self._transmit_next()
            return True
        return False

    def _transmit_next(self) -> None:
        if not self.up:
            self.busy = False
            return
        pkt = self.queue.dequeue()
        if pkt is None:
            self.busy = False
            return
        self.busy = True
        self._in_flight = pkt
        tx_delay = transmission_delay(pkt.size, self.capacity_bps)
        self.busy_time += tx_delay
        self._post(tx_delay, self._transmission_done)

    def _transmission_done(self) -> None:
        pkt = self._in_flight
        self._in_flight = None
        if not self.up:
            self.busy = False
            self._drop_down(pkt)
            return
        self.bytes_sent += pkt.size
        self.pkts_sent += 1
        self._post(self.prop_delay, self.dst.receive, pkt, self)
        self._transmit_next()

    def _on_queue_drop(self, pkt: Packet, reason: Optional[str] = None) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            if reason is None:
                tracer.record(self.sim.now, CAT_DROP, self.name,
                              flow=pkt.flow_id, seq=pkt.seq,
                              kind=int(pkt.kind))
            else:
                tracer.record(self.sim.now, CAT_DROP, self.name,
                              flow=pkt.flow_id, seq=pkt.seq,
                              kind=int(pkt.kind), reason=reason)

    def _drop_down(self, pkt: Packet) -> None:
        self.down_drops += 1
        self._on_queue_drop(pkt, reason="link-down")

    def set_down(self, flush: bool = True) -> None:
        if not self.up:
            return
        self.up = False
        self.down_transitions += 1
        if flush:
            while True:
                pkt = self.queue.dequeue()
                if pkt is None:
                    break
                self._drop_down(pkt)

    def set_up(self) -> None:
        if self.up:
            return
        self.up = True
        if not self.busy:
            self._transmit_next()
