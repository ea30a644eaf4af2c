"""Unidirectional link with an egress queue and a store-and-forward model.

A :class:`Link` owns the egress queue discipline of the upstream node's port.
Packets are serialized at the link capacity (transmission delay) and then
delivered to the downstream node after the propagation delay.  A duplex cable
is simply two ``Link`` objects.

Optional per-packet *processors* run when a packet is offered to the link —
this is how PDQ's in-switch rate controller observes and stamps packet
headers without the core simulator knowing anything about PDQ.

Hot-path notes
--------------
A link keeps a ``free_at`` timeline instead of an event per serialization
end.  When a frame starts, the link computes its transmission delay
inline, sets ``free_at = now + tx``, and makes one engine call
(:meth:`~repro.sim.engine.Simulator.reserve_post_at`): it reserves the
sequence number an end-of-serialization event posted now would take and
posts the delivery (``dst.receive``, bound once when the link is built)
straight at ``free_at + prop_delay`` under the next one.  The
end-of-serialization wake-up is posted into that reserved slot only when
something must happen then: the queue is backlogged when the frame
starts, a packet arrives while it serializes, or the link goes down while
it serializes.  An idle hop therefore costs one event, not two, and a
wake-up that does fire takes the tie-break position a per-frame event
would have had.

A packet offered to an idle, up line meets an empty queue, so it goes
through :meth:`~repro.sim.queues.QueueDiscipline.admit_idle` instead of
``enqueue`` followed by ``dequeue``: the same counters and (for a
:class:`~repro.faults.queues.LossyQueue`) the same loss draw, without
touching the queue's storage.

Whether the line is busy is a question about the reserved slot, not a
flag: the frame ends at ``(free_at, slot)`` in event order, so a packet
offered at exactly ``now == free_at`` finds the line busy only if the
event being fired sorts before the slot
(:attr:`~repro.sim.engine.Simulator.current_seq`).  Both answers occur:
a delivery that sorts before the slot must queue behind the ending frame,
while a sender pacing at exactly line rate offers its next packet after
the slot and must find the line free.  ``busy``, ``pkts_sent`` and
``bytes_sent`` read the same test, so the sent counters still count
frames whose serialization has ended.

A frame whose link is down when its serialization ends is corrupted: the
slot wake-up (posted by :meth:`Link.set_down`) withdraws the frame's
delivery and counts a ``down_drops``.  A frame already propagating is
delivered regardless.

This reproduces the event order of a link that posts one event per
serialization end exactly when every link shares one propagation delay
longer than any serialization time (every topology in this repository).
A shorter delay lets a delivery, posted when its frame started, sort
ahead of a same-instant serialization end the per-frame model would have
created only while that frame was on the wire.

Drop tracing hangs off the queue's ``drop_hook`` so the accept path never
touches the tracer — the ``tracer is None`` check runs only when a packet
actually drops (and is evaluated once, inside the hook).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol

from repro.sim.packet import Packet
from repro.sim.queues import QueueDiscipline
from repro.sim.trace import CAT_DROP
from repro.utils.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

#: ``_free_at`` of a link that has never transmitted.
_NEVER = float("-inf")


class LinkProcessor(Protocol):
    """Hook interface invoked for every packet offered to a link."""

    def process(self, pkt: Packet, link: "Link") -> None: ...


class Link:
    """One direction of a cable between two nodes."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        src: "Node",
        dst: "Node",
        capacity_bps: float,
        prop_delay: float,
        queue: QueueDiscipline,
    ) -> None:
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.capacity_bps = check_positive("capacity_bps", capacity_bps)
        self.prop_delay = check_non_negative("prop_delay", prop_delay)
        self.queue = queue
        queue.drop_hook = self._on_queue_drop
        #: ``dst.receive``, bound once: every frame's delivery posts it.
        self._deliver = dst.receive
        #: False while the link is administratively/fault down.  Packets
        #: offered to a down link are lost (counted in ``down_drops``);
        #: the frame being serialized when the link dies is corrupted.
        self.up = True
        self.processors: List[LinkProcessor] = []
        #: End of the current (or last) serialization, the engine sequence
        #: number reserved for it, and whether a wake-up fills that slot.
        self._free_at = _NEVER
        self._slot = 0
        self._wake_posted = False
        #: The frame serializing until ``_free_at``.
        self._tx_pkt: Optional[Packet] = None
        # Frames whose serialization started and was not corrupted;
        # pkts_sent/bytes_sent subtract the one still serializing.
        self._pkts_started: int = 0
        self._bytes_started: int = 0
        # Counters for utilization / loss accounting.
        self.data_pkts_offered: int = 0
        self.busy_time: float = 0.0
        self.down_drops: int = 0
        self.down_transitions: int = 0

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Offer a packet to this link's egress queue.

        Returns ``False`` if the queue discipline dropped it.  Transmission
        starts immediately when the line is idle.
        """
        if self.processors:
            for proc in self.processors:
                proc.process(pkt, self)
        if pkt.kind == 0:  # PacketKind.DATA — avoid enum lookup in hot path
            self.data_pkts_offered += 1
        if not self.up:
            self._drop_down(pkt)
            return False
        sim = self.sim
        free_at = self._free_at
        if free_at < sim.now or (free_at == sim.now
                                 and self._slot <= sim.current_seq):
            # ``not self.busy``, inlined.  An idle, up line has an empty
            # queue, so this packet starts alone and leaves no backlog to
            # wake up for.
            if not self.queue.admit_idle(pkt):
                return False
            self._start(pkt)
            return True
        if not self.queue.enqueue(pkt):
            return False
        if not self._wake_posted:
            self._wake_posted = True
            sim.post_reserved(free_at, self._slot, self._on_free)
        return True

    def _start(self, pkt: Packet) -> None:
        """Put ``pkt`` on the wire and post its delivery."""
        sim = self.sim
        tx_delay = pkt.size * 8 / self.capacity_bps
        self.busy_time += tx_delay
        self._free_at = free_at = sim.now + tx_delay
        self._tx_pkt = pkt
        self._pkts_started += 1
        self._bytes_started += pkt.size
        self._slot = sim.reserve_post_at(free_at + self.prop_delay,
                                         self._deliver, pkt, self)

    def _transmit_next(self) -> None:
        """Start the next queued frame (the line must be idle and up), and
        fill its slot with a wake-up if more frames wait behind it."""
        queue = self.queue
        pkt = queue.dequeue()
        if pkt is None:
            return
        self._start(pkt)
        if queue:
            self._wake_posted = True
            self.sim.post_reserved(self._free_at, self._slot, self._on_free)

    def _on_free(self) -> None:
        """The reserved end-of-serialization wake-up."""
        self._wake_posted = False
        if self.up:
            self._transmit_next()
            return
        # The link died mid-serialization: the frame is corrupted and its
        # posted delivery withdrawn.  The queue stays paused until set_up.
        pkt = self._tx_pkt
        self.sim.unpost(self._free_at + self.prop_delay, self._deliver,
                        pkt, self)
        self._pkts_started -= 1
        self._bytes_started -= pkt.size
        self._drop_down(pkt)

    @property
    def busy(self) -> bool:
        """True while a frame is serializing."""
        sim = self.sim
        free_at = self._free_at
        return free_at > sim.now or (free_at == sim.now
                                     and self._slot > sim.current_seq)

    @property
    def pkts_sent(self) -> int:
        """Frames whose serialization has ended (corrupted ones excluded)."""
        return self._pkts_started - 1 if self.busy else self._pkts_started

    @property
    def bytes_sent(self) -> int:
        if self.busy:
            return self._bytes_started - self._tx_pkt.size
        return self._bytes_started

    # ------------------------------------------------------------------
    # Drop instrumentation (cold paths)
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Fault transitions
    # ------------------------------------------------------------------
    def set_down(self, flush: bool = True) -> None:
        """Take the link down.  ``flush`` drops queued packets now; without
        it they wait out the outage and resume on :meth:`set_up` (a paused
        port).  Idempotent."""
        if not self.up:
            return
        self.up = False
        self.down_transitions += 1
        if self.busy and not self._wake_posted:
            # The serialization end must look at the link: post its slot.
            self._wake_posted = True
            self.sim.post_reserved(self._free_at, self._slot, self._on_free)
        if flush:
            while True:
                pkt = self.queue.dequeue()
                if pkt is None:
                    break
                self._drop_down(pkt)

    def set_up(self) -> None:
        """Bring the link back; held-back queued packets resume immediately."""
        if self.up:
            return
        self.up = True
        if not self.busy:
            self._transmit_next()

    # ------------------------------------------------------------------
    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of ``elapsed`` (default: sim.now) the line was busy."""
        horizon = self.sim.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    @property
    def loss_rate(self) -> float:
        """Fraction of offered data packets dropped at this egress (queue
        overflows plus link-outage losses)."""
        if self.data_pkts_offered == 0:
            return 0.0
        return (self.queue.drops + self.down_drops) / self.data_pkts_offered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.capacity_bps/1e9:.1f} Gbps)"
