"""Lossy queue wrapper: inject modeled loss in front of any discipline.

Promoted out of the failure-injection tests so every consumer (tests, the
:class:`~repro.faults.injector.FaultInjector`, ad-hoc experiments) shares
one drop implementation.  Data packets are dropped per the attached
:class:`~repro.faults.models.LossModel`; ACKs and probes pass through so
control loops limp along — the harder case for loss recovery.

Counters delegate to the wrapped queue, so a link whose queue is wrapped
mid-run (and later unwrapped) presents one continuous set of drop/mark
counters to :class:`~repro.sim.network.Network` accounting.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.faults.models import BernoulliLoss, LossModel
from repro.sim.packet import Packet
from repro.sim.queues import QueueDiscipline


class LossyQueue(QueueDiscipline):
    """Wraps another discipline and drops data packets per a loss model."""

    def __init__(self, inner: QueueDiscipline,
                 model: Union[LossModel, float], seed: int = 0) -> None:
        # No super().__init__(): drop/mark counters are properties that
        # delegate to ``inner`` so wrapping is invisible to accounting.
        self.inner = inner
        if isinstance(model, (int, float)):
            model = BernoulliLoss(float(model), seed=seed)
        self.model = model
        #: Drops injected by the loss model (also counted in ``drops``).
        self.injected_drops = 0

    def _lose(self, pkt: Packet) -> bool:
        """Draw the loss model for ``pkt``; True (and counted) if it is
        dropped."""
        if pkt.kind == 0 and self.model.drop():  # PacketKind.DATA
            self.injected_drops += 1
            self.inner.drops += 1
            self.inner.drop_bytes += pkt.size
            hook = self.inner.drop_hook
            if hook is not None:
                hook(pkt, "injected-loss")
            return True
        return False

    def enqueue(self, pkt: Packet) -> bool:
        if self._lose(pkt):
            return False
        return self.inner.enqueue(pkt)

    def admit_idle(self, pkt: Packet) -> bool:
        if self._lose(pkt):
            return False
        return self.inner.admit_idle(pkt)

    def dequeue(self) -> Optional[Packet]:
        return self.inner.dequeue()

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def byte_depth(self) -> int:
        return self.inner.byte_depth

    # -- counter delegation (one merged view with the wrapped queue) -------
    @property
    def drop_hook(self):
        return self.inner.drop_hook

    @drop_hook.setter
    def drop_hook(self, hook) -> None:
        # A link constructed directly on a LossyQueue (lossy_queue_factory)
        # installs its trace hook through the wrapper onto the inner queue,
        # so wrap/unwrap mid-run never loses instrumentation.
        self.inner.drop_hook = hook

    @property
    def drops(self) -> int:
        return self.inner.drops

    @property
    def drop_bytes(self) -> int:
        return self.inner.drop_bytes

    @property
    def marks(self) -> int:
        return self.inner.marks

    @property
    def enqueued_total(self) -> int:
        return self.inner.enqueued_total


def lossy_queue_factory(
    inner_factory: Callable[[], QueueDiscipline],
    p: float,
    seed: int = 0,
) -> Callable[[], LossyQueue]:
    """Factory-of-factories for topology construction: each link direction
    gets its own :class:`LossyQueue` over a fresh inner queue, seeded
    distinctly (but deterministically) per instantiation."""
    counter = [seed]

    def factory() -> LossyQueue:
        counter[0] += 1
        return LossyQueue(inner_factory(), BernoulliLoss(p, seed=counter[0]))

    return factory
