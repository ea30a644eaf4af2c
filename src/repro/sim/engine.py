"""Discrete-event simulation engine.

A minimal, fast event loop.  Heap entries are plain lists
``[time, seq, fn, args, poolable]`` so ``heapq`` orders them with C-level
``(time, seq)`` tuple comparisons — no Python ``__lt__`` call per sift step.
The sequence number breaks ties deterministically so runs with the same
seed replay identically, which the test suite relies on.

Two scheduling APIs share one sequence counter (so mixing them never
perturbs tie-break order):

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle the caller can cancel later (pacing and probe
  timers, arbitration ticks).  Cancellation is lazy: cancelling nulls the
  entry's callback and the loop skips it when popped, keeping heap
  operations O(log n) with no re-heapify.
* :meth:`Simulator.post` / :meth:`Simulator.post_at` return nothing and
  recycle their heap entries through a free list once fired.  This is the
  hot path for the torrent of fire-and-forget events (link serialization
  wake-ups, packet deliveries) where allocating a fresh handle plus entry
  per packet dominates the event loop's cost.  Entries that handed out an
  Event handle are never pooled — a stale ``cancel()`` after the event
  fired must stay a no-op, not kill an unrelated recycled event.

Reserved slots let a component take a tie-break position now and decide
later whether to fill it.  :meth:`Simulator.reserve` draws the next
sequence number without posting anything; :meth:`Simulator.post_reserved`
later posts a pooled event under that number, so it fires exactly where
an event posted at reservation time would have fired.  A link reserves
the slot of its end-of-serialization wake-up when a frame starts and
fills it only if the line is backlogged by then, so an idle hop costs one
event (the delivery) instead of two.

A slot that is never filled still has a position in the event order.
:attr:`Simulator.current_seq` (the sequence number of the event being
fired) lets a component ask whether that position has passed: a slot
``(t, seq)`` has passed once ``t < now``, or ``t == now`` and
``seq <= current_seq``.  A link asks this when a packet is offered at
exactly the instant its frame ends: the packet queues behind the frame
while the slot is ahead, and starts at once after it has passed.  Between
runs ``current_seq`` is the last sequence number drawn, so every slot at
or before ``now`` counts as passed unless a run stopped early
(:meth:`Simulator.stop`, ``max_events``) with events still due at
``now``.  :meth:`Simulator.unpost` withdraws a pending posted event by
scanning the heap; it serves rare paths only.
:meth:`Simulator.reserve_post_at` draws a slot and posts an event under
the sequence number right after it in one call (a link starting a frame).

A :class:`Timer` is a re-armable timeout built on reserved slots (a
sender's retransmission timer, re-armed by every ACK that advances it).
Cancelling a handle and scheduling a fresh one would leave one dead entry
in the heap per re-arm; a :class:`Timer` keeps at most one entry.
:meth:`Timer.arm` reserves a slot, records ``(deadline, slot)`` and pushes
an entry only when it has none or the new deadline is earlier than the
entry's.  The usual re-arm moves the deadline later and costs no heap
operation.  When an entry whose sequence number is not the slot fires
(a stale wake-up, itself counted as a fired event), the timer re-posts
it into ``(deadline, slot)``: the callback then fires exactly where an
event scheduled when the timer was last armed would have fired, among
same-time events too.  :meth:`Timer.cancel` withdraws the entry the way
:meth:`Event.cancel` does, so a timer that is never re-armed costs what a
cancelled handle did.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class Event:
    """Handle for a scheduled callback.  Returned by
    :meth:`Simulator.schedule` so the caller can cancel it later (e.g. a
    pacing tick); a timer re-armed often is a :class:`Timer`."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Mark the event so the loop discards it instead of firing it.
        Safe to call more than once, and after the event has fired."""
        entry = self._entry
        entry[2] = None
        entry[3] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fn = self._entry[2]
        state = "cancelled" if fn is None else "pending"
        return (f"Event(t={self._entry[0]:.9f}, "
                f"fn={getattr(fn, '__name__', fn)}, {state})")


_new_event = Event.__new__


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        sim.schedule(0.001, my_callback, arg1, arg2)
        sim.run(until=1.0)

    All model components hold a reference to the one ``Simulator`` instance
    and read the current virtual time from :attr:`now`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[list] = []
        self._free: List[list] = []
        self._seq: int = 0
        #: Sequence number of the event being fired (see module docstring).
        self.current_seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: Optional :class:`repro.sim.trace.Tracer`; instrumented components
        #: record drops/timeouts/queue-changes here when one is attached.
        self.tracer = None

    # ------------------------------------------------------------------
    # Scheduling (cancellable handles)
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled for the current instant (FIFO within a
        timestamp).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, fn, args, False]
        _heappush(self._heap, entry)
        # Event.__new__ + direct slot store skips the __init__ dispatch;
        # this path allocates one handle per call so every cycle counts.
        event = _new_event(Event)
        event._entry = entry
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, current time is {self.now!r}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args, False]
        _heappush(self._heap, entry)
        event = _new_event(Event)
        event._entry = entry
        return event

    # ------------------------------------------------------------------
    # Posting (fire-and-forget fast path, pooled entries)
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule`, but returns no handle and recycles the
        heap entry after the callback fires.  Use for high-rate events that
        are never cancelled (packet deliveries, serialization wake-ups)."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = self.now + delay
            entry[1] = seq
            entry[2] = fn
            entry[3] = args
        else:
            entry = [self.now + delay, seq, fn, args, True]
        _heappush(self._heap, entry)

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time :meth:`post`."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, current time is {self.now!r}"
            )
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = seq
            entry[2] = fn
            entry[3] = args
        else:
            entry = [time, seq, fn, args, True]
        _heappush(self._heap, entry)

    # ------------------------------------------------------------------
    # Reserved slots
    # ------------------------------------------------------------------
    def reserve(self) -> int:
        """Draw the next sequence number without posting an event; fill
        it later with :meth:`post_reserved`, or never."""
        self._seq = seq = self._seq + 1
        return seq

    def post_reserved(self, time: float, seq: int,
                      fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`post_at` under the sequence number ``seq`` taken from
        :meth:`reserve`, so ``fn`` fires among same-time events where a
        post made at reservation time would have.  Each reserved number
        must be filled at most once."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, current time is {self.now!r}"
            )
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = seq
            entry[2] = fn
            entry[3] = args
        else:
            entry = [time, seq, fn, args, True]
        _heappush(self._heap, entry)

    def reserve_post_at(self, time: float, fn: Callable[..., Any],
                        *args: Any) -> int:
        """:meth:`reserve` followed by :meth:`post_at` in one call: posts
        ``fn(*args)`` at ``time`` under the sequence number after the slot
        it reserves, and returns the slot."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, current time is {self.now!r}"
            )
        slot = self._seq + 1
        self._seq = seq = slot + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = seq
            entry[2] = fn
            entry[3] = args
        else:
            entry = [time, seq, fn, args, True]
        _heappush(self._heap, entry)
        return slot

    def unpost(self, time: float, fn: Callable[..., Any], *args: Any) -> bool:
        """Cancel the pending posted event ``fn(*args)`` due at ``time``;
        returns whether one was found.  A heap scan: for rare paths only
        (a link corrupting the frame whose delivery it already posted)."""
        for entry in self._heap:
            if entry[0] == time and entry[2] == fn and entry[3] == args:
                entry[2] = None
                entry[3] = ()
                return True
        return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the heap drains, ``until`` is reached, or ``max_events``
        events have fired.  Returns the number of events processed by this
        call."""
        processed = 0
        self._running = True
        self._stopped = False
        heap = self._heap
        free = self._free
        heappop = _heappop
        # Sentinel bounds keep the hot loop to two C-level compares instead
        # of ``is not None`` tests on every iteration.
        bound = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        try:
            while heap:
                if self._stopped:
                    break
                entry = heap[0]
                if entry[0] > bound:
                    # Advance the clock to the horizon so repeated run() calls
                    # observe monotonic time.
                    self.now = until
                    self.current_seq = self._seq
                    break
                heappop(heap)
                fn = entry[2]
                if fn is None:
                    continue
                self.now = entry[0]
                self.current_seq = entry[1]
                fn(*entry[3])
                if entry[4]:
                    entry[2] = None
                    entry[3] = ()
                    free.append(entry)
                processed += 1
                if processed == budget:
                    break
            else:
                # Drained: every slot drawn so far is in the past.
                self.current_seq = self._seq
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after the event in
        flight completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones that
        have not yet been popped)."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total events fired over the simulator's lifetime."""
        return self._events_processed

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the heap is
        empty.  Skips over cancelled events without firing anything."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None


class Timer:
    """A re-armable timeout that calls ``fn()`` (see the module docstring).

    Usage::

        timer = Timer(sim, on_timeout)
        timer.arm(0.010)   # fires at now + 10 ms ...
        timer.arm(0.010)   # ... unless re-armed: now at the new deadline
        timer.cancel()
    """

    __slots__ = ("_sim", "_fn", "_entry", "_slot", "deadline", "pending")

    def __init__(self, sim: Simulator, fn: Callable[[], Any]) -> None:
        self._sim = sim
        self._fn = fn
        #: This timer's entry while it is in the heap, else ``None``.
        self._entry: Optional[list] = None
        #: The sequence number reserved by the last :meth:`arm`.
        self._slot: int = 0
        self.deadline: float = 0.0
        #: True from :meth:`arm` until the callback fires or :meth:`cancel`.
        self.pending: bool = False

    def arm(self, delay: float) -> None:
        """(Re)start the timer: ``fn`` fires ``delay`` seconds from now,
        in the position a :meth:`Simulator.schedule` made now would take.
        Replaces any earlier deadline, later or sooner."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        sim = self._sim
        self._slot = slot = sim.reserve()
        self.deadline = deadline = sim.now + delay
        self.pending = True
        entry = self._entry
        if entry is not None:
            if entry[0] <= deadline:
                return  # the entry wakes first and re-posts into the slot
            entry[2] = None
            entry[3] = ()
        self._entry = entry = [deadline, slot, self._wake, (), False]
        _heappush(sim._heap, entry)

    def cancel(self) -> None:
        """Stop the timer; a no-op when it is not pending."""
        self.pending = False
        entry = self._entry
        if entry is not None:
            self._entry = None
            entry[2] = None
            entry[3] = ()

    def _wake(self) -> None:
        # The entry is live only while the timer is pending, so this is
        # either the deadline's own slot or a stale wake-up before it.
        sim = self._sim
        if sim.current_seq == self._slot:
            self._entry = None
            self.pending = False
            self._fn()
            return
        entry = self._entry
        entry[0] = self.deadline
        entry[1] = self._slot
        _heappush(sim._heap, entry)
