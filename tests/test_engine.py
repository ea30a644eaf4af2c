"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, Timer


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(0.5, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_now_tracks_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(0.25, lambda: seen.append(sim.now))
    sim.schedule(0.75, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.25, 0.75]


def test_zero_delay_runs_after_current_instant_fifo():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, fired.append, "inner")

    sim.schedule(0.1, outer)
    sim.schedule(0.1, fired.append, "sibling")
    sim.run()
    assert fired == ["outer", "sibling", "inner"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(0.1, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_cancel_one_of_many():
    sim = Simulator()
    fired = []
    keep = sim.schedule(0.1, fired.append, "keep")
    drop = sim.schedule(0.2, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.time == 0.1


def test_run_until_stops_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=1.0)
    assert fired == ["early"]
    assert sim.now == 1.0  # clock advanced to the horizon
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(0.1 * (i + 1), fired.append, i)
    processed = sim.run(max_events=3)
    assert processed == 3
    assert fired == [0, 1, 2]


def test_stop_inside_callback():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append(2)
        sim.stop()

    sim.schedule(0.1, fired.append, 1)
    sim.schedule(0.2, stopper)
    sim.schedule(0.3, fired.append, 3)
    sim.run()
    assert fired == [1, 2]


def test_events_processed_accumulates_across_runs():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    sim.run(until=0.15)
    assert sim.events_processed == 1
    sim.run()
    assert sim.events_processed == 2


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    first.cancel()
    assert sim.peek_time() == 0.2


def test_peek_time_empty_heap():
    sim = Simulator()
    assert sim.peek_time() is None


def test_callbacks_can_schedule_recursively():
    sim = Simulator()
    ticks = []

    def tick(n):
        ticks.append(sim.now)
        if n > 0:
            sim.schedule(1.0, tick, n - 1)

    sim.schedule(0.0, tick, 4)
    sim.run()
    assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_determinism_same_schedule_same_order():
    def run_once():
        sim = Simulator()
        out = []
        delays = [0.5, 0.1, 0.5, 0.3, 0.1]
        for i, d in enumerate(delays):
            sim.schedule(d, out.append, i)
        sim.run()
        return out

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# post() / post_at(): the pooled fire-and-forget fast path
# ---------------------------------------------------------------------------

def test_post_fires_like_schedule():
    sim = Simulator()
    fired = []
    sim.post(0.2, fired.append, "b")
    sim.post(0.1, fired.append, "a")
    sim.post_at(0.3, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.events_processed == 3


def test_post_returns_no_handle():
    sim = Simulator()
    assert sim.post(0.1, lambda: None) is None
    assert sim.post_at(0.2, lambda: None) is None


def test_post_rejects_past_times():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.post(-0.1, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.post_at(0.5, lambda: None)


def test_post_and_schedule_share_tiebreak_order():
    """Mixing the two APIs at one timestamp fires in call order — they draw
    from the same sequence counter, so replacing schedule() with post() on
    a hot path can never perturb determinism."""
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, "s1")
    sim.post(0.5, fired.append, "p1")
    sim.schedule(0.5, fired.append, "s2")
    sim.post(0.5, fired.append, "p2")
    sim.run()
    assert fired == ["s1", "p1", "s2", "p2"]


def test_post_entries_are_recycled():
    """Fired post() entries return to the free list and are reused, so a
    long chain keeps the heap at depth 1 with no entry churn."""
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 100:
            sim.post(0.01, tick)

    sim.post(0.0, tick)
    sim.run()
    assert count[0] == 100
    # Two entries ping-pong through the free list (the in-flight entry is
    # only recycled after its callback returns), regardless of chain length.
    assert len(sim._free) == 2
    assert sim.pending_events == 0


def test_stale_cancel_after_fire_cannot_kill_recycled_entry():
    """schedule() entries are never pooled: cancelling a handle after its
    event fired must not affect any later event (the lazy-cancel trap a
    shared free list would create)."""
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.1, fired.append, "first")
    sim.run()
    assert fired == ["first"]
    # Recycle-heavy traffic after the fire...
    for _ in range(5):
        sim.post(0.1, fired.append, "posted")
    # ...then a stale cancel on the already-fired handle.
    handle.cancel()
    sim.run()
    assert fired == ["first"] + ["posted"] * 5


def test_event_handle_reports_cancelled_state():
    sim = Simulator()
    event = sim.schedule(0.1, lambda: None)
    assert not event.cancelled
    event.cancel()
    assert event.cancelled
    event.cancel()  # idempotent
    sim.run()
    assert sim.events_processed == 0


def test_run_until_with_post_only_heap():
    sim = Simulator()
    fired = []
    sim.post(0.1, fired.append, "early")
    sim.post(5.0, fired.append, "late")
    sim.run(until=1.0)
    assert fired == ["early"]
    assert sim.now == 1.0
    sim.run()
    assert fired == ["early", "late"]


def test_max_events_counts_fired_not_cancelled():
    sim = Simulator()
    fired = []
    keep1 = sim.schedule(0.1, fired.append, 1)
    drop = sim.schedule(0.2, fired.append, 2)
    sim.schedule(0.3, fired.append, 3)
    sim.schedule(0.4, fired.append, 4)
    drop.cancel()
    processed = sim.run(max_events=2)
    assert processed == 2
    assert fired == [1, 3]
    assert keep1.time == 0.1


# ----------------------------------------------------------------------
# reserve() / post_reserved(): tie-break slots filled later
# ----------------------------------------------------------------------
def test_reserved_slot_fires_where_it_was_reserved():
    """An event posted into a reserved slot fires among same-time events
    as if it had been posted when the slot was reserved."""
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, "before")
    slot = sim.reserve()
    sim.post(1.0, fired.append, "after")
    sim.schedule(1.0, fired.append, "after (handle)")
    sim.post_reserved(1.0, slot, fired.append, "slot")
    sim.run()
    assert fired == ["before", "slot", "after", "after (handle)"]


def test_reserved_slot_filled_from_a_later_event():
    sim = Simulator()
    fired = []
    slot = sim.reserve()
    sim.post(2.0, fired.append, "posted after the reservation")
    sim.post(1.0, lambda: sim.post_reserved(2.0, slot, fired.append, "slot"))
    sim.run()
    assert fired == ["slot", "posted after the reservation"]


def test_unfilled_reservation_fires_nothing():
    sim = Simulator()
    fired = []
    sim.reserve()
    sim.post(1.0, fired.append, "x")
    assert sim.run() == 1
    assert fired == ["x"]


def test_post_reserved_rejects_past_times():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.post_reserved(0.5, sim.reserve(), lambda: None)


def test_reserved_entries_are_pooled():
    """post_reserved() draws from and returns to the same free list as
    post(), so a chain of slot fills allocates no new entries."""
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 100:
            sim.post_reserved(sim.now + 0.01, sim.reserve(), tick)

    sim.post(0.0, tick)
    sim.run()
    assert count[0] == 100
    assert len(sim._free) == 2
    assert sim.pending_events == 0


def test_current_seq_is_the_firing_events_sequence_number():
    sim = Simulator()
    seen = []
    first = sim.schedule(1.0, lambda: seen.append(sim.current_seq))
    slot = sim.reserve()
    sim.post_reserved(1.0, slot, lambda: seen.append(sim.current_seq))
    second = sim.schedule(1.0, lambda: seen.append(sim.current_seq))
    assert sim.current_seq == 0
    sim.run()
    assert seen == [first.seq, slot, second.seq]


def test_current_seq_between_runs():
    """After a run drains or reaches its horizon every slot drawn so far
    is in the past; after stop() only the events that fired are."""
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.run(until=2.0)
    late = sim.reserve()
    assert sim.current_seq == late - 1
    stopper = sim.schedule(3.0, sim.stop)
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert sim.current_seq == stopper.seq
    sim.run()
    assert sim.current_seq == sim.reserve() - 1


def test_unpost_withdraws_a_pending_posted_event():
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, "a")
    sim.post(1.0, fired.append, "b")
    assert sim.unpost(1.0, fired.append, "a")
    assert not sim.unpost(1.0, fired.append, "a")
    assert not sim.unpost(2.0, fired.append, "b")
    assert sim.run() == 1
    assert fired == ["b"]


# ----------------------------------------------------------------------
# Timer: re-armable timeouts on reserved slots
# ----------------------------------------------------------------------
def _timer_log(sim, log, label="timer"):
    return Timer(sim, lambda: log.append((sim.now, label)))


def test_timer_fires_at_its_deadline():
    sim = Simulator()
    log = []
    timer = _timer_log(sim, log)
    assert not timer.pending
    timer.arm(1.0)
    assert timer.pending and timer.deadline == 1.0
    sim.run()
    assert log == [(1.0, "timer")]
    assert not timer.pending


def test_timer_rearm_later_pushes_nothing_and_fires_once():
    sim = Simulator()
    log = []
    timer = _timer_log(sim, log)
    timer.arm(1.0)
    sim.post(0.5, timer.arm, 1.0)
    sim.post(0.75, timer.arm, 1.0)
    sim.run(until=0.9)
    assert sim.pending_events == 1  # one entry, however often re-armed
    sim.run()
    assert log == [(1.75, "timer")]
    # Two re-arms, one timer entry: the stale wake-up at 1.0 re-posts it.
    assert sim.events_processed == 4


def test_timer_rearm_earlier_fires_once_at_the_new_deadline():
    sim = Simulator()
    log = []
    timer = _timer_log(sim, log)
    timer.arm(1.0)
    sim.post(0.2, timer.arm, 0.3)
    sim.run()
    assert log == [(0.5, "timer")]
    assert sim.events_processed == 2  # the superseded entry never fires


def test_timer_cancel():
    sim = Simulator()
    log = []
    timer = _timer_log(sim, log)
    timer.cancel()  # not pending: a no-op
    timer.arm(1.0)
    sim.post(0.5, timer.cancel)
    sim.run()
    assert log == [] and not timer.pending
    assert sim.events_processed == 1  # the cancelled entry is skipped
    timer.cancel()
    timer.arm(0.25)
    sim.run()
    assert log == [(0.75, "timer")]


def test_timer_cancel_then_rearm_keeps_the_new_deadline():
    sim = Simulator()
    log = []
    timer = _timer_log(sim, log)
    timer.arm(1.0)
    sim.post(0.5, lambda: (timer.cancel(), timer.arm(1.0)))
    sim.run()
    assert log == [(1.5, "timer")]


def test_timer_rearmed_from_its_callback():
    sim = Simulator()
    fired = []

    def on_timeout():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.arm(1.0)

    timer = Timer(sim, on_timeout)
    timer.arm(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]
    assert not timer.pending and sim.pending_events == 0


def test_timer_orders_like_a_schedule_made_when_armed():
    """Among events due at its deadline, the timer fires where an event
    scheduled at its last arm() would have: after those posted before
    that arm, before those posted after it."""
    sim = Simulator()
    log = []
    timer = _timer_log(sim, log)
    sim.post(1.0, log.append, (1.0, "posted before arm"))
    timer.arm(1.0)
    sim.schedule(1.0, log.append, (1.0, "scheduled after arm"))
    sim.run()
    assert log == [(1.0, "posted before arm"), (1.0, "timer"),
                   (1.0, "scheduled after arm")]


def test_timer_stale_entry_sharing_the_deadline_time():
    """Re-armed to the same instant its entry is due at: the entry wakes
    at its old position and re-posts into the new slot, behind events
    posted between the two arms."""
    sim = Simulator()
    log = []
    timer = _timer_log(sim, log)
    sim.post(1.0, log.append, (1.0, "A"))
    timer.arm(1.0)
    sim.post(1.0, log.append, (1.0, "B"))

    def rearm():
        sim.post(0.5, log.append, (1.0, "C"))
        timer.arm(0.5)
        sim.post(0.5, log.append, (1.0, "D"))

    sim.post(0.5, rearm)
    sim.run()
    assert log == [(1.0, "A"), (1.0, "B"), (1.0, "C"), (1.0, "timer"),
                   (1.0, "D")]


def test_timer_rejects_negative_delay():
    with pytest.raises(ValueError):
        Timer(Simulator(), lambda: None).arm(-1e-9)


class _ScheduleTimer:
    """The oracle: a timer made of schedule() handles, one fresh handle
    per arm and a cancel() of the previous one."""

    def __init__(self, sim, fn):
        self.sim, self.fn, self.event = sim, fn, None

    @property
    def pending(self):
        return self.event is not None

    def arm(self, delay):
        self.cancel()
        self.event = self.sim.schedule(delay, self._fire)

    def cancel(self):
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def _fire(self):
        self.event = None
        self.fn()


#: (tick, action, timer, delay in ticks); action 0 arms, 1 cancels and
#: 2 posts a marker ``delay`` ticks ahead.
_TIMER_OPS = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 2), st.integers(0, 2),
              st.integers(0, 8)),
    max_size=40)


def _play_timers(make_timer, ops, rearms):
    tick = 2.0 ** -10
    sim = Simulator()
    log = []
    timers = []
    for i in range(3):
        delays = list(rearms[i::3])

        def on_timeout(i=i, delays=delays):
            log.append((sim.now, "fire", i))
            if delays:
                timers[i].arm(delays.pop() * tick)

        timers.append(make_timer(sim, on_timeout))

    def act(n, action, i, delay):
        if action == 0:
            timers[i].arm(delay * tick)
        elif action == 1:
            timers[i].cancel()
        else:
            sim.post(delay * tick, log.append, (sim.now + delay * tick,
                                                "marker", n))
        log.append((sim.now, "op", n, [t.pending for t in timers]))

    for n, (at, action, i, delay) in enumerate(ops):
        sim.post_at(at * tick, act, n, action, i, delay)
    sim.run()
    return log


@settings(max_examples=300, deadline=None)
@given(ops=_TIMER_OPS, rearms=st.lists(st.integers(0, 8), max_size=12))
def test_timer_matches_schedule_and_cancel(ops, rearms):
    """Random arm/cancel sequences (re-arms from callbacks included),
    interleaved with posted events at colliding times, fire the same
    callbacks at the same times in the same order as the oracle."""
    assert (_play_timers(Timer, ops, rearms)
            == _play_timers(_ScheduleTimer, ops, rearms))
