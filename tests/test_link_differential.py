"""Differential tests: the ``free_at`` link against the two-event oracle.

Random arrival schedules drive 2-3 chained links (``PriorityQueueBank``,
``PFabricQueue`` and ``REDQueue`` egresses).  Arrival times, frame sizes,
capacities and propagation delays sit on a common tick so serialization
ends, deliveries and arrivals collide at exactly the same instant, and
some arrivals are trains paced at exactly the line rate, so a packet is
offered at the very instant the previous frame ends, after that frame's
reserved slot.  Counters are also read at horizons in mid-run, and link
flaps are mixed in.

The two models agree exactly — the same (time, packet, link, ECN mark)
delivery sequence in the same order, and the same counters — when all
links share one propagation delay longer than any serialization time
and times are exact (dyadic tick).  That is the regime of every topology
in this repository (25 us or 75 us per link, at most 12 us per frame).
With per-link propagation delays, or with decimal times whose rounding
can merge two different serialization ends onto one delivery instant,
deliveries that land on *different* links at the same instant may
interleave differently; each link's own sequence and all counters still
agree.  A propagation delay shorter than a serialization time breaks the
equivalence: see ``test_short_propagation_can_change_service_order``.
"""

import collections
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import make_data_packet
from repro.sim.queues import PFabricQueue, PriorityQueueBank, REDQueue

from tests.two_event_link import TwoEventLink

#: Tick in seconds: dyadic (every sum is exact) or decimal (sums round,
#: identically in both models).
DYADIC_TICK = 2.0 ** -20
DECIMAL_TICK = 1e-6
#: 125 B serialize in one tick at speed 1; 1500 B at speed 0.5 take the
#: longest, 24 ticks.
SIZES = (125, 250, 625, 1500)
SPEEDS = (0.5, 1, 2, 4)
#: Propagation delays (ticks), all longer than the longest serialization.
LONG_PROPS = (25, 30, 48)

QUEUES = {
    "prio": lambda: PriorityQueueBank(num_queues=3, capacity_pkts=4,
                                      mark_threshold_pkts=2),
    "pfabric": lambda: PFabricQueue(capacity_pkts=3),
    "red": lambda: REDQueue(capacity_pkts=4, mark_threshold_pkts=2),
}


class Relay(Node):
    """Logs every delivery, then forwards onto the next link of the chain."""

    def __init__(self, sim, node_id, log):
        super().__init__(sim, node_id, f"n{node_id}")
        self.log = log
        self.next_link = None

    def receive(self, pkt, from_link):
        self.log.append((self.sim.now, pkt.seq, from_link.name,
                         pkt.ecn_marked))
        if self.next_link is not None:
            self.next_link.send(pkt)


def link_counters(link):
    q = link.queue
    return (link.pkts_sent, link.bytes_sent, link.busy_time, link.busy,
            link.data_pkts_offered, link.down_drops, link.down_transitions,
            q.enqueued_total, q.drops, q.marks, len(q))


def run_chain(link_cls, case):
    """Run ``case`` on a chain of ``link_cls`` links; returns the delivery
    log and the per-link counters at every horizon and at the end."""
    tick = case["tick"]
    sim = Simulator()
    log = []
    nodes = [Relay(sim, i, log) for i in range(len(case["links"]) + 1)]
    links = []
    for i, (speed, prop_ticks, queue) in enumerate(case["links"]):
        link = link_cls(sim, f"l{i}", nodes[i], nodes[i + 1],
                        1000 / tick * speed, prop_ticks * tick,
                        QUEUES[queue]())
        nodes[i].next_link = link
        links.append(link)
    seqs = itertools.count()

    def train(link, left, size, priority, queue_index):
        seq = next(seqs)
        link.send(make_data_packet(0, len(links), seq % 3, seq, size=size,
                                   priority=priority,
                                   queue_index=queue_index))
        if left > 1:
            # Paced at exactly the line rate: the next packet is offered
            # at the instant this one's serialization ends.
            sim.post(size * 8 / link.capacity_bps, train, link, left - 1,
                     size, priority, queue_index)

    for t, hop, size, priority, queue_index, length in case["arrivals"]:
        sim.schedule_at(t * tick, train, links[hop % len(links)], length,
                        size, priority, queue_index)
    for t, hop, flush, length in case["flaps"]:
        link = links[hop % len(links)]
        sim.schedule_at(t * tick, link.set_down, flush)
        sim.schedule_at((t + length) * tick, link.set_up)

    snapshots = []
    for h in sorted(case["horizons"]):
        sim.run(until=h * tick)
        snapshots.append([link_counters(link) for link in links])
    sim.run()
    snapshots.append([link_counters(link) for link in links])
    return log, snapshots


def per_link(result):
    log, snapshots = result
    by_link = collections.defaultdict(list)
    for entry in log:
        by_link[entry[2]].append(entry)
    return dict(by_link), snapshots


def chains(ticks, props, shared_prop):
    """Cases over 2-3 links; ``shared_prop`` gives all links one delay."""
    link = st.tuples(st.sampled_from(SPEEDS), st.sampled_from(props),
                     st.sampled_from(sorted(QUEUES)))

    def share(case):
        if shared_prop:
            prop = case["links"][0][1]
            case["links"] = [(s, prop, q) for s, _, q in case["links"]]
        return case

    return st.fixed_dictionaries({
        "tick": st.sampled_from(ticks),
        "links": st.lists(link, min_size=2, max_size=3),
        "arrivals": st.lists(
            st.tuples(st.integers(0, 48), st.integers(0, 2),
                      st.sampled_from(SIZES), st.integers(0, 4),
                      st.integers(0, 2), st.sampled_from((1, 1, 1, 2, 4))),
            min_size=1, max_size=25),
        "flaps": st.lists(st.tuples(st.integers(0, 80), st.integers(0, 2),
                                    st.booleans(), st.integers(0, 30)),
                          max_size=2),
        "horizons": st.lists(st.integers(0, 120), max_size=3),
    }).map(share)


SETTINGS = settings(max_examples=250, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(case=chains((DYADIC_TICK,), LONG_PROPS, shared_prop=True))
def test_free_at_link_matches_two_event_oracle(case):
    assert run_chain(Link, case) == run_chain(TwoEventLink, case)


@SETTINGS
@given(case=chains((DYADIC_TICK, DECIMAL_TICK), LONG_PROPS,
                   shared_prop=False))
def test_free_at_link_matches_oracle_per_link(case):
    assert per_link(run_chain(Link, case)) == \
        per_link(run_chain(TwoEventLink, case))


def test_short_propagation_can_change_which_packet_drops():
    """Outside the regime above the models part ways.  A delivery is
    posted when its frame starts, so it sorts before a same-instant
    serialization end that the two-event model only created while the
    frame was on the wire.  Here (propagation 2 ticks, frames 2-24 ticks)
    packet 6 reaches n1 at the instant l1 finishes a frame: the two-event
    model frees l1's buffer slot first and forwards packet 6, the
    ``free_at`` link offers it to a full pFabric buffer, which drops it."""
    case = {"tick": DYADIC_TICK,
            "links": [(0.5, 2, "pfabric"), (0.5, 2, "pfabric")],
            "arrivals": [(0, 0, 250, 0, 0, 4), (0, 0, 125, 0, 0, 1),
                         (0, 0, 125, 0, 0, 1), (0, 0, 625, 0, 0, 1),
                         (0, 1, 1500, 0, 0, 1)],
            "flaps": [], "horizons": []}
    new = per_link(run_chain(Link, case))[0]
    old = per_link(run_chain(TwoEventLink, case))[0]
    assert new["l0"] == old["l0"]
    assert [seq for _, seq, _, _ in old["l1"]] == [4, 0, 1, 2, 5, 6, 7]
    assert [seq for _, seq, _, _ in new["l1"]] == [4, 0, 1, 2, 5, 7]
