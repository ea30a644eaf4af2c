"""Golden-value regression tests.

Seeded runs whose headline metrics are pinned to (generous) bands.  Unit
tests catch broken invariants; these catch *silent drift* — a change that
keeps everything green but quietly makes PASE 2x slower, or DCTCP
mysteriously lossless where it should mark, would trip one of these.
Bands are deliberately wide (±40-60%) so legitimate tuning doesn't thrash
them; order-of-magnitude regressions do.
"""

import pytest

from repro.harness import (
    ExperimentSpec,
    all_to_all_intra_rack,
    intra_rack,
    left_right,
    run_experiment,
)
from repro.harness.scenarios import intra_rack_data_loss

SEED = 42


class TestSingleFlowFloors:
    """A lone 100 KB flow on an idle 1 Gbps path: every protocol should be
    within a small factor of the 0.8 ms serialization floor."""

    @pytest.mark.parametrize("protocol,limit_ms", [
        ("pase", 1.4),
        ("pfabric", 1.3),
        ("pdq", 1.8),      # pays one probe RTT at startup
        ("dctcp", 2.2),    # slow start
        ("l2dct", 2.2),
    ])
    def test_lone_flow_fct(self, protocol, limit_ms):
        from repro.sim import Simulator, StarTopology
        from repro.harness.protocols import make_binding
        from repro.transports import Flow
        from repro.utils.units import GBPS, KB, USEC

        scn = intra_rack(num_hosts=4, num_background_flows=0)
        binding = make_binding(protocol, scn)
        sim = Simulator()
        topo = scn.build_topology(sim, binding.queue_factory())
        binding.setup_network(sim, topo)
        flow = Flow(flow_id=1, src=topo.hosts[0].node_id,
                    dst=topo.hosts[1].node_id, size_bytes=100 * KB,
                    start_time=0.0)
        binding.make_receiver(sim, topo.hosts[1], flow, None)
        binding.make_sender(sim, topo.hosts[0], flow).start()
        sim.run(until=1.0)
        assert flow.completed
        assert 0.8 <= flow.fct * 1e3 <= limit_ms


class TestScenarioBands:
    def test_pase_left_right_70(self):
        r = run_experiment(ExperimentSpec("pase", left_right(), 0.7, num_flows=150, seed=SEED))
        assert 1.0 < r.afct * 1e3 < 3.5
        assert r.loss_rate < 0.005
        assert r.stats.completion_fraction == 1.0

    def test_dctcp_left_right_70(self):
        r = run_experiment(ExperimentSpec("dctcp", left_right(), 0.7, num_flows=150, seed=SEED))
        assert 1.8 < r.afct * 1e3 < 5.5

    def test_pfabric_incast_loss_band(self):
        r = run_experiment(ExperimentSpec("pfabric", all_to_all_intra_rack(num_hosts=20, fanin=16),
                           0.8, num_flows=200, seed=SEED))
        assert 0.08 < r.loss_rate < 0.35

    def test_pase_control_overhead_band(self):
        r = run_experiment(ExperimentSpec("pase", left_right(), 0.7, num_flows=150, seed=SEED))
        cp = r.control_plane
        # Messages per flow: a handful of consultations per interval over a
        # few-ms lifetime; runaway chatter or dead arbitration both fail.
        per_flow = cp.messages / 150
        assert 3 < per_flow < 300

    def test_deadline_scenario_band(self):
        r = run_experiment(ExperimentSpec("pase", intra_rack(num_hosts=20, with_deadlines=True),
                           0.7, num_flows=150, seed=SEED))
        assert 0.7 < r.application_throughput <= 1.0

    def test_event_count_stability(self):
        """Event count is a deterministic fingerprint of the whole run."""
        a = run_experiment(ExperimentSpec("pase", intra_rack(num_hosts=8), 0.5,
                           num_flows=40, seed=SEED))
        b = run_experiment(ExperimentSpec("pase", intra_rack(num_hosts=8), 0.5,
                           num_flows=40, seed=SEED))
        assert a.events == b.events
        assert a.afct == b.afct


def _fingerprint(result) -> str:
    """sha256 over every flow's (id, start, completion, size, pkts_sent):
    any change to scheduling order, timing arithmetic, or retransmission
    behavior shifts at least one completion time and flips the digest."""
    import hashlib

    lines = []
    for f in sorted(result.flows, key=lambda f: f.flow_id):
        lines.append(f"{f.flow_id}:{f.start_time!r}:{f.completion_time!r}"
                     f":{f.size_bytes}:{f.pkts_sent}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _run_with_link_totals(spec, monkeypatch):
    """Run ``spec`` and sum (pkts_sent, bytes_sent, enqueued_total, queue
    drops, busy_time) over every link of its network.  Equal totals mean
    the same packets crossed the same links, independent of how many
    engine events the link model spends per hop."""
    from repro.harness import experiment

    networks = []
    from_network = experiment.NetworkCounters.from_network.__func__

    def capture(cls, network, duration):
        networks.append(network)
        return from_network(cls, network, duration)

    monkeypatch.setattr(experiment.NetworkCounters, "from_network",
                        classmethod(capture))
    result = run_experiment(spec)
    links = list(networks[0].links.values())
    totals = (sum(l.pkts_sent for l in links),
              sum(l.bytes_sent for l in links),
              sum(l.queue.enqueued_total for l in links),
              sum(l.queue.drops for l in links),
              sum(l.busy_time for l in links))
    return result, totals


class TestByteIdenticalGoldens:
    """Exact pinned fingerprints, captured before the event-engine fast
    path landed (list heap entries, pooled ``post()``, batched link
    serialization).  These prove the optimizations are *byte-identical*:
    same seeds → same per-flow FCTs, to the last bit, and the same
    per-link totals (captured before the ``free_at`` link timeline, which
    spends fewer events per hop: the event counts were re-pinned then,
    the FCT digests and link totals were not).
    An intentional semantic change to the simulator must re-pin these.
    """

    def test_pase_intra_rack_golden(self, monkeypatch):
        r, links = _run_with_link_totals(ExperimentSpec(
            "pase", intra_rack(num_hosts=8), 0.5, num_flows=40, seed=42),
            monkeypatch)
        assert r.events == 68835
        assert links == (39169, 30135256, 39475, 0, 0.24113036800000884)
        assert _fingerprint(r) == ("f78233a1e5f7e1f8297349a24ff0077d"
                                   "3cf92c4a1d45cd3295161e0fa36e4dca")

    def test_dctcp_intra_rack_golden(self, monkeypatch):
        r, links = _run_with_link_totals(ExperimentSpec(
            "dctcp", intra_rack(num_hosts=8), 0.6, num_flows=40, seed=7),
            monkeypatch)
        assert r.events == 78348
        assert links == (45823, 35332728, 45832, 104, 0.2827101440000103)
        assert _fingerprint(r) == ("2ac54cbb0aa53700e9dfefb00356ee15"
                                   "394c00d7382bd3aef8544622a66db7d0")

    def test_pfabric_left_right_golden(self, monkeypatch):
        r, links = _run_with_link_totals(ExperimentSpec(
            "pfabric", left_right(hosts_per_rack=4), 0.7,
            num_flows=60, seed=3), monkeypatch)
        assert r.events == 124660
        assert links == (84065, 65090874, 84476, 397, 0.5207993119999905)
        assert _fingerprint(r) == ("d9d1441d4de48168288cbd7f07a9e9c5"
                                   "52e30902aa24ccca497d75682fb1d8d1")

    def test_pase_delegation_golden(self, monkeypatch):
        """Delegation-heavy: every left-right flow crosses the core, so the
        virtual arbitrators and the periodic share rebalancer are on the
        hot path.  Pinned immediately before the sorted-table fast path and
        the epoch-batch ``decide_all`` landed, so it proves the rebalance
        path (``aggregate_demand(top_queues=1)`` → ``set_share`` →
        ``decide_all``) is byte-identical too."""
        r, links = _run_with_link_totals(ExperimentSpec(
            "pase", left_right(hosts_per_rack=4), 0.7,
            num_flows=80, seed=11), monkeypatch)
        assert r.events == 136562
        assert links == (89907, 68987200, 89961, 0, 0.5519582399999852)
        assert r.stats.completion_fraction == 1.0
        assert _fingerprint(r) == ("d87f7b897b4bc74b6dc0855be8fa5e60"
                                   "db195269f045cf8d4d825375a1065341")


class TestTimeoutGoldens:
    """Exact pins of runs whose retransmission timers actually fire.  The
    goldens above complete without a single RTO; these three send the
    pFabric, DCTCP (through injected data loss) and PDQ timeout paths
    hundreds of times, so a timer that fires at another instant or in
    another same-instant position flips their digests."""

    def test_pfabric_incast_timeouts_golden(self, monkeypatch):
        r, links = _run_with_link_totals(ExperimentSpec(
            "pfabric", all_to_all_intra_rack(num_hosts=20, fanin=16), 0.8,
            num_flows=200, seed=7), monkeypatch)
        assert sum(f.timeouts for f in r.flows) == 378
        assert r.events == 101174
        assert links == (59287, 49829396, 63041, 7119, 0.39863548799999354)
        assert _fingerprint(r) == ("63fe2e01ac4b17062521b737adab5c60"
                                   "d497d12498fe25fd4a3447941e6465ae")

    def test_dctcp_data_loss_timeouts_golden(self, monkeypatch):
        r, links = _run_with_link_totals(ExperimentSpec(
            "dctcp", intra_rack_data_loss(num_hosts=20), 0.6,
            num_flows=60, seed=7), monkeypatch)
        assert sum(f.timeouts for f in r.flows) == 53
        assert r.faults.injected_loss_drops == 329
        assert r.events == 100327
        assert links == (64518, 49729600, 64523, 329, 0.3978851200000015)
        assert _fingerprint(r) == ("1579855a48e1d257457c041d1a485dfb"
                                   "1fa60d37d1adc5f2a6676b590ca39e8e")

    def test_pdq_incast_timeouts_golden(self, monkeypatch):
        r, links = _run_with_link_totals(ExperimentSpec(
            "pdq", all_to_all_intra_rack(num_hosts=20, fanin=16), 0.8,
            num_flows=200, seed=7), monkeypatch)
        assert sum(f.timeouts for f in r.flows) == 3
        assert r.events == 122722
        assert links == (69898, 38923633, 69899, 30, 0.3113893839999937)
        assert _fingerprint(r) == ("bc04457ecd499982207f8132c5b76517"
                                   "a8dbe5057296034d4660cf51a5165d07")
