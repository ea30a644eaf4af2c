"""Tests of the benchmark itself: span arithmetic, seeded inputs, output
names, the host-speed correction and the removal of trace wrappers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import importlib
import inspect
import json
import re
import signal
import time

import numpy as np
import pytest

import hostspeed
import run
import workloads
from spans import LAYER_CLASSES, SETUP_CALLS, Tracer, layer_of, self_times
from workloads import Point, execute, points, summarize

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = [Point("dctcp", "intra-rack", (("num_hosts", 4),), 0.5, 6, 3),
        Point("pase", "intra-rack-arb-crash", (("num_hosts", 4),), 0.5, 6, 4)]


def test_self_times_sum_to_root():
    # root 0..10 { a 1..4 { b 2..3 }, c 5..9 { a 6..7 } }
    spans = np.array([
        [0, -1, 0.0, 10.0],
        [1, 0, 1.0, 4.0],
        [2, 1, 2.0, 3.0],
        [3, 0, 5.0, 9.0],
        [1, 3, 6.0, 7.0],
    ])
    own, inclusive = self_times(spans, 4)
    assert own.tolist() == [3.0, 3.0, 1.0, 3.0]
    assert own.sum() == 10.0
    assert inclusive.tolist() == [10.0, 4.0, 1.0, 4.0]


def test_self_times_nested_same_name_counts_once_inclusive():
    spans = np.array([[0, -1, 0.0, 4.0], [1, 0, 0.0, 3.0], [1, 1, 1.0, 2.0]])
    own, inclusive = self_times(spans, 2)
    assert own.tolist() == [1.0, 3.0]
    assert inclusive.tolist() == [4.0, 3.0]


def test_span_problem_flags_open_unclosed_and_extra_roots():
    tree = np.array([[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0]])
    assert run.span_problem(tree, 0) is None
    assert "still open" in run.span_problem(tree, 1)
    unclosed = np.array([[0, -1, 0.0, 10.0], [1, 0, 1.0, 0.0]])
    assert "never closed" in run.span_problem(unclosed, 0)
    two_roots = np.array([[0, -1, 0.0, 10.0], [1, -1, 11.0, 12.0]])
    assert "root" in run.span_problem(two_roots, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_points_are_seeded(workload):
    assert points(workload, 7) == points(workload, 7)
    assert points(workload, 7) != points(workload, 8)
    assert len({p.seed for p in points(workload, 7)}) == len(points(workload, 7))


def test_seeded_workload_generation_is_identical():
    from repro.harness import make_binding
    from repro.sim import Simulator
    from repro.workloads.generator import WorkloadConfig, generate_workload

    def flows(point):
        spec = point.spec()
        scenario = spec.scenario
        topology = scenario.build_topology(
            Simulator(), make_binding(spec.protocol, scenario).queue_factory())
        config = WorkloadConfig(
            pattern=scenario.build_pattern(topology),
            size_dist=scenario.size_dist, load=spec.load,
            num_flows=spec.num_flows, seed=spec.seed,
            num_background_flows=scenario.num_background_flows)
        return [(f.src, f.dst, f.size_bytes, f.start_time)
                for f in generate_workload(config)]

    point = points("runner-sweep", 5)[0]
    assert flows(point) == flows(point)
    assert flows(point) != flows(points("runner-sweep", 6)[0])


def test_benchmark_json_names_and_bounds():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in spec[kind]]
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload,trace", [("runner-sweep", 0),
                                            ("runner-sweep", 1),
                                            ("pase-leftright", 1)])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys,
                                              workload, trace):
    monkeypatch.setattr(workloads, "points", lambda w, seed: TINY)
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    table = run.metric_table()["per_layer" if trace else "end_to_end"]
    assert code == 0 and out["correct"], out
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == list(table)
    for name, metric in out["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == table[name]
        assert isinstance(metric["value"], (int, float))
    if trace:
        m = {k: v["value"] for k, v in out["metrics"].items()}
        assert m["faults.fallback_episodes"] > 0
        assert m["core.arbitration.decisions"] > 0
        assert m["transports.pdq.self_s"] == 0


def _attributes():
    """Every attribute the tracer may patch, by identity."""
    from repro.sim.engine import Simulator

    owners = [Simulator]
    for module_name, class_names in LAYER_CLASSES:
        module = importlib.import_module(module_name)
        owners += [getattr(module, c) for c in class_names]
    for module_name, class_name, _, _ in SETUP_CALLS:
        module = importlib.import_module(module_name)
        owners.append(module)
        owners += [c for c in vars(module).values() if inspect.isclass(c)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_trace_wrappers_are_removed_and_results_match():
    before = _attributes()
    reference = [summarize(p, *execute(p)) for p in TINY]
    tracer = Tracer()
    with tracer.installed():
        assert tracer.patched
        traced = []
        for point in TINY:
            tracer.clear_spans()
            with tracer.point():
                result, total = execute(point)
            traced.append(summarize(point, result, total))
            spans = tracer.span_array()
            own, _ = self_times(spans, len(tracer.names))
            assert own.sum() == pytest.approx(spans[0, 3] - spans[0, 2])
    after = _attributes()
    assert not tracer.patched
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__perfbench_traced__", False)
                   for v in after.values())
    assert [(r.events, r.fingerprint) for r in traced] == \
        [(r.events, r.fingerprint) for r in reference]
    assert tracer.count_dict()["Link.send"] > 0


def test_layer_of():
    assert layer_of("repro.sim.link") == "sim.link"
    assert layer_of("repro.transports.base") == "transports"
    assert layer_of("repro.transports.pdq") == "transports.pdq"
    assert layer_of("repro.core.arbitration") == "core.arbitration"
    assert layer_of("repro.faults.injector") == "faults"
    assert layer_of("builtins") == "other"


def test_corrected_takes_out_probe_share_and_host_factor():
    # 10 probes of 2 nominal probe times each: the host ran at half speed;
    # they took 20 % of a 0.1 s window.
    window = (10, 20 * hostspeed.NOMINAL_S)
    elapsed = 20 * hostspeed.NOMINAL_S / 0.2
    assert hostspeed.host_factor(window) == pytest.approx(2.0)
    assert hostspeed.corrected(1.0, elapsed, window) == pytest.approx(0.4)
    assert hostspeed.host_factor((0, 0.0)) == 1.0
    assert hostspeed.corrected(1.0, 0.5, (0, 0.0)) == 1.0


def test_host_clock_probes_then_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        mark = clock.mark()
        deadline = time.perf_counter() + 20 * hostspeed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
        probes, probe_s = clock.since(mark)
    assert probes >= 5 and probe_s > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_clock_leaves_outputs_unchanged():
    reference = [summarize(p, *execute(p)) for p in TINY]
    with hostspeed.HostClock() as clock:
        _, probed = workloads.inprocess_pass(TINY, clock)
    assert [(r.events, r.fingerprint) for r in probed] == \
        [(r.events, r.fingerprint) for r in reference]
    assert all(r.sim_s > 0 for r in probed)
    assert any(r.host_factor != 1.0 for r in probed)
