"""The benchmark's workloads, and the code that runs and checks their points.

A workload is a fixed list of :class:`Point`\\ s derived from the
``--seed``.  Each point is one ``run_experiment`` call, described as plain
data so the same point can run in-process or through ``repro.runner``.
Every point is summarised right after it runs (:class:`PointRun`), so a
pass never holds more than one live simulator.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import HostClock, corrected, host_factor

#: Access-link speed of every scenario the workloads use (bits/s); no flow
#: can finish faster than its payload takes to serialize at this rate.
HOST_LINK_BPS = 1e9

#: Workload names; BENCHMARK.json and README.md say why each is here.
WORKLOADS = ("pase-leftright", "baselines-incast", "runner-sweep")

_LEFT_RIGHT_POINTS = 10
_LEFT_RIGHT_FLOWS = 100
_INCAST_REPEATS = 3
_INCAST_FLOWS = 200
_SWEEP_FLOWS = 60
_SWEEP_LOADS = (0.4, 0.6, 0.8)


@dataclass(frozen=True)
class Point:
    """One ``run_experiment`` call as plain data."""

    protocol: str
    scenario: str
    scenario_kwargs: Tuple[Tuple[str, object], ...]
    load: float
    num_flows: int
    seed: int

    def _scenario_spec(self):
        from repro.runner import ScenarioSpec

        return ScenarioSpec(self.scenario, dict(self.scenario_kwargs))

    @property
    def label(self) -> str:
        return (f"{self.protocol}/{self._scenario_spec().label()}"
                f"/load={self.load:g}/seed={self.seed}")

    def spec(self):
        from repro.harness import ExperimentSpec

        return ExperimentSpec(self.protocol, self._scenario_spec().build(),
                              self.load, num_flows=self.num_flows,
                              seed=self.seed)

    def descriptor(self):
        from repro.runner import RunDescriptor

        return RunDescriptor(self.protocol, self._scenario_spec(), self.load,
                             seed=self.seed, num_flows=self.num_flows)


def points(workload: str, seed: int) -> List[Point]:
    """The points of ``workload``; each gets its own seed derived from
    ``seed``, so one ``--seed`` fixes every input."""
    if workload == "pase-leftright":
        grid = [("pase", "left-right", (), 0.8, _LEFT_RIGHT_FLOWS)
                for _ in range(_LEFT_RIGHT_POINTS)]
    elif workload == "baselines-incast":
        incast = (("fanin", 16), ("num_hosts", 20))
        grid = [(protocol, "all-to-all", incast, 0.8, _INCAST_FLOWS)
                for _ in range(_INCAST_REPEATS)
                for protocol in ("dctcp", "pfabric", "pdq")]
    elif workload == "runner-sweep":
        rack = (("num_hosts", 20),)
        grid = [(protocol, "intra-rack", rack, load, _SWEEP_FLOWS)
                for protocol in ("dctcp", "pfabric", "pdq", "pase")
                for load in _SWEEP_LOADS]
        grid += [("pase", "intra-rack-arb-crash", rack, 0.6, _SWEEP_FLOWS),
                 ("dctcp", "intra-rack-data-loss", rack, 0.6, _SWEEP_FLOWS)]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {sorted(WORKLOADS)}")
    return [Point(protocol, scenario, kwargs, load, flows, seed * 100 + i)
            for i, (protocol, scenario, kwargs, load, flows) in enumerate(grid)]


def fingerprint(result) -> str:
    """sha256 over every flow's (id, start, completion, size, pkts_sent),
    the recipe of ``_fingerprint`` in tests/test_regression_golden.py."""
    lines = []
    for f in sorted(result.flows, key=lambda f: f.flow_id):
        lines.append(f"{f.flow_id}:{f.start_time!r}:{f.completion_time!r}"
                     f":{f.size_bytes}:{f.pkts_sent}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@dataclass
class PointRun:
    """What the benchmark keeps of one executed point."""

    point: Point
    events: int = 0
    fingerprint: str = ""
    sim_s: float = 0.0
    setup_s: float = 0.0
    #: FCTs (s) of the completed foreground flows.
    fcts: List[float] = field(default_factory=list)
    p99_fct: float = 0.0
    attempted: int = 0
    failed: int = 0
    timeouts: int = 0
    pkts_sent: int = 0
    unique_pkts: int = 0
    fallback_episodes: int = 0
    data_offered: int = 0
    data_dropped: int = 0
    cp_requests: int = 0
    cp_messages: int = 0
    #: Host factor (see :mod:`hostspeed`) by which sim_s/setup_s were
    #: corrected; 1.0 when they are raw host seconds.
    host_factor: float = 1.0
    #: Why the point counts as failed, or None.
    error: Optional[str] = None

    def fail(self, error: str) -> None:
        """Mark the point failed: every foreground flow counts as failed."""
        self.error = self.error or error
        self.attempted = self.attempted or self.point.num_flows
        self.failed = self.attempted

    def correct(self, elapsed_s: float, window) -> None:
        """Turn sim_s/setup_s into nominal seconds, given the probes a
        :class:`hostspeed.HostClock` ran over ``elapsed_s`` seconds that
        cover the point."""
        self.sim_s = corrected(self.sim_s, elapsed_s, window)
        self.setup_s = corrected(self.setup_s, elapsed_s, window)
        self.host_factor = host_factor(window)

    def provenance(self) -> Dict[str, object]:
        return {"label": self.point.label, "seed": self.point.seed,
                "events": self.events, "fingerprint": self.fingerprint,
                "sim_s": self.sim_s, "setup_s": self.setup_s,
                "host_factor": self.host_factor, "error": self.error}


def summarize(point: Point, result, total_s: float) -> PointRun:
    """Reduce a result to a :class:`PointRun` and check its outputs."""
    foreground = [f for f in result.flows if not f.background]
    done = [f for f in foreground if f.completed]
    run = PointRun(
        point=point,
        events=result.events,
        fingerprint=fingerprint(result),
        sim_s=result.wallclock,
        setup_s=total_s - result.wallclock,
        fcts=[f.fct for f in done],
        p99_fct=result.p99_fct if done else 0.0,
        attempted=len(foreground),
        failed=len(foreground) - len(done),
        timeouts=sum(f.timeouts for f in result.flows),
        pkts_sent=sum(f.pkts_sent for f in done),
        unique_pkts=sum(f.total_pkts for f in done),
        fallback_episodes=sum(f.fallback_episodes for f in result.flows),
        data_offered=result.network.data_pkts_offered,
        data_dropped=result.network.data_pkts_dropped,
    )
    if result.control_plane is not None:
        run.cp_requests = result.control_plane.requests
        run.cp_messages = result.control_plane.messages
    if len(foreground) != point.num_flows:
        run.fail(f"{len(foreground)} foreground flows, "
                 f"expected {point.num_flows}")
    too_fast = [f.flow_id for f in done
                if f.fct < f.size_bytes * 8 / HOST_LINK_BPS]
    if too_fast:
        run.fail(f"flows {too_fast[:5]} finished faster than line rate")
    if result.events <= 0:
        run.fail("no events fired")
    return run


def execute(point: Point):
    """Build and run one point in this process; returns the result and the
    seconds from building the spec to collecting the result."""
    from repro.harness import run_experiment

    started = time.perf_counter()
    result = run_experiment(point.spec())
    return result, time.perf_counter() - started


def run_inprocess(point: Point) -> PointRun:
    return summarize(point, *execute(point))


def inprocess_check(point: Point, reference: PointRun) -> PointRun:
    """Run ``point`` in this process; it must reproduce ``reference``."""
    run = run_inprocess(point)
    mismatches([reference], [run], "in-process")
    return run


def inprocess_pass(pts: List[Point], clock: Optional[HostClock] = None
                   ) -> Tuple[float, List[PointRun]]:
    """Run every point in order; returns (seconds spent in the points,
    runs).  With a ``clock``, each point's times are corrected by the host
    factor measured while it ran.  Garbage of one point is collected before
    the next starts, so no point's time depends on when the collector last
    ran."""
    runs = []
    for point in pts:
        if clock is None:
            runs.append(run_inprocess(point))
        else:
            mark, started = clock.mark(), time.perf_counter()
            run = run_inprocess(point)
            run.correct(time.perf_counter() - started, clock.since(mark))
            runs.append(run)
        gc.collect()
    return sum(r.sim_s + r.setup_s for r in runs), runs


@dataclass
class SweepPass:
    """One uncached sweep plus the cached re-run of the same grid."""

    wall_s: float
    warm_s: float
    cache_hit_ratio: float
    runs: List[PointRun]
    cached: List[PointRun]
    peak_rss_kb: int


def _record_run(point: Point, record) -> PointRun:
    if record.ok and record.result is not None:
        run = summarize(point, record.result, record.wallclock)
    else:
        run = PointRun(point=point)
        run.fail(f"runner status {record.status}: {record.error}")
    return run


def probed_execute(probe_dir: Path, descriptor):
    """``repro.runner`` work function: run one point under a
    :class:`HostClock` and leave the clock's window, with the seconds it
    spans, in ``probe_dir`` under the descriptor's content hash."""
    from repro.runner import execute_descriptor

    with HostClock() as clock:
        started = time.perf_counter()
        result = execute_descriptor(descriptor)
        elapsed = time.perf_counter() - started
    (probe_dir / f"{descriptor.content_hash()}.json").write_text(
        json.dumps([elapsed, clock.probes, clock.probe_s]))
    return result


def sweep_pass(pts: List[Point], workdir: Path, jobs: int,
               probe: bool = False) -> SweepPass:
    """Run ``pts`` through ``repro.runner.run_sweep`` with a fresh cache
    and JSONL ledger (in a directory under ``workdir``, removed after),
    then again from the cache.  With ``probe``, every worker of the
    uncached sweep runs its point under a :class:`HostClock`, and the
    point's times, and the sweep's wall time, are corrected by the host
    factors the workers measured."""
    from repro.runner import RunnerConfig, execute_descriptor, run_sweep

    workdir.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    probe_dir = cache_dir / "probes"
    probe_dir.mkdir()
    work_fn = (functools.partial(probed_execute, probe_dir) if probe
               else execute_descriptor)
    try:
        descriptors = [p.descriptor() for p in pts]
        started = time.perf_counter()
        cold = run_sweep(descriptors, RunnerConfig(
            jobs=jobs, cache_dir=cache_dir,
            jsonl_path=cache_dir / "ledger.jsonl"), work_fn=work_fn)
        wall = time.perf_counter() - started
        started = time.perf_counter()
        warm = run_sweep(descriptors, RunnerConfig(jobs=jobs,
                                                   cache_dir=cache_dir))
        warm_s = time.perf_counter() - started
        windows = {f.stem: json.loads(f.read_text())
                   for f in probe_dir.glob("*.json")}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    runs = [_record_run(p, r) for p, r in zip(pts, cold.records)]
    cached = [_record_run(p, r) for p, r in zip(pts, warm.records)]
    if probe:
        total = [0.0, 0, 0.0]
        for run, descriptor in zip(runs, descriptors):
            window = windows.get(descriptor.content_hash())
            if window is None:
                run.fail("its worker left no host-speed probes")
                continue
            run.correct(window[0], (window[1], window[2]))
            total = [a + b for a, b in zip(total, window)]
        wall = corrected(wall, total[0], (total[1], total[2]))
    for run, record in zip(cached, warm.records):
        if not record.cached:
            run.fail("re-run was not served from the cache")
    hits = sum(1 for r in warm.records if r.cached)
    rss = max((r.peak_rss_kb or 0) for r in cold.records)
    return SweepPass(wall, warm_s, hits / len(pts), runs, cached, rss)


def mismatches(reference: List[PointRun], other: List[PointRun],
               what: str) -> None:
    """Fail every run of ``other`` whose events or fingerprint differ from
    the run of the same point in ``reference``."""
    for ref, run in zip(reference, other):
        if (run.events, run.fingerprint) != (ref.events, ref.fingerprint):
            run.fail(f"{what} run gave {run.events} events "
                     f"{run.fingerprint[:12]}, expected {ref.events} "
                     f"{ref.fingerprint[:12]}")
