"""Repository benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload pase-leftright --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload pase-leftright --seed 1 --seconds 40 --trace 1

``--trace 0`` repeats passes over the workload's points for at most
``--seconds`` (at least two passes) and reports the end-to-end metrics of
BENCHMARK.json as medians over passes.  ``--trace 1`` runs one untraced
pass, then the same points again under :mod:`spans`, and reports the
per-layer metrics.  Both check the program's outputs: every point is
fingerprinted, and repeated, cached, worker and traced runs of a point
must agree.  The last line of standard output is one JSON object; the exit
code is 1 when a check failed and 2 when the program cannot be imported.
Spans of the first traced point and a full report are written to
``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 2

#: Layers whose self time the traced pass reports as ``<layer>.self_s``.
SELF_LAYERS = ("sim.engine", "sim.link", "sim.queues", "sim.node",
               "transports", "transports.pdq", "core.endhost",
               "core.control_plane", "core.arbitration", "faults")
#: Set-up spans whose inclusive time is reported as ``<name>_s``.
SETUP_SPANS = ("harness.build", "sim.network.routes", "workloads.generate",
               "metrics.collect")
#: Largest share of traced time that may fall to no layer of SELF_LAYERS
#: (the root span, set-up spans, modules outside the listed layers).
UNATTRIBUTED_LIMIT = 0.1


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> Optional[str]:
    """Import ``repro`` from this checkout's ``src``; an error message when
    it is missing or comes from somewhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        import repro.harness  # noqa: F401  (import cost stays out of timings)
        import repro.runner  # noqa: F401
    except ImportError as exc:
        return f"cannot import repro from {src}: {exc}"
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        return f"repro was imported from {origin}, not from {src}"
    return None


def metric_table() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    BENCHMARK.json, the one list of metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_header(args: argparse.Namespace) -> Dict[str, object]:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def sweep_jobs() -> int:
    """Worker processes for runner-sweep: two, or fewer on fewer CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_point_times(passes: List[list]) -> List[Dict[str, object]]:
    """Per-point provenance with sim_s/setup_s as medians over passes."""
    rows = []
    for i, run in enumerate(passes[0]):
        row = run.provenance()
        row["sim_s"] = statistics.median(p[i].sim_s for p in passes)
        row["setup_s"] = statistics.median(p[i].setup_s for p in passes)
        rows.append(row)
    return rows


def summed_medians(passes: List[list], key) -> float:
    """Sum over points of ``key(run)``'s median over passes."""
    return sum(statistics.median(key(runs[i]) for runs in passes)
               for i in range(len(passes[0])))


def fct_metrics(runs) -> Dict[str, float]:
    """Mean FCT over every completed foreground flow, and the mean over
    points of each point's 99th-percentile FCT, both in ms."""
    fcts = [x for r in runs for x in r.fcts]
    return {"afct_ms": 1e3 * ratio(sum(fcts), len(fcts)),
            "p99_fct_ms": 1e3 * statistics.mean(r.p99_fct for r in runs)}


def measure(args: argparse.Namespace, pts) -> Dict[str, object]:
    """The untraced measurement: passes until ``args.seconds`` are used.
    Times are in nominal seconds, corrected for the host's speed while
    each point ran (see :mod:`hostspeed`); runner-sweep's workers measure
    it themselves."""
    from hostspeed import HostClock
    from workloads import inprocess_check, inprocess_pass, mismatches, sweep_pass

    sweep = args.workload == "runner-sweep"
    walls, passes, sweeps = [], [], []
    started = time.perf_counter()
    with contextlib.nullcontext() if sweep else HostClock() as clock:
        while True:
            if sweep:
                sp = sweep_pass(pts, OUT_DIR / "runner", sweep_jobs(), probe=True)
                sweeps.append(sp)
                walls.append(sp.wall_s)
                passes.append(sp.runs)
            else:
                wall, runs = inprocess_pass(pts, clock)
                walls.append(wall)
                passes.append(runs)
            gc.collect()
            elapsed = time.perf_counter() - started
            # Stop when another pass would end after --seconds, so a run
            # lasts at most --seconds unless MIN_PASSES take longer.
            if (len(passes) >= MIN_PASSES
                    and elapsed + elapsed / len(passes) > args.seconds):
                break

    all_runs = [r for runs in passes for r in runs]
    for i, runs in enumerate(passes[1:], start=1):
        mismatches(passes[0], runs, f"pass {i}")
    for sp in sweeps:
        mismatches(sp.runs, sp.cached, "cache")
        all_runs += sp.cached
    if sweep:
        all_runs.append(inprocess_check(pts[0], passes[0][0]))

    if sweep:
        peak_kb = max(sp.peak_rss_kb for sp in sweeps)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Host speed varies by tens of percent within seconds, so besides the
    # correction each point's time is its median over passes, summed.
    metrics = {
        "wall_s": (statistics.median(walls) if sweep else
                   summed_medians(passes, lambda r: r.sim_s + r.setup_s)),
        "sim_s": summed_medians(passes, lambda r: r.sim_s),
        "setup_s": summed_medians(passes, lambda r: r.setup_s),
        "peak_rss_mb": peak_kb / 1024.0,
        **fct_metrics(passes[0]),
    }
    return {"metrics": metrics, "problems": [], "runs": all_runs,
            "points": median_point_times(passes), "passes": len(passes),
            "pass_walls": walls,
            "point_samples": [[[runs[i].sim_s, runs[i].setup_s] for runs in passes]
                              for i in range(len(pts))]}


def span_problem(spans, depth: int) -> Optional[str]:
    """Why one point's spans are not a closed tree under its root, or None."""
    if depth:
        return f"{depth} spans still open after the point"
    unclosed = int((spans[:, 3] < spans[:, 2]).sum())
    if unclosed:
        return f"{unclosed} spans were never closed"
    roots = int((spans[:, 1] < 0).sum())
    if roots != 1 or spans[0, 1] >= 0:
        return f"{roots} root spans, expected the point's only"
    return None


def measure_traced(args: argparse.Namespace, pts) -> Dict[str, object]:
    """One untraced pass, then the same points in-process under the tracer.

    For runner-sweep the untraced pass is one sweep through the runner, so
    ``trace.untraced_s`` is the points' time in its workers."""
    import numpy as np

    from spans import LAYER_CLASSES, Tracer, self_times
    from workloads import (execute, inprocess_check, inprocess_pass,
                           mismatches, summarize, sweep_pass)

    problems: List[str] = []
    all_runs = []
    runner = {"runner.point_overhead_s": 0.0, "runner.warm_s": 0.0,
              "runner.cache_hit_ratio": 0.0}
    if args.workload == "runner-sweep":
        sp = sweep_pass(pts, OUT_DIR / "runner", sweep_jobs())
        runner = {"runner.point_overhead_s": sum(r.setup_s for r in sp.runs),
                  "runner.warm_s": sp.warm_s,
                  "runner.cache_hit_ratio": sp.cache_hit_ratio}
        mismatches(sp.runs, sp.cached, "cache")
        untraced = sp.runs
        untraced_s = sum(r.sim_s + r.setup_s for r in untraced)
        all_runs += sp.runs + sp.cached + [inprocess_check(pts[0], sp.runs[0])]
    else:
        untraced_s, untraced = inprocess_pass(pts)
        all_runs += untraced
    gc.collect()

    tracer = Tracer()
    own: Dict[str, float] = {}
    inclusive: Dict[str, float] = {}
    traced_s = 0.0
    traced = []
    first_spans = None
    with tracer.installed():
        for point in pts:
            tracer.clear_spans()
            with tracer.point():
                result, total_s = execute(point)
            spans = tracer.span_array()
            run = summarize(point, result, total_s)
            del result
            traced.append(run)
            problem = span_problem(spans, tracer.depth)
            if problem:
                run.fail(problem)
            self_s, incl_s = self_times(spans, len(tracer.names))
            traced_s += spans[0, 3] - spans[0, 2]
            for nid, name in enumerate(tracer.names):
                own[name] = own.get(name, 0.0) + float(self_s[nid])
                inclusive[name] = inclusive.get(name, 0.0) + float(incl_s[nid])
            if first_spans is None:
                first_spans = spans
            gc.collect()
    if tracer.patched:
        problems.append("trace wrappers were not removed")
    unattributed_s = traced_s - sum(own.get(layer, 0.0) for layer in SELF_LAYERS)
    if unattributed_s > UNATTRIBUTED_LIMIT * traced_s:
        problems.append(f"{unattributed_s:.3f} s of {traced_s:.3f} s traced "
                        f"falls to no reported layer")
    mismatches(untraced, traced, "traced")
    all_runs += traced

    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"spans-{args.workload}.npz", spans=first_spans,
             names=np.array(tracer.names))

    counts = tracer.count_dict()
    queue_layer = dict(LAYER_CLASSES)["repro.sim.queues"]
    events = sum(r.events for r in traced)
    scheduled = sum(counts.get(f"Simulator.{a}", 0)
                    for a in ("schedule", "schedule_at", "post", "post_at"))
    hops = counts.get("Link.send", 0)
    decisions = sum(counts.get(k, 0) for k in (
        "LinkArbitrator.arbitrate", "LinkArbitrator.decide_all"))
    metrics: Dict[str, float] = {
        f"{layer}.self_s": own.get(layer, 0.0) for layer in SELF_LAYERS}
    metrics.update({
        "sim.engine.events": events,
        "sim.engine.scheduled": scheduled,
        "sim.engine.ns_per_event": 1e9 * ratio(own.get("sim.engine", 0.0), events),
        "sim.engine.fired_ratio": ratio(events, scheduled),
        "sim.link.hops": hops,
        "sim.link.events_per_hop": ratio(events, hops),
        "sim.queues.ops": sum(counts.get(f"{c}.{m}", 0) for c in queue_layer
                              for m in ("enqueue", "dequeue")),
        "sim.queues.drop_ratio": ratio(sum(r.data_dropped for r in traced),
                                       sum(r.data_offered for r in traced)),
        "sim.node.receives": sum(counts.get(k, 0) for k in (
            "Switch.receive", "Host.receive", "Host.send")),
        "transports.acks": counts.get("SenderAgent.on_packet", 0),
        "transports.timeouts": sum(r.timeouts for r in traced),
        "transports.goodput_ratio": ratio(sum(r.unique_pkts for r in traced),
                                          sum(r.pkts_sent for r in traced)),
        "core.control_plane.requests": sum(r.cp_requests for r in traced),
        "core.control_plane.messages": sum(r.cp_messages for r in traced),
        "core.arbitration.decisions": decisions,
        "core.arbitration.ns_per_decision": 1e9 * ratio(
            own.get("core.arbitration", 0.0), decisions),
        "faults.fallback_episodes": sum(r.fallback_episodes for r in traced),
    })
    metrics.update({f"{name}_s": inclusive.get(name, 0.0) for name in SETUP_SPANS})
    metrics.update(runner)
    metrics.update({
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
        "trace.unattributed_s": unattributed_s,
    })
    return {"metrics": metrics, "problems": problems, "runs": all_runs,
            "points": [r.provenance() for r in traced], "passes": 1,
            "self_s_by_span": own, "counts": counts}


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    error = import_program()
    if error is None and not (ROOT / "BENCHMARK.json").is_file():
        error = f"{ROOT / 'BENCHMARK.json'} is missing"
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import points

    table = metric_table()["per_layer" if args.trace else "end_to_end"]
    header = run_header(args)
    print("header " + json.dumps(header), flush=True)
    pts = points(args.workload, args.seed)
    report = (measure_traced if args.trace else measure)(args, pts)

    for row in report["points"]:
        print("point " + json.dumps(row))
    problems = report["problems"] + [f"{r.point.label}: {r.error}"
                                     for r in report["runs"] if r.error]
    if set(report["metrics"]) != set(table):
        problems.append(f"metrics {sorted(report['metrics'])} do not match "
                        f"BENCHMARK.json {sorted(table)}")
    attempted = sum(r.attempted for r in report["runs"])
    failed = sum(r.failed for r in report["runs"])
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"passes {report['passes']}; foreground flows {attempted}, "
          f"failed {failed}; flow_fail_ratio {ratio(failed, attempted):.6g}")
    for name in table:
        value = report["metrics"].get(name)
        if value is not None:
            print(f"{name:34s} {value:.6g} {table[name]}")

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"header": header, "points": report["points"],
                    "metrics": report["metrics"], "problems": problems,
                    **{k: report[k] for k in ("pass_walls", "point_samples", "self_s_by_span",
                                              "counts") if k in report}},
                   indent=1))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": report["metrics"].get(name), "unit": unit}
                    for name, unit in table.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
