"""Compare the tracer's per-layer split with cProfile's on one point.

Run from the repository root::

    python3 perfbench/crosscheck.py

Runs the first ``pase-leftright`` point of seed 1 three ways: untraced
(for the reference time), under :class:`spans.Tracer`, and under
``cProfile``.  Prints each
layer's share of the run by both methods.  cProfile charges C functions
(``heapq``, ``perf_counter``, ...) separately from their Python callers;
they are listed under their own names.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from spans import Tracer, layer_of, self_times  # noqa: E402
from workloads import execute, points  # noqa: E402


def profile_split(point) -> Dict[str, float]:
    """cProfile self time per layer (C functions by name), in seconds."""
    profiler = cProfile.Profile()
    profiler.enable()
    execute(point)
    profiler.disable()
    src = str(HERE.parent / "src") + "/"
    split: Dict[str, float] = {}
    for (filename, _, func), row in pstats.Stats(profiler).stats.items():
        if filename.startswith(src):
            module = filename[len(src):-len(".py")].replace("/", ".")
            name = layer_of(module)
        elif filename == "~":
            name = "C " + ("heapq" if "heapq" in func else func.strip("<>{}"))
        else:
            name = "other"
        split[name] = split.get(name, 0.0) + row[2]
    return split


def span_split(point) -> Dict[str, float]:
    tracer = Tracer()
    with tracer.installed():
        with tracer.point():
            execute(point)
    own, _ = self_times(tracer.span_array(), len(tracer.names))
    return dict(zip(tracer.names, own.tolist()))


def main() -> None:
    point = points("pase-leftright", 1)[0]
    _, untraced = execute(point)
    gc.collect()
    by_span = span_split(point)
    gc.collect()
    by_profile = profile_split(point)
    span_total, profile_total = sum(by_span.values()), sum(by_profile.values())
    print(f"{point.label}: untraced {untraced:.2f} s, traced "
          f"{span_total:.2f} s, profiled {profile_total:.2f} s")
    print(f"{'layer':28s} {'spans %':>8s} {'cProfile %':>10s}")
    for name in sorted(set(by_span) | set(by_profile),
                       key=lambda n: -max(by_span.get(n, 0.0) / span_total,
                                          by_profile.get(n, 0.0) / profile_total)):
        a = 100 * by_span.get(name, 0.0) / span_total
        b = 100 * by_profile.get(name, 0.0) / profile_total
        if max(a, b) >= 0.1:
            print(f"{name:28s} {a:8.1f} {b:10.1f}")


if __name__ == "__main__":
    main()
