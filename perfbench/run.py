"""Benchmark of the serving path and the solver kernels.

Run from the repository root::

    python3 perfbench/run.py --workload serve-churn --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer wrappers (``layers.py``), arms them on about half the rounds and
prints the per-layer metrics of the armed rounds.  ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json``, which also names
every metric and its unit.  ``--rounds N`` replaces the time bound by N
rounds (churn cycles, bursts or solve rounds), which makes work counts
comparable between runs (``repeat.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Failed output checks go to standard error and make the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUPS = 3


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS, peak_rss_mb

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    setup_s, system = [], None
    for _ in range(SETUPS):
        t0 = perf_counter()
        fresh = workload.setup()
        setup_s.append(perf_counter() - t0)
        if system is not None:
            workload.close(system)
        system = fresh
    try:
        if args.trace:
            metrics = _traced(workload, system, args)
        else:
            measured = workload.run(system, seconds=args.seconds, rounds=args.rounds)
            rss = peak_rss_mb()
            metrics = workload.finish(system, measured)
            metrics.update(setup_s=statistics.median(setup_s), peak_rss_mb=rss)
    finally:
        workload.close(system)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics and BENCHMARK.json differ in {sorted(set(metrics) ^ set(units))}")
    checks = workload.checks
    for kind, messages in checks.failures.items():
        print(f"CHECK FAILED: {kind}: {messages}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if checks.ok else 1


def _traced(workload, system, args) -> dict:
    """Wrappers installed once; armed rounds traced, unarmed ones give the overhead."""
    from layers import WORK_COUNTS, ShardProxy, install, per_layer
    from tracer import Tracer

    tracer = Tracer()
    install(tracer)
    workload.tracer = tracer
    coordinator = system.get("coordinator")
    if coordinator is not None:
        coordinator.transports = [ShardProxy(tracer, t) for t in coordinator.transports]
    measured = workload.run(system, seconds=args.seconds, rounds=args.rounds)
    workload.finish(system, measured)
    (plain_n, plain_s), (armed_n, armed_s) = workload.legs[False], workload.legs[True]
    overhead = (plain_n / plain_s) / (armed_n / armed_s) if plain_s and armed_s else 0.0
    metrics = per_layer(tracer, overhead, workload.wire)
    tracer.dump(HERE / "out" / f"trace-{workload.name}-seed{args.seed}.json")
    print("COUNTS " + json.dumps({k: int(tracer.counts[k]) for k in WORK_COUNTS}))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
