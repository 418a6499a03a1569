"""Benchmark entry point: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fabric-k16 --seed 3 --seconds 30 --trace 0

With ``--trace 0`` the closed loop runs untraced workload iterations for
``--seconds`` seconds (at least two) and reports the end-to-end metrics:
medians over the iterations, set-up as the median of several set-ups,
timings in seconds at the nominal host speed (see ``pace.py``).
With ``--trace 1`` it alternates untraced and traced iterations (at
least one pair) and reports mean per-iteration layer metrics plus the
tracing overhead; the spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed simulation is counted there, never fatal.  The
exit status is non-zero only when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]

#: Units of every metric reported, by name.
END_TO_END_UNITS = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gurita_jct_s": "sim_s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "fraction"
    if name == "checkpoint.bytes":
        return "bytes"
    return "count"


def main(argv: List[str]) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS, pin_report

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input variant (default: the workload's pinned seed)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    runner = bench.Bench(workload, seed, workdir, log=_log)
    print(
        f"workload {workload.name}: {workload.why}; seed {seed} "
        f"(default {workload.default_seed}); closed loop, 1 client, "
        f"schedulers {', '.join(workload.schedulers)}",
        flush=True,
    )
    if args.trace:
        untraced, traced = bench.measure_traced(runner, args.seconds)
        metrics = bench.per_layer(untraced, traced)
        spans_path = workdir / f"trace-{workload.name}-seed{seed}.jsonl"
        bench.write_spans(spans_path, [it.tracer for it in traced if it.tracer])
        print(f"spans written to {spans_path}", flush=True)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        iterations, setups = bench.measure(runner, args.seconds)
        metrics = bench.end_to_end(runner, iterations, setups)
        units = END_TO_END_UNITS
        print(
            f"samples: {len(iterations)} iterations, wall_s "
            f"{_spread([it.wall_s for it in iterations])} (raw host seconds "
            f"{_spread([it.raw_wall_s for it in iterations])}); "
            f"{len(setups)} set-ups, setup_s {_spread(setups)}",
            flush=True,
        )

    gurita = runner.expected.get("gurita")
    for scheduler, (fp, events) in runner.expected.items():
        print(
            f"{scheduler}: jct_fingerprint {fp}, {events} events, mean JCT "
            f"{runner.mean_jct.get(scheduler, float('nan')):.6f} sim s",
            flush=True,
        )
    if gurita is not None:
        print(pin_report(workload, seed, *gurita), flush=True)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}", flush=True)
    print(
        f"fail_ratio = {runner.failed}/{runner.attempted} simulations",
        flush=True,
    )
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }), flush=True)
    return 0


def _log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _spread(values: List[float]) -> str:
    return (
        f"min {min(values):.4f} median {statistics.median(values):.4f} "
        f"max {max(values):.4f}"
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
