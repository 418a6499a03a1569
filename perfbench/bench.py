"""Workload iterations, their output checks and the metrics they yield.

One *iteration* replays a workload's scenario once under each of its
schedulers, in one process, one simulation at a time, through the
public entry points only: ``build_topology``, ``build_jobs``,
``make_scheduler``, ``CoflowSimulation`` and ``restore_simulation``.
The loop is closed: the next simulation starts when the previous one
returns.

Every simulation is an attempted operation.  It fails, without stopping
the benchmark, when it raises, when a job does not complete, when a
job's JCT undercuts ``job_lower_bound``, or when its JCT fingerprint or
event count differs from the first run at the same seed.  For a durable
workload the first run is an uninterrupted one without checkpoints, so
every stop-and-restore run is also checked to end bit-identical to it.

The end-to-end runs time simulations and set-ups with
:meth:`Pace.timed`, which reports them at the nominal host speed
(:mod:`perfbench.pace`); the raw host seconds are kept beside them.
The traced runs take no probes, so spans hold only the program's time.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from perfbench.pace import Pace, T
from perfbench.tracing import Tracer, instrument, layer_metrics, run_id, summarize
from perfbench.workloads import (
    CHECKPOINT_EVERY,
    Workload,
    fingerprint,
    flow_count,
    vary,
)
from repro.experiments import common
from repro.schedulers.registry import make_scheduler
from repro.simulator import checkpoint
from repro.simulator.routing.ecmp import EcmpRouter
from repro.simulator.runtime import CoflowSimulation, SimulationResult
from repro.theory.gap import GAP_TOLERANCE
from repro.theory.lowerbound import job_lower_bound

clock = time.perf_counter


@dataclass
class SchedulerRun:
    """One finished simulation of the workload under one scheduler."""

    scheduler: str
    result: SimulationResult
    #: the simulation that finished (the restored one for durable runs)
    sim: CoflowSimulation
    #: set-up and simulation seconds at the nominal host speed
    setup_s: float
    simulate_s: float
    #: set-up plus simulation in raw host seconds
    raw_s: float
    flows: int


@dataclass
class Iteration:
    """One closed-loop pass over every scheduler of the workload.

    Only numbers are kept, never a finished simulation, so memory does
    not grow with the number of iterations in a run.
    """

    #: set-up plus simulation seconds at the nominal host speed, summed
    #: over the schedulers
    wall_s: float = 0.0
    simulate_s: float = 0.0
    #: ``wall_s`` in raw host seconds
    raw_wall_s: float = 0.0
    events: int = 0
    #: counters the simulator reports, summed over the schedulers
    counts: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    def add(self, run: SchedulerRun) -> None:
        self.wall_s += run.setup_s + run.simulate_s
        self.simulate_s += run.simulate_s
        self.raw_wall_s += run.raw_s
        self.events += run.result.events_processed
        for name, value in run_counts(run).items():
            self.counts[name] = self.counts.get(name, 0) + value
        # every scheduler replays the same jobs
        self.counts["jobs.flows"] = run.flows


class Bench:
    """Runs one workload at one seed and keeps the outcome of each check."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        workdir: Path,
        log: Callable[[str], None] = print,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.log = log
        self.attempted = 0
        self.failed = 0
        #: scheduler -> (JCT fingerprint, events) of its first run here
        self.expected: Dict[str, Tuple[str, int]] = {}
        #: scheduler -> mean JCT of its first run (simulated seconds)
        self.mean_jct: Dict[str, float] = {}
        #: scheduler -> simulated time at which durable runs stop
        self.stop_at: Dict[str, float] = {}
        self._bounds: Optional[Dict[int, float]] = None
        self.scheduler_classes = tuple(
            dict.fromkeys(type(make_scheduler(n)) for n in workload.schedulers)
        )
        self.pace = Pace()

    # -- one simulation ------------------------------------------------
    def _checkpoint_path(self, scheduler: str) -> Path:
        return self.workdir / f"{self.workload.name}-{scheduler}.ckpt"

    def prepare(
        self, scheduler: str, checkpointing: bool
    ) -> Tuple[CoflowSimulation, int]:
        """Topology, jobs, scheduler and router, up to the first event."""
        config = self.workload.config
        topology = common.build_topology(config)
        jobs = common.build_jobs(config, topology.num_hosts)
        if self.seed != self.workload.default_seed:
            vary(jobs, self.seed)
        path = self._checkpoint_path(scheduler) if checkpointing else None
        sim = CoflowSimulation(
            topology,
            make_scheduler(scheduler),
            jobs,
            router=EcmpRouter(topology),
            faults=common.build_fault_profile(config),
            checkpoint_every=CHECKPOINT_EVERY if checkpointing else None,
            checkpoint_path=path,
        )
        return sim, flow_count(jobs)

    def _remove_checkpoint(self, scheduler: str) -> None:
        path = self._checkpoint_path(scheduler)
        for stale in (path, path.with_name(path.name + ".tmp")):
            if stale.exists():
                stale.unlink()

    def run_scheduler(
        self, scheduler: str, durable: bool, pace: Optional[Pace]
    ) -> SchedulerRun:
        """Set up and run one simulation, timed against ``pace`` if given."""
        self._remove_checkpoint(scheduler)
        stop = self.stop_at[scheduler] if durable else None

        def simulate(
            sim: CoflowSimulation,
        ) -> Tuple[SimulationResult, CoflowSimulation]:
            if stop is None:
                return sim.run(), sim
            sim.run(until=stop)
            path = self._checkpoint_path(scheduler)
            restored = checkpoint.restore_simulation(
                path, checkpoint_every=CHECKPOINT_EVERY, checkpoint_path=path
            )
            return restored.run(), restored

        try:
            (sim, flows), setup_raw, setup_s = _timed(
                pace, lambda: self.prepare(scheduler, durable))
            (result, sim), simulate_raw, simulate_s = _timed(
                pace, lambda: simulate(sim))
        finally:
            self._remove_checkpoint(scheduler)
        return SchedulerRun(
            scheduler, result, sim, setup_s, simulate_s,
            setup_raw + simulate_raw, flows,
        )

    # -- checks --------------------------------------------------------
    def check(self, run: SchedulerRun) -> List[str]:
        """Everything wrong with one finished run (empty when correct)."""
        result = run.result
        jcts = result.job_completion_times()
        problems = []
        if len(jcts) != len(result.jobs):
            problems.append(f"{len(result.jobs) - len(jcts)} job(s) did not complete")
        if self._bounds is None:
            rate = common.scenario_link_rate(self.workload.config)
            self._bounds = {
                job.job_id: job_lower_bound(job, rate) for job in result.jobs
            }
        below = sorted(
            job_id
            for job_id, jct in jcts.items()
            if jct < self._bounds[job_id] * (1.0 - GAP_TOLERANCE)
        )
        if below:
            problems.append(f"JCT below the lower bound for jobs {below}")
        key = (fingerprint(jcts), result.events_processed)
        expected = self.expected.setdefault(run.scheduler, key)
        if key != expected:
            problems.append(
                f"fingerprint/events {key} differ from {expected} of the "
                "first run at this seed"
            )
        if jcts:
            self.mean_jct.setdefault(run.scheduler, result.average_jct())
        return problems

    def _attempt(
        self, scheduler: str, durable: bool, into: Optional[Iteration] = None,
        pace: Optional[Pace] = None,
    ) -> Optional[SchedulerRun]:
        self.attempted += 1
        try:
            run = self.run_scheduler(scheduler, durable, pace)
            problems = self.check(run)
            if into is not None:
                into.add(run)
        except Exception:  # a failed run is counted, never fatal
            run, problems = None, [traceback.format_exc().rstrip()]
        if problems:
            self.failed += 1
            for problem in problems:
                self.log(f"FAILED {self.workload.name} {scheduler}: {problem}")
        return run

    # -- the closed loop -----------------------------------------------
    def reference(self) -> None:
        """Uninterrupted runs without checkpoints; durable runs stop at
        half their makespan and must reproduce them bit for bit."""
        for scheduler in self.workload.schedulers:
            run = self._attempt(scheduler, durable=False)
            if run is not None:
                self.stop_at[scheduler] = run.result.makespan / 2.0

    def iteration(
        self, tracer: Optional[Tracer] = None, pace: Optional[Pace] = None
    ) -> Iteration:
        """Every scheduler once; timed against ``pace`` if given, else in
        raw host seconds."""
        out = Iteration(tracer=tracer)
        for scheduler in self.workload.schedulers:
            with _maybe_instrument(tracer, self.scheduler_classes):
                self._attempt(scheduler, self.workload.durable, into=out, pace=pace)
            # The last simulation's garbage must not add to the next
            # one's peak memory; collecting it is not timed.
            gc.collect()
        return out

    def setup_once(self) -> float:
        """Seconds at the nominal host speed to set up every scheduler's
        simulation once."""

        def setup() -> None:
            for scheduler in self.workload.schedulers:
                self.prepare(scheduler, self.workload.durable)

        return self.pace.timed(setup)[2]


def _timed(pace: Optional[Pace], call: Callable[[], T]) -> Tuple[T, float, float]:
    """``call()`` and its raw and nominal-speed seconds (equal untimed)."""
    if pace is not None:
        return pace.timed(call)
    start = clock()
    result = call()
    elapsed = clock() - start
    return result, elapsed, elapsed


def _maybe_instrument(
    tracer: Optional[Tracer], classes: Tuple[type, ...]
) -> ContextManager[object]:
    if tracer is None:
        return contextlib.nullcontext()
    return instrument(tracer, classes)


# -- runs ----------------------------------------------------------------
#: Set-ups timed before the first iteration and after each one, so one
#: burst of load on the host cannot move their median.
SETUP_REPEATS = 5

#: Untraced iterations in a run, at least: two runs at one seed must
#: agree on their fingerprint.
MIN_ITERATIONS = 2


def _more(start: float, done: List[Iteration], seconds: float) -> bool:
    """Whether one more iteration ends the run closer to ``seconds``."""
    return clock() - start + done[-1].raw_wall_s / 2 < seconds


def measure(bench: Bench, seconds: float) -> Tuple[List[Iteration], List[float]]:
    """Untraced iterations for about ``seconds``, and set-up samples."""
    if bench.workload.durable:
        bench.reference()
    start = clock()
    setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]
    iterations: List[Iteration] = []
    while len(iterations) < MIN_ITERATIONS or _more(start, iterations, seconds):
        iterations.append(bench.iteration(pace=bench.pace))
        setups += [bench.setup_once() for _ in range(SETUP_REPEATS)]
    return iterations, setups


def measure_traced(
    bench: Bench, seconds: float
) -> Tuple[List[Iteration], List[Iteration]]:
    """Alternating untraced and traced iterations for about ``seconds``."""
    if bench.workload.durable:
        bench.reference()
    start = clock()
    untraced: List[Iteration] = []
    traced: List[Iteration] = []
    while not traced or _more(start, traced, seconds):
        untraced.append(bench.iteration())
        tracer = Tracer(run_id=run_id(bench.workload.name, bench.seed, len(traced)))
        traced.append(bench.iteration(tracer))
    return untraced, traced


# -- metrics -------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    bench: Bench, iterations: List[Iteration], setups: List[float]
) -> Dict[str, float]:
    timed = [it for it in iterations if it.simulate_s > 0]
    return {
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "events_per_s": (
            statistics.median(it.events / it.simulate_s for it in timed)
            if timed else 0.0
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "gurita_jct_s": bench.mean_jct.get("gurita", 0.0),
    }


def run_counts(run: SchedulerRun) -> Dict[str, float]:
    """Counters the simulator already reports about one finished run."""
    result = run.result
    counts: Dict[str, float] = {
        "runtime.events": result.events_processed,
        "runtime.reallocations": result.reallocations,
        "runtime.skipped": result.epochs_skipped,
        "routing.invalidations": run.sim.router.links_generation,
    }
    stats = result.engine_stats
    if stats is not None:
        counts.update({
            "bandwidth.allocations": stats.allocations,
            "bandwidth.cache_hits": stats.cache_hits,
            "bandwidth.delta_updates": stats.delta_updates,
            "bandwidth.full_rebuilds": stats.full_rebuilds,
            "bandwidth.capacity_revocations": stats.capacity_revocations,
        })
    faults = result.fault_stats
    if faults is not None:
        counts.update({
            "faults.injected": faults.faults_injected,
            "faults.flows_rerouted": faults.flows_rerouted,
            "faults.flows_parked": faults.flows_parked,
            "faults.hr_rounds_dropped": faults.hr_rounds_dropped,
        })
    return counts


#: Counters every per-layer row reports, 0 where no run produced them.
_COUNTERS = (
    "runtime.events", "runtime.reallocations", "bandwidth.delta_updates",
    "bandwidth.full_rebuilds", "bandwidth.capacity_revocations",
    "routing.invalidations", "faults.injected", "faults.flows_rerouted",
    "faults.flows_parked", "faults.hr_rounds_dropped",
)


def _counter_metrics(it: Iteration) -> Dict[str, float]:
    counts = it.counts
    row = {name: counts.get(name, 0) for name in _COUNTERS}
    realloc = counts.get("runtime.reallocations", 0)
    batches = realloc + counts.get("runtime.skipped", 0)
    row["runtime.skip_ratio"] = (batches - realloc) / batches if batches else 0.0
    allocations = counts.get("bandwidth.allocations", 0)
    row["bandwidth.cache_hit_ratio"] = (
        counts.get("bandwidth.cache_hits", 0) / allocations if allocations else 0.0
    )
    row["jobs.flows"] = counts.get("jobs.flows", 0)
    return row


def per_layer(
    untraced: List[Iteration], traced: List[Iteration]
) -> Dict[str, float]:
    """Mean per-iteration layer metrics over the traced iterations."""
    rows = []
    for it in traced:
        assert it.tracer is not None
        row = layer_metrics(summarize(it.tracer.spans), it.tracer)
        row.update(_counter_metrics(it))
        row["trace.spans"] = len(it.tracer.spans)
        rows.append(row)
    metrics = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(
        it.raw_wall_s for it in traced
    ) - statistics.median(it.raw_wall_s for it in untraced)
    return metrics


def write_spans(path: Path, tracers: List[Tracer]) -> None:
    """All spans of the invocation, one JSON array per line."""
    os.makedirs(path.parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            tracer.write_to(handle)
