"""Optimality-gap harness: "near optimal" as a measured, pinned curve.

The paper's headline claim is that Gurita is *near optimal*.  The
small-instance brute force in :mod:`repro.theory.exact` certifies that on
toy workloads; this module turns the claim into a quantitative,
regression-testable property on the real simulator: for every scheduler
and every scenario family it computes the per-job ratio

    gap(job) = measured JCT / combinatorial lower bound

with the bounds of :mod:`repro.theory.lowerbound` (critical-path, port,
and the precedence-aware port bound) evaluated at the scenario topology's
host NIC rate.  No schedule can push a ratio below 1.0, so the mean/max
gap per (scheduler, scenario) cell is an absolute yardstick — comparable
across schedulers, workload families, and fault profiles, unlike the
pairwise improvement factors of the figure benches.

A :class:`GapReport` carries every cell plus the raw per-job (JCT, bound)
pairs; its blake2b fingerprint is a pure function of those floats, so

* serial and ``parallel=N`` harness runs must fingerprint identically
  (the scenarios fan out through :func:`repro.experiments.parallel.run_grid`
  and inherit its determinism contract), and
* the committed golden artifact (``GAP_GOLDEN.json``, checked by the
  ``gap-smoke`` CI job via ``repro gap --check``) pins the gap curve —
  a later PR that silently worsens any scheduler's gap breaks the build.

Usage::

    report = run_gap()                      # default families x registry
    print(report.format_table())
    report.validate()                       # lower_bound <= JCT everywhere
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentError
from repro.experiments.common import ScenarioConfig, scenario_link_rate
from repro.experiments.parallel import (
    GridReport,
    ProgressHook,
    WorkUnit,
    run_grid,
)
from repro.metrics.report import format_gap_table
from repro.schedulers.registry import available_schedulers
from repro.simulator.runtime import SimulationResult
from repro.simulator.units import BytesPerSec, Fraction, Seconds
from repro.theory.lowerbound import job_lower_bound

#: Bump when the golden-artifact layout changes.
GAP_GOLDEN_FORMAT = 1

#: Relative slack for "bound <= JCT": float noise only, not modelling slack.
GAP_TOLERANCE: Fraction = 1e-9

#: The default scenario families: structure x arrival x fabric health.
#: Deliberately >= 3 families, including one under fault injection, so the
#: gap curve covers the trace-driven, bursty, and degraded regimes.
GAP_FAMILIES: Tuple[Tuple[str, str, str, str], ...] = (
    # (family name, structure, arrival mode, fault profile)
    ("trace-fbtao", "fb-tao", "uniform", ""),
    ("trace-tpcds", "tpcds", "uniform", ""),
    ("bursty-fbtao", "fb-tao", "bursty", ""),
    ("faulted-fbtao", "fb-tao", "uniform", "link-flap"),
)


def gap_scenarios(
    num_jobs: int = 12,
    fattree_k: int = 4,
    seed: int = 42,
    families: Optional[Sequence[str]] = None,
) -> List[ScenarioConfig]:
    """The harness's scenario list, one config per family.

    ``families`` filters :data:`GAP_FAMILIES` by name (default: all).
    """
    selected = list(GAP_FAMILIES)
    if families is not None:
        by_name = {family[0]: family for family in GAP_FAMILIES}
        unknown = [name for name in families if name not in by_name]
        if unknown:
            raise ExperimentError(
                f"unknown gap families {unknown}; have {sorted(by_name)}"
            )
        selected = [by_name[name] for name in families]
    return [
        ScenarioConfig(
            name=f"gap-{name}",
            structure=structure,
            arrival_mode=arrival,
            num_jobs=num_jobs,
            fattree_k=fattree_k,
            seed=seed,
            fault_profile=fault_profile,
        )
        for name, structure, arrival, fault_profile in selected
    ]


def workload_lower_bounds(
    result: SimulationResult, link_rate: BytesPerSec
) -> Dict[int, Seconds]:
    """Per-job combinatorial lower bound for one simulated workload."""
    return {
        job.job_id: job_lower_bound(job, link_rate) for job in result.jobs
    }


@dataclass(frozen=True)
class GapCell:
    """One (scenario, scheduler) cell of the gap curve."""

    scenario: str
    scheduler: str
    #: jobs that completed and have a positive lower bound
    num_jobs: int
    mean_jct: Seconds
    mean_bound: Seconds
    #: mean of per-job JCT/bound ratios (>= 1.0 for any feasible schedule)
    mean_gap: Fraction
    max_gap: Fraction
    #: jobs whose measured JCT undercut their bound beyond float noise —
    #: any nonzero count means a bound (or the simulator) is wrong
    violations: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "scheduler": self.scheduler,
            "num_jobs": self.num_jobs,
            "mean_jct": self.mean_jct,
            "mean_bound": self.mean_bound,
            "mean_gap": self.mean_gap,
            "max_gap": self.max_gap,
            "violations": self.violations,
        }


def gap_cell(
    scenario: str,
    scheduler: str,
    result: SimulationResult,
    link_rate: BytesPerSec,
) -> Tuple[GapCell, Dict[int, Tuple[Seconds, Seconds]]]:
    """Compute one cell plus its raw per-job ``(JCT, bound)`` pairs."""
    pairs: Dict[int, Tuple[Seconds, Seconds]] = {}
    for job in result.jobs:
        jct = job.completion_time()
        if jct is None:
            continue
        bound = job_lower_bound(job, link_rate)
        if bound > 0.0:
            pairs[job.job_id] = (jct, bound)
    if not pairs:
        raise ExperimentError(
            f"gap cell ({scenario}, {scheduler}) has no completed jobs "
            "with positive lower bounds"
        )
    gaps = [jct / bound for jct, bound in pairs.values()]
    violations = sum(
        1
        for jct, bound in pairs.values()
        if jct < bound * (1.0 - GAP_TOLERANCE)
    )
    cell = GapCell(
        scenario=scenario,
        scheduler=scheduler,
        num_jobs=len(pairs),
        mean_jct=sum(jct for jct, _ in pairs.values()) / len(pairs),
        mean_bound=sum(bound for _, bound in pairs.values()) / len(pairs),
        mean_gap=sum(gaps) / len(gaps),
        max_gap=max(gaps),
        violations=violations,
    )
    return cell, pairs


class GapViolationError(ExperimentError):
    """A measured JCT undercut its combinatorial lower bound."""


@dataclass
class GapReport:
    """The full gap curve: scenario family x scheduler -> GapCell."""

    scenarios: List[ScenarioConfig]
    schedulers: Tuple[str, ...]
    #: scenario name -> scheduler name -> cell
    cells: Dict[str, Dict[str, GapCell]] = field(default_factory=dict)
    #: scenario name -> scheduler name -> job id -> (JCT, lower bound);
    #: the fingerprint hashes exactly this
    job_pairs: Dict[str, Dict[str, Dict[int, Tuple[float, float]]]] = field(
        default_factory=dict
    )
    #: the engine report behind the run (units, cache hits, timings)
    grid: Optional[GridReport] = field(default=None, compare=False)

    def mean_gaps(self) -> Dict[str, Dict[str, float]]:
        """Scenario -> scheduler -> mean gap (the headline table)."""
        return {
            scenario: {
                name: cell.mean_gap for name, cell in sorted(row.items())
            }
            for scenario, row in sorted(self.cells.items())
        }

    def worst_cell(self) -> GapCell:
        """The cell with the largest mean gap (the weakest claim)."""
        return max(
            (cell for row in self.cells.values() for cell in row.values()),
            key=lambda cell: (cell.mean_gap, cell.scenario, cell.scheduler),
        )

    def validate(self) -> None:
        """Raise :class:`GapViolationError` unless bound <= JCT everywhere."""
        bad = [
            cell
            for row in self.cells.values()
            for cell in row.values()
            if cell.violations
        ]
        if bad:
            detail = "; ".join(
                f"({cell.scenario}, {cell.scheduler}): "
                f"{cell.violations} job(s)"
                for cell in sorted(bad, key=lambda c: (c.scenario, c.scheduler))
            )
            raise GapViolationError(
                f"measured JCT undercut the lower bound in {detail} — "
                "a bound (or the simulator) is wrong"
            )

    def fingerprint(self) -> str:
        """blake2b-16 over the raw per-job (JCT, bound) pairs.

        The same scheme as ``benchmarks/fingerprint_figures.py``: any
        float divergence anywhere — scheduler decision, bound term,
        fault timeline — changes it.
        """
        record = {
            scenario: {
                scheduler: sorted(
                    (job_id, jct, bound)
                    for job_id, (jct, bound) in pairs.items()
                )
                for scheduler, pairs in sorted(row.items())
            }
            for scenario, row in sorted(self.job_pairs.items())
        }
        encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(encoded.encode("utf-8"), digest_size=16).hexdigest()

    def format_table(self) -> str:
        """The scenario x scheduler mean-gap table, rendered."""
        return format_gap_table(self.mean_gaps())

    def to_golden(self) -> Dict[str, Any]:
        """The committed-artifact form (see ``GAP_GOLDEN.json``)."""
        first = self.scenarios[0]
        return {
            "format": GAP_GOLDEN_FORMAT,
            "harness": {
                "families": [c.name.replace("gap-", "", 1) for c in self.scenarios],
                "num_jobs": first.num_jobs,
                "fattree_k": first.fattree_k,
                "seed": first.seed,
                "schedulers": list(self.schedulers),
            },
            "fingerprint": self.fingerprint(),
            "mean_gaps": self.mean_gaps(),
            "cells": {
                scenario: {
                    name: cell.to_dict() for name, cell in sorted(row.items())
                }
                for scenario, row in sorted(self.cells.items())
            },
        }


def run_gap(
    scenarios: Optional[Sequence[ScenarioConfig]] = None,
    schedulers: Optional[Sequence[str]] = None,
    num_jobs: int = 12,
    fattree_k: int = 4,
    seed: int = 42,
    families: Optional[Sequence[str]] = None,
    parallel: int = 1,
    cache_dir: Optional[Union[str, "Any"]] = None,
    progress: Optional[ProgressHook] = None,
) -> GapReport:
    """Run the optimality-gap harness.

    Every (scenario, full scheduler set) pair is one grid work unit, so
    the harness fans out across ``parallel`` workers, reuses the on-disk
    ``cache_dir`` and — per the engine's determinism contract — produces
    a report whose fingerprint is bit-identical to the serial run.
    """
    if scenarios is None:
        scenarios = gap_scenarios(
            num_jobs=num_jobs, fattree_k=fattree_k, seed=seed, families=families
        )
    scenarios = list(scenarios)
    names = tuple(
        schedulers if schedulers is not None else available_schedulers()
    )
    units = [
        WorkUnit(config=config, schedulers=names) for config in scenarios
    ]
    grid = run_grid(units, parallel=parallel, cache_dir=cache_dir, progress=progress)
    return gap_report_from_grid(grid)


def gap_report_from_grid(grid: "GridReport") -> GapReport:
    """Assemble a :class:`GapReport` from a completed harness grid.

    The grid's own units carry everything needed (scenario configs and
    the scheduler set), so this also works for grids executed elsewhere —
    e.g. a supervised/resumed run replaying the same harness units.
    """
    scenarios = [unit.config for unit in grid.units]
    names = grid.units[0].scheduler_names() if grid.units else ()
    report = GapReport(scenarios=scenarios, schedulers=names, grid=grid)
    for config, outcome in zip(scenarios, grid.scenario_results()):
        link_rate = scenario_link_rate(config)
        row: Dict[str, GapCell] = {}
        raw: Dict[str, Dict[int, Tuple[float, float]]] = {}
        for name in names:
            cell, pairs = gap_cell(
                config.name, name, outcome.results[name], link_rate
            )
            row[name] = cell
            raw[name] = pairs
        report.cells[config.name] = row
        report.job_pairs[config.name] = raw
    return report


def check_gap_golden(
    report: GapReport, golden: Mapping[str, Any]
) -> List[str]:
    """Compare a fresh report against a committed golden artifact.

    Returns human-readable mismatch lines (empty = the gap curve is
    pinned).  The fingerprint comparison is the binding check; mean-gap
    deltas are listed alongside to make a mismatch diagnosable.
    """
    problems: List[str] = []
    if golden.get("format") != GAP_GOLDEN_FORMAT:
        return [
            f"golden artifact format {golden.get('format')!r} != "
            f"{GAP_GOLDEN_FORMAT} (regenerate with `repro gap --out`)"
        ]
    expected = golden.get("fingerprint")
    actual = report.fingerprint()
    if actual != expected:
        problems.append(f"fingerprint {actual} != golden {expected}")
        golden_gaps = golden.get("mean_gaps", {})
        for scenario, row in sorted(report.mean_gaps().items()):
            for name, gap in sorted(row.items()):
                pinned = golden_gaps.get(scenario, {}).get(name)
                if pinned is None:
                    problems.append(f"  {scenario}/{name}: no golden cell")
                elif abs(pinned - gap) > 1e-12:
                    problems.append(
                        f"  {scenario}/{name}: mean gap {gap:.6f} "
                        f"vs golden {pinned:.6f}"
                    )
    return problems


def golden_harness_report(
    golden: Mapping[str, Any],
    parallel: int = 1,
    cache_dir: Optional[Union[str, "Any"]] = None,
    progress: Optional[ProgressHook] = None,
) -> GapReport:
    """Re-run the harness with a golden artifact's embedded parameters."""
    harness = golden.get("harness")
    if not isinstance(harness, dict):
        raise ExperimentError(
            "golden artifact has no 'harness' parameter block"
        )
    return run_gap(
        schedulers=tuple(harness["schedulers"]),
        num_jobs=int(harness["num_jobs"]),
        fattree_k=int(harness["fattree_k"]),
        seed=int(harness["seed"]),
        families=list(harness["families"]),
        parallel=parallel,
        cache_dir=cache_dir,
        progress=progress,
    )


__all__ = [
    "GAP_FAMILIES",
    "GAP_GOLDEN_FORMAT",
    "GAP_TOLERANCE",
    "GapCell",
    "GapReport",
    "GapViolationError",
    "check_gap_golden",
    "gap_cell",
    "gap_report_from_grid",
    "gap_scenarios",
    "golden_harness_report",
    "run_gap",
    "workload_lower_bounds",
]
