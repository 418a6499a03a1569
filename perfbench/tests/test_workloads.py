"""Workload builder, seed variants, output checks and the result line."""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import bench
from perfbench.run import END_TO_END_UNITS, per_layer_unit
from perfbench.tracing import Tracer
from perfbench.workloads import ARRIVAL_JITTER, WORKLOADS, Workload, vary
from repro.experiments.common import ScenarioConfig, build_jobs

ROOT = Path(__file__).resolve().parents[2]

SMALL = Workload(
    name="small",
    config=ScenarioConfig(name="small", structure="fb-tao", num_jobs=8, fattree_k=4, seed=2),
    schedulers=("gurita",),
    pinned_fingerprint="",
    pinned_events=0,
    why="unit test",
)


def _perf_trajectory():
    spec = importlib.util.spec_from_file_location(
        "perf_trajectory", ROOT / "benchmarks" / "perf_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_builder_reproduces_the_perf_trajectory_scal_k4_fingerprint(tmp_path: Path):
    config = _perf_trajectory().WORKLOADS["scal-k4"]
    committed = json.loads((ROOT / "BENCH_9.json").read_text())
    pinned = committed["current"]["workloads"]["scal-k4"]
    workload = Workload(
        name="scal-k4", config=config, schedulers=("gurita",),
        pinned_fingerprint=pinned["jct_fingerprint"],
        pinned_events=pinned["events"], why="self-test",
    )
    runner = bench.Bench(workload, config.seed, tmp_path)
    runner.iteration()
    assert runner.failed == 0
    assert runner.expected["gurita"] == (
        "870ac75a4ce545a9971b523ab60b8a09", pinned["events"]
    ) == (pinned["jct_fingerprint"], 1446)


def test_variants_keep_the_work_and_depend_only_on_the_seed():
    config = WORKLOADS["fabric-k16"].config
    base = build_jobs(config, 1024)

    def variant(seed):
        jobs = build_jobs(config, 1024)
        vary(jobs, seed)
        return jobs

    def flows(jobs):
        return [(f.src, f.dst, f.size_bytes) for j in jobs for c in j.coflows for f in c.flows]

    def arrivals(jobs):
        return [j.arrival_time for j in jobs]

    first, again, other = variant(11), variant(11), variant(12)
    assert arrivals(first) == arrivals(again)
    assert arrivals(first) != arrivals(other) != arrivals(base)
    for jobs in (first, other):
        assert flows(jobs) == flows(base)
        for moved, original in zip(arrivals(jobs), arrivals(base)):
            assert original <= moved <= original + ARRIVAL_JITTER


def test_a_failed_check_is_counted_and_the_run_goes_on(tmp_path: Path):
    runner = bench.Bench(SMALL, SMALL.default_seed, tmp_path, log=lambda line: None)
    runner.expected["gurita"] = ("0" * 32, 0)
    runner.iteration()
    runner.iteration()
    assert (runner.attempted, runner.failed) == (2, 2)

    # a durable run without its reference run has no stop time
    durable = dataclasses.replace(SMALL, durable=True)
    broken = bench.Bench(durable, SMALL.default_seed, tmp_path, log=lambda line: None)
    broken.iteration()
    assert (broken.attempted, broken.failed) == (1, 1)


def test_per_layer_metrics_match_the_benchmark_definition(tmp_path: Path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = bench.Bench(SMALL, SMALL.default_seed, tmp_path)
    untraced = runner.iteration()
    traced = runner.iteration(Tracer(run_id="t"))
    metrics = bench.end_to_end(runner, [untraced], [0.5])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layers = bench.per_layer([untraced], [traced])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: per_layer_unit(name) for name in layers
    }
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_refuses_to_run_without_the_simulator(tmp_path: Path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fabric-k16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
