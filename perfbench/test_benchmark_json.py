"""BENCHMARK.json names exactly the workloads and metrics the benchmark prints."""

import json
from pathlib import Path

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_and_reasons_match():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_per_layer_metrics_match_the_tracer():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expected = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    expected["tracing.overhead_frac"] = "ratio"
    assert units == expected


def test_end_to_end_metrics_match_the_timed_run():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_timed_runs_make_a_fixed_number_of_cycles():
    # the work of a run, and so its items attempted and failed, must not
    # depend on the host's speed; it lasts about run_seconds at nominal speed
    for name in workloads.WHY:
        first = next(workloads.cycles(name, 0))
        calls = sum(len(g.calls) for g in first)
        n = run.cycle_count(name, SPEC["run_seconds"], calls)
        assert n * calls >= run.MIN_CALLS
        assert n * run.NOMINAL_CYCLE_S[name] <= 1.25 * SPEC["run_seconds"]
