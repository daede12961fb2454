"""Drift-corrected benchmark of the ymwaves CLI.

    python3 perfbench/run.py --workload scan|certify|fields|all \
        --seed N --seconds S --trace 0|1

One client in one thread drives the package in a closed loop: it issues
the next call only after the previous one returns. Inputs come from
--seed; the program sees only the generated argv. Every call time is
drift-corrected against a fixed reference loop (see drift.py), and every
output is checked (see checks.py).

--trace 0 measures a fixed number of whole cycles, sized from --seconds
so that the run lasts about that long at nominal speed, and reports the
end-to-end metrics. --trace 1 runs a fixed slice
of the workload untraced and then traced, and reports the per-layer
metrics. The last line of output is one JSON object; the lines before it
name every metric with its unit, plus raw wall-clock figures for context.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import drift
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("scan", "certify", "fields")
# The tail is the 90th percentile; a timed run makes at least MIN_CALLS
# calls so that at least ten lie beyond it.
TAIL_PCT = 90
MIN_CALLS = 100
# Wall seconds of one timed cycle, reference blocks included, at nominal
# reference speed on the machine in machine.json. A timed run makes
# --seconds / NOMINAL_CYCLE_S cycles: a fixed amount of work, so that the
# items attempted and failed depend on the seed alone and never on how
# fast the host happened to be.
NOMINAL_CYCLE_S = {"scan": 12.5, "certify": 2.0, "fields": 3.0}
SETUP_CHILDREN = 5
# Seeds of the scan workload in the traced slice.
TRACE_SCAN_SEEDS = 300

END_TO_END_UNITS = {
    "norm_items_per_s": "1/s", "norm_call_p50_ms": "ms", "norm_call_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio", "converged_frac": "ratio",
}


def _load_program():
    """Import ymwaves from this checkout's src, and nothing else."""
    if not (SRC / "ymwaves" / "cli.py").is_file():
        sys.exit(f"error: no ymwaves sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ymwaves
    if Path(ymwaves.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported ymwaves from {ymwaves.__file__}, not {SRC}")


@dataclass
class Tally:
    items: int = 0
    failed: int = 0
    converged: int = 0
    out_bytes: int = 0
    errors: list = field(default_factory=list)

    def add(self, group, results):
        verdict = group.check(results)
        self.items += group.items
        self.failed += verdict.failed
        self.converged += verdict.converged
        self.errors.extend(verdict.errors)
        self.out_bytes += sum(len(r.out) for r in results
                              if isinstance(r, workloads.CliResult))


def run_groups(groups, clock: drift.DriftClock, tally: Tally):
    for group in groups:
        tally.add(group, [clock.time_call(call) for call in group.calls])


def cold_starts(first_argv: list[str], largest: list[list[str]]):
    """Cold starts of SETUP_CHILDREN fresh interpreters, drift-corrected and
    raw, in seconds, and the peak RSS in MB of one more interpreter that
    also runs the largest calls.

    One untimed start first leaves the bytecode cache as users have it.
    A reference start brackets each timed start, as reference blocks
    bracket each timed call (see setup_child.py).
    """
    def child(*args):
        done = subprocess.run([sys.executable, str(HERE / "setup_child.py"), *args],
                              cwd=ROOT, capture_output=True, text=True, timeout=150,
                              check=True)
        return [float(x) for x in done.stdout.split()]

    start = (str(SRC), json.dumps(first_argv))
    child(*start)
    raw, refs = [], [child("--reference")]
    for _ in range(SETUP_CHILDREN):
        raw.append(child(*start)[0])
        refs.append(child("--reference"))
    rss = child(*start, json.dumps(largest))[1]
    return drift.normalize(raw, refs, nominal=drift.NOMINAL_START_S), raw, rss


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def cycle_count(workload: str, seconds: float, calls_per_cycle: int) -> int:
    """Cycles of a timed run: about --seconds at nominal speed, and at
    least MIN_CALLS calls."""
    return max(round(seconds / NOMINAL_CYCLE_S[workload]),
               math.ceil(MIN_CALLS / calls_per_cycle))


def timed_run(workload: str, seed: int, seconds: float):
    cycles = workloads.cycles(workload, seed)
    first = next(cycles)
    n_cycles = cycle_count(workload, seconds, sum(len(g.calls) for g in first))
    largest = max(first, key=lambda g: (g.items, len(g.calls)))
    setup, setup_raw, rss = cold_starts(first[0].calls[0].argv,
                                        [c.argv for c in largest.calls if hasattr(c, "argv")])
    clock = drift.DriftClock()
    tally = Tally()
    start = time.perf_counter()
    for groups in itertools.chain([first], itertools.islice(cycles, n_cycles - 1)):
        run_groups(groups, clock, tally)
    wall = time.perf_counter() - start
    norm = clock.normalized()
    raw = clock.calls
    blocks = drift.block_times(clock.blocks)
    metrics = {
        "norm_items_per_s": tally.items / sum(norm),
        "norm_call_p50_ms": statistics.median(norm) * 1e3,
        "norm_call_tail_ms": percentile(norm, TAIL_PCT) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - tally.failed / tally.items,
        # only scan runs Newton; the other workloads have nothing to converge
        "converged_frac": tally.converged / tally.items if workload == "scan" else 1.0,
    }
    context = [
        f"{n_cycles} cycles, fixed by --seconds {seconds:g} at nominal speed",
        f"tail = p{TAIL_PCT} of {len(norm)} calls "
        f"({sum(1 for x in norm if x > percentile(norm, TAIL_PCT))} beyond it)",
        f"failed_frac = {tally.failed / tally.items:.6g} ratio "
        f"({tally.failed} failed of {tally.items} items)",
        f"setup samples = {', '.join(f'{t:.4f}' for t in setup)} s "
        f"(raw {', '.join(f'{t:.4f}' for t in setup_raw)} s); peak RSS from a "
        f"fresh interpreter running the first and the largest call ({largest.items} items)",
        f"raw (not gated): {tally.items / sum(raw):.6g} items/s, "
        f"p50 {statistics.median(raw) * 1e3:.6g} ms, "
        f"p{TAIL_PCT} {percentile(raw, TAIL_PCT) * 1e3:.6g} ms, {wall:.2f} s wall",
        f"reference block median {statistics.median(blocks) * 1e3:.4f} ms per rep "
        f"(nominal {drift.NOMINAL_REF_S * 1e3:.4f} ms) over {len(blocks)} blocks, "
        f"{sum(map(len, clock.blocks))} reps",
    ]
    return tally, metrics, context


def trace_slice(workload: str, seed: int):
    """A fixed, seed-determined part of the first cycle."""
    groups = next(workloads.cycles(workload, seed))
    if workload != "scan":
        return groups
    out, seeds = [], 0
    for group in groups:
        if seeds >= TRACE_SCAN_SEEDS:
            break
        out.append(group)
        seeds += group.items
    return out


def traced_run(workload: str, seed: int):
    groups = trace_slice(workload, seed)
    plain_clock, plain = drift.DriftClock(), Tally()
    run_groups(groups, plain_clock, plain)
    tracer, clock, tally = spans.Tracer(), drift.DriftClock(), Tally()
    with spans.traced(tracer):
        run_groups(groups, clock, tally)
    probe_tracer = spans.Tracer()
    with spans.traced(probe_tracer):
        probe_items = workloads.probe()
    # per-layer times get the traced pass's drift correction as a whole
    scale = drift.NOMINAL_REF_S / statistics.median(drift.block_times(clock.blocks))
    layers = spans.layer_metrics(spans.Summary(tracer, tally.items, tally.out_bytes, scale),
                                 spans.Summary(probe_tracer, probe_items, time_scale=scale))
    plain_rate = plain.items / sum(plain_clock.normalized())
    traced_rate = tally.items / sum(clock.normalized())
    metrics = {name: value for name, (value, _, _) in layers.items()}
    metrics["tracing.overhead_frac"] = plain_rate / traced_rate - 1.0
    units = {name: unit for name, (_, unit, _) in layers.items()}
    units["tracing.overhead_frac"] = "ratio"
    probed = sorted(name for name, (_, _, from_probe) in layers.items() if from_probe)
    context = [
        f"traced slice: {len(groups)} groups, {tally.items} items, {len(tracer.start)} spans",
        f"untraced {plain_rate:.6g} items/s, traced {traced_rate:.6g} items/s (normalized)",
        "measured on the layer probe (the workload never reaches them): "
        + (", ".join(probed) or "none"),
    ]
    plain.errors.extend(tally.errors)
    plain.failed = max(plain.failed, tally.failed)
    return plain, metrics, units, context


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    print(f"== {workload}, seed {seed}: closed loop, one client, one thread")
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}")
    print(f"why: {workloads.WHY[workload]}")
    if traced:
        tally, metrics, units, context = traced_run(workload, seed)
    else:
        tally, metrics, context = timed_run(workload, seed, seconds)
        units = END_TO_END_UNITS
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {units[name]}")
    for line in context:
        print(f"  {line}")
    for err in tally.errors[:20]:
        print(f"  WRONG OUTPUT: {err}")
    return {
        "correct": not tally.errors,
        "attempted": tally.items,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    _load_program()
    import workloads
    sys.exit(main())
