"""One hash over the bench's calls, to show that a change moved no output bit.

Run from a checkout, before and after a change:

    python -B tests/cycle_hash.py [WORKLOAD ...]

It imports ymwaves from the checkout's own src/ and the bench's call
lists from perfbench/workloads.py, which it only reads. For each of the
workloads scan, certify and fields and each seed 1 to 6, it builds the
workload's first cycle, random.Random(f"{workload}:{seed}:0"), and runs
every call of every group in order. Each call gives one line: a CLI
call's exit code, stdout and stderr joined by NUL, and the oracle's
values as float.hex joined by commas. It prints one SHA-256 over the
lines, each ending in a newline, and the number of calls. Equal hashes
mean equal exit codes, equal printed bytes and equal oracle values, call
for call. -B keeps bytecode out of src/; pytest does not collect it.
Given workload names, it hashes their calls alone, a quick check while
building; the pinned hash is that of all three.
"""

import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

WORKLOADS = ("scan", "certify", "fields")
SEEDS = range(1, 7)


def _line(result) -> str:
    if isinstance(result, workloads.CliResult):
        return "\0".join(map(str, result))
    return ",".join(float(v).hex() for v in result)


def calls(workload):
    """The calls of workload's first cycle at each seed, in seed, group and
    call order; each seed's cycle is built when the walk reaches it."""
    for seed in SEEDS:
        for group in workloads.CYCLES[workload](random.Random(f"{workload}:{seed}:0")):
            yield from group.calls


def lines(names=WORKLOADS):
    """One line per call, in workload, seed, group and call order."""
    for workload in names:
        for call in calls(workload):
            yield _line(call())


def main():
    names = sys.argv[1:] or WORKLOADS
    if not set(names) <= set(WORKLOADS):
        sys.exit(f"usage: cycle_hash.py [WORKLOAD ...], each one of {', '.join(WORKLOADS)}")
    t0 = time.perf_counter()
    digest, count = hashlib.sha256(), 0
    for line in lines(names):
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()}  {count} calls in {time.perf_counter() - t0:.2f} s")


if __name__ == "__main__":
    main()
