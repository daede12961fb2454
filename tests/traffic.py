"""Which functions of src/ymwaves the bench's calls reach, and how often.

Run from a checkout:

    python -B tests/traffic.py

It sets a profile function (sys.setprofile) before ymwaves is imported,
so calls made while the package and the bench's call lists load are
booked under "import". It then runs the calls of cycle_hash.py, the first
cycle of each workload scan, certify and fields at seeds 1 to 6, and books
each call under its workload; the cycles' construction is booked there
too. perfbench/workloads.py is only read.

It prints one line per workload and function under src/ymwaves/ that the
workload reached: the workload, the number of calls and the function as
module.qualname, the workloads in run order and each one's functions by
calls, most first. A generator counts once per generator, not once per
resumption. It then prints "unreached" and the name of each top-level
function and each method of a top-level class in src/ymwaves/, found with
ast, that no phase reached. -B keeps bytecode out of src/; pytest does not
collect this file.
"""

import ast
import dis
import inspect
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ymwaves"


def _module(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _name(code):
    """code's name and, for a generator, the offsets where its frame is
    fresh; None for code outside src/ymwaves/ or not a function's."""
    if not (code.co_filename.startswith(f"{SRC}{os.sep}")
            and code.co_flags & inspect.CO_OPTIMIZED):
        return None
    starts = None
    if code.co_flags & inspect.CO_GENERATOR:  # started at a RESUME 0, resumed at a RESUME 1
        starts = {i.offset for i in dis.get_instructions(code)
                  if i.opname == "RESUME" and i.arg == 0}
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{_module(Path(code.co_filename))}.{qualname}", starts


class _Tally:
    """A profile function that books each call of a function under
    src/ymwaves/ as (phase, module.qualname) in counts."""

    def __init__(self):
        self.phase = "import"
        self.counts = Counter()
        self._names = {}  # code object -> _name(code)

    def __call__(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        try:
            entry = self._names[code]
        except KeyError:
            entry = self._names[code] = _name(code)
        if entry is not None:
            name, starts = entry
            if starts is None or frame.f_lasti < 0 or frame.f_lasti in starts:
                self.counts[self.phase, name] += 1


def _defined():
    """module.qualname of every top-level function and top-level class
    method in src/ymwaves/."""
    for path in sorted(SRC.glob("*.py")):
        module = _module(path)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                yield from (f"{module}.{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef))


def main():
    tally = _Tally()
    sys.setprofile(tally)
    try:
        import cycle_hash  # beside this file; it puts src/ and perfbench/ on the path

        for workload in cycle_hash.WORKLOADS:
            tally.phase = workload
            for call in cycle_hash.calls(workload):
                call()
    finally:
        sys.setprofile(None)
    order = ["import", *cycle_hash.WORKLOADS]
    for (phase, name), n in sorted(tally.counts.items(),
                                   key=lambda item: (order.index(item[0][0]), -item[1],
                                                     item[0][1])):
        print(f"{phase:8} {n:8}  {name}")
    reached = {name for _, name in tally.counts}
    for name in _defined():
        if name not in reached:
            print(f"unreached  {name}")


if __name__ == "__main__":
    main()
