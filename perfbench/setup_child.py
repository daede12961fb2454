"""Time one cold start of the CLI in this fresh interpreter.

Usage: python3 setup_child.py <src dir> <json argv> [<json list of argv>]
       python3 setup_child.py --reference

Prints the seconds from before `import ymwaves.cli` to the end of one
call with the given argv: the cost every command-line invocation pays,
lazy initialisation included. With the optional list, it then runs
those calls too and prints the process's peak resident set in MB on a
second line. Output goes to the null device, as a pipe would take it.

With --reference it prints the seconds of a reference start instead:
importing the benchmark's drift module, which brings in numpy and the
standard modules the program uses but nothing from ymwaves, and one
reference rep. Cold starts are normalized by it, since a start is mostly
imports and slows down with the host unlike steady-state Python code.
"""

import contextlib
import json
import os
import resource
import sys
import time


def reference() -> None:
    t0 = time.perf_counter()
    import drift
    drift.reference_rep()
    print(repr(time.perf_counter() - t0))


def main() -> None:
    if sys.argv[1] == "--reference":
        return reference()
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    more = json.loads(sys.argv[3]) if len(sys.argv) > 3 else []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        sys.path.insert(0, src)
        import ymwaves.cli
        ymwaves.cli.main(argv)
        elapsed = time.perf_counter() - t0
        for extra in more:
            ymwaves.cli.main(extra)
    print(repr(elapsed))
    if more:
        print(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))


if __name__ == "__main__":
    main()
