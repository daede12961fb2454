"""The standalone scripts beside the tests, run as their readers run them."""

import os
import signal
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_code_lines_stops_quietly_when_its_reader_closes_stdout():
    read, write = os.pipe()
    os.close(read)  # closed before the script starts, so its first write fails
    with os.fdopen(write, "wb") as stdout:
        proc = subprocess.run([sys.executable, "-B", str(TESTS / "code_lines.py"), "defs"],
                              stdout=stdout, stderr=subprocess.PIPE)
    assert proc.stderr == b""
    assert proc.returncode == -signal.SIGPIPE
