"""The drift correction cancels a slowdown shared by calls and reference."""

import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

import drift

HERE = Path(__file__).resolve().parent


def _synthetic(n_calls=40, seed=1):
    rng = random.Random(seed)
    calls = [rng.uniform(0.001, 0.5) for _ in range(n_calls)]
    blocks = [[rng.uniform(0.9e-3, 1.3e-3) for _ in range(rng.randint(1, 6))]
              for _ in range(n_calls + 1)]
    return calls, blocks


@pytest.mark.parametrize("slowdown", [1.0, 1.15, 1.5, 0.8])
def test_uniform_slowdown_leaves_normalized_times_unchanged(slowdown):
    calls, blocks = _synthetic()
    base = drift.normalize(calls, blocks)
    slow = drift.normalize([c * slowdown for c in calls],
                           [[r * slowdown for r in b] for b in blocks])
    assert slow == pytest.approx(base, rel=1e-12)


def test_slow_phase_is_corrected_where_the_reference_saw_it():
    calls, blocks = _synthetic()
    # the machine runs 30% slower from call 20 on; block 20 is timed
    # right before call 20, so every call from 20 on sees only slow blocks
    slow_calls = [c * (1.3 if i >= 20 else 1.0) for i, c in enumerate(calls)]
    slow_blocks = [[r * (1.3 if j >= 20 else 1.0) for r in b] for j, b in enumerate(blocks)]
    base = drift.normalize(calls, blocks)
    slow = drift.normalize(slow_calls, slow_blocks)
    assert slow[20:] == pytest.approx(base[20:], rel=1e-12)
    assert slow[:19] == pytest.approx(base[:19], rel=1e-12)


def test_nominal_reference_speed_keeps_raw_times():
    calls = [0.01, 0.2, 0.003]
    blocks = [[drift.NOMINAL_REF_S]] * 4
    assert drift.normalize(calls, blocks) == pytest.approx(calls, rel=1e-12)


def test_blocks_must_bracket_every_call():
    with pytest.raises(ValueError):
        drift.normalize([0.1, 0.2], [[1e-3], [1e-3]])


def test_clock_records_one_block_around_each_call():
    clock = drift.DriftClock()
    assert clock.time_call(lambda: 42) == 42
    clock.time_call(lambda: None)
    assert len(clock.calls) == 2 and len(clock.blocks) == 3
    assert all(x > 0 for x in clock.normalized())


def test_reference_imports_nothing_from_ymwaves():
    tree = ast.parse((HERE / "drift.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "ymwaves"]
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, drift; drift.reference_block(0.01); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ymwaves'))"],
        cwd=HERE, capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]"
