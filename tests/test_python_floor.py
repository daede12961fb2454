"""Every src/ module parses under the Python floor pyproject.toml declares.

ast.parse with feature_version rejects much of the grammar that came
after that version, such as except*; it is best effort, and a starred
index still parses. This checks grammar only: a library call or a typing
form newer than the floor still parses, and only a run on that
interpreter would find it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))


def declared_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's requires-python = ">=X.Y"."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), feature_version=declared_floor())


def test_the_check_sees_newer_grammar():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
