"""Every defaulted parameter of a public function is set by some caller.

A default that no caller overrides is a setting nobody reads: it widens
the API, and its other values go untested by the program itself. The
callers counted are the program and the gates that run it: src/, the
benchmark (perfbench/) and the acceptance gate (tests/test_acceptance.py).
Unit tests do not count; a value only they set belongs in a module
constant. A call sets a parameter by keyword, or by position when it
passes that many positional arguments; a call with *args or **kwargs
sets every parameter. Functions are matched to calls by name alone, as
f(...) or m.f(...).

A private function's default must be both set and read by src/ itself:
a default that no call sets is a switch nobody flips, and one that every
call sets is a default nobody reads.
"""

import ast

from test_imports import ROOT, SRC, SRC_MODULES, _exported

CALLERS = SRC + sorted((ROOT / "perfbench").rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# the defaulted parameters no caller sets, and why each stays
ALLOWED = {}


def _defaulted(function: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """The defaulted parameters of a def: (position, name), position None
    for a keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _exported_functions(source: str, module: str):
    """The top-level defs of a module that its __all__ lists, read as
    test_imports reads it (_exported: a literal, else the module's own
    at run time, imported by its dotted name)."""
    tree = ast.parse(source)
    exported = _exported(tree, module)
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in exported]


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def _calls(callers: list[str]) -> dict[str, list[ast.Call]]:
    """The calls in callers (sources) by the name of the function called."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def unset_knobs(modules: dict[str, str], callers: list[str]) -> list[str]:
    """'module.function(parameter)' for every defaulted parameter of a
    function in a module's __all__ (dotted module name -> source) that no
    call in callers (sources) sets."""
    calls = _calls(callers)
    return sorted(f"{module}.{fn.name}({param})"
                  for module, source in modules.items()
                  for fn in _exported_functions(source, module)
                  for position, param in _defaulted(fn)
                  if not any(_sets(call, position, param) for call in calls.get(fn.name, ())))


def idle_private_defaults(modules: dict[str, str]) -> list[str]:
    """'module.function(parameter): reason' for every defaulted parameter of
    a top-level private function of the modules (module name -> source)
    that no call in the modules sets, or that every call sets."""
    calls = _calls(list(modules.values()))
    out = []
    for module, source in modules.items():
        for fn in ast.parse(source).body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")):
                continue
            for position, param in _defaulted(fn):
                sets = [_sets(call, position, param) for call in calls.get(fn.name, ())]
                if not any(sets):
                    out.append(f"{module}.{fn.name}({param}): never set")
                elif all(sets):
                    out.append(f"{module}.{fn.name}({param}): never read")
    return sorted(out)


def test_every_public_default_is_set_by_a_caller():
    modules = {name: p.read_text() for p, name in zip(SRC, SRC_MODULES)}
    assert unset_knobs(modules, [p.read_text() for p in CALLERS]) == sorted(ALLOWED)


def test_the_check_sees_an_unset_knob():
    module = ("__all__ = ['f', 'g']\n\n"
              "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
              "def g(x=1):\n    pass\n\n"
              "def _h(y=1):\n    pass\n")
    callers = ["import m\nm.f(0, 1, e=5)\n", "g(*xs)\n"]
    assert unset_knobs({"m": module}, callers) == ["m.f(c)", "m.f(d)"]


def test_every_private_default_is_set_and_read_in_src():
    assert idle_private_defaults({p.stem: p.read_text() for p in SRC}) == []


def test_the_check_sees_an_idle_private_default():
    module = ("def _f(a, b=1, c=2, *, d=3):\n    pass\n\n"
              "def _g(x=1):\n    pass\n\n"
              "def h(y=1):\n    pass\n\n"
              "_f(0)\n_f(0, 1, d=4)\n_g(2)\nh()\n")
    assert idle_private_defaults({"m": module}) == ["m._f(c): never set",
                                                   "m._g(x): never read"]
