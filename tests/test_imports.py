"""Every import in src/ and tests/ is used, every private name in src/ is
read, every name a src/ module exports exists, and only cli calls another
module's public functions.

No linter ships with the project, so these are the checks: a name an
import binds, each of a star import's too, must be read somewhere in its
module, or be listed in the module's __all__ as a re-export; a private
top-level function, class or constant of src/ must be read somewhere in
src/ outside its own definition; every name in a src/ module's __all__
must resolve in that module, so that a star import of it works; and no
function of a src/ module but cli may call a function another module
lists in its __all__, so that the public API is a view over the private
core and never a step inside it.
A merge of two code paths tends to leave the imports and the helpers of
the one it removed behind, and a deletion its __all__ entries.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SRC = sorted((ROOT / "src").rglob("*.py"))
# the dotted name of each src/ module; a package by its directory
SRC_MODULES = [".".join(p.relative_to(ROOT / "src").with_suffix("").parts)
               .removesuffix(".__init__") for p in SRC]


def _star_names(node: ast.ImportFrom, package) -> list[str]:
    """The names `from module import *` binds: the module's __all__."""
    return importlib.import_module("." * node.level + (node.module or ""), package).__all__


def _exported(tree: ast.Module, module=None) -> set[str]:
    """The names a module's __all__ lists: the literal it assigns, or, for
    an __all__ built from other lists, the named module's own at run time."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                names.update(ast.literal_eval(node.value))
            except ValueError:
                names.update(importlib.import_module(module).__all__)
    return names


def unused_imports(source: str, module=None) -> list[str]:
    """The names an import binds that the module neither reads nor lists
    in its __all__; a star import binds its module's exports, resolved
    in the package of module, the source's dotted name, when relative."""
    tree = ast.parse(source)
    package = module and importlib.import_module(module).__package__
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                star = alias.name == "*"
                names = _star_names(node, package) if star else [alias.asname or alias.name]
                bound.update(dict.fromkeys(names, node.lineno))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)} | _exported(tree, module)
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    # a src/ module's relative imports resolve in its package, and an
    # __all__ it builds is read from it
    assert unused_imports(path.read_text(), dict(zip(SRC, SRC_MODULES)).get(path)) == []


def test_the_check_sees_an_unused_import():
    source = ("import math\nimport os.path\nfrom numpy import array as arr, zeros\nzeros(2)\n"
              "from json import *\ndumps(1)\n__all__ = ['loads']\n")
    assert unused_imports(source) == [
        "line 1: math", "line 2: os", "line 3: arr", "line 5: dump", "line 5: load",
        "line 5: JSONDecoder", "line 5: JSONDecodeError", "line 5: JSONEncoder"]


def _private_definitions(statement) -> list[str]:
    """The private names a top-level statement defines; dunders are not private."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        targets = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        nodes = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        targets = []
    return [n for n in targets if n.startswith("_") and not n.endswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names of the given modules (name -> source) that no
    statement reads, as a name or an attribute, outside the one that
    defines them. Names are matched across modules by name alone."""
    defined, reads = [], []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            reads.append((statement, {n.id if isinstance(n, ast.Name) else n.attr
                                      for n in ast.walk(statement)
                                      if isinstance(n, ast.Attribute)
                                      or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}))
            defined += [(module, name, statement) for name in _private_definitions(statement)]
    return [f"{module}: {name}" for module, name, own in defined
            if not any(name in names for statement, names in reads if statement is not own)]


def test_no_unread_private_names():
    assert unread_private_names({str(p.relative_to(ROOT)): p.read_text() for p in SRC}) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": "_A, _B = 1, 2\n_C: int = _A\n\ndef _f():\n    return _f()\n\n"
             "class _K:\n    pass\n\n__all__ = []\n",
        "b": "import a\n\ndef g():\n    return a._C\n",
    }
    assert unread_private_names(sources) == ["a: _B", "a: _f", "a: _K"]


def stale_exports(module) -> list[str]:
    """The names in a module's __all__ that it does not define; any one
    makes a star import of the module fail."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("name", SRC_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert stale_exports(module) == []
    exec(f"from {name} import *", {})


def test_the_package_exports_every_module_export():
    # the package's __all__ is the union of its modules' and its version,
    # each name once
    package = importlib.import_module("ymwaves")
    modules = [importlib.import_module(name) for name in SRC_MODULES if name != "ymwaves"]
    union = {name for module in modules for name in getattr(module, "__all__", ())}
    assert len(package.__all__) == len(set(package.__all__))
    assert set(package.__all__) == union | {"__version__"}


def test_the_check_sees_a_stale_export():
    module = types.ModuleType("m")
    module.__all__ = ["kept", "gone"]
    module.kept = 1
    assert stale_exports(module) == ["gone"]


def cross_module_public_calls(sources: dict[str, str]) -> list[str]:
    """The calls, in a function of a module (name -> source) other than cli,
    of a function that another module defines and lists in its __all__:
    by a name imported from that module, or as an attribute of that module
    imported whole. Classes are not functions, so calling one is allowed;
    cli is the surface, which calls the others' public API."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    public = {module: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
              & _exported(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        if module == "cli":
            continue
        names, modules = {}, {}  # a bound name -> (module, function), or -> module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                origin = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if origin:
                        names[bound] = (origin, alias.name)
                    else:
                        modules[bound] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    modules[alias.asname or alias.name] = alias.name.rpartition(".")[2]
        functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [(f"{node.name}.{method.name}", method) for node in tree.body
                      if isinstance(node, ast.ClassDef) for method in node.body
                      if isinstance(method, ast.FunctionDef)]
        for qualname, function in functions:
            for call in ast.walk(function):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name):
                    origin, name = names.get(f.id, (None, None))
                elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                    origin, name = modules.get(f.value.id), f.attr
                else:
                    continue
                if origin != module and name in public.get(origin, ()):
                    found.append(f"{module}.{qualname} calls {origin}.{name}")
    return found


def test_only_cli_calls_another_modules_public_functions():
    # the scalar API is a thin view over one array core: the core reaches
    # itself through private helpers, never through another module's API
    sources = {p.stem: p.read_text() for p in SRC if p.stem != "__init__"}
    assert cross_module_public_calls(sources) == []


def test_the_check_sees_a_cross_module_public_call():
    sources = {
        "a": "__all__ = ['f', 'K']\n\ndef f():\n    return f()\n\ndef _g():\n    pass\n\n"
             "class K:\n    pass\n",
        "b": "from .a import K, _g, f as h\nfrom . import a\n\n__all__ = ['m']\n\n"
             "def m():\n    return K(), _g(), m()\n\ndef _n():\n    return h()\n\n"
             "class C:\n    def run(self):\n        return a.f(), a.K(), a._g()\n",
        "cli": "from .a import f\n\ndef main():\n    return f()\n",
    }
    assert cross_module_public_calls(sources) == ["b._n calls a.f", "b.C.run calls a.f"]
