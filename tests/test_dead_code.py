"""Code with no caller goes away: every private module-level name and every
private method in the package is read somewhere in the package besides its
own definition, and every public function, method and property is read
there or in the demos, the benchmark harness or the README's examples,
where every defaulted parameter of a public function or method is also
passed by some call.  Tests may reach any name or setting, but they do not
keep it alive; a name or setting only the tests use belongs in the tests."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aggdiff"

# public names that only the tests read, each with its reason to stay
TEST_ONLY_PUBLIC = {
    # the paper's L^r bound from mass and second moment behind the blow-up
    # argument; the tests check it against random fields
    "energy:lr_lower_bound",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, node) for the private functions, classes and assigned names at
    module level and the private methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def _reads(node: ast.AST):
    """Names read under ``node``, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _unread(trees: dict, definitions, reads: Counter) -> list:
    """``module:label`` for each (label, name, node) that ``definitions``
    yields for a module's tree whose name ``reads`` counts only inside
    that definition."""
    return sorted(f"{module}:{label}" for module, tree in trees.items()
                  for label, name, node in definitions(tree)
                  if reads[name] == sum(1 for read in _reads(node) if read == name))


def _private_definitions(tree: ast.Module):
    return ((name, name, node) for name, node in _definitions(tree) if _private(name))


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) for the public functions at module level
    and the public methods and properties of public module-level classes.
    Dataclass fields are not definitions here: the CSV writer reads them
    through ``fields()``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def dead_names(sources: dict) -> list:
    """``module:name`` for each private definition in ``sources`` (module
    name -> source text) that no code outside that definition reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    return _unread(trees, _private_definitions, reads)


def unread_public_names(sources: dict, users=()) -> list:
    """``module:name`` for each public definition in ``sources`` that
    neither the package outside that definition nor the ``users`` texts
    read.  The package ``__init__``'s re-exports are not reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(name for module, tree in trees.items() if module != "__init__"
                    for name in _reads(tree))
    reads.update(name for text in users for name in _reads(ast.parse(text)))
    return _unread(trees, _public_definitions, reads)


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def user_sources() -> list:
    """The demos, the benchmark harness and the README's python blocks."""
    scripts = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])
    readme = (ROOT / "README.md").read_text()
    return [*(path.read_text() for path in scripts),
            *re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)]


def test_the_check_sees_a_dead_name():
    sources = {"a": "_LIMIT = 3\n\ndef _twice(x):\n    return _twice(x - 1)\n\n"
                    "class C:\n    def _used(self):\n        return _LIMIT\n\n"
                    "    def _unused(self):\n        return self._used()\n",
               "b": "from a import C\n"}
    assert dead_names(sources) == ["a:_twice", "a:_unused"]


def test_the_check_sees_the_package():
    sources = package_sources()
    assert len(sources) > 5
    assert any(_private(name) for tree in map(ast.parse, sources.values())
               for name, _ in _definitions(tree))


def test_every_private_name_is_read():
    assert dead_names(package_sources()) == []


def test_the_check_sees_an_unread_public_name():
    sources = {"a": "def used():\n    return 1\n\ndef own():\n    return own()\n\n"
                    "class C:\n    def read(self):\n        return used()\n\n"
                    "    @property\n    def unread(self):\n        return 0\n\n"
                    "    def _private(self):\n        return 0\n",
               "__init__": "from .a import C, own, used\nown\n"}
    assert unread_public_names(sources) == ["a:C.read", "a:C.unread", "a:own"]
    assert unread_public_names(sources, ["C().read()"]) == ["a:C.unread", "a:own"]


def test_the_check_sees_the_users():
    users = user_sources()
    assert len(users) > 5 and any("import aggdiff" in text for text in users)


def test_every_public_name_is_read():
    assert set(unread_public_names(package_sources(), user_sources())) == TEST_ONLY_PUBLIC


# defaulted parameters that no caller sets, each with its reason to stay
TEST_ONLY_SETTINGS = {
    # main passes --profile through _commands(), as **kwargs to the handler
    "cli:cmd_constants(profile)",
    "cli:cmd_dichotomy(profile)",
    "cli:cmd_simulate(profile)",
}


def _callables(tree: ast.Module):
    """(qualified name, call name, arguments, bound) for the public functions
    at module level and the public methods of public module-level classes,
    ``__init__`` under the class name; ``bound`` when a call does not pass
    the first parameter (self or cls)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node.args, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    call = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", call, item.args, not static


def _defaulted(args: ast.arguments):
    """(index among the positional parameters or None, name) of each
    parameter with a default."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    yield from ((i, a.arg) for i, a in enumerate(positional) if i >= first)
    yield from ((None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def unset_defaults(sources: dict, users=()) -> list:
    """``module:name(parameter)`` for each defaulted parameter of a public
    function or method in ``sources`` that no call in ``sources`` or the
    ``users`` texts passes, by keyword or by position.  Calls are matched by
    name: ``f(...)`` and ``x.f(...)`` both call every ``f``, and a class
    call calls its ``__init__``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    keywords, positional = {}, Counter()
    for tree in [*trees.values(), *map(ast.parse, users)]:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            count = next((i for i, a in enumerate(call.args)
                          if isinstance(a, ast.Starred)), len(call.args))
            positional[name] = max(positional[name], count)
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    return sorted(f"{module}:{qualified}({param})"
                  for module, tree in trees.items()
                  for qualified, name, args, bound in _callables(tree)
                  for index, param in _defaulted(args)
                  if param not in keywords.get(name, ()) and (
                      index is None or index - bound >= positional[name]))


def test_the_check_sees_an_unset_default():
    sources = {"a": "def f(x, y=1, *, z=2):\n    return x\n\n"
                    "class C:\n    def __init__(self, a=0):\n        self.a = a\n\n"
                    "    def g(self, b=0, c=0):\n        return f(b)\n\n"
                    "    @staticmethod\n    def h(d=0):\n        return d\n"}
    assert unset_defaults(sources) == [
        "a:C.__init__(a)", "a:C.g(b)", "a:C.g(c)", "a:C.h(d)", "a:f(y)", "a:f(z)"]
    users = ["C(1).g(2)", "C.h(3)", "f(0, z=1)"]
    assert unset_defaults(sources, users) == ["a:C.g(c)", "a:f(y)"]


def test_every_default_is_set_by_a_caller():
    assert set(unset_defaults(package_sources(), user_sources())) == TEST_ONLY_SETTINGS
