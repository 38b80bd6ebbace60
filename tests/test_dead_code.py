"""Code with no caller goes away: every private module-level name and every
private method in the package is read somewhere in the package besides its
own definition.  Tests may reach private names, but they do not keep them
alive; a name only the tests read belongs in the tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aggdiff"


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


def dead_names(sources: dict) -> list:
    """``module:name`` for each private definition in ``sources`` (module
    name -> source text) that no code outside that definition reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {}
    for tree in trees.values():
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    dead = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not _private(name):
                continue
            own = sum(1 for read in _reads(node) if read == name)
            if reads.get(name, 0) - own == 0:
                dead.append(f"{module}:{name}")
    return sorted(dead)


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


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
