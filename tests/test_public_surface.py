"""The library surface that the demos, the benchmark harness and the
README's examples use.

None of them runs in the test suite, so their sources (the README's
```python blocks) are parsed here: every name they take from aggdiff must
still exist, and every call into it must still bind to the callee's
signature (keyword names and positional count).
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import aggdiff
import aggdiff.cli  # noqa: F401 - the benchmark drives it as ``ad.cli``

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])
PACKAGE_NAMES = {"ad", "aggdiff"}  # what the scripts bind the package to


def _package_chain(node):
    """("solver", "run") for ``ad.solver.run``; None unless rooted at the package."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in PACKAGE_NAMES and parts:
        return tuple(reversed(parts))
    return None


def _resolve(chain):
    obj = aggdiff
    for attr in chain:
        obj = getattr(obj, attr)
    return obj


def _imported_names(tree):
    """{local name: (module, attribute)} for every ``from aggdiff... import``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "aggdiff":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def _sources():
    """(file, source text, line offset) of every script and README example."""
    for source in SOURCES:
        yield source.relative_to(ROOT), source.read_text(), 0
    readme = (ROOT / "README.md").read_text()
    for block in re.finditer(r"^```python\n(.*?)^```", readme, re.S | re.M):
        yield "README.md", block.group(1), readme.count("\n", 0, block.start(1))


def _uses():
    """(where, description, object getter, call node or None) for every use."""
    uses = []
    for path, text, offset in _sources():
        tree = ast.parse(text)
        imported = _imported_names(tree)
        for module, attr in imported.values():
            uses.append((path, f"from {module} import {attr}",
                         lambda m=module, a=attr: getattr(importlib.import_module(m), a),
                         None))
        # a called chain is recorded with its call, a chain inside a longer one not at all
        inner = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        inner |= {id(n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute)}
        for node in ast.walk(tree):
            if id(node) in inner:
                continue
            target = node.func if isinstance(node, ast.Call) else node
            call = node if isinstance(node, ast.Call) else None
            chain = _package_chain(target)
            if chain is not None:
                uses.append((f"{path}:{node.lineno + offset}", "ad." + ".".join(chain),
                             lambda c=chain: _resolve(c), call))
            elif call is not None and isinstance(target, ast.Name) \
                    and target.id in imported:
                module, attr = imported[target.id]
                uses.append((f"{path}:{node.lineno + offset}", f"{module}.{attr}",
                             lambda m=module, a=attr: getattr(importlib.import_module(m), a),
                             call))
    return uses


def _traced_pairs():
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/layers.py defines no TRACED tuple")


def test_every_name_used_resolves():
    uses = _uses()
    described = {what for _, what, _, _ in uses}
    # the collector must see the uses it exists for
    assert {"ad.solver.run", "ad.cli.main", "ad.build_kernel"} <= described
    readme = {what for where, what, _, _ in uses if str(where).startswith("README.md:")}
    assert {"ad.find_critical_mass", "ad.run", "ad.SolverConfig"} <= readme
    missing = []
    for where, what, get, _ in uses:
        try:
            get()
        except AttributeError as exc:
            missing.append(f"{where}: {what} ({exc})")
    assert not missing, "\n".join(missing)


def test_every_call_binds_to_its_signature():
    bad = []
    n_calls = 0
    for where, what, get, call in _uses():
        if call is None:
            continue
        n_calls += 1
        try:
            callee = get()
        except AttributeError:
            continue  # reported by test_every_name_used_resolves
        positional = [None for arg in call.args if not isinstance(arg, ast.Starred)]
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        try:
            inspect.signature(callee).bind_partial(*positional, **keywords)
        except TypeError as exc:
            bad.append(f"{where}: {what}({len(positional)} positional, "
                       f"keywords {sorted(keywords)}): {exc}")
    assert n_calls > 20
    assert not bad, "\n".join(bad)


def test_traced_functions_resolve():
    pairs = _traced_pairs()
    assert ("solver", "run") in pairs
    missing = [f"{module}.{attr}" for module, attr in pairs
               if not callable(getattr(getattr(aggdiff, module, None), attr, None))]
    assert not missing, missing
