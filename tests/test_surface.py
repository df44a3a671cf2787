"""Every public name has a caller outside the test-suite.

A name that only the tests call is a second route to an answer; it belongs
in ``tests/`` (``oracles.py`` or ``helpers.py``), not in ``ghzdistill``.
A caller is a package module other than ``__init__.py`` (the defining
module counts only where it uses the name, not where it defines it), the
code in ``README.md``, or the benchmark under ``pipeline_bench/``.
"""
import ast
import re
from pathlib import Path

import ghzdistill

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(ghzdistill.__file__).parent


def _references(path: Path) -> tuple[set[str], set[str]]:
    """(names the module imports or reads as an attribute, names it loads).
    A def or class statement binds its name without loading it."""
    imported, loaded = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            imported.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return imported, loaded


def _readme_code_names() -> set[str]:
    """Identifiers in the README's fenced blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```", text, re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_public_name_has_a_caller_outside_the_tests():
    # another module must import the name (a local variable of the same
    # name is no caller); its own module must load it
    modules = {p.stem: _references(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    bench = [_references(p)[0] for p in (ROOT / "pipeline_bench").glob("**/*.py")]
    readme = _readme_code_names()
    orphans = []
    for name in ghzdistill.__all__:
        home = getattr(ghzdistill, name).__module__.rpartition(".")[2]
        called = (name in modules[home][1] or name in readme
                  or any(name in imported for m, (imported, _) in modules.items() if m != home)
                  or any(name in imported for imported in bench))
        if not called:
            orphans.append(name)
    assert not orphans, f"public names that only the tests call: {orphans}"
