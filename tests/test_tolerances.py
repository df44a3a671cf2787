"""Every tolerance of the package is named once, in ghzdistill.tolerances."""
import ast
import inspect
import re
from pathlib import Path

import ghzdistill
from ghzdistill import tolerances
from ghzdistill.cli import build_parser
from ghzdistill.tolerances import RANK_TOL

PACKAGE = Path(ghzdistill.__file__).parent


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_no_tolerance_literal_outside_the_table():
    found = [f"{name}.py:{node.lineno} {node.value!r}"
             for name, tree in _modules().items() if name != "tolerances"
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             and 0.0 < abs(node.value) <= 1e-5]
    assert found == []


def test_table_lists_every_constant_with_its_value_and_users():
    rows = re.findall(r"^([A-Z][A-Z0-9_]*) = (\S+)  \(([a-z, ]+)\)$",
                      tolerances.__doc__, re.M)
    table = {name: (float(value), set(users.split(", "))) for name, value, users in rows}
    users = {}
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "tolerances":
                for alias in node.names:
                    users.setdefault(alias.name, set()).add(module)
    assert set(table) == {name for name in vars(tolerances) if name.isupper()}
    for name, (value, listed) in table.items():
        assert getattr(tolerances, name) == value, name
        assert users.get(name) == listed, name


def test_every_public_tol_defaults_to_rank_tol():
    defaults = {}
    for name in ghzdistill.__all__:
        obj = getattr(ghzdistill, name)
        if inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters:
            defaults[name] = inspect.signature(obj).parameters["tol"].default
    assert sorted(defaults) == [
        "audit_povm", "classification_evidence", "classify", "decompose",
        "diagonal_family_audit", "numeric_rank", "scan_diagonal_family"]
    assert all(v == RANK_TOL for v in defaults.values())
    for command in ("classify", "distill", "simulate", "audit", "fidelity"):
        assert build_parser().parse_args([command, "state.json"]).tol == RANK_TOL
