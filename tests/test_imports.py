"""Module boundaries: the estimators share the engine's stratum table and
query, never its rewrites or its aggregation helpers; the baselines share
nothing of `variational`."""

import ast
from pathlib import Path

import pytest

import vce

SRC = Path(vce.__file__).parent
TABLE_AND_QUERY = {"StratumTable", "EffectQuery", "VARIANTS", "SIGNS"}


def _names_from_variational(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("variational", "vce.variational"):
                names |= {alias.name for alias in node.names}
            elif node.module in (None, "vce"):  # `from . import variational`
                assert "variational" not in {alias.name for alias in node.names}, module
        elif isinstance(node, ast.Import):
            assert "vce.variational" not in {alias.name for alias in node.names}, module
    return names


@pytest.mark.parametrize("module, allowed", [("baselines", set()), ("estimation", TABLE_AND_QUERY)])
def test_imports_from_variational(module, allowed):
    assert _names_from_variational(module) <= allowed
