"""Every name a package module imports is used in that module, and the
analysis layer reaches family facts only through weight-system hooks.

``__init__.py`` is exempt from the first check: its imports are the public
re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "treeshift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import math\nfrom .trees import OmegaVertex, nat_path\n\nnat_path()\n"
    assert unused_imports(source) == ["OmegaVertex (line 2)", "math (line 1)"]


# The hooks through which a weight system states its family's analytic facts.
FAMILY_HOOKS = (
    "closed_form_total",
    "_closed_form",
    "_aluthge_closed_form",
    "child_norms_and_weights",
    "_family_margin",
    "_pairing_growth",
)


def imported_family_classes(source: str) -> list:
    """Names imported from ``weights`` (at any level of the module) that are
    weight-system subclasses overriding a family hook."""
    from treeshift import weights

    imported = {
        alias.name: getattr(weights, alias.name, None)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "weights"
        for alias in node.names
    }
    return sorted(
        name
        for name, cls in imported.items()
        if isinstance(cls, type)
        and issubclass(cls, weights.WeightSystem)
        and cls is not weights.WeightSystem
        and any(hook in vars(cls) for hook in FAMILY_HOOKS)
    )


def test_analysis_names_no_family_class():
    source = (PACKAGE / "analysis.py").read_text(encoding="utf-8")
    assert imported_family_classes(source) == []


def test_layering_checker_flags_a_family_class():
    source = "def f():\n    from .weights import CallableWeights, OmegaShiftWeights, WeightSystem\n"
    assert imported_family_classes(source) == ["OmegaShiftWeights"]
