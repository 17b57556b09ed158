"""Every name a package module imports is used in that module, every
function a package module defines is used somewhere, and the analysis layer
reaches family facts only through weight-system hooks.

``__init__.py`` is exempt from the first check: its imports are the public
re-exports.
"""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treeshift"
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


def dead_names(definitions: list, corpus: list) -> list:
    """Non-dunder ``def`` names in the ``definitions`` sources that occur in
    the ``corpus`` texts no more often than they are defined."""
    defined = collections.Counter(
        node.name
        for source in definitions
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    words = collections.Counter(word for text in corpus for word in re.findall(r"\w+", text))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def test_every_defined_function_is_used():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    others = [ROOT / "README.md", *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("bench/*.py"))]
    assert dead_names(sources, sources + [p.read_text(encoding="utf-8") for p in others]) == []


def test_dead_name_check_flags_an_unused_function():
    source = (
        "def used():\n    return 1\n\n\n"
        "class Planted:\n"
        "    def never_called(self):\n        return used()\n\n"
        "    def __repr__(self):\n        return 'Planted()'\n"
    )
    assert dead_names([source], [source, "Planted().__repr__()"]) == ["never_called"]


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


# The series verdicts; only ``operators.basis_domain_verdict`` turns one into
# a domain status.
SERIES_VERDICTS = ("Converges", "Diverges", "Inconclusive")


def verdict_readers(source: str) -> list:
    """Top-level functions (or ``<module>``) of a module that name a series
    verdict class, bare, as an attribute or in an import."""
    tree = ast.parse(source)

    def names(node) -> set:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                found.update(alias.name for alias in sub.names)
        return found & set(SERIES_VERDICTS)

    readers = set()
    for node in tree.body:
        if names(node):
            is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            readers.add(node.name if is_function else "<module>")
    return sorted(readers)


def test_one_function_classifies_series_verdicts():
    assert verdict_readers((PACKAGE / "analysis.py").read_text(encoding="utf-8")) == []
    assert verdict_readers((PACKAGE / "operators.py").read_text(encoding="utf-8")) == [
        "basis_domain_verdict"
    ]


def test_verdict_check_flags_a_planted_classification():
    source = (
        "from .series import Diverges\n\n\n"
        "def density(w, u):\n    return isinstance(w.aggregate(u), series.Converges)\n\n\n"
        "def untouched(w, u):\n    return w.node_norm(u)\n"
    )
    assert verdict_readers(source) == ["<module>", "density"]
