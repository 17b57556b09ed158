"""Every name a package module imports is used in that module, every
function a package module defines is used somewhere, the analysis layer
reaches family facts only through weight-system hooks, and numpy loads only
with the oracle.

``__init__.py`` is exempt from the first check: its imports are the public
re-exports.
"""

import ast
import collections
import json
import os
import pathlib
import re
import subprocess
import sys

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


# numpy serves only the dense oracle, so it loads with ``oracle`` and with
# nothing else: an import of either runs in a function body or not at all.
LAZY = ("numpy", "oracle")


def eager_imports(source: str) -> list:
    """Imports of numpy or of the ``oracle`` module that run when the module
    loads, that is anywhere outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                dotted = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                dotted = [base] + [f"{base}.{alias.name}" for alias in child.names]
            else:
                dotted = []
            parts = {part for name in dotted for part in name.split(".")}
            found.extend(f"{lazy} (line {child.lineno})" for lazy in LAZY if lazy in parts)
            visit(child)

    visit(ast.parse(source))
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_and_the_oracle_load_only_on_use(path):
    found = eager_imports(path.read_text(encoding="utf-8"))
    if path.name == "oracle.py":
        found = [entry for entry in found if not entry.startswith("numpy ")]
    assert found == []


def test_eager_import_check_flags_planted_imports():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from . import analysis, oracle\n"
        "from .oracle import polar\n"
        "import treeshift.oracle\n"
        "try:\n    import numpy.random\nexcept ImportError:\n    pass\n"
        "from .trees import oracle_free\n\n\n"
        "def cmd_oracle(args):\n    from . import oracle\n    import numpy\n\n\n"
        "def __getattr__(name):\n    from .oracle import polar\n    return polar\n"
    )
    assert eager_imports(source) == [
        "numpy (line 1)",
        "numpy (line 2)",
        "numpy (line 7)",
        "oracle (line 3)",
        "oracle (line 4)",
        "oracle (line 5)",
    ]


ORACLE_NAMES = ("assemble", "compare_with_formula", "matrix_aluthge", "polar", "random_tree_corpus")


def test_oracle_names_are_the_oracle_modules():
    import treeshift
    from treeshift import assemble, compare_with_formula, matrix_aluthge, polar, random_tree_corpus

    oracle = sys.modules["treeshift.oracle"]
    assert treeshift.oracle is oracle
    names = (assemble, compare_with_formula, matrix_aluthge, polar, random_tree_corpus)
    for name, value in zip(ORACLE_NAMES, names):
        assert value is getattr(oracle, name)


def test_unknown_package_name_is_an_attribute_error():
    import treeshift

    with pytest.raises(AttributeError, match="module 'treeshift' has no attribute 'no_such_name'"):
        treeshift.no_such_name


# pytest's ``filterwarnings`` setting imports numpy into this process, so each
# probe runs in a fresh interpreter and reports its exit code and whether
# numpy was loaded.
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import treeshift
    code = 0
elif argv == []:
    import treeshift.cli
    code = 0
else:
    from treeshift import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (None, False),
        ([], False),
        (["analyze", "{paper}"], False),
        (["witness", "--t", "0.5", "--K", "40"], False),
        (["aluthge-weights", "{paper}"], False),
        (["oracle", "--random", "2"], True),
    ],
    ids=["import-treeshift", "import-cli", "analyze", "witness", "aluthge-weights", "oracle"],
)
def test_only_the_oracle_command_loads_numpy(tmp_path, argv, loads_numpy):
    paper = tmp_path / "paper.json"
    paper.write_text(json.dumps({"family": "paper"}))
    if argv:
        argv = [arg.format(paper=paper) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loads_numpy]
