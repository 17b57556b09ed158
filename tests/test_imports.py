"""Every name a package module imports is used in that module, every
function a package module defines is used somewhere, the analysis layer
reaches family facts only through weight-system hooks, reads no vertex
attribute, numpy loads only with the oracle, and the CLI writes reports
through its own writer alone.

``__init__.py`` is exempt from the first check: its imports are the public
re-exports.
"""

import ast
import dataclasses
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


def dead_names(definitions: list, code: list, texts=()) -> list:
    """Non-dunder ``def`` names in the ``definitions`` sources that no
    ``code`` source references, as a name or an attribute, and no ``texts``
    mention.  Imports and ``__all__`` strings are not references, so a name
    that is only exported stays dead."""
    defined = {
        node.name
        for source in definitions
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    used = set()
    for source in code:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for text in texts:
        used.update(re.findall(r"\w+", text))
    return sorted(defined - used)


def test_every_defined_function_is_used():
    # bench/tracer.py wraps functions by their names as strings, and the
    # README example is code in a text.
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    code = [*MODULES, *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("bench/*.py"))]
    texts = [ROOT / "README.md", ROOT / "bench" / "tracer.py"]
    assert dead_names(
        sources,
        [p.read_text(encoding="utf-8") for p in code],
        [p.read_text(encoding="utf-8") for p in texts],
    ) == []


def test_dead_name_check_flags_an_unused_function():
    source = (
        "def used():\n    return 1\n\n\n"
        "class Planted:\n"
        "    def never_called(self):\n        return used()\n\n"
        "    def __repr__(self):\n        return 'Planted()'\n"
    )
    assert dead_names([source], [source, "Planted().__repr__()"]) == ["never_called"]


def test_dead_name_check_flags_an_exported_orphan():
    # Defined, listed in ``__all__`` and re-exported, but never called.
    module = "__all__ = ['orphan', 'used']\n\n\ndef orphan():\n    return 1\n\n\ndef used():\n    return 2\n"
    init = "from .module import orphan, used\n\n__all__ = ['orphan', 'used']\n"
    caller = "from treeshift import used\n\nused()\n"
    assert dead_names([module, init], [module, caller]) == ["orphan"]


# The hooks through which a weight system states its family's analytic facts.
FAMILY_HOOKS = (
    "closed_form_total",
    "_closed_form",
    "_aluthge_closed_form",
    "child_norms_and_weights",
    "_stream_key",
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


def vertex_attribute_reads(source: str) -> list:
    """Attribute reads in a module that name a field or property of the
    family's vertices (``digit_sum``, ``digits``, ...)."""
    from treeshift.trees import OmegaVertex

    fields = {f.name for f in dataclasses.fields(OmegaVertex)}
    properties = {name for name, value in vars(OmegaVertex).items() if isinstance(value, property)}
    return sorted(
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in fields | properties
    )


def test_analysis_reads_no_vertex_attribute():
    # Which vertices share a certificate stream is the weight system's to
    # say, through ``_stream_key``; the analysis never reads a vertex's digits.
    assert vertex_attribute_reads((PACKAGE / "analysis.py").read_text(encoding="utf-8")) == []


def test_vertex_attribute_check_flags_planted_reads():
    source = (
        "def certify(w, u, seen):\n"
        "    key = u.digit_sum\n"
        "    seen.add((key, u.digits[-1], u.level))\n"
        "    return w._stream_key(u), u.child(0)\n"
    )
    assert vertex_attribute_reads(source) == ["digit_sum (line 2)", "digits (line 3)", "level (line 3)"]


# The transformed system checks its base's divergence claim where it takes the
# claim in, so the analysis reaches no child stream and no stream key.
STREAM_HOOKS = ("_stream_key", "child_terms", "child_norms_and_weights")


def stream_hook_names(source: str) -> list:
    """Names, attributes and imported names in a module that are stream hooks."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend(f"{name} (line {node.lineno})" for name in names if name in STREAM_HOOKS)
    return sorted(found)


def test_analysis_names_no_stream_hook():
    assert stream_hook_names((PACKAGE / "analysis.py").read_text(encoding="utf-8")) == []


def test_stream_hook_check_flags_planted_names():
    source = (
        "from .weights import child_norms_and_weights\n\n\n"
        "def certify(w, mu, u, cert):\n"
        "    key = w._stream_key(u)\n"
        "    terms = mu.child_terms(u, cert.start)\n"
        "    return key, terms, mu.weight(u), child_terms\n"
    )
    assert stream_hook_names(source) == [
        "_stream_key (line 5)",
        "child_norms_and_weights (line 1)",
        "child_terms (line 6)",
        "child_terms (line 7)",
    ]


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


# ``cli.emit`` is the one report writer: the CLI reaches the stdlib encoder
# through neither ``json.dumps`` nor ``json.dump``; ``json.load`` reads tree files.
JSON_WRITERS = ("dump", "dumps")


def json_writer_uses(source: str) -> list:
    """Uses of ``json.dump``/``json.dumps`` in a module, through any alias."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases and node.attr in JSON_WRITERS:
                found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(f"{a.name} (line {node.lineno})" for a in node.names if a.name in JSON_WRITERS)
    return sorted(found)


def test_cli_has_one_report_writer():
    assert json_writer_uses((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_json_writer_check_flags_planted_uses():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dumps, load\n\n\n"
        "def emit(report, fh):\n"
        "    text = json.dumps(report, indent=2)\n"
        "    json.dump(report, fh)\n"
        "    return text, j.dumps(report), dumps(report), json.load(fh), load(fh)\n"
    )
    assert json_writer_uses(source) == ["dump (line 8)", "dumps (line 3)", "dumps (line 7)", "dumps (line 9)"]


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
