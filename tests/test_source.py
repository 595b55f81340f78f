"""Static checks over the sources, read with ``ast``: the names the benchmark
looks up in citegauge exist, and no module imports a name it never reads."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    """The value of the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise LookupError(name)


def _citegauge_imports(tree: ast.AST) -> list[tuple[str, str, str]]:
    """(module, name, bound name) of every ``from citegauge... import name``."""
    return [
        (node.module, alias.name, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "citegauge"
        for alias in node.names
    ]


def benchmark_names() -> list[tuple[str, str]]:
    """(module, name) of every citegauge name perfbench looks up: each entry of
    ``trace.py``'s ``WRAPPED`` and each import of ``run.py``'s ``SETUP_SNIPPET``.

    The files are parsed, not imported: a module named ``trace`` would shadow
    the standard library's.
    """
    trace = _parse(PERFBENCH / "trace.py")
    modules = {bound: f"{module}.{name}" for module, name, bound in _citegauge_imports(trace)}
    names = [
        (modules[entry.elts[0].id], ast.literal_eval(entry.elts[1]))
        for entry in _assigned(trace, "WRAPPED").elts
    ]
    snippet = ast.literal_eval(_assigned(_parse(PERFBENCH / "run.py"), "SETUP_SNIPPET"))
    names += [(module, name) for module, name, _ in _citegauge_imports(ast.parse(snippet))]
    return names


def test_benchmark_names_resolve_to_callables():
    names = benchmark_names()
    assert ("citegauge.citeparse", "match_entry_to_paper") in names
    assert ("citegauge", "load_corpus") in names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that are never read; names in ``__all__`` count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    try:
        read |= set(ast.literal_eval(_assigned(tree, "__all__")))
    except LookupError:
        pass
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


SOURCES = sorted((ROOT / "src" / "citegauge").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


def test_unused_import_check_finds_one():
    tree = ast.parse("import os\nimport sys as system\nfrom json import dumps, loads\n"
                     "__all__ = ['loads']\nprint(system.argv)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: dumps"]
