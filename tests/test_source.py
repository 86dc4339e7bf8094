"""Source hygiene: every module-level import in the package is used, and
every module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fashsim"


def unused_imports(source: str):
    """Names bound by the module's top-level imports that nothing in the
    module reads; a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _private_definitions(node):
    """Private (one leading underscore, not dunder) names a top-level
    statement defines: a function, a class or an assigned constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _reads(node):
    """Names a statement reads: loaded names, attribute names (module.name)
    and names imported from another module."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            reads.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
    return reads


def unread_private_names(sources):
    """(module, line, name) of each module-level private function, class or
    constant that no other top-level statement of any module in sources
    (module name -> source) reads; a definition's reads of its own name,
    as in recursion, do not count."""
    statements = [(module, node) for module, source in sorted(sources.items())
                  for node in ast.parse(source).body]
    reads = [_reads(node) for _, node in statements]
    unread = []
    for i, (module, node) in enumerate(statements):
        for name in _private_definitions(node):
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unread.append((module, node.lineno, name))
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("import math\nimport numpy as np\nfrom os import path, sep\n"
              "__all__ = ['sep']\nx = np.zeros(1)\n")
    assert unused_imports(source) == [(1, "math"), (3, "path")]


def test_private_names_are_read_in_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": ("_LIMIT = 3\n_UNUSED, _PAIR = 1, 2\n"
              "def _walk(x):\n    return _walk(x - 1) if x else _LIMIT\n"
              "def _helper():\n    return 1\n"
              "class _Old:\n    pass\n"
              "class _Kept:\n    pass\n"
              "def public():\n    return _helper() + _Kept\n"
              "__version__ = '1'\n"),
        "b": "from .a import _PAIR\nfrom . import a\nx = a._LIMIT + _PAIR\n",
    }
    assert unread_private_names(sources) == [
        ("a", 2, "_UNUSED"), ("a", 3, "_walk"), ("a", 7, "_Old")]


# The market's score cache, its column bounds, and the methods that fill
# or read them.
CACHE_NAMES = {"scores", "_scored", "_score", "_score_columns", "_rescore", "_blocks",
               "_scratch", "_denom", "_gamma", "choose", "commit_round",
               "_colmax", "_eligible", "_argmax"}


def cache_reads(source: str, function: str):
    """The cache names the module's top-level function reads, as an
    attribute or a bare name, sorted."""
    node = next(n for n in ast.parse(source).body
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return sorted(_reads(node) & CACHE_NAMES)


def test_decide_round_reads_nothing_of_the_cache():
    """decide_round is the reference the cache is held to, so it
    recomputes every score from the market's state alone."""
    source = (PACKAGE / "kernel.py").read_text(encoding="utf-8")
    assert cache_reads(source, "decide_round") == []


def test_the_check_sees_a_cache_read():
    source = ("def decide_round(market):\n    market._score_columns()\n"
              "    return market.scores, choose\n")
    assert cache_reads(source, "decide_round") == ["_score_columns", "choose", "scores"]
