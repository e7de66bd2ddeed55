"""Private names that docstrings, comments and the README cite must exist.

A docstring or comment that names a private helper in backticks, bare or
after a module and a dot, goes stale silently when the helper is renamed or
deleted.  This scans the docstrings and comments of the package and of every
test file, and README.md, for such names and looks each one up among the
names that ``src/`` and ``tests/`` define.  Dunders are not private names.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINING = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))

#: A backticked name, maybe dotted, whose last part has one leading underscore.
CITED = re.compile(r"`(?:[A-Za-z_]\w*\.)*(_[^\W_]\w*)`")


def _prose(path: Path) -> list[str]:
    """The docstrings and comments of a source file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    found = [ast.get_docstring(node, clean=False) for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))]
    found += [tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type == tokenize.COMMENT]
    return [doc for doc in found if doc]


def _defined(path: Path) -> set[str]:
    """Functions, classes, arguments, and assigned names and attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_cited_private_names_are_defined():
    defined = set().union(*map(_defined, DEFINING))
    missing = sorted({f"{path.relative_to(ROOT)}: {name}"
                      for path in DEFINING for doc in _prose(path)
                      for name in CITED.findall(doc) if name not in defined})
    assert missing == []


def test_readme_private_names_are_defined():
    defined = set().union(*map(_defined, DEFINING))
    cited = set(CITED.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    # README cites adhm._framing_unknowns, _linearise and _unknown_blocks
    assert {"_framing_unknowns", "_linearise", "_unknown_blocks"} <= cited
    assert sorted(cited - defined) == []


def test_the_scan_reads_docstrings_and_comments():
    cited = {name for doc in _prose(ROOT / "tests" / "util.py") for name in CITED.findall(doc)}
    # tests/util.py cites _jacobian in a docstring, _isotropy_system in a comment alone
    assert {"_jacobian", "_isotropy_system"} <= cited
