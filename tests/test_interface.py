"""The benchmark scripts' view of the package: every name they import exists."""

import ast
import importlib
from pathlib import Path

import zptower

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_imports_resolve():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "zptower":
                imported += [(path.name, node.module, a.name) for a in node.names]
    assert imported, "no zptower imports found under perfbench/"
    missing = [(f, m, n) for f, m, n in imported
               if not hasattr(importlib.import_module(m), n)]
    assert not missing


def test_public_names_exist():
    assert not [n for n in zptower.__all__ if not hasattr(zptower, n)]
