"""The package's public surface and the benchmark scripts' view of it."""

import ast
import importlib
from pathlib import Path

import zptower

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _imports(path: Path):
    """(level, module, name) per `from module import name`; name is None for `import module`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.level, node.module or "", a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((0, a.name, None) for a in node.names)


def test_perfbench_imports_resolve():
    imported = [(path.name, module, name) for path in sorted(PERFBENCH.glob("*.py"))
                for level, module, name in _imports(path)
                if level == 0 and module.split(".")[0] == "zptower" and name is not None]
    assert imported, "no zptower imports found under perfbench/"
    missing = [(f, m, n) for f, m, n in imported
               if not hasattr(importlib.import_module(m), n)]
    assert not missing


def test_package_never_imports_the_test_oracle():
    hits = [(path.name, module, name) for path in sorted((ROOT / "src" / "zptower").glob("*.py"))
            for _, module, name in _imports(path)
            if "oracle" in module.split(".") or name == "oracle"]
    assert not hits


#: src/zptower modules in pipeline order; each may import only earlier ones
PIPELINE = ["gf", "_slab", "witt", "tower", "linalg", "cartier", "analysis", "fixtures", "cli"]


def test_modules_import_only_earlier_pipeline_stages():
    src = ROOT / "src" / "zptower"
    assert sorted(path.stem for path in src.glob("*.py")) == sorted(PIPELINE + ["__init__"])
    late = []
    for i, mod in enumerate(PIPELINE):
        for level, module, name in _imports(src / f"{mod}.py"):
            if level == 0:
                parts = module.split(".")
                if parts[0] != "zptower":
                    continue
                target = parts[1] if len(parts) > 1 else name
            else:
                target = module.split(".")[0] if module else name
            # the version string is the one name read from the package root
            if target not in PIPELINE[:i] and (target, module) != ("__version__", ""):
                late.append((mod, target))
    assert not late


def test_public_names_exist():
    assert not [n for n in zptower.__all__ if not hasattr(zptower, n)]
    assert zptower.__all__ == [
        "__version__",
        "FieldCtx", "FieldElement", "field",
        "Monomial",
        "RamificationData", "TowerSpec", "TowerState",
        "CartierMatrix", "cartier_matrix",
        "DenseMatrix", "kernel_dim", "twisted_power_kernels",
    ]
