"""The package's public surface and the benchmark scripts' view of it."""

import ast
import importlib
from collections import Counter
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


def test_cli_exits_2_only_through_click_usage_errors():
    """Exit code 2 is a usage error: click prints its message on stderr after
    the usage line.  No command calls sys.exit(2) by hand."""
    tree = ast.parse((ROOT / "src" / "zptower" / "cli.py").read_text())
    hits = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"
            and [ast.unparse(a) for a in node.args] == ["2"]]
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


def test_no_module_imports_a_private_name_of_another():
    """A package module reads another only through its public names, so that
    each private decision, such as the size of one y-reduction, has one owner.
    Dunder names such as the package's __version__ are public."""
    hits = [(path.stem, module, name)
            for path in sorted((ROOT / "src" / "zptower").glob("*.py"))
            for level, module, name in _imports(path)
            if (level or module.split(".")[0] == "zptower") and name is not None
            and name.startswith("_") and not name.startswith("__")]
    assert not hits


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


def _is_click_command(node) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
               and dec.func.attr in ("command", "group") for dec in node.decorator_list)


def _uses(tree) -> set[str]:
    """Names that the statements of a module read as a Name or Attribute, not
    counting a def's or class's own name in its body; a name imported under
    another one counts under both."""
    used = set()
    for stmt in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    return used | {aliases[name] for name in used & aliases.keys()}


def _attribute_reads(node) -> Counter:
    """How often each name is read as `x.name` under node."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_package_holds_no_test_only_code():
    """Every public top-level def or class in the package is used by the package
    outside its own definition, or by perfbench, and so is every public method
    or property of a public package class, read as an attribute; references
    that only tests use live in tests/oracle.py.  Methods match by name alone,
    so a test-only method that shares its name with another attribute read,
    such as `serialize` or `zeros`, stays hidden.  analysis, the last computing
    stage, needs nothing but gf."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src" / "zptower").glob("*.py"))]
    benches = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    used = set().union(*map(_uses, trees), *map(_uses, benches))
    defs = [stmt.name for tree in trees for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and not _is_click_command(stmt)]
    assert not [name for name in defs if name not in used and name not in zptower.__all__]
    bench = set().union(*map(_attribute_reads, benches))
    reads = sum(map(_attribute_reads, trees), Counter())
    unread = [f"{cls.name}.{fn.name}" for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and fn.name not in bench and reads[fn.name] == _attribute_reads(fn)[fn.name]]
    assert not unread, f"methods only tests read: {unread}"
    analysis = ROOT / "src" / "zptower" / "analysis.py"
    assert {module for level, module, _ in _imports(analysis) if level} == {"gf"}


def test_no_module_imports_a_name_it_never_reads():
    """Every name an import binds in src/zptower or tests/ is read somewhere in
    its module, or re-exported through __all__; __future__ imports bind none."""
    unused = []
    for path in sorted([*(ROOT / "src" / "zptower").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                    for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(path.name, name) for name in bound if name not in read]
    assert not unused
