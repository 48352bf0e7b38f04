"""Source hygiene checks that need no tool beyond the standard library."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """Names bound by imports in ``path`` that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # Package __init__ files import names to re-export them.
    paths = [
        p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"
    ]
    assert paths
    unused = [entry for p in paths for entry in _unused_imports(p)]
    assert unused == []


def test_import_leaves_scipy_special_unloaded():
    # Bounds need only numpy; the beta and truncated-normal arms load
    # scipy.special when first evaluated.
    code = "import sys, riskbounds, riskbounds.cli; print('scipy.special' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "False"


def test_all_lists_and_package_reexports_agree():
    # A name deleted from a module but left in its __all__ would fail only
    # under ``import *``; a re-export must come from the module's __all__.
    package = ROOT / "src" / "riskbounds"
    modules = {
        p.stem: importlib.import_module(f"riskbounds.{p.stem}")
        for p in sorted(package.glob("*.py"))
        if p.name != "__init__.py"
    }
    assert modules
    for name, module in modules.items():
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    reexports = [
        (node.module, alias.name)
        for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    assert [(m, n) for m, n in reexports if n not in modules[m].__all__] == []


# Public names that no code in src/ or perfbench/ reads but that stay in the
# package, each with its reason.
_KEPT_UNREAD = {
    "distributions.DiscreteDistribution.from_json": "the README documents it as the reader of the distribution JSON format",
    "bounds.bound_with_radius": "the library's bound at a given radius; perfbench/tracer.py wraps it by name as a layer",
}


def _program_reads() -> tuple[set[str], set[str]]:
    """Names read by the program (src/ and perfbench/), as (module-level
    names read through ``Name`` and ``ImportFrom`` nodes, attribute names
    read through ``Attribute`` nodes).

    The package's ``__init__`` only re-exports, and a module-level function
    or class that names itself inside its own body does not read itself. The
    check works on names, not bindings: a local variable or an unrelated
    attribute of the same name also counts as a read, so it can miss a dead
    name but never flags a live one.
    """
    paths = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    names, attrs = set(), set()
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            own = getattr(top, "name", None) if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    names.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attrs.add(node.attr)
    return names, attrs


def test_every_public_name_has_a_reader_in_the_program():
    # Test oracles and test-only helpers live in tests/reference.py, not in
    # the package: each module's __all__ and each public method of its
    # classes must be read by the program itself.
    names, attrs = _program_reads()
    public = {}  # qualified name -> read by the program
    for path in sorted((ROOT / "src" / "riskbounds").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"riskbounds.{path.stem}")
        public.update((f"{path.stem}.{n}", n in names) for n in module.__all__)
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                public.update(
                    (f"{path.stem}.{cls.name}.{fn.name}", fn.name in attrs)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                )
    assert public
    assert [q for q, read in public.items() if not read and q not in _KEPT_UNREAD] == []
    assert [q for q in _KEPT_UNREAD if q not in public] == []  # no stale entries
