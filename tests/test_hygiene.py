"""Source hygiene checks that need no tool beyond the standard library."""

import ast
import contextlib
import importlib.util
import io
import random
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


# Counts the ctypes lookups of mallopt, then imports the package and runs
# two ci commands, printing what was loaded and looked up after each step.
_ALLOCATOR_PROBE = """
import contextlib, ctypes, io, os, sys
lookups = []
getitem = ctypes.CDLL.__getitem__

def spy(self, name):
    lookups.append(name)
    return getitem(self, name)

ctypes.CDLL.__getitem__ = spy
import riskbounds, riskbounds.cli
print("concurrent.futures" in sys.modules, lookups.count("mallopt"))
with contextlib.redirect_stdout(io.StringIO()):
    assert riskbounds.cli.main(["ci", "--input", sys.argv[1], "--bounds", "0,1", "--risk", "cvar:0.5"]) == 0
    assert riskbounds.cli.main(["ci", "--input", sys.argv[1], "--bounds", "0,1", "--risk", "erm:1"]) == 0
try:
    glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
except (AttributeError, ValueError, OSError):
    glibc = False
print("concurrent.futures" in sys.modules, lookups.count("mallopt"), glibc)
"""


def test_import_starts_no_pool_and_leaves_the_allocator(tmp_path):
    # Importing the package loads no thread pool and leaves glibc's
    # allocator as it is; cli.main sets it once per process, on glibc only,
    # and the sample reader loads the pool when it first reads.
    path = tmp_path / "s.csv"
    path.write_text("0.25\n0.5\n0.75\n")
    run = subprocess.run(
        [sys.executable, "-c", _ALLOCATOR_PROBE, str(path)], cwd=ROOT / "src", capture_output=True, text=True,
        check=True,
    )
    on_import, after_main = run.stdout.split("\n")[:2]
    assert on_import == "False 0"
    glibc = after_main.endswith("True")
    assert after_main == ("True 1 True" if glibc else "True 0 False")


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

    The blind spot is a method name that another class shares: a read of
    one passes them all. ``ConfidenceResult.width`` stayed unread behind
    ``SupportBounds.width`` that way until it was deleted, and
    ``RegretTrace.validate`` behind the arms' ``validate`` until it was.
    The names still shared across unrelated classes are ``sample``,
    ``quantile`` and ``cdf`` (arms and ``DiscreteDistribution``), and
    ``DiscreteDistribution.cdf`` passes here only on the arms' reads.
    ``test_every_function_is_called_by_the_cli_corpus`` closes the gap: it
    follows calls, not names.
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


# Functions in src/riskbounds that the CLI corpus (tests/cli_corpus.py)
# never calls but that stay, each with its reason.
_KEPT_UNCALLED = {
    "bounds.bound_with_radius": "the library's bound at a given radius; perfbench/tracer.py wraps it by name as a layer",
    "distributions.DiscreteDistribution.cdf": "acceptance criterion 2 reads the ball extremes' CDFs through it",
    "distributions.DiscreteDistribution.__eq__": "the value type's protocol: equal atoms, CDF values and bounds",
    "distributions.DiscreteDistribution.__repr__": "the value type's protocol: a readable summary",
    "distributions.DiscreteDistribution.__setattr__": "the immutability guard; it runs only on an attempted write",
}


def _defined_functions() -> set[str]:
    """Every function defined in src/riskbounds, as ``module.qualname``
    (``Class.method``, ``outer.<locals>.inner``); lambdas are not counted."""
    found = set()

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted((ROOT / "src" / "riskbounds").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem, "")
    return found


def test_every_function_is_called_by_the_cli_corpus():
    # The name checks above pass a dead method whenever another class has a
    # live one of the same name; this one follows the calls that the CLI
    # makes. The corpus runs in a fresh interpreter, so no cache warmed by
    # another test (true_risk's lru_cache) hides a call.
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "cli_corpus.py")], cwd=ROOT, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    called = set(run.stdout.split())
    defined = _defined_functions()
    assert defined
    assert sorted(defined - called - _KEPT_UNCALLED.keys()) == []
    assert [q for q in _KEPT_UNCALLED if q not in defined or q in called] == []  # no stale entries


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_boundaries_resolve_and_uninstall_restores_them(tmp_path):
    # perfbench/tracer.py wraps package attributes by name: a renamed or
    # deleted boundary must fail here, not only in a traced benchmark run.
    tracer_mod = _load_tracer()
    cli = importlib.import_module("riskbounds.cli")
    for _, module, attr in tracer_mod.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for _, module, cls_name, attr in tracer_mod.CLASS_ATTRS:
        assert attr in vars(getattr(importlib.import_module(module), cls_name)), (module, cls_name, attr)

    modules = [m for k, m in sys.modules.items() if k == "riskbounds" or k.startswith("riskbounds.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    classes = {
        (module, cls_name): dict(vars(getattr(importlib.import_module(module), cls_name)))
        for _, module, cls_name, _ in tracer_mod.CLASS_ATTRS
    }
    path = tmp_path / "s.csv"
    rng = random.Random(0)
    path.write_text("".join(f"{rng.betavariate(2.0, 5.0)}\n" for _ in range(200)))
    argv = ["ci", "--input", str(path), "--bounds", "0,1", "--risk", "srm-power:2", "--method", "all"]

    def run() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    untraced = run()
    tracer = tracer_mod.Tracer()
    with tracer:
        traced = run()
    assert traced == untraced
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    for (module, cls_name), attrs in classes.items():
        now = vars(getattr(importlib.import_module(module), cls_name))
        assert [k for k, v in attrs.items() if now.get(k) is not v] == [], cls_name
    calls = dict(zip(tracer_mod.BOUNDARIES, tracer.calls))
    for name in (
        "cli.main", "distributions.read_samples_csv", "distributions.from_samples", "operators.neg_sup",
        "operators.pos_sup", "measures.evaluate", "lipschitz.llc", "lipschitz.glc",
    ):
        assert calls[name] > 0, name


# Defaulted parameters that no call in src/ or perfbench/ passes but that
# stay, each with its reason.
_KEPT_UNPASSED = {}


def _program_calls() -> dict[str, list[ast.Call]]:
    """Calls in src/ and perfbench/, by the called name (a ``Name`` or the
    last ``Attribute`` of the callee)."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """Every defaulted parameter of a function in src/, as qualified name ->
    (called name, parameter name, position or None for keyword-only). A
    method's ``__init__`` is called through its class name, and ``self``
    and ``cls`` take no position."""
    found = {}
    for path in sorted((ROOT / "src" / "riskbounds").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owners = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = owners.get(fn)
            called = owner if fn.name == "__init__" else fn.name
            qual = ".".join(filter(None, (path.stem, owner, fn.name)))
            args = fn.args
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                found[f"{qual}.{arg.arg}"] = (called, arg.arg, i)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found[f"{qual}.{arg.arg}"] = (called, arg.arg, None)
    return found


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    # A starred argument or ``**`` mapping may pass anything.
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg == name for k in call.keywords)


def test_every_defaulted_parameter_is_passed_by_the_program():
    # A default that no caller overrides is a knob without a use. The check
    # works on names, not bindings, like _program_reads: a call to another
    # function of the same name also counts, so it can miss a dead knob but
    # never flags a live one.
    calls = _program_calls()
    params = _defaulted_parameters()
    assert params
    unpassed = [
        qual
        for qual, (called, name, position) in params.items()
        if not any(_passes(call, name, position) for call in calls.get(called, []))
    ]
    assert [q for q in unpassed if q not in _KEPT_UNPASSED] == []
    assert [q for q in _KEPT_UNPASSED if q not in params] == []  # no stale entries
