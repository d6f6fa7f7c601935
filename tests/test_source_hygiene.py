"""Static checks on the package source with the standard-library `ast`:
no unused imports, no dead module-level private names, no private name
imported from another module, no private method or cached property of a
class that nothing reads, and no linear solve in the stream designs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mcftn_otfs"


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _loaded(tree) -> set:
    """Every name read in the tree, and every attribute looked up on anything."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":           # the package re-exports what it imports
            continue
        loaded = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{name}: {bound}")
    assert not unused, f"unused imports: {unused}"


def _referenced(modules: dict) -> set:
    """Every name read or imported by name anywhere in the package."""
    referenced = set()
    for tree in modules.values():
        referenced |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_module_name_is_referenced():
    modules = _modules()
    referenced = _referenced(modules)
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            dead += [f"{name}: {d}" for d in defined if _private(d) and d not in referenced]
    assert not dead, f"private names nothing in src/ uses: {dead}"


def test_no_module_imports_another_modules_private_name():
    # a private name is its module's own; one that another module needs is
    # part of an interface and belongs behind a public name
    imported = [f"{name}: from .{node.module} import {alias.name}"
                for name, tree in _modules().items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if _private(alias.name)]
    assert not imported, f"private names imported across modules: {imported}"


def test_every_private_method_and_cached_property_is_read():
    # the attribute name must be read somewhere in src/ (tests do not count)
    modules = _modules()
    referenced = _referenced(modules)
    dead = []
    for name, tree in modules.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                cached = any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
                             == "cached_property" for d in node.decorator_list)
                if (cached or _private(node.name)) and node.name not in referenced:
                    dead.append(f"{name}: {cls.name}.{node.name}")
    assert not dead, f"private methods or cached properties nothing in src/ reads: {dead}"


def test_every_lru_cache_has_a_finite_maxsize():
    # a cache keyed by configs or pulses must not grow with every distinct key:
    # each lru_cache names a positive integer maxsize, and functools.cache
    # (unbounded) is not used
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    unbounded = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for d in node.decorator_list:
                target = d.func if isinstance(d, ast.Call) else d
                if name(target) not in ("lru_cache", "cache"):
                    continue
                size = None
                if isinstance(d, ast.Call) and name(target) == "lru_cache":
                    given = d.args[:1] + [k.value for k in d.keywords if k.arg == "maxsize"]
                    size = given[0].value if given and isinstance(given[0], ast.Constant) else None
                if not (isinstance(size, int) and size > 0):
                    unbounded.append(f"{module}: {node.name}")
    assert not unbounded, f"caches without a finite maxsize: {unbounded}"


def test_stream_designs_call_no_linear_solver():
    # the stream forms come from an SVD of the interference; a solve against,
    # or an inverse of, I + c B B^H loses the digits they keep at high SNR
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    calls = [ast.unparse(node.func) for node in ast.walk(_modules()["precode_mimo.py"])
             if isinstance(node, ast.Call) and name(node.func) in ("solve", "inv", "pinv")]
    assert not calls, f"linear solves in precode_mimo.py: {calls}"
