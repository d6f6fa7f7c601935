"""Static checks on the package source with the standard-library `ast`:
no unused imports, no dead module-level private names, and no private
method or cached property of a class that nothing reads."""

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
