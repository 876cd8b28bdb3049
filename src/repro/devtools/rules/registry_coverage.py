"""registry-coverage: the registries stay the only extension points.

Two halves:

1. **Kernels are dispatched, never imported.**  Model/experiment code
   must reach fused kernels through ``get_backend().kernel(name)`` (or
   the thin wrappers in ``repro.backend.ops``), the one dispatch point
   where per-kernel timing is accounted.  A direct
   ``from repro.backend.kernels import ...`` outside ``repro/backend/``
   silently opts that call site out of the kernel timings.

2. **Registered methods are reachable.**  ``repro.serve`` and the spec
   catalog resolve model families through
   ``repro.api.registry.ensure_builtin_methods()``, which imports the
   built-in packages for their registration side effects.  A
   ``@register_method`` class whose module is not pulled in by that
   chain (package imported by ``ensure_builtin_methods`` *and* the class
   imported by the package ``__init__``) registers only if someone
   happens to import it — i.e. it vanishes from serving and the
   experiment catalog.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.project import Project, SourceFile
from repro.devtools.registry import Finding, register_rule

_KERNELS_MODULE = "repro.backend.kernels"
_API_REGISTRY = "src/repro/api/registry.py"


def _check_kernel_imports(project: Project) -> Iterator[Finding]:
    for sf in project.files:
        if sf.rel.startswith("src/repro/backend/") or sf.tree is None:
            continue
        for node in ast.walk(sf.tree):
            offending = None
            if isinstance(node, ast.ImportFrom) and node.module == _KERNELS_MODULE:
                offending = f"from {node.module} import ..."
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == _KERNELS_MODULE:
                        offending = f"import {alias.name}"
            if offending:
                yield Finding(
                    "registry-coverage",
                    sf.rel,
                    node.lineno,
                    "error",
                    f"{offending}: kernels must be invoked via backend "
                    "registry dispatch (get_backend().kernel(name) / "
                    "repro.backend.ops), not imported directly — direct "
                    "imports bypass the kernel table and its timings",
                )


def _module_of(rel: str) -> Optional[str]:
    """``src/repro/baselines/cr.py`` -> ``repro.baselines.cr``."""
    if not (rel.startswith("src/") and rel.endswith(".py")):
        return None
    parts = rel[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _ensure_builtin_imports(project: Project) -> set[str]:
    """Module names imported inside ``ensure_builtin_methods``."""
    sf = project.file(_API_REGISTRY)
    if sf is None or sf.tree is None:
        return set()
    imported: set[str] = set()
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.FunctionDef) and node.name == "ensure_builtin_methods":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Import):
                    imported.update(alias.name for alias in sub.names)
                elif isinstance(sub, ast.ImportFrom) and sub.module:
                    imported.add(sub.module)
    return imported


def _registered_method_classes(sf: SourceFile) -> Iterator[tuple[str, int]]:
    """(class name, line) of every ``@register_method`` class in a file."""
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "register_method":
                yield node.name, node.lineno
                break


def _package_init_imports(project: Project, package: str) -> set[str]:
    """Names the package ``__init__`` imports from its submodules."""
    rel = "src/" + package.replace(".", "/") + "/__init__.py"
    sf = project.file(rel)
    if sf is None or sf.tree is None:
        return set()
    names: set[str] = set()
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith(package):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def _check_method_reachability(project: Project) -> Iterator[Finding]:
    ensure_imports = _ensure_builtin_imports(project)
    if not ensure_imports:
        return  # no api registry in this tree — nothing to cross-check
    for sf in project.files:
        if sf.tree is None:
            continue
        module = _module_of(sf.rel)
        if module is None:
            continue
        for cls_name, line in _registered_method_classes(sf):
            if module in ensure_imports:
                continue
            package = module.rsplit(".", 1)[0]
            if package in ensure_imports:
                if cls_name in _package_init_imports(project, package):
                    continue
                yield Finding(
                    "registry-coverage",
                    sf.rel,
                    line,
                    "error",
                    f"@register_method class {cls_name!r} is not imported by "
                    f"{package}.__init__, so ensure_builtin_methods() never "
                    "triggers its registration — it is unreachable from "
                    "repro.serve and the spec catalog",
                )
            else:
                yield Finding(
                    "registry-coverage",
                    sf.rel,
                    line,
                    "error",
                    f"@register_method class {cls_name!r} lives in {module}, "
                    "which ensure_builtin_methods() never imports — it is "
                    "unreachable from repro.serve and the spec catalog",
                )


@register_rule(
    "registry-coverage",
    "kernels are reached via backend dispatch only, and every "
    "@register_method class is importable from ensure_builtin_methods()",
)
def check_registry_coverage(project: Project) -> Iterator[Finding]:
    yield from _check_kernel_imports(project)
    yield from _check_method_reachability(project)
