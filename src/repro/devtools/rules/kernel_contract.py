"""kernel-contract: every registered forward kernel has a backward + gradcheck.

The backend kernel table promises that every ``*_forward`` kernel is
validated against the composed reference graph.  That promise has two
halves this rule checks statically:

1. every registered ``X_forward`` has at least one registered
   ``X_backward*`` partner (``_backward``, ``_backward_h``, ...);
2. the pair is *gradcheck-covered*: some file under ``tests/`` mentions
   the kernel's base name and ``gradcheck`` — the cross-reference that
   keeps "gradcheck-validated" true as kernels are added.

Registrations are read from ``_KERNELS``-style dict literals and from
``register_kernel("name", ...)`` calls in any ``repro/backend`` module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.astutil import call_name
from repro.devtools.project import Project, SourceFile
from repro.devtools.registry import Finding, register_rule

_FORWARD = "_forward"
_BACKWARD = "_backward"


def _registered_kernels(sf: SourceFile) -> Iterator[tuple[str, int]]:
    """(kernel name, line) pairs registered in one backend module."""
    for node in ast.walk(sf.tree):
        # _KERNELS = {"name": fn, ...} roster dicts.
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if any("KERNEL" in t.upper() for t in targets):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        yield key.value, key.lineno
        # backend.register_kernel("name", fn) calls.
        if isinstance(node, ast.Call) and call_name(node) == "register_kernel":
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                yield node.args[0].value, node.lineno


@register_rule(
    "kernel-contract",
    "registered *_forward kernels need a *_backward partner and a gradcheck "
    "test cross-referenced under tests/",
)
def check_kernel_contract(project: Project) -> Iterator[Finding]:
    names: dict[str, tuple[SourceFile, int]] = {}
    for sf in project.iter_files("src/repro/backend/"):
        if sf.tree is None:
            continue
        for name, line in _registered_kernels(sf):
            names.setdefault(name, (sf, line))

    gradcheck_texts = [tf.text for tf in project.test_files if "gradcheck" in tf.text]
    for name, (sf, line) in sorted(names.items()):
        if not name.endswith(_FORWARD):
            continue
        base = name[: -len(_FORWARD)]
        if not any(other.startswith(base + _BACKWARD) for other in names):
            yield Finding(
                "kernel-contract",
                sf.rel,
                line,
                "error",
                f"kernel {name!r} is registered without a matching "
                f"{base}{_BACKWARD}* kernel",
            )
        if not any(base in text for text in gradcheck_texts):
            yield Finding(
                "kernel-contract",
                sf.rel,
                line,
                "error",
                f"kernel pair {base!r} has no gradcheck coverage: no file under "
                f"tests/ mentions both {base!r} and 'gradcheck'",
            )
