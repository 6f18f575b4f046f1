"""Small AST helpers shared by the rule families."""

from __future__ import annotations

import ast
from typing import Dict, Optional


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def called_name(call: ast.Call) -> Optional[str]:
    """The name a call is made by: ``send`` for ``self.member.send(...)``
    and for ``send(...)``; None for anything else (a lambda, a subscript)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def is_process_lookup(node: ast.AST) -> bool:
    """``<anything>.process(...)`` — the Network/Sim registry lookup."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process"
    )


def annotation_class(node: ast.AST) -> Optional[str]:
    """Extract a class name from a (possibly Optional[...]-wrapped or
    string-quoted) annotation."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip('"')
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base and base.rsplit(".", 1)[-1] == "Optional":
            return annotation_class(node.slice)
        return None
    name = dotted_name(node)
    if name and name.rsplit(".", 1)[-1][:1].isupper():
        return name
    return None


def import_bindings(tree: ast.Module) -> Dict[str, str]:
    """Map each locally bound import name to its fully qualified origin.

    ``import time`` -> ``{"time": "time"}``;
    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime as dt`` -> ``{"dt": "datetime.datetime"}``.
    Relative imports are recorded with a leading ``.`` and never match the
    absolute stdlib names the rules look for.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                table[local] = origin
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return table


def qualify(name: str, imports: Dict[str, str]) -> str:
    """A dotted name with its head qualified through import aliases.

    ``dt.now`` with ``{"dt": "datetime.datetime"}`` is
    ``datetime.datetime.now``.  Names bound by assignment (not import)
    stay as written.
    """
    head, _, rest = name.partition(".")
    origin = imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def resolve_call_target(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Fully qualified dotted name of an expression, through import aliases."""
    name = dotted_name(node)
    return None if name is None else qualify(name, imports)


def call_name(node: ast.Call, imports: Dict[str, str]) -> Optional[str]:
    return resolve_call_target(node.func, imports)
