"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the public names each
``__init__`` exports, and renders their signatures and first docstring
paragraphs into a single markdown reference.

Run:  python docs/generate_api.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

PACKAGES = [
    "repro",
    "repro.core",
    "repro.crypto",
    "repro.compression",
    "repro.delta",
    "repro.memory",
    "repro.net",
    "repro.sim",
    "repro.platform",
    "repro.footprint",
    "repro.baselines",
    "repro.workload",
    "repro.fleet",
    "repro.suit",
    "repro.analysis",
    "repro.tools",
    "repro.faults",
    "repro.obs",
    "repro.serve",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0].strip()
    return " ".join(paragraph.split())


class _SortedSet:
    """Stands in for a set default so it renders in sorted order, not
    hash order (which varies with ``PYTHONHASHSEED``)."""

    def __init__(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:
        items = ", ".join(sorted(repr(item) for item in self.value))
        if isinstance(self.value, frozenset):
            return "frozenset({%s})" % items if items else "frozenset()"
        return "{%s}" % items if items else "set()"


def signature_of(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    return str(signature.replace(parameters=[
        param.replace(default=_SortedSet(param.default))
        if isinstance(param.default, (set, frozenset)) else param
        for param in signature.parameters.values()]))


def describe(name: str, obj) -> str:
    if inspect.isclass(obj):
        lines = ["#### class `%s%s`" % (name, signature_of(obj)), ""]
        summary = first_paragraph(obj)
        if summary:
            lines.append(summary)
        methods = []
        for method_name, method in sorted(vars(obj).items()):
            if method_name.startswith("_"):
                continue
            if callable(method) or isinstance(method, property):
                target = method.fget if isinstance(method, property) \
                    else method
                summary = first_paragraph(target)
                kind = "property " if isinstance(method, property) else ""
                sig = "" if isinstance(method, property) \
                    else signature_of(method)
                methods.append("- %s`%s%s`%s" % (
                    kind, method_name, sig,
                    (" — %s" % summary) if summary else ""))
        if methods:
            lines.append("")
            lines.extend(methods)
        return "\n".join(lines)
    if inspect.isfunction(obj):
        summary = first_paragraph(obj)
        return "#### `%s%s`\n\n%s" % (name, signature_of(obj), summary)
    return "#### `%s`\n\n%s" % (name, first_paragraph(obj) or
                                "Constant / instance.")


def render_package(dotted: str) -> str:
    module = importlib.import_module(dotted)
    exported = getattr(module, "__all__", [])
    lines = ["## `%s`" % dotted, ""]
    summary = first_paragraph(module)
    if summary:
        lines.extend([summary, ""])
    for name in exported:
        if name.startswith("__"):
            continue
        obj = getattr(module, name)
        lines.append(describe(name, obj))
        lines.append("")
    return "\n".join(lines)


def render() -> str:
    """The whole reference as markdown."""
    sections = ["# API reference",
                "",
                "Generated by `python docs/generate_api.py` — do not "
                "edit by hand.",
                ""]
    for dotted in PACKAGES:
        sections.append(render_package(dotted))
    return "\n".join(sections)


def main() -> None:
    out_path = os.path.join(os.path.dirname(__file__), "API.md")
    with open(out_path, "w") as fh:
        fh.write(render())
    print("wrote %s (%d packages)" % (out_path, len(PACKAGES)))


if __name__ == "__main__":
    sys.exit(main())
