#!/usr/bin/env python3
"""Import-contract lint: enforce the layer DAG of ``src/repro``.

The architecture document (docs/architecture.md) defines a layering for
the package: simulation kernel at the bottom, machine model in the
middle, orchestration (harness/service/cli) on top, with
``repro.arch.registry`` below everything.  This tool parses every
module's *module-level* imports (local imports inside functions are the
sanctioned cycle-breaking mechanism and are exempt) and fails when a
package imports a sibling it is not allowed to see.

Hard rules, beyond the per-package allow-list:

* ``sim``, ``core`` and ``memory`` (the model layers generally) must
  never import ``harness``, ``service`` or ``cli``.
* ``repro/arch/registry.py`` imports nothing from ``repro`` at module
  level, so plugins can import it with zero machinery behind it (its
  built-in factories import implementations lazily, at create() time).
* ``repro.arch`` as a whole sees only ``repro.config`` at import time.
  In particular it must not import ``repro.sim`` at module level:
  ``MachineBuilder.build`` constructs the event engine through a
  function-local import, so importing the specs never pulls in the
  simulation kernel.
* ``repro/service/client.py`` and ``repro/service/protocol.py`` (the
  client side of the service) import only ``repro.config`` and each
  other at module level, so a process that only talks to the daemon
  never loads the harness or the machine model.

Usage:
    python tools/check_layering.py [--graph] [--root src/repro]
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import defaultdict

#: Module-level imports each package may make of sibling packages.
#: A package absent from its own allow-list may of course import itself.
ALLOWED: dict[str, set[str]] = {
    # Foundation: no internal imports at all.
    "sim": set(),
    "obs": set(),
    # Architecture layer: registries (stdlib-only) + machine specs.
    "arch": {"config"},
    "config": {"arch"},
    # Model layers.
    "pagetable": {"config"},
    "memory": {"config", "sim"},
    "tlb": {"config", "pagetable", "sim"},
    "ptw": {"arch", "config", "pagetable", "sim", "tlb"},
    "core": {"arch", "config", "gpu", "pagetable", "ptw", "sim", "tlb"},
    "gpu": {"arch", "config", "obs", "pagetable", "ptw", "sim", "tlb", "workloads"},
    "workloads": {"config", "gpu", "pagetable"},
    "resilience": {"config", "gpu", "ptw", "sim"},
    "analysis": {"config", "gpu"},
    # Orchestration layers.
    # The harness preloads the components a run builds (runner.py), so
    # the first job of a process or a forked worker imports nothing.
    "harness": {
        "analysis",
        "config",
        "core",
        "gpu",
        "memory",
        "obs",
        "ptw",
        "resilience",
        "workloads",
    },
    "explore": {"analysis", "config", "gpu", "harness", "obs", "workloads"},
    "service": {"config", "gpu", "harness", "obs"},
    "cli": {
        "analysis",
        "config",
        "explore",
        "gpu",
        "harness",
        "obs",
        "service",
        "workloads",
    },
    # Package façade / entry point sit above everything.
    "__init__": {
        "analysis",
        "config",
        "gpu",
        "harness",
        "obs",
        "resilience",
        "workloads",
    },
    "__main__": {"cli"},
}

#: These packages are the orchestration top — nothing below them may
#: import them, whatever the allow-list says (defense in depth against
#: an accidental allow-list edit).
TOP_LAYERS = {"harness", "explore", "service", "cli"}
MODEL_LAYERS = set(ALLOWED) - TOP_LAYERS - {"__init__", "__main__"}

#: Edges that may only be taken by function-local imports: the
#: importing package reaches these targets inside the function that
#: needs them (``MachineBuilder.build`` constructing the engine for
#: arch -> sim), never at module level.  Defense in depth against
#: someone "fixing" the allow-list instead of keeping the import local.
LOCAL_IMPORT_ONLY: dict[str, set[str]] = {"arch": {"sim"}}

#: The service's client side and the only modules it may import at
#: module level (``JobSpec`` reaches the sweep engine function-locally).
CLIENT_SIDE = {
    os.path.join("service", "client.py"),
    os.path.join("service", "protocol.py"),
}
CLIENT_SIDE_IMPORTS = {"repro.config", "repro.service.protocol"}


def package_of(path: str, root: str) -> str:
    """``src/repro/tlb/tlb.py`` -> ``tlb``; top-level files -> stem."""
    rel = os.path.relpath(path, root)
    parts = rel.split(os.sep)
    return parts[0] if len(parts) > 1 else os.path.splitext(parts[0])[0]


def repro_modules(node: ast.AST) -> list[str]:
    """Dotted ``repro`` modules a single import statement names."""
    names: list[str] = []
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        names = [node.module]
    return [name for name in names if name == "repro" or name.startswith("repro.")]


def repro_targets(node: ast.AST) -> list[str]:
    """Sibling packages a single import statement reaches into."""
    return [
        "__init__" if name == "repro" else name.split(".")[1]
        for name in repro_modules(node)
    ]


def module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, sibling-package) for every top-level repro import."""
    found = []
    for node in tree.body:
        for target in repro_targets(node):
            found.append((node.lineno, target))
    return found


def check(root: str) -> tuple[list[str], dict[str, set[str]]]:
    violations: list[str] = []
    graph: dict[str, set[str]] = defaultdict(set)
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            package = package_of(path, root)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)

            if rel == os.path.join("arch", "registry.py"):
                # The registry is the bottom of the DAG: plugins import
                # it bare, so importing it must pull in zero repro
                # machinery.  The built-in factories lazily import their
                # implementation modules at create() time — that is the
                # sanctioned pattern, so only module scope is checked.
                for lineno, target in module_level_imports(tree):
                    violations.append(
                        f"{rel}:{lineno}: arch/registry.py must not import "
                        f"repro.{target} at module level "
                        f"(it sits below everything)"
                    )
                continue

            if package not in ALLOWED:
                violations.append(
                    f"{rel}:1: package {package!r} is not in the layer map — "
                    f"add it to ALLOWED in tools/check_layering.py"
                )
                continue

            if rel in CLIENT_SIDE:
                for node in tree.body:
                    for module in repro_modules(node):
                        if module not in CLIENT_SIDE_IMPORTS:
                            violations.append(
                                f"{rel}:{node.lineno}: the service client side "
                                f"must not import {module} at module level "
                                f"(allowed: {', '.join(sorted(CLIENT_SIDE_IMPORTS))})"
                            )

            allowed = ALLOWED[package] | {package}
            for lineno, target in module_level_imports(tree):
                graph[package].add(target) if target != package else None
                if target not in allowed:
                    violations.append(
                        f"{rel}:{lineno}: layer {package!r} must not import "
                        f"repro.{target} at module level "
                        f"(allowed: {', '.join(sorted(ALLOWED[package])) or 'nothing'})"
                    )
                if package in MODEL_LAYERS and target in TOP_LAYERS:
                    violations.append(
                        f"{rel}:{lineno}: model layer {package!r} reaches up "
                        f"into orchestration layer repro.{target}"
                    )
                if target in LOCAL_IMPORT_ONLY.get(package, ()):
                    violations.append(
                        f"{rel}:{lineno}: layer {package!r} must import "
                        f"repro.{target} inside the function that needs it "
                        f"(e.g. MachineBuilder.build), not at module level"
                    )
    return violations, graph


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.join(os.path.dirname(__file__), "..", "src", "repro"),
        help="package root to lint (default: src/repro)",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="print the observed module-level dependency graph and exit",
    )
    options = parser.parse_args(argv)
    root = os.path.normpath(options.root)

    violations, graph = check(root)
    if options.graph:
        for package in sorted(graph):
            print(f"{package:12} -> {', '.join(sorted(graph[package]))}")
        return 0
    if violations:
        print(f"layering check FAILED: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"layering check passed: {sum(len(v) for v in graph.values())} "
          f"edges across {len(graph)} packages, all within the DAG")
    return 0


if __name__ == "__main__":
    sys.exit(main())
