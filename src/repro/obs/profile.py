"""Self time per ``repro`` package, from a stdlib ``cProfile`` run.

``repro run --profile`` bills each function's ``tottime`` (time in the
function itself, callees excluded) to the ``repro.*`` subpackage its
source file lives in — the same grouping perfbench's ``--trace 1``
table prints.  Stdlib only, in keeping with the obs layer's zero-import
rule.
"""

from __future__ import annotations

import os
import pstats

#: Directory of the ``repro`` package (this module lives in ``repro/obs``).
REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def package_of(filename: str) -> str:
    """The ``repro`` subpackage (or top-level module) owning ``filename``.

    ``.../repro/memory/cache.py`` -> ``memory``; ``.../repro/cli.py`` ->
    ``cli``; anything outside the package (stdlib, builtins) -> ``other``.
    """
    path = os.path.realpath(filename)
    if not path.startswith(REPRO_ROOT + os.sep):
        return "other"
    parts = path[len(REPRO_ROOT) + 1 :].split(os.sep)
    if len(parts) > 1:
        return parts[0]
    return "repro" if parts[0] == "__init__.py" else parts[0].removesuffix(".py")


def package_self_times(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per package, largest first."""
    totals: dict[str, float] = {}
    for (filename, _line, _name), row in stats.stats.items():
        package = package_of(filename)
        totals[package] = totals.get(package, 0.0) + row[2]
    return dict(sorted(totals.items(), key=lambda item: item[1], reverse=True))
