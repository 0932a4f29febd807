"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package that re-exports names from its submodules lists which
submodule defines each name; the submodule is imported on the first
access of one of its names, not when the package is.  So ``import
repro`` or ``import repro.serve.server`` loads no simulator module: the
router and a node import only what they run, and a node's pool worker
imports the model on its first point.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``"runner"``
    for ``package.runner``), to the names the package re-exports from
    it.  A resolved name is bound on the package, so later lookups are
    plain attribute reads.  ``__dir__`` lists every exported name,
    loaded or not, and ``__all__`` is the exported names in table
    order, so the table is the one list to keep.
    """
    where = {name: submodule for submodule, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        submodule = where.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{submodule}", package),
                        name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
