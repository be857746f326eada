"""Package exports that load from their defining module on first access.

Every run is a fresh interpreter, so a package ``__init__`` that imports
all of its submodules makes each run pay for modules it never executes.
A package instead declares where each exported name lives and installs
the returned function as its module ``__getattr__`` (PEP 562)::

    __getattr__ = lazy_exports(globals(), {".fig3": ("run_fig3a",)})

``from package import name``, ``import *`` and ``package.name`` all go
through it; the first access imports the defining module and caches the
object in the package namespace, so later reads are plain lookups.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], homes: Mapping[str, Iterable[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` resolving each name from its home module.

    ``namespace`` is the package's ``globals()``; ``homes`` maps a module
    name (relative to the package, or absolute) to the names it defines.
    Any other name raises :class:`AttributeError`.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name], package), name)
        namespace[name] = value
        return value

    return __getattr__
