"""Lazy package attributes (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` the public names of its
submodules; each name is imported from its submodule the first time it is
read, so importing a package costs only the submodules actually used.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps a relative submodule (``".jobs"``) to the names it
    exports through the package; ``submodules`` names subpackages or modules
    that are themselves package attributes.  A name is cached in the package
    namespace once loaded.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    submodules = tuple(submodules)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin, *submodules})

    return __getattr__, __dir__, [*submodules, *origin]
