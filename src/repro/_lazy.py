"""Re-export a package's names on first access (PEP 562).

A package ``__init__`` that imports every submodule it re-exports makes
each ``import repro.<anything>`` pay for all of them: a ``repro serve``
shard would load the Table 1 adversary games, the experiment harness and
the campaign process pool before answering its first request.  Instead a
package declares a table from each public name to the module defining it
and installs the pair this module builds::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "simulate": ".core.engine",   # attribute of a submodule
        "core": ".core",              # the submodule itself
    })

The first ``package.simulate`` (or ``from package import simulate``)
imports ``package.core.engine`` and caches the value in the package
namespace, so later lookups never reach ``__getattr__`` again.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` resolving ``table``.

    ``table`` maps each exported name to the module defining it, relative
    to ``package``.  A name mapped to ``"." + name`` is that submodule;
    any other name is looked up as an attribute of its module.  Names not
    in the table raise :class:`AttributeError`, so ``from package import
    submodule`` still falls through to the import system.
    """

    def __getattr__(name: str) -> Any:
        try:
            module_name = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = import_module(module_name, package)
        if module_name != "." + name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
