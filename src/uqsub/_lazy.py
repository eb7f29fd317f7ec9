"""Module attributes imported on first use (PEP 562).

The covariant path -- objective table, chain solver, closed forms and the
`sweep`, `curves` and `optimize` commands -- needs only the standard
library.  The names that live in numpy-backed modules (the IPM, the oracle,
the channel and the Monte-Carlo check) are bound where they are re-exported
by a module `__getattr__`, so numpy loads only when one of them is used.
"""
from __future__ import annotations

from importlib import import_module


def lazy_getattr(namespace: dict, sources: dict[str, str]):
    """A module `__getattr__` for `namespace` that imports the module
    `sources[name]` (relative to the package) when `name` is first read and
    binds the name there.  A name bound already, for example replaced by a
    test, is returned as it is and never rebound, also when the function is
    called directly."""

    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(import_module(sources[name], namespace["__package__"]), name)
        return namespace.setdefault(name, value)

    return __getattr__
