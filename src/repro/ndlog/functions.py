"""Function registry for NDlog programs.

NDlog rule bodies call a fixed set of ``f_*`` helpers (paper Sec. V-A).
Built-ins cover list/path manipulation; policy functions (``f_better``,
``f_concatSig``, ``f_import``, ``f_export`` — Table II of the paper) are
*generated from the input algebra* by :mod:`repro.ndlog.codegen` and
registered on top of the built-ins.

Paths are represented as tuples of node names ordered from the owning node
to the destination, so ``f_head(P)`` is the owning node and ``f_last(P)``
the destination.
"""

from __future__ import annotations

from typing import Any, Callable


class FunctionRegistry:
    """Named ``f_*`` functions available to a program's rules."""

    def __init__(self) -> None:
        self._functions: dict[str, Callable[..., Any]] = {}
        self.register_builtins()

    def register(self, name: str, fn: Callable[..., Any]) -> None:
        self._functions[name] = fn

    def get(self, name: str) -> Callable[..., Any]:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"undefined NDlog function {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._functions

    # -- built-ins -----------------------------------------------------------

    def register_builtins(self) -> None:
        self.register("f_head", lambda path: path[0] if path else None)
        self.register("f_last", lambda path: path[-1] if path else None)
        self.register("f_nexthop",
                      lambda path: path[1] if len(path) > 1 else None)
        self.register("f_size", lambda path: len(path))
        self.register("f_contains", lambda path, node: node in path)
        self.register("f_concatPath", lambda node, path: (node,) + tuple(path))
        self.register("f_min", min)
        self.register("f_max", max)
        self.register("f_sum", lambda a, b: a + b)
