"""Explicit-state model checking of SPP dynamics (paper Sec. VIII).

The paper's future-work item: "exploit the close connection between NDlog
programs and state-transition systems ... use a model-checker to generate
traces of protocol oscillations for unsafe policy configurations."

This module implements that for SPP instances, using the standard SPVP
(Simple Path Vector Protocol) abstraction:

* a **state** assigns each node its currently selected permitted path (or
  None); the destination permanently "selects" the trivial path;
* a node's **best response** is its highest-ranked permitted path whose
  next hop currently selects the path's tail — i.e. the route the neighbor
  is actually advertising;
* the one dynamics is **subset activation**: a move lets any non-empty
  set of unsettled nodes adopt their best responses together, each
  reading the old state — what message delays let a real engine do.

Facilities:

* :func:`stable_states` — every fixpoint (stable routing trees).  BAD
  GADGET has none, DISAGREE exactly two, GOOD GADGET exactly one;
* :func:`find_oscillation` — a concrete oscillation trace: a lasso
  (prefix + cycle) of states reachable from the initial state, or None.

State spaces are exponential in instance size; the checker is intended for
gadget-scale instances (the paper's use case) and guards itself with a
state budget: :class:`BudgetExceeded` is the answer "unknown", never "no".
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from ..algebra.spp import Path, SPPInstance

#: A state maps each non-destination node to its selected path (or None).
State = tuple[tuple[str, Path | None], ...]


@dataclass
class Trace:
    """A lasso-shaped execution: ``prefix`` then ``cycle`` repeating."""

    prefix: list[State]
    cycle: list[State]

    def describe(self, instance: SPPInstance) -> str:
        """Human-readable rendering with the paper's path names."""
        def fmt(state: State) -> str:
            parts = []
            for node, path in state:
                name = instance.path_name(path) if path else "-"
                parts.append(f"{node}:{name}")
            return "{" + ", ".join(parts) + "}"

        lines = ["oscillation trace:"]
        for i, state in enumerate(self.prefix):
            lines.append(f"  t{i}: {fmt(state)}")
        lines.append("  -- cycle --")
        for i, state in enumerate(self.cycle):
            lines.append(f"  c{i}: {fmt(state)}")
        return "\n".join(lines)


class BudgetExceeded(RuntimeError):
    """Raised when exploration exceeds the state budget."""


class ModelChecker:
    """SPVP state-transition semantics of one SPP instance."""

    def __init__(self, instance: SPPInstance, max_states: int = 200_000):
        instance.validate()
        self.instance = instance
        self.max_states = max_states
        self.nodes = sorted(instance.permitted)

    # -- semantics -------------------------------------------------------------

    def initial_state(self) -> State:
        return tuple((node, None) for node in self.nodes)

    def best_response(self, state: State, node: str) -> Path | None:
        """Highest-ranked permitted path consistent with current selections."""
        held = dict(state)
        for path in self.instance.permitted[node]:
            next_hop = path[1]
            if next_hop == self.instance.destination:
                return path  # direct route: always advertised
            if held.get(next_hop) == path[1:]:
                return path
        return None

    def is_stable(self, state: State) -> bool:
        return all(self.best_response(state, node) == selected
                   for node, selected in state)

    # -- stable-state enumeration ------------------------------------------------

    def stable_states(self) -> list[dict[str, Path]]:
        """All fixpoints, by exhaustive assignment enumeration.

        Raises :class:`BudgetExceeded` when the assignment space outgrows
        ``max_states``.
        """
        space = 1
        options: list[list[Path | None]] = []
        for node in self.nodes:
            node_options: list[Path | None] = [None]
            node_options.extend(self.instance.permitted[node])
            options.append(node_options)
            space *= len(node_options)
            if space > self.max_states:
                raise BudgetExceeded(
                    f"{space} assignments exceed the budget "
                    f"({self.max_states})")
        stable = []
        for combo in itertools.product(*options):
            state = tuple(zip(self.nodes, combo))
            if self.is_stable(state):
                stable.append({node: path for node, path in state
                               if path is not None})
        return stable

    # -- trace generation ----------------------------------------------------------

    def successors(self, state: State) -> Iterator[State]:
        """Each distinct next state: a non-empty subset of the *unsettled*
        nodes (best response ≠ selection) adopts its best responses, read
        from ``state``.  The full set (the synchronous step) goes first,
        then smaller subsets in :func:`itertools.combinations` order."""
        responses = [self.best_response(state, node) for node, _ in state]
        unsettled = [i for i, (_, selected) in enumerate(state)
                     if responses[i] != selected]
        for size in range(len(unsettled), 0, -1):
            for subset in itertools.combinations(unsettled, size):
                yield tuple((node, responses[i] if i in subset else selected)
                            for i, (node, selected) in enumerate(state))

    def find_oscillation(self) -> Trace | None:
        """A lasso reachable from the initial state, or None, by iterative
        depth-first search over :meth:`successors`.  Wherever the
        synchronous run laps, the trace is exactly that run's lasso.
        Raises :class:`BudgetExceeded` past ``max_states`` states."""
        start = self.initial_state()
        path, on_path, finished = [start], {start: 0}, set()
        pending = [self.successors(start)]
        while pending:
            successor = next(pending[-1], None)
            if successor is None:
                pending.pop()
                done = path.pop()
                del on_path[done]
                finished.add(done)
            elif successor in on_path:
                loop_start = on_path[successor]
                return Trace(prefix=path[:loop_start],
                             cycle=path[loop_start:])
            elif successor not in finished:
                if len(path) + len(finished) >= self.max_states:
                    raise BudgetExceeded(
                        f"oscillation search exceeded the budget "
                        f"({self.max_states} states)")
                on_path[successor] = len(path)
                path.append(successor)
                pending.append(self.successors(successor))
        return None
