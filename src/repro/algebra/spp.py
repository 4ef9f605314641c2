"""Stable Paths Problem instances and their conversion to algebra (Sec. III-B).

An SPP instance is a topology plus, per node, a ranked list of *permitted
paths* to a single destination.  Researchers use tiny instances ("gadgets")
to probe guideline violations; operators extract instances from router
configurations or live protocol runs.

Conversion to algebra (paper Sec. III-B):

* each directed link ``u -> v`` gets a unique label ``l_uv``;
* each permitted path ``p`` gets a unique signature ``r_p``;
* per-node rankings become chains of strict preferences
  ``r_1 ≺ r_2 ≺ ... ≺ r_n``;
* ⊕ is defined exactly on permitted extensions: ``r_{uv∘p} = l_uv ⊕ r_p``
  whenever both ``uv∘p`` and ``p`` are permitted; everything else is φ.

Note the subtlety that fixes the paper's constraint count (18 for the
Figure-3 instance): a permitted path contributes a strict-monotonicity
constraint **only when its tail is itself permitted at the neighbor** —
e.g. ``dacfr3`` yields none because ``acfr3`` is not in a's ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .base import (
    PHI,
    Label,
    MonoEntry,
    PrefStatement,
    Rel,
    RoutingAlgebra,
    Signature,
)

#: A path is a tuple of node names from source to the destination.
Path = tuple[str, ...]


class SPPValidationError(ValueError):
    """Raised when an SPP instance is structurally inconsistent."""


@dataclass
class SPPInstance:
    """A Stable Paths Problem instance.

    ``edges`` are undirected node pairs; ``permitted`` maps each node to its
    ranked list of permitted paths, most preferred first.  The destination
    node has the single trivial path ``(destination,)`` implicitly.
    ``display_names`` optionally maps paths to the paper's compact names
    (e.g. ``('a','b','e','0') -> 'aber2'``) for reporting.
    """

    name: str
    destination: str
    edges: set[frozenset] = field(default_factory=set)
    permitted: dict[str, list[Path]] = field(default_factory=dict)
    display_names: dict[Path, str] = field(default_factory=dict)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def build(name: str, destination: str,
              permitted: Mapping[str, Sequence[Path]],
              extra_edges: Iterable[tuple[str, str]] = (),
              display_names: Mapping[Path, str] | None = None) -> "SPPInstance":
        """Create an instance, deriving the edge set from the paths."""
        edges: set[frozenset] = {frozenset(e) for e in extra_edges}
        for paths in permitted.values():
            for path in paths:
                for u, v in zip(path, path[1:]):
                    edges.add(frozenset((u, v)))
        instance = SPPInstance(
            name=name,
            destination=destination,
            edges=edges,
            permitted={node: list(paths) for node, paths in permitted.items()},
            display_names=dict(display_names or {}),
        )
        instance.validate()
        return instance

    def validate(self) -> None:
        """Check structural consistency; raise :class:`SPPValidationError`."""
        for node, paths in self.permitted.items():
            seen: set[Path] = set()
            for path in paths:
                if not path:
                    raise SPPValidationError(f"{node}: empty path")
                if path[0] != node:
                    raise SPPValidationError(
                        f"{node}: path {path} does not start at {node}")
                if path[-1] != self.destination:
                    raise SPPValidationError(
                        f"{node}: path {path} does not end at destination "
                        f"{self.destination}")
                if len(set(path)) != len(path):
                    raise SPPValidationError(f"{node}: path {path} has a loop")
                if path in seen:
                    raise SPPValidationError(f"{node}: duplicate path {path}")
                seen.add(path)
                for u, v in zip(path, path[1:]):
                    if frozenset((u, v)) not in self.edges:
                        raise SPPValidationError(
                            f"{node}: path {path} uses missing edge {u}-{v}")

    # -- queries ----------------------------------------------------------------

    def rank_of(self, path: Path) -> int:
        """0-based rank of a permitted path at its source node."""
        return self.permitted[path[0]].index(path)

    def is_permitted(self, path: Path) -> bool:
        if path == (self.destination,):
            return True
        return path in self.permitted.get(path[0], [])

    def path_name(self, path: Path) -> str:
        """Compact display name of a path (paper style)."""
        return self.display_names.get(path, "".join(path))

    def all_paths(self) -> list[Path]:
        """Every permitted path in node order then rank order."""
        return [path for node in sorted(self.permitted)
                for path in self.permitted[node]]

    def __str__(self) -> str:
        lines = [f"SPP {self.name} -> {self.destination}"]
        for node in sorted(self.permitted):
            ranked = " > ".join(self.path_name(p) for p in self.permitted[node])
            lines.append(f"  {node}: {ranked}")
        return "\n".join(lines)


class SPPAlgebra(RoutingAlgebra):
    """The algebra an SPP instance converts to (paper Sec. III-B).

    Labels are directed-edge constants ``('l', u, v)``; signatures are the
    permitted paths themselves (φ for everything else).  The declared
    preference relation is the per-node ranking chains only — a *partial*
    order whose total extension is behaviour-preserving (paper's soundness
    argument at the end of Sec. IV-C).
    """

    def __init__(self, instance: SPPInstance):
        instance.validate()
        self.instance = instance
        self.name = f"spp:{instance.name}"
        self._permitted_sets = {
            node: set(paths) for node, paths in instance.permitted.items()
        }

    # -- operational -------------------------------------------------------------

    def rank_key(self, sig: Signature) -> tuple:
        # Same-source paths: declared rank.  Distinct sources: an arbitrary
        # but consistent total extension, by source (never exercised by
        # route selection, which only compares candidates at one node).
        return (sig[0], self.instance.rank_of(sig), sig)

    def oplus(self, label: Label, sig: Signature) -> Signature:
        if sig is PHI:
            return PHI
        _, u, v = label
        if sig[0] != v:
            return PHI
        extended = (u,) + sig
        if self.instance.is_permitted(extended):
            return extended
        return PHI

    def labels(self) -> Sequence[Label]:
        out = []
        for edge in sorted(self.instance.edges, key=sorted):
            u, v = sorted(edge)
            out.append(("l", u, v))
            out.append(("l", v, u))
        return out

    def origin_signature(self, label: Label) -> Signature:
        _, u, v = label
        if v != self.instance.destination:
            return PHI
        path = (u, v)
        return path if self.instance.is_permitted(path) else PHI

    # -- declarative ---------------------------------------------------------------

    def signatures(self) -> Sequence[Signature]:
        return self.instance.all_paths()

    def preference_statements(self) -> list[PrefStatement]:
        """Per-node ranking chains: ``r_i ≺ r_{i+1}`` (step 2)."""
        statements = []
        for node in sorted(self.instance.permitted):
            ranked = self.instance.permitted[node]
            for hi, lo in zip(ranked, ranked[1:]):
                statements.append(
                    PrefStatement(hi, Rel.STRICT, lo, origin=f"rank[{node}]"))
        return statements

    def mono_entries(self) -> list[MonoEntry]:
        """⊕ entries for permitted paths whose tail is permitted (step 3)."""
        entries = []
        for path in self.instance.all_paths():
            if len(path) < 3:
                continue  # one-hop paths are originations, not extensions
            tail = path[1:]
            if tail in self._permitted_sets.get(tail[0], set()):
                label = ("l", path[0], path[1])
                entries.append(MonoEntry(
                    label, tail, path,
                    origin=f"mono[{path[0]}]",
                ))
        return entries
