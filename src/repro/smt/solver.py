"""Integer difference-logic solver — the FSR substitute for Yices.

The paper feeds Yices conjunctions of integer comparisons (Sec. IV-B).  Those
live entirely inside *integer difference logic* (IDL): every atom normalises
to ``u - v <= c``.  A conjunction of IDL atoms is satisfiable iff the
*constraint graph* (edge ``v -> u`` weighted ``c`` per inequality) has no
negative cycle, and shortest-path distances give a satisfying assignment.
This gives us a sound, complete and fast decision procedure with

* concrete models on ``sat`` (like Yices' ``C=1, P=2, R=2`` instantiation),
* minimal unsatisfiable cores on ``unsat`` (like ``--unsat-core``), and
* iterative enumeration of multiple cores (the paper's "remove cores one by
  one" repair loop).

The implementation is dependency-free and deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .terms import ZERO, Atom, ConstraintSystem, IntVar


class Verdict(enum.Enum):
    """Solver answer, matching SMT-LIB vocabulary."""

    SAT = "sat"
    UNSAT = "unsat"


@dataclass
class Result:
    """Outcome of a :meth:`DifferenceSolver.solve` call.

    ``model``
        On ``sat``: a total assignment of positive integers to the variables
        (positivity is enforced for every variable, mirroring the paper's
        ``Sig`` subtype of positive naturals).
    ``core``
        On ``unsat``: a *minimal* list of input atoms that is jointly
        unsatisfiable (removing any one makes the rest satisfiable).
    """

    verdict: Verdict
    model: dict[IntVar, int] = field(default_factory=dict)
    core: list[Atom] = field(default_factory=list)

    @property
    def is_sat(self) -> bool:
        return self.verdict is Verdict.SAT

    @property
    def is_unsat(self) -> bool:
        return self.verdict is Verdict.UNSAT


class _Edge:
    """Graph edge ``src -> dst`` of weight ``w`` contributed by ``atom``."""

    __slots__ = ("src", "dst", "weight", "atom")

    def __init__(self, src: IntVar, dst: IntVar, weight: int, atom: Atom | None):
        self.src = src
        self.dst = dst
        self.weight = weight
        self.atom = atom


class DifferenceSolver:
    """Decide conjunctions of difference-logic atoms.

    Typical use::

        solver = DifferenceSolver()
        result = solver.solve(system)
        if result.is_sat:
            print(result.model)
        else:
            for atom in result.core:
                print("conflicting:", atom.origin or atom)
    """

    def __init__(self, enforce_positive: bool = True):
        #: When True (the default, matching the paper's ``Sig`` subtype),
        #: every variable is implicitly constrained to be >= 1.  Positivity
        #: can never cause an unsat on its own for pure difference
        #: constraints, so it is excluded from reported cores.
        self.enforce_positive = enforce_positive

    # -- public API ----------------------------------------------------------

    def solve(self, system: ConstraintSystem | Sequence[Atom]) -> Result:
        """Decide ``system``; return verdict plus model or minimal core."""
        atoms = list(system)
        status, model, cycle_atoms = self._propagate(atoms)
        if status is Verdict.SAT:
            return Result(Verdict.SAT, model=model)
        return Result(Verdict.UNSAT,
                      core=self._minimize_core(cycle_atoms, atoms))

    def check(self, system: ConstraintSystem | Sequence[Atom]) -> bool:
        """True iff satisfiable (no model, no core minimisation)."""
        return self._propagate(list(system))[0] is Verdict.SAT

    def all_cores(
        self, system: ConstraintSystem | Sequence[Atom], limit: int = 64
    ) -> list[list[Atom]]:
        """Enumerate disjoint unsat cores by iterative deletion.

        Reproduces the paper's repair workflow: "there can be multiple
        unsatisfiable cores ... the user can attempt removing all
        unsatisfiable cores one by one in an iterative fashion."  After each
        core is found, *all* its atoms are removed and the remainder is
        re-solved, until the system becomes satisfiable.  The returned cores
        are pairwise disjoint; their union is a (not necessarily minimum)
        hitting set of all conflicts.
        """
        remaining = list(system)
        cores: list[list[Atom]] = []
        while len(cores) < limit:
            result = self.solve(remaining)
            if result.is_sat:
                break
            cores.append(result.core)
            dropped = {atom.uid for atom in result.core}
            remaining = [a for a in remaining if a.uid not in dropped]
        return cores

    # -- internals -----------------------------------------------------------

    def _build_edges(self, atoms: Iterable[Atom]) -> tuple[list[_Edge], list[IntVar]]:
        edges: list[_Edge] = []
        variables: dict[IntVar, None] = {}
        for atom in atoms:
            for u, v, c in atom.difference_edges():
                # ``u - v <= c``  =>  edge  v --c--> u
                edges.append(_Edge(v, u, c, atom))
                for var in (u, v):
                    if var != ZERO:
                        variables.setdefault(var)
        var_list = list(variables)
        if self.enforce_positive:
            # x >= 1  <=>  ZERO - x <= -1  <=>  edge x --(-1)--> ZERO.
            # These synthetic atoms are marked None so they never show up in
            # unsat cores: a pure difference system plus uniform positivity
            # is unsat iff the difference system alone is.
            for var in var_list:
                edges.append(_Edge(var, ZERO, -1, None))
        return edges, var_list

    def _propagate(
        self, atoms: list[Atom]
    ) -> tuple[Verdict, dict[IntVar, int], list[Atom]]:
        """Bellman-Ford from a virtual source; detect negative cycles.

        Returns ``(SAT, model, [])`` or ``(UNSAT, {}, cycle_atoms)`` where
        ``cycle_atoms`` are the input atoms along one negative cycle.
        """
        edges, variables = self._build_edges(atoms)
        nodes: list[IntVar] = [ZERO] + variables
        # Virtual source: distance 0 to every node (standard trick — start
        # all distances at 0 rather than materialising source edges).
        dist: dict[IntVar, int] = {node: 0 for node in nodes}
        pred_edge: dict[IntVar, _Edge] = {}

        updated = True
        for _ in range(len(nodes)):
            updated = False
            for edge in edges:
                if dist[edge.src] + edge.weight < dist[edge.dst]:
                    dist[edge.dst] = dist[edge.src] + edge.weight
                    pred_edge[edge.dst] = edge
                    updated = True
            if not updated:
                break

        if updated:
            # A relaxation happened on the |V|-th pass: negative cycle.
            for edge in edges:
                if dist[edge.src] + edge.weight < dist[edge.dst]:
                    return Verdict.UNSAT, {}, self._extract_cycle(edge, pred_edge)
            raise AssertionError("relaxation flagged but no witness edge found")

        # Satisfiable: dist[] solves the difference system.  Anchoring at
        # ZERO (value(x) = dist[x] - dist[ZERO]) honours constant bounds,
        # and the synthetic positivity edges already force every variable
        # to at least 1.
        anchor = dist[ZERO]
        model = {v: dist[v] - anchor for v in variables}
        return Verdict.SAT, model, []

    @staticmethod
    def _extract_cycle(
        start_edge: _Edge, pred_edge: dict[IntVar, _Edge]
    ) -> list[Atom]:
        """Walk predecessor edges from a relaxable edge to recover the cycle."""
        # Advance |V| times to guarantee we are standing *inside* the cycle.
        node = start_edge.src
        for _ in range(len(pred_edge) + 1):
            edge = pred_edge.get(node)
            if edge is None:
                break
            node = edge.src
        # Collect edges around the cycle starting from ``node``.
        cycle_atoms: list[Atom] = []
        seen_uids: set[int] = set()
        cursor = node
        while True:
            edge = pred_edge.get(cursor)
            if edge is None:
                break
            if edge.atom is not None and edge.atom.uid not in seen_uids:
                seen_uids.add(edge.atom.uid)
                cycle_atoms.append(edge.atom)
            cursor = edge.src
            if cursor == node:
                break
        return cycle_atoms

    def _minimize_core(
        self, candidate: list[Atom], full: list[Atom]
    ) -> list[Atom]:
        """Deletion-based minimisation to a *minimal* unsat core.

        A simple negative cycle is already minimal when each atom maps to one
        edge, but ``==`` atoms contribute two edges, so we shrink at the
        *atom* level: drop each atom in turn and keep the drop whenever the
        remainder is still unsat.  Falls back to the full system if the
        extracted cycle was somehow satisfiable (defensive; not expected).
        """
        base = full if self.check(candidate) else candidate
        core = list(base)
        index = 0
        while index < len(core):
            trial = core[:index] + core[index + 1:]
            if trial and not self.check(trial):
                core = trial
            else:
                index += 1
        # Preserve input order for readable reports.
        order = {atom.uid: pos for pos, atom in enumerate(full)}
        core.sort(key=lambda a: order.get(a.uid, len(order)))
        return core


def solve(system: ConstraintSystem | Sequence[Atom]) -> Result:
    """Module-level convenience: solve with default settings."""
    return DifferenceSolver().solve(system)
