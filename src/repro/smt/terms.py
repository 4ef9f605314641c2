"""Terms and atomic constraints for the FSR constraint language.

FSR's safety analysis (paper Sec. IV-B) only ever emits constraints of three
shapes over integer-valued signature variables:

* ``x < y``   — strict preference / strict monotonicity,
* ``x <= y``  — weak preference / plain monotonicity,
* ``x == y``  — equally-preferred signatures (e.g. ``P = R``).

Every variable is also a positive integer (the Yices
``(subtype (n::nat) (> n 0))`` declaration); the solver adds that bound
itself.  All shapes are *integer difference logic* atoms, i.e. each can be
normalised to one or two inequalities of the form ``a - b <= c``.  The
solver in :mod:`repro.smt.solver` decides conjunctions of such atoms
exactly.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator


class Relation(enum.Enum):
    """Comparison relation of an atomic constraint."""

    LT = "<"
    LE = "<="
    EQ = "="


@dataclass(frozen=True, order=True)
class IntVar:
    """An integer-valued variable (one per path signature).

    Variables compare and hash by name, so the same name used twice denotes
    the same variable — convenient when the encoder regenerates variables
    from signature objects.
    """

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


_atom_counter = itertools.count()


@dataclass(frozen=True)
class Atom:
    """An atomic constraint ``lhs REL rhs`` between two variables.

    Each atom carries an ``origin`` string used for unsat-core reporting: the
    encoder stores the policy entry (e.g. ``"rank[a]: aber2 < adr1"`` or
    ``"mono: adr1 < l_ca (+) adr1"``) so cores can be mapped back to the
    configuration, which is the whole point of the paper's Sec. VI-B workflow.
    """

    lhs: IntVar
    rel: Relation
    rhs: IntVar
    origin: str = ""
    uid: int = field(default_factory=lambda: next(_atom_counter), compare=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def lt(lhs: IntVar, rhs: IntVar, origin: str = "") -> "Atom":
        """``lhs < rhs``."""
        return Atom(lhs, Relation.LT, rhs, origin)

    @staticmethod
    def le(lhs: IntVar, rhs: IntVar, origin: str = "") -> "Atom":
        """``lhs <= rhs``."""
        return Atom(lhs, Relation.LE, rhs, origin)

    @staticmethod
    def eq(lhs: IntVar, rhs: IntVar, origin: str = "") -> "Atom":
        """``lhs == rhs``."""
        return Atom(lhs, Relation.EQ, rhs, origin)

    # -- difference-logic normal form ---------------------------------------

    def difference_edges(self) -> list[tuple[IntVar, IntVar, int]]:
        """Normalise to edges ``(u, v, c)`` meaning ``u - v <= c``.

        The solver builds a graph with an edge ``v -> u`` of weight ``c`` for
        every such triple; a negative cycle certifies unsatisfiability.
        """
        a, b = self.lhs, self.rhs
        if self.rel is Relation.LE:
            return [(a, b, 0)]
        if self.rel is Relation.LT:
            return [(a, b, -1)]
        return [(a, b, 0), (b, a, 0)]

    def evaluate(self, assignment: dict[IntVar, int]) -> bool:
        """Check the atom under a concrete integer assignment."""
        lhs = assignment.get(self.lhs, 0)
        rhs = assignment.get(self.rhs, 0)
        if self.rel is Relation.LT:
            return lhs < rhs
        if self.rel is Relation.LE:
            return lhs <= rhs
        return lhs == rhs

    def __str__(self) -> str:
        return f"{self.lhs} {self.rel.value} {self.rhs}"


@dataclass
class ConstraintSystem:
    """An ordered collection of atoms forming one satisfiability query.

    The order is preserved because unsat cores are reported as subsets of the
    *input* constraints, mirroring Yices' behaviour of echoing back asserted
    formulas.
    """

    atoms: list[Atom] = field(default_factory=list)

    def add(self, atom: Atom) -> Atom:
        """Append ``atom`` and return it (for fluent use)."""
        self.atoms.append(atom)
        return atom

    def variables(self) -> list[IntVar]:
        """All distinct variables in insertion order."""
        seen: dict[IntVar, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.lhs)
            seen.setdefault(atom.rhs)
        return list(seen)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __str__(self) -> str:
        return "\n".join(str(a) for a in self.atoms)
