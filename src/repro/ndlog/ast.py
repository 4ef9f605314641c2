"""Abstract syntax for Network Datalog (NDlog) programs.

NDlog (paper Sec. V) is a distributed Datalog: every predicate's first
argument carries a *location specifier* (``@``), naming the node where the
tuple lives; rules whose head location differs from the body's location
compile into network messages.

The fragment implemented here is what FSR's generated programs (GPV and
friends) need, mirroring RapidNet/P2:

* ``materialize(rel, keys(i, j, ...))`` declarations — keyed tables where an
  insert with an existing key *replaces* the old row (this update-in-place
  is what lets oscillating configurations oscillate);
* event relations (un-materialized, e.g. ``msg``) that trigger rules but are
  never stored;
* body elements: relation atoms, assignments ``X := f_fn(...)``, and boolean
  conditions ``expr OP expr``;
* two aggregate forms in heads:

  - ``a_pref<S>`` — "pick the most preferred row per group", the
    route-selection step of GPV;
  - ``a_topK<S>`` (e.g. ``a_top3<S>``) — a *ranked* aggregate maintaining
    the K most preferred rows per group.  The head relation's stored rows
    carry one extra trailing **rank column** (0 = best) that does not
    appear among the head's written arguments; vacated rank slots are
    filled with φ rows so downstream rules observe withdrawals.  Ranked
    aggregates may join several (materialized) body atoms — the top-k
    send rule of the multipath GPV program ranks ``sig ⋈ label`` per
    neighbor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Union

#: Ranked-aggregate function names: ``a_top<K>`` with K >= 1.
_RANKED_AGGREGATE_RE = re.compile(r"a_top(\d+)")


def ranked_aggregate_k(func: str) -> int | None:
    """``K`` when ``func`` names a ranked aggregate (``a_topK``), else None."""
    match = _RANKED_AGGREGATE_RE.fullmatch(func)
    if match is None:
        return None
    k = int(match.group(1))
    if k < 1:
        raise ValueError(f"ranked aggregate {func!r} needs K >= 1")
    return k


@dataclass(frozen=True)
class Var:
    """A variable (capitalised identifier in the surface syntax)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A literal constant (number, string, ``true``/``false``, ``phi``)."""

    value: Any

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class FuncCall:
    """A call of a registered ``f_*`` function."""

    name: str
    args: tuple["Expr", ...]

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


Expr = Union[Var, Const, FuncCall]


@dataclass(frozen=True)
class Aggregate:
    """An aggregate head argument such as ``a_pref<S>``."""

    func: str
    var: Var

    def __str__(self) -> str:
        return f"{self.func}<{self.var}>"


@dataclass(frozen=True)
class Atom:
    """A predicate atom ``rel(@Loc, Arg, ...)``.

    ``loc_index`` is the position of the location-specified argument
    (always 0 in FSR's programs, kept general for clarity).
    """

    relation: str
    args: tuple[Union[Expr, Aggregate], ...]
    loc_index: int = 0

    @property
    def location(self) -> Union[Expr, Aggregate]:
        return self.args[self.loc_index]

    @property
    def arity(self) -> int:
        return len(self.args)

    def aggregate_index(self) -> int | None:
        """Position of the aggregate argument, or None."""
        for i, arg in enumerate(self.args):
            if isinstance(arg, Aggregate):
                return i
        return None

    def __str__(self) -> str:
        parts = []
        for i, arg in enumerate(self.args):
            prefix = "@" if i == self.loc_index else ""
            parts.append(f"{prefix}{arg}")
        return f"{self.relation}({','.join(parts)})"


@dataclass(frozen=True)
class Assignment:
    """``Var := expr`` — binds a fresh variable."""

    var: Var
    expr: Expr

    def __str__(self) -> str:
        return f"{self.var} := {self.expr}"


@dataclass(frozen=True)
class Condition:
    """``lhs OP rhs`` with OP in ``== != < <= > >=`` — filters bindings."""

    lhs: Expr
    op: str
    rhs: Expr

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


BodyElement = Union[Atom, Assignment, Condition]


@dataclass
class Rule:
    """``name head :- body.``"""

    name: str
    head: Atom
    body: list[BodyElement] = field(default_factory=list)

    def body_atoms(self) -> list[Atom]:
        return [el for el in self.body if isinstance(el, Atom)]

    @property
    def is_aggregate(self) -> bool:
        return self.head.aggregate_index() is not None

    def ranked_k(self) -> int | None:
        """K of this rule's ranked aggregate (``a_topK``), or None."""
        index = self.head.aggregate_index()
        if index is None:
            return None
        aggregate = self.head.args[index]
        assert isinstance(aggregate, Aggregate)
        return ranked_aggregate_k(aggregate.func)

    def __str__(self) -> str:
        body = ", ".join(str(el) for el in self.body)
        return f"{self.name} {self.head} :- {body}."


@dataclass
class Materialize:
    """``materialize(rel, keys(...))`` — a keyed, stored relation."""

    relation: str
    keys: tuple[int, ...]  # 0-based argument positions forming the key

    def __str__(self) -> str:
        keys = ",".join(str(k + 1) for k in self.keys)
        return f"materialize({self.relation}, infinity, infinity, keys({keys}))."


@dataclass
class Program:
    """A parsed NDlog program: declarations plus rules."""

    name: str
    materialized: dict[str, Materialize] = field(default_factory=dict)
    rules: list[Rule] = field(default_factory=list)

    def is_materialized(self, relation: str) -> bool:
        return relation in self.materialized

    def rules_triggered_by(self, relation: str) -> list[tuple[Rule, int]]:
        """(rule, body-atom position) pairs a delta of ``relation`` triggers.

        Every atom of a rule triggers it, except in a rule with an event
        atom: that atom is its only trigger, since an event is never stored
        and so cannot be joined.
        """
        out = []
        for rule in self.rules:
            atoms = [(position, element)
                     for position, element in enumerate(rule.body)
                     if isinstance(element, Atom)]
            events = [(position, element) for position, element in atoms
                      if not self.is_materialized(element.relation)]
            for position, element in events or atoms:
                if element.relation == relation:
                    out.append((rule, position))
        return out

    def validate(self) -> None:
        """Static checks: aggregates, event relations, location sanity."""
        for rule in self.rules:
            atoms = rule.body_atoms()
            if not atoms:
                raise ValueError(f"rule {rule.name}: no body atoms")
            if rule.is_aggregate:
                if rule.ranked_k() is not None:
                    # Ranked aggregates may join several atoms (the top-k
                    # send rule ranks sig ⋈ label per neighbor), but every
                    # one must be a stored table the maintenance can rescan.
                    unstored = [a.relation for a in atoms
                                if not self.is_materialized(a.relation)]
                    if unstored:
                        raise ValueError(
                            f"rule {rule.name}: ranked aggregate over "
                            f"event relations {unstored}")
                    if not self.is_materialized(rule.head.relation):
                        raise ValueError(
                            f"rule {rule.name}: ranked aggregate head "
                            f"{rule.head.relation} must be materialized")
                elif len(atoms) != 1:
                    raise ValueError(
                        f"rule {rule.name}: aggregate rules must have exactly "
                        "one body atom")
                elif not self.is_materialized(atoms[0].relation):
                    raise ValueError(
                        f"rule {rule.name}: aggregate over event relation "
                        f"{atoms[0].relation}")
            event_atoms = [a for a in atoms
                           if not self.is_materialized(a.relation)]
            if len(event_atoms) > 1:
                raise ValueError(
                    f"rule {rule.name}: more than one event atom "
                    f"({[a.relation for a in event_atoms]})")

    def __str__(self) -> str:
        lines = [str(m) for m in self.materialized.values()]
        lines += [str(r) for r in self.rules]
        return "\n".join(lines)


def _expr_vars(expr: Union[Expr, Aggregate]) -> Iterator[Var]:
    if isinstance(expr, Var):
        yield expr
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from _expr_vars(arg)
    elif isinstance(expr, Aggregate):
        yield expr.var
