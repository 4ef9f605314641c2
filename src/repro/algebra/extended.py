"""Extended routing algebra with separate import / export filters (Sec. III-A).

The original algebra's single ⊕ cannot say *which* node filters a route —
a distinction that matters when generating a distributed implementation.
FSR replaces ⊕ with three functions:

* ``⊕I`` — import filter, applied by the *receiving* node,
* ``⊕P`` — plain concatenation, generating the new signature,
* ``⊕E`` — export filter, applied by the *sending* node.

Label convention
----------------

Every ordered node pair ``(u, v)`` carries a label ``L(u, v)`` describing
**what v is to u** (e.g. in Gao-Rexford: ``c`` when v is u's customer).  All
three operators here are indexed by the label *toward the other endpoint of
the operation*:

* ``import_allows(L(u, v), s)`` — u receiving from v,
* ``concat(L(u, v), s)`` — u classifying a route learned from v,
* ``export_allows(L(v, n), s)`` — v sending to n.

This is self-consistent and is what the generated GPV rules use directly.
(The paper's printed ⊕E table is indexed by the *reverse* label — its row
``c`` is our row ``p``; the combined ⊕ tables agree exactly.)

Combining back to a single ⊕ for analysis (paper Sec. III-A): for the
importer-side label ``l``,

    ⊕(l, s) = φ   if not export_allows(reverse(l), s) or not import_allows(l, s)
    ⊕(l, s) = concat(l, s)   otherwise

because when u imports from v over a link u-side-labelled ``l``, the exporter
v sees u through the reverse label ``l̄`` (bilateral relationships: ``c̄ = p``,
``p̄ = c``, ``r̄ = r``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .base import (
    PHI,
    Label,
    MonoEntry,
    Pref,
    PrefStatement,
    Rel,
    RoutingAlgebra,
    Signature,
)


class ExtendedAlgebra(RoutingAlgebra):
    """Algebra with distinguished ⊕I / ⊕P / ⊕E operators.

    Subclasses implement the three operators plus :meth:`reverse_label`;
    the combined ⊕ used by the analyzer is derived automatically.
    """

    # -- the three operators -------------------------------------------------

    def import_allows(self, label: Label, sig: Signature) -> bool:
        """⊕I: may the local node import a route with ``sig`` over ``label``?"""
        return True

    def concat(self, label: Label, sig: Signature) -> Signature:
        """⊕P: signature of the one-link extension (never applies filters)."""
        raise NotImplementedError

    def export_allows(self, label: Label, sig: Signature) -> bool:
        """⊕E: may the local node export a route with ``sig`` toward ``label``?"""
        return True

    def reverse_label(self, label: Label) -> Label:
        """l̄: the label of the reverse direction of a link labelled ``l``."""
        return label

    # -- combined ⊕ -----------------------------------------------------------

    def oplus(self, label: Label, sig: Signature) -> Signature:
        """Combined ⊕ per Sec. III-A (filters folded in)."""
        if sig is PHI:
            return PHI
        if not self.export_allows(self.reverse_label(label), sig):
            return PHI
        if not self.import_allows(label, sig):
            return PHI
        return self.concat(label, sig)


def _passes(label: Label, sig: Signature) -> bool:
    return True


def split_operators(algebra: RoutingAlgebra) -> tuple:
    """``(⊕I, ⊕P, ⊕E)`` of any algebra, decided once.

    A plain algebra's combined ⊕ serves as its ⊕P and its filters pass
    everything — the generated ``f_import``/``f_concatSig``/``f_export``.
    """
    if isinstance(algebra, ExtendedAlgebra):
        return algebra.import_allows, algebra.concat, algebra.export_allows
    return _passes, algebra.oplus, _passes


def path_vector_folds(algebra: RoutingAlgebra) -> tuple:
    """The receive and send folds of a path-vector protocol: ``(combine,
    export)``, both ``(label, sig, path, node) -> sig``.

    ``combine`` is the receiver's loop check, ⊕I, then ⊕P; ``export`` is
    the sender's ⊕E plus split horizon.  φ out of either is a withdraw.
    The native GPV engine binds the pair at construction and the NDlog
    code generator registers it as ``f_combine``/``f_exportSig``, so both
    evaluators put the same routes on and off the wire.
    """
    import_allows, concat, export_allows = split_operators(algebra)

    def combine(label, sig, path, node):
        if sig is PHI or node in path or not import_allows(label, sig):
            return PHI
        return concat(label, sig)

    def export(label, sig, path, neighbor):
        if (sig is PHI or (len(path) > 1 and path[1] == neighbor)
                or not export_allows(label, sig)):
            return PHI
        return sig

    return combine, export


@dataclass
class AlgebraTables:
    """Finite tables defining an :class:`TableAlgebra`.

    ``preference`` maps each non-φ signature to an integer rank — smaller is
    more preferred; equal ranks are ties (the paper's ``P = R``).
    ``concat`` maps ``(label, sig) -> sig'``; missing entries default to φ.
    ``import_filter`` / ``export_filter`` contain the *filtered* pairs
    ``(label, sig)`` (i.e. entries mapped to F in the paper's tables).
    ``reverse`` maps each label to its reverse-direction label.
    ``origination`` maps a label to the signature of a one-hop path over it.
    """

    labels: Sequence[Label]
    signatures: Sequence[Signature]
    preference: Mapping[Signature, int]
    concat: Mapping[tuple[Label, Signature], Signature]
    reverse: Mapping[Label, Label]
    import_filter: frozenset = frozenset()
    export_filter: frozenset = frozenset()
    origination: Mapping[Label, Signature] = field(default_factory=dict)


class TableAlgebra(ExtendedAlgebra):
    """An extended algebra fully specified by finite lookup tables.

    This is the workhorse for guideline policies (Gao-Rexford A/B, backup
    routing, ...): construct the tables once and every interface — runtime
    comparator, combined ⊕, analyzer enumeration, NDlog codegen — is served
    from them.
    """

    def __init__(self, name: str, tables: AlgebraTables):
        self.name = name
        self._t = tables
        unknown = set(tables.preference) - set(tables.signatures)
        if unknown:
            raise ValueError(f"preference ranks for unknown signatures: {unknown}")
        missing = set(tables.signatures) - set(tables.preference)
        if missing:
            raise ValueError(f"signatures missing a preference rank: {missing}")

    @property
    def tables(self) -> AlgebraTables:
        return self._t

    # -- RoutingAlgebra interface ---------------------------------------------

    def preference(self, s1: Signature, s2: Signature) -> Pref:
        if s1 is PHI and s2 is PHI:
            return Pref.EQUAL
        if s1 is PHI:
            return Pref.WORSE
        if s2 is PHI:
            return Pref.BETTER
        r1, r2 = self._t.preference[s1], self._t.preference[s2]
        if r1 < r2:
            return Pref.BETTER
        if r1 > r2:
            return Pref.WORSE
        return Pref.EQUAL

    def labels(self) -> Sequence[Label]:
        return list(self._t.labels)

    def signatures(self) -> Sequence[Signature]:
        return list(self._t.signatures)

    def origin_signature(self, label: Label) -> Signature:
        if label in self._t.origination:
            return self._t.origination[label]
        raise KeyError(f"no origination signature for label {label!r}")

    # -- ExtendedAlgebra interface ----------------------------------------------

    def concat(self, label: Label, sig: Signature) -> Signature:
        return self._t.concat.get((label, sig), PHI)

    def import_allows(self, label: Label, sig: Signature) -> bool:
        return (label, sig) not in self._t.import_filter

    def export_allows(self, label: Label, sig: Signature) -> bool:
        return (label, sig) not in self._t.export_filter

    def reverse_label(self, label: Label) -> Label:
        return self._t.reverse[label]

    # -- declarative interface ----------------------------------------------

    def preference_statements(self) -> list[PrefStatement]:
        """Pairwise statements among declared signatures, rank-derived."""
        statements = []
        sigs = list(self._t.signatures)
        for i, s1 in enumerate(sigs):
            for s2 in sigs[i + 1:]:
                pref = self.preference(s1, s2)
                if pref is Pref.BETTER:
                    statements.append(PrefStatement(s1, Rel.STRICT, s2, "pref"))
                elif pref is Pref.WORSE:
                    statements.append(PrefStatement(s2, Rel.STRICT, s1, "pref"))
                else:
                    statements.append(PrefStatement(s1, Rel.EQUAL, s2, "pref"))
        return statements

    def mono_entries(self) -> list[MonoEntry]:
        entries = []
        for label in self._t.labels:
            for sig in self._t.signatures:
                result = self.oplus(label, sig)
                if result is not PHI:
                    entries.append(MonoEntry(label, sig, result, "mono"))
        return entries
