"""Core routing-algebra abstractions (paper Sec. II).

An abstract routing algebra is a tuple ⟨Σ, ⪯, L, ⊕⟩:

* **Σ** — path signatures; a special element φ (:data:`PHI`) marks prohibited
  paths and is strictly the least preferred signature;
* **⪯** — a total preference relation over Σ (smaller = more preferred);
* **L** — link labels;
* **⊕** — concatenation: ``⊕(l, s)`` is the signature of the one-link
  extension of a path with signature ``s`` over a link labelled ``l``.

An algebra states ⪯ exactly once, as a **key**:
:meth:`RoutingAlgebra.rank_key` maps every signature other than φ to a plain
comparable value (an int, a string, a tuple of those) whose natural order
*is* ⪯ — ``s1 ≺ s2`` iff ``rank_key(s1) < rank_key(s2)``, a tie iff neither
key is smaller.  φ has no key: keeping it strictly worst is the base class's
job, said once in :meth:`~RoutingAlgebra.preference` and
:meth:`~RoutingAlgebra.better`, which both derive from the key.  Whatever
orders many signatures — route selection, k-best ranking
(:func:`rank_routes`), the batch backend's tabulation (:func:`rank_sort`) —
computes each key once and compares keys, never calling a comparator per
comparison.

Two views of an algebra coexist in FSR and both are modelled here:

* the *operational* view used by protocol engines: the rank key plus the
  ⊕ function;
* the *declarative* view used by the safety analyzer: a finite list of
  preference statements (:meth:`RoutingAlgebra.preference_statements`) and ⊕
  entries (:meth:`RoutingAlgebra.mono_entries`) that are compiled one-to-one
  into solver constraints (paper Sec. IV-B, steps 1-3).

Closed-form algebras over infinite Σ (e.g. shortest hop-count) cannot
enumerate entries; they instead carry an analytic strict-monotonicity
certificate (:attr:`RoutingAlgebra.closed_form_monotonicity`), the same proof
obligation the paper discharges with a Yices ``forall``.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Hashable, Iterable, Sequence

Signature = Hashable
Label = Hashable


class _Phi:
    """Singleton signature for prohibited paths (φ).

    φ compares strictly worse than every other signature and is absorbing
    under concatenation: ``⊕(l, φ) = φ`` for every label ``l``.
    """

    _instance: "_Phi | None" = None

    def __new__(cls) -> "_Phi":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PHI"

    def __reduce__(self):  # keep singleton identity across pickling
        return (_Phi, ())


#: The prohibited-path signature φ.
PHI = _Phi()


class Pref(enum.IntEnum):
    """Outcome of comparing two signatures under ⪯."""

    BETTER = -1  # s1 ≺ s2: s1 strictly preferred
    EQUAL = 0    # s1 ~ s2: equally preferred (tie)
    WORSE = 1    # s2 ≺ s1


class Rel(enum.Enum):
    """Relation used in a declarative preference statement."""

    STRICT = "<"   # s1 ≺ s2
    WEAK = "<="    # s1 ⪯ s2
    EQUAL = "="    # s1 ~ s2


@dataclass(frozen=True)
class PrefStatement:
    """A declared preference ``s1 REL s2`` (paper Sec. IV-B, step 2).

    ``origin`` documents where the statement came from (e.g. ``"rank[a]"``)
    so that unsat cores can be mapped back to the configuration.
    """

    s1: Signature
    rel: Rel
    s2: Signature
    origin: str = ""

    def __str__(self) -> str:
        return f"{self.s1} {self.rel.value} {self.s2}"


@dataclass(frozen=True)
class MonoEntry:
    """One ⊕ table entry ``result = label ⊕ sig`` with ``result != φ``.

    Each such entry yields one strict-monotonicity constraint
    ``sig < result`` (paper Sec. IV-B, step 3).  Entries producing φ are
    omitted: φ is by definition strictly worse than everything, so the
    constraint ``s < φ`` always holds.
    """

    label: Label
    sig: Signature
    result: Signature
    origin: str = ""

    def __str__(self) -> str:
        return f"{self.label} (+) {self.sig} = {self.result}"


@dataclass(frozen=True)
class ClosedFormCertificate:
    """Analytic monotonicity certificate for infinite-Σ algebras.

    ``strictly_monotonic`` / ``monotonic`` record what the algebra's author
    proves analytically; ``justification`` is the human-readable argument
    (e.g. "⊕ adds a strictly positive label to an integer signature").  The
    analyzer trusts the certificate but cross-checks it on a finite sample
    via :meth:`RoutingAlgebra.sample_signatures`.
    """

    strictly_monotonic: bool
    monotonic: bool
    justification: str


class RoutingAlgebra(ABC):
    """Base class for all routing algebras.

    Subclasses must implement the operational interface (``rank_key``,
    ``oplus``, ``labels``) and, for finite algebras, the enumeration
    interface used by the analyzer.
    """

    #: Short identifier used in reports and NDlog codegen.
    name: str = "algebra"

    # -- operational interface (used by protocol engines) -------------------

    @abstractmethod
    def rank_key(self, sig: Signature) -> Any:
        """⪯ as a comparable value: smaller key = more preferred, equal
        keys tie.  Never called with φ."""

    def preference(self, s1: Signature, s2: Signature) -> Pref:
        """Total comparison of two signatures; φ is always strictly worst."""
        if s1 is PHI:
            return Pref.EQUAL if s2 is PHI else Pref.WORSE
        if s2 is PHI:
            return Pref.BETTER
        k1, k2 = self.rank_key(s1), self.rank_key(s2)
        if k1 < k2:
            return Pref.BETTER
        return Pref.WORSE if k2 < k1 else Pref.EQUAL

    def better(self, s1: Signature, s2: Signature) -> bool:
        """True iff ``s1`` is strictly preferred to ``s2``."""
        return s1 is not PHI and (
            s2 is PHI or self.rank_key(s1) < self.rank_key(s2))

    @abstractmethod
    def oplus(self, label: Label, sig: Signature) -> Signature:
        """Combined concatenation ⊕ (filters folded in; may return φ)."""

    @abstractmethod
    def labels(self) -> Sequence[Label]:
        """The label set L (always finite in FSR's inputs)."""

    def origin_signature(self, label: Label) -> Signature:
        """Signature of a one-hop path over a link labelled ``label``.

        This is the origination set of the algebra (paper Sec. V-B, step 4).
        Defaults to ``⊕(label, origin_seed())``.
        """
        return self.oplus(label, self.origin_seed())

    def origin_seed(self) -> Signature:
        """The signature of the trivial (zero-length) path at the origin."""
        raise NotImplementedError(
            f"{type(self).__name__} must define origin_seed() or override "
            "origin_signature()"
        )

    # -- declarative interface (used by the safety analyzer) ----------------

    def signatures(self) -> Sequence[Signature] | None:
        """Finite signature set Σ \\ {φ}, or None when Σ is infinite."""
        return None

    @property
    def is_finite(self) -> bool:
        """True when Σ is finite and entries can be enumerated."""
        return self.signatures() is not None

    def preference_statements(self) -> list[PrefStatement]:
        """Declared preference relations (analyzer step 2).

        Default: derive every pairwise relation among the finite signatures
        from their rank keys.  This matches the paper's guideline encodings
        (e.g. Gao-Rexford's ``C ≺ R``, ``C ≺ P``, ``R = P``); algebras with
        partial declared orders (SPP instances) override this.
        """
        sigs = self.signatures()
        if sigs is None:
            raise NotImplementedError(
                f"{type(self).__name__} has infinite Σ; the analyzer uses its "
                "closed-form certificate instead"
            )
        statements = []
        ranked = [(sig, self.rank_key(sig)) for sig in sigs]
        for i, (s1, k1) in enumerate(ranked):
            for s2, k2 in ranked[i + 1:]:
                if k1 < k2:
                    statements.append(PrefStatement(s1, Rel.STRICT, s2, "pref"))
                elif k2 < k1:
                    statements.append(PrefStatement(s2, Rel.STRICT, s1, "pref"))
                else:
                    statements.append(PrefStatement(s1, Rel.EQUAL, s2, "pref"))
        return statements

    def mono_entries(self) -> list[MonoEntry]:
        """All non-φ ⊕ entries (analyzer step 3).

        Default: enumerate ``labels() × signatures()``.
        """
        sigs = self.signatures()
        if sigs is None:
            raise NotImplementedError(
                f"{type(self).__name__} has infinite Σ; the analyzer uses its "
                "closed-form certificate instead"
            )
        entries = []
        for label in self.labels():
            for sig in sigs:
                result = self.oplus(label, sig)
                if result is not PHI:
                    entries.append(MonoEntry(label, sig, result, "mono"))
        return entries

    # -- closed-form support -------------------------------------------------

    @property
    def closed_form_monotonicity(self) -> ClosedFormCertificate | None:
        """Analytic certificate for infinite-Σ algebras (None if finite)."""
        return None

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        """Finite sample of Σ used to sanity-check closed-form certificates."""
        sigs = self.signatures()
        if sigs is not None:
            return list(sigs)[:count]
        raise NotImplementedError(
            f"{type(self).__name__} must provide sample_signatures()"
        )

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def origin_or_phi(algebra: RoutingAlgebra, label: Label) -> Signature:
    """One-hop origination under the undefined-label rule, said once: a
    label the algebra cannot originate over (``KeyError`` from a table,
    ``NotImplementedError`` from a missing seed) yields no route — φ."""
    try:
        return algebra.origin_signature(label)
    except (KeyError, NotImplementedError):
        return PHI


def rank_sort(sigs: Iterable[Signature], rank_key) -> list[Signature]:
    """Sort signatures from most to least preferred (φ last), stably, by
    ``rank_key`` — an algebra's :meth:`~RoutingAlgebra.rank_key`, or a
    lookup of keys the caller computed already."""
    sigs = list(sigs)
    return (sorted((sig for sig in sigs if sig is not PHI), key=rank_key)
            + [sig for sig in sigs if sig is PHI])


def _path_tie_key(path: tuple) -> tuple:
    return (len(path), path)


_RANK_THEN_TIE = itemgetter(0, 1)


def rank_routes(routes: Iterable[tuple], route_key,
                tie_key=_path_tie_key) -> list[tuple]:
    """Routes ``(sig, path, ...)`` best-first — the one k-best ranking order.

    Non-φ entries only, deduplicated by path (the first kept), ordered by
    ``route_key(route)`` — the rank key of the route's signature, however
    the caller holds it (the native engine stores it with the route) —
    with ties broken deterministically by ``tie_key(path)``, by default
    ``(len(path), path)`` (shorter first).  Each key is computed once per
    route.  Every component that ranks a candidate pool — the native
    engine's RIB, the NDlog ranked aggregate, the NDlog session's
    route-set snapshot — must use THIS order: the k-cutoff makes any
    divergence in tie-breaking observable as a phantom cross-backend
    mismatch.  ``tie_key`` customizes how a path maps to its tie-break key
    (the ranked aggregate ranks generic trailing columns); distinct paths
    must get distinct tie keys.
    """
    seen: set = set()
    keyed: list[tuple] = []
    for route in routes:
        path = route[1]
        if route[0] is PHI or path in seen:
            continue
        seen.add(path)
        keyed.append((route_key(route), tie_key(path), route))
    keyed.sort(key=_RANK_THEN_TIE)
    return [entry[2] for entry in keyed]
