"""Core routing-algebra abstractions (paper Sec. II).

An abstract routing algebra is a tuple ⟨Σ, ⪯, L, ⊕⟩:

* **Σ** — path signatures; a special element φ (:data:`PHI`) marks prohibited
  paths and is strictly the least preferred signature;
* **⪯** — a total preference relation over Σ (smaller = more preferred);
* **L** — link labels;
* **⊕** — concatenation: ``⊕(l, s)`` is the signature of the one-link
  extension of a path with signature ``s`` over a link labelled ``l``.

Two views of an algebra coexist in FSR and both are modelled here:

* the *operational* view used by protocol engines: a total comparator
  (:meth:`RoutingAlgebra.preference`) plus the ⊕ function;
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
import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Sequence

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

    Subclasses must implement the operational interface (``preference``,
    ``oplus``, ``labels``) and, for finite algebras, the enumeration
    interface used by the analyzer.
    """

    #: Short identifier used in reports and NDlog codegen.
    name: str = "algebra"

    # -- operational interface (used by protocol engines) -------------------

    @abstractmethod
    def preference(self, s1: Signature, s2: Signature) -> Pref:
        """Total comparison of two signatures; φ is always strictly worst."""

    def better(self, s1: Signature, s2: Signature) -> bool:
        """True iff ``s1`` is strictly preferred to ``s2``."""
        return self.preference(s1, s2) is Pref.BETTER

    def best(self, candidates: Iterable[Signature]) -> Signature:
        """Select the most preferred signature (φ if none or all prohibited)."""
        winner: Signature = PHI
        for sig in candidates:
            if sig is PHI:
                continue
            if winner is PHI or self.better(sig, winner):
                winner = sig
        return winner

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
        from the comparator.  This matches the paper's guideline encodings
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
        ordered = list(sigs)
        for i, s1 in enumerate(ordered):
            for s2 in ordered[i + 1:]:
                pref = self.preference(s1, s2)
                if pref is Pref.BETTER:
                    statements.append(PrefStatement(s1, Rel.STRICT, s2, "pref"))
                elif pref is Pref.WORSE:
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


def rank_sort(algebra: RoutingAlgebra, sigs: Iterable[Signature]) -> list[Signature]:
    """Sort signatures from most to least preferred (φ last), stably."""
    def cmp(a: Signature, b: Signature) -> int:
        return int(algebra.preference(a, b))

    return sorted(sigs, key=functools.cmp_to_key(cmp))


def rank_routes(preference, routes: Iterable[tuple],
                tie_key=None) -> list[tuple]:
    """``(sig, path)`` pairs best-first — the one k-best ranking order.

    Non-φ entries only, ordered by the three-way comparator
    ``preference`` (negative: the first signature is strictly preferred,
    zero: a tie, positive: the second is; :meth:`RoutingAlgebra.preference`
    is one), called once per comparison, ties broken deterministically by
    ``(len(path), path)`` (shorter first), deduplicated by path.  Every
    component that ranks a candidate pool — the native engine's RIB, the
    NDlog ranked aggregate, the NDlog session's route-set snapshot — must
    use THIS order: the k-cutoff makes any divergence in tie-breaking
    observable as a phantom cross-backend mismatch.  ``tie_key``
    customizes how a path maps to its tie-break key (the ranked aggregate
    ranks generic trailing columns).
    """
    if tie_key is None:
        tie_key = lambda path: (len(path), path)  # noqa: E731
    seen: set = set()
    unique: list[tuple] = []
    for sig, path in routes:
        if sig is PHI or path in seen:
            continue
        seen.add(path)
        unique.append((sig, path))

    def compare(r1: tuple, r2: tuple) -> int:
        order = preference(r1[0], r2[0])
        if order:
            return order
        return -1 if tie_key(r1[1]) <= tie_key(r2[1]) else 1

    unique.sort(key=functools.cmp_to_key(compare))
    return unique


def iter_pairs(items: Sequence[Any]) -> Iterator[tuple[Any, Any]]:
    """All unordered pairs of a sequence (helper for tests)."""
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            yield a, b
