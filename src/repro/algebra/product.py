"""Lexical product of routing algebras (paper Sec. II-A).

``A ⊗ B`` ranks routes by A first and breaks ties with B — the algebraic
rendering of BGP's multi-attribute decision process.  Labels and signatures
of the product are pairs; concatenation and filtering are component-wise; a
path prohibited in *either* component is prohibited in the product.

The safety-relevant fact (paper Sec. IV-B, "Policy compositions"): the
lexical product of a monotonic A and a strictly monotonic B is strictly
monotonic.  :func:`repro.analysis.safety.product_report` implements that
decision rule; this module only provides the product algebra itself.
"""

from __future__ import annotations

from typing import Sequence

from .base import PHI, Label, RoutingAlgebra, Signature
from .extended import ExtendedAlgebra, split_operators


class LexicalProduct(ExtendedAlgebra):
    """The lexical product ``A ⊗ B`` of two algebras.

    Product signatures and labels are 2-tuples ``(a_part, b_part)``.  The
    product of more than two algebras is expressed by nesting.
    """

    def __init__(self, first: RoutingAlgebra, second: RoutingAlgebra,
                 name: str | None = None):
        self.first = first
        self.second = second
        self.name = name or f"{first.name}(x){second.name}"
        # Each component's ⊕I/⊕P/⊕E, decided once: a plain component's
        # combined ⊕ is its ⊕P and its filters pass everything.
        self._import_first, self._concat_first, self._export_first = \
            split_operators(first)
        self._import_second, self._concat_second, self._export_second = \
            split_operators(second)

    # -- operational ------------------------------------------------------------

    def rank_key(self, sig: Signature) -> tuple:
        return (self.first.rank_key(sig[0]), self.second.rank_key(sig[1]))

    def labels(self) -> Sequence[Label]:
        return [(la, lb) for la in self.first.labels()
                for lb in self.second.labels()]

    def signatures(self) -> Sequence[Signature] | None:
        sa = self.first.signatures()
        sb = self.second.signatures()
        if sa is None or sb is None:
            return None
        return [(a, b) for a in sa for b in sb]

    def origin_signature(self, label: Label) -> Signature:
        la, lb = label
        return (self.first.origin_signature(la),
                self.second.origin_signature(lb))

    # -- extended operators ------------------------------------------------------

    def import_allows(self, label: Label, sig: Signature) -> bool:
        return (self._import_first(label[0], sig[0])
                and self._import_second(label[1], sig[1]))

    def export_allows(self, label: Label, sig: Signature) -> bool:
        return (self._export_first(label[0], sig[0])
                and self._export_second(label[1], sig[1]))

    def concat(self, label: Label, sig: Signature) -> Signature:
        a = self._concat_first(label[0], sig[0])
        b = self._concat_second(label[1], sig[1])
        if a is PHI or b is PHI:
            return PHI
        return (a, b)

    def reverse_label(self, label: Label) -> Label:
        return (_reverse_component(self.first, label[0]),
                _reverse_component(self.second, label[1]))

    def oplus(self, label: Label, sig: Signature) -> Signature:
        if sig is PHI:
            return PHI
        a = self.first.oplus(label[0], sig[0])
        b = self.second.oplus(label[1], sig[1])
        if a is PHI or b is PHI:
            return PHI
        return (a, b)

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        sa = self.first.sample_signatures(count)
        sb = self.second.sample_signatures(count)
        return [(a, b) for a in sa for b in sb][:count]


def _reverse_component(algebra: RoutingAlgebra, label: Label) -> Label:
    if isinstance(algebra, ExtendedAlgebra):
        return algebra.reverse_label(label)
    return label
