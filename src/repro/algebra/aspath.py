"""AS-path signatures and AS-avoidance filters (paper Sec. III-A).

"For example, if the signature includes the entire AS path, we can easily
specify an import (export) policy that disallows routes that traverse a
particular AS, by expressing ⊕E (⊕I) to output F values whenever a route
passes through a particular AS.  The lexical product can then be used to
compose multiple policies, for instance, combining the Gao-Rexford
guideline with a policy that excludes particular paths by AS."

:class:`AsPathAlgebra` implements exactly that: signatures are the AS
paths themselves (tuples of AS names, most recent first), ranked by
length; import/export filters drop any path traversing a blocked AS.
:func:`gao_rexford_avoiding` builds the composition quoted above.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .base import PHI, ClosedFormCertificate, Label, Signature
from .extended import ExtendedAlgebra
from .product import LexicalProduct
from .library import gao_rexford_a


class AsPathAlgebra(ExtendedAlgebra):
    """Path signatures with per-AS avoidance filters.

    Labels are the AS names of the *neighbor* the link points at (our
    label convention: ``label(u, v)`` describes v from u's side — here,
    simply v's AS name).  ``⊕P`` prepends the neighbor's AS; shorter paths
    are preferred; ties break lexicographically so the order is total.

    ``import_blocked`` / ``export_blocked`` are AS sets: a route whose
    path traverses any of them is filtered on the respective side.
    """

    name = "as-path"

    def __init__(self, ases: Sequence[str],
                 import_blocked: Iterable[str] = (),
                 export_blocked: Iterable[str] = ()):
        if not ases:
            raise ValueError("need at least one AS label")
        self._ases = list(dict.fromkeys(ases))
        self.import_blocked = frozenset(import_blocked)
        self.export_blocked = frozenset(export_blocked)

    # -- operational -----------------------------------------------------------

    def rank_key(self, sig: Signature) -> tuple:
        return (len(sig), sig)

    def labels(self) -> Sequence[Label]:
        return list(self._ases)

    def origin_seed(self) -> Signature:
        return ()

    # -- extended operators -------------------------------------------------------

    def concat(self, label: Label, sig: Signature) -> Signature:
        if label in sig:
            return PHI  # AS-path loop prevention is native here
        return (label,) + tuple(sig)

    def import_allows(self, label: Label, sig: Signature) -> bool:
        traversed = {label, *sig}
        return not (traversed & self.import_blocked)

    def export_allows(self, label: Label, sig: Signature) -> bool:
        return not (set(sig) & self.export_blocked)

    def reverse_label(self, label: Label) -> Label:
        # The reverse direction of a link toward AS x points back at *us*;
        # filters only inspect the traversed set, so identity is safe here.
        return label

    # -- analysis ----------------------------------------------------------------

    @property
    def closed_form_monotonicity(self) -> ClosedFormCertificate:
        return ClosedFormCertificate(
            strictly_monotonic=True,
            monotonic=True,
            justification=(
                "(+) prepends one AS, so every extension is strictly "
                "longer and therefore strictly less preferred"),
        )

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        out: list[Signature] = [()]
        for i in range(1, count):
            out.append(tuple(self._ases[j % len(self._ases)]
                             for j in range(i)))
        return out[:count]


def gao_rexford_avoiding(ases: Sequence[str],
                         blocked: Iterable[str]) -> LexicalProduct:
    """Gao-Rexford guideline A composed with AS-avoidance (paper's example).

    The product is strictly monotonic (guideline A is monotonic, the
    AS-path component strictly so), hence provably safe, while refusing to
    import any route through a blocked AS.
    """
    return LexicalProduct(
        gao_rexford_a(),
        AsPathAlgebra(ases, import_blocked=blocked),
        name="gao-rexford-a(x)as-avoid",
    )
