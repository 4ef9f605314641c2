"""Well-formedness checks for routing algebras.

The algebra definitions of Sec. II carry side conditions that are easy to
violate when hand-writing a policy: ⪯ must be a total preorder with φ
strictly worst, ⊕ must absorb φ, reverse labels must be involutive, and the
declared preference statements must agree with the operational order.
:func:`validate_algebra` checks them on finite algebras (and on a
signature sample for closed-form ones) and returns a list of human-readable
violations — empty means well-formed.

⪯ is an algebra's :meth:`~repro.algebra.base.RoutingAlgebra.rank_key`, so
reflexivity, antisymmetry and transitivity hold by construction once the
keys are mutually comparable, and φ is kept strictly worst by the base
class; what remains to check of the order is that the keys compare at all
and that the declared statements say what the keys say.

These checks run inside the library's own test suite for every shipped
policy, and are exposed so users get the same safety net for theirs.
"""

from __future__ import annotations

from .base import PHI, Rel, RoutingAlgebra
from .extended import ExtendedAlgebra


def validate_algebra(algebra: RoutingAlgebra,
                     sample_size: int = 12) -> list[str]:
    """Check the algebra's structural laws; return violations (if any)."""
    violations: list[str] = []
    signatures = algebra.signatures()
    if signatures is None:
        try:
            signatures = algebra.sample_signatures(sample_size)
        except NotImplementedError:
            return [f"{algebra.name}: infinite Σ and no sample_signatures()"]
    signatures = list(signatures)
    labels = list(algebra.labels())

    violations += _check_order(algebra, signatures)
    for label in labels:
        if algebra.oplus(label, PHI) is not PHI:
            violations.append(f"⊕ must absorb φ (label {label})")
    if isinstance(algebra, ExtendedAlgebra):
        violations += _check_extended_laws(algebra, labels)
    return violations


def _check_order(algebra: RoutingAlgebra, signatures: list) -> list[str]:
    """Rank keys are mutually comparable, and every declared statement
    between sampled signatures holds under them."""
    keys = {sig: algebra.rank_key(sig) for sig in signatures}
    out = []
    ranked = list(keys.items())
    for i, (s1, k1) in enumerate(ranked):
        for s2, k2 in ranked[i + 1:]:
            try:
                k1 < k2, k2 < k1
            except TypeError as error:
                out.append(f"rank keys of {s1} and {s2} do not compare "
                           f"({error})")
    if out or not algebra.is_finite:
        return out
    for statement in algebra.preference_statements():
        if statement.s1 not in keys or statement.s2 not in keys:
            continue
        k1, k2 = keys[statement.s1], keys[statement.s2]
        holds = {Rel.STRICT: k1 < k2,
                 Rel.WEAK: not k2 < k1,
                 Rel.EQUAL: not (k1 < k2 or k2 < k1)}[statement.rel]
        if not holds:
            out.append(f"declared {statement} disagrees with rank keys "
                       f"{k1!r}, {k2!r}")
    return out


def _check_extended_laws(algebra: ExtendedAlgebra,
                         labels: list) -> list[str]:
    out = []
    for label in labels:
        try:
            twice = algebra.reverse_label(algebra.reverse_label(label))
        except KeyError:
            out.append(f"reverse label undefined for {label}")
            continue
        if twice != label:
            out.append(f"reverse_label not involutive on {label} "
                       f"(round-trips to {twice})")
    return out
