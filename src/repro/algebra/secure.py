"""Secure-routing algebra transformers: ROV and BGPsec over any algebra.

Origin validation (RPKI route-origin validation) and path verification
(BGPsec-style) are modelled as algebra *transformers*: a
:class:`SecureAlgebra` wraps any existing algebra and lifts its
signatures and labels into a secured space —

* signatures become ``(state, penalty, base_sig)`` where ``state`` is the
  route's ground-truth validation outcome (``"ok"`` valid, ``"nf"``
  not-found, ``"bad"`` invalid — a forged origination) and ``penalty``
  in ``{0, 1}`` is the *observable* deprioritization bit;
* labels become ``(deploy_bit, base_label)`` where ``deploy_bit`` records
  whether the **importing** node has deployed validation (per-node
  deployment bitmaps materialize to per-directed-link bits), plus the
  origin-only pseudo-label ``("hijack", base_label)`` marking a forged
  origination by an attacker.

Preference is lexicographic on ``(penalty, base preference)`` — the
validation *state* is deliberately invisible to preference: a node that
has not deployed validation cannot act on it, and a deployed node acts
through its import filter (``mode="filter"``) or through the penalty bit
(``mode="deprioritize"``), never by peeking at ground truth.  Because the
penalty is monotone non-decreasing along a path and ties fall through to
the wrapped algebra, the transformer preserves strict monotonicity of the
base — :func:`repro.analysis.safety.secure_report` turns that into
a tier-0 certificate, and the batch backend's rank-kernel tabulation
keeps working unchanged over the lifted (finite-vocabulary) signatures.

Modelling choices, documented for the threat model
(``campaigns/README.md``):

* **Sticky penalty.** Once any deployed node on the path deprioritizes a
  route, the penalty stays set downstream.  Real-world local-pref is not
  transitive; resetting the penalty per hop, however, would break strict
  monotonicity (a worse route could become preferred again), so the
  transitive reading is the one the safety argument supports.
* **ROV vs BGPsec.** ``variant="rov"`` acts on ``"bad"`` routes only
  (invalid origins); ``variant="bgpsec"`` acts on both ``"bad"`` and
  ``"nf"`` — path validation can only *prove* validity, so unverifiable
  routes are treated as suspect.
* **ROA coverage** is an algebra-level flag: with ``roa=True`` the victim
  prefix has a ROA, so legitimate originations validate ``"ok"`` and
  forged ones ``"bad"``; with ``roa=False`` both come up ``"nf"`` (the
  undeployed-RPKI world where ROV cannot distinguish them).
* Export filtering and origination are never deployment-gated — a
  hijacker by definition ignores validation, and export policy belongs
  to the wrapped algebra.
"""

from __future__ import annotations

from typing import Sequence

from .base import Label, PHI, RoutingAlgebra, Signature
from .extended import ExtendedAlgebra, split_operators

#: Validation states carried as ground truth in secured signatures.
VALID = "ok"
NOT_FOUND = "nf"
INVALID = "bad"
STATES = (VALID, NOT_FOUND, INVALID)

#: First label component marking a forged (attacker) origination.
HIJACK = "hijack"

VARIANTS = ("rov", "bgpsec")
MODES = ("filter", "deprioritize")


class SecureAlgebra(ExtendedAlgebra):
    """Wrap ``base`` with partial-deployment origin/path validation.

    ``variant`` picks which states a deployed node reacts to, ``mode``
    picks how it reacts (drop at import vs set the penalty bit), ``roa``
    says whether the destination prefix is covered by a ROA.
    """

    def __init__(self, base: RoutingAlgebra, *, variant: str = "rov",
                 mode: str = "filter", roa: bool = True,
                 name: str | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown secure variant {variant!r}; "
                             f"choose from {VARIANTS}")
        if mode not in MODES:
            raise ValueError(f"unknown secure mode {mode!r}; "
                             f"choose from {MODES}")
        self.base = base
        self.variant = variant
        self.mode = mode
        self.roa = bool(roa)
        self._blocked = (INVALID,) if variant == "rov" \
            else (INVALID, NOT_FOUND)
        self.name = name or f"{variant}-{mode}:{base.name}"
        # The base's ⊕I/⊕P/⊕E, decided once: the base need not be an
        # ExtendedAlgebra (a plain ⊕ is its ⊕P, its filters pass all).
        self._import_base, self._concat_base, self._export_base = \
            split_operators(base)

    # -- label constructors ---------------------------------------------------

    @staticmethod
    def hijack_label(base_label: Label) -> Label:
        """Origin-only pseudo-label for a forged origination."""
        return (HIJACK, base_label)

    # -- operational interface ------------------------------------------------

    def rank_key(self, sig: Signature) -> tuple:
        return (sig[1], self.base.rank_key(sig[2]))

    def labels(self) -> Sequence[Label]:
        return [(bit, label) for bit in (0, 1)
                for label in self.base.labels()]

    def signatures(self) -> Sequence[Signature] | None:
        base_sigs = self.base.signatures()
        if base_sigs is None:
            return None
        return [(state, penalty, sig) for state in STATES
                for penalty in (0, 1) for sig in base_sigs]

    def origin_signature(self, label: Label) -> Signature:
        bit, base_label = label
        base_sig = self.base.origin_signature(base_label)
        if base_sig is PHI:
            return PHI
        if bit == HIJACK:
            state = INVALID if self.roa else NOT_FOUND
        else:
            state = VALID if self.roa else NOT_FOUND
        return (state, 0, base_sig)

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        base_samples = self.base.sample_signatures(count)
        samples = []
        for i, base_sig in enumerate(base_samples):
            samples.append((STATES[i % len(STATES)], i % 2, base_sig))
        return samples[:count]

    # -- extended operators ---------------------------------------------------

    def import_allows(self, label: Label, sig: Signature) -> bool:
        bit, base_label = label
        state, _penalty, base_sig = sig
        if not self._import_base(base_label, base_sig):
            return False
        if self.mode == "filter" and bit == 1 and state in self._blocked:
            return False
        return True

    def concat(self, label: Label, sig: Signature) -> Signature:
        bit, base_label = label
        state, penalty, base_sig = sig
        extended = self._concat_base(base_label, base_sig)
        if extended is PHI:
            return PHI
        if self.mode == "deprioritize" and bit == 1 \
                and state in self._blocked:
            penalty = 1
        return (state, penalty, extended)

    def export_allows(self, label: Label, sig: Signature) -> bool:
        _bit, base_label = label
        return self._export_base(base_label, sig[2])

    def reverse_label(self, label: Label) -> Label:
        bit, base_label = label
        if isinstance(self.base, ExtendedAlgebra):
            base_label = self.base.reverse_label(base_label)
        # The bit is the *importer's* deployment status; the reverse
        # direction has a different importer, but export (the only
        # consumer of reversed labels) never consults the bit.
        return (bit, base_label)


def hijacked_route(path: tuple, attacker: str) -> bool:
    """Did this route originate at the attacker's forged announcement?

    The attacker is drawn from the non-neighbors of the destination, so a
    legitimate path can never have it in the penultimate position — the
    test identifies forged routes across every backend without consulting
    signature internals (states are unreliable: with ``roa=False`` both
    legitimate and forged routes carry ``"nf"``).
    """
    return len(path) >= 2 and path[-2] == attacker
