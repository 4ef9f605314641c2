"""The routing algebra HLP computes (paper Sec. VI-D, algebraically).

HLP (hybrid link-state / fragmented-path-vector, :mod:`repro.protocols.hlp`)
routes on summed positive link weights under a *domain-granularity* loop
constraint: a route's fragmented path records the sequence of domains it
crosses, and a domain never accepts a route whose domain path already
contains it.  That is an algebra:

* **Σ** — pairs ``(cost, dpath)``: total weight so far plus the tuple of
  domains from the current holder's domain to the destination's, inclusive;
* **L** — per-direction triples ``(weight, receiver_domain, sender_domain)``;
* **⊕** — add the weight; an intra-domain hop keeps the domain path, a
  cross-domain hop prepends the receiving domain, and re-entering a domain
  already on the path is prohibited (φ) — exactly HLP's
  ``my_domain in adv.dpath`` rejection;
* **⪯** — lexicographic on (cost, domain-path length, domain path):
  lower cost wins, then the shorter domain path, then the
  lexicographically smaller one.  The refinement below the cost is not
  cosmetic: the domain path decides *advertisability* (a route through
  domain X cannot be offered to domain X), so two equal-cost routes with
  different domain paths are observably different — leaving them tied
  would let implementations settle in genuinely different stable states.
  With the refinement the preference is a strict total order per
  signature, costs still strictly increase along any cycle (no dispute
  wheel), and the stable state is unique — which is what makes the
  three-way differential assert signature *identity*, not just equal
  cost.

Running the generic GPV engine (or the generated NDlog program) over a
domain-annotated topology labelled for this algebra computes the same
stable cost assignment as the HLP engine's link-state + FPV machinery:
within a domain the minimum-cost router path *is* the link-state distance,
and across domains both mechanisms take a cost-minimal domain-simple path.
⊕ strictly increases the cost (weights are positive), so the algebra is
strictly monotonic — provably safe — which is what licenses the three-way
``gpv ~ ndlog ~ hlp`` differential in the campaign oracle.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .base import (
    PHI,
    ClosedFormCertificate,
    Label,
    RoutingAlgebra,
    Signature,
)

#: The weight vocabulary of HLP campaign topologies
#: (:func:`repro.topology.hlp_topo.hlp_topology` draws 1..10; cross links
#: are weight 5).
HLP_WEIGHTS = tuple(range(1, 11))


class HLPCostAlgebra(RoutingAlgebra):
    """Domain-constrained shortest path — the algebra behind HLP."""

    name = "hlp-cost"

    def __init__(self, domains: Sequence[Hashable],
                 weights: Sequence[int] = HLP_WEIGHTS):
        if not domains:
            raise ValueError("need at least one domain")
        bad = [w for w in weights if w <= 0]
        if bad:
            raise ValueError(f"link weights must be positive, got {bad}")
        self._domains = tuple(sorted(set(domains), key=repr))
        self._weights = tuple(sorted(set(weights)))

    # -- operational interface ------------------------------------------------

    def rank_key(self, sig: Signature) -> tuple:
        cost, dpath = sig
        return (cost, len(dpath), dpath)

    def oplus(self, label: Label, sig: Signature) -> Signature:
        if sig is PHI:
            return PHI
        weight, here, there = label
        cost, dpath = sig
        if here == there:
            return (cost + weight, dpath)
        if here in dpath:
            return PHI  # domain-granularity loop prevention
        return (cost + weight, (here,) + tuple(dpath))

    def origin_signature(self, label: Label) -> Signature:
        """One-hop route over ``label`` toward the destination.

        The domain path covers the holder's domain through the
        destination's — one domain for an intra-domain origination, two for
        a direct cross-domain adjacency.
        """
        weight, here, dest_domain = label
        if here == dest_domain:
            return (weight, (dest_domain,))
        return (weight, (here, dest_domain))

    def labels(self) -> Sequence[Label]:
        return [(weight, here, there)
                for weight in self._weights
                for here in self._domains
                for there in self._domains]

    # -- closed-form analysis -------------------------------------------------

    @property
    def closed_form_monotonicity(self) -> ClosedFormCertificate:
        return ClosedFormCertificate(
            strictly_monotonic=True,
            monotonic=True,
            justification=(
                "(+) adds a strictly positive link weight to the cost "
                "component, which alone decides preference; domain-path "
                "extensions either keep or lengthen the path or yield phi"
            ),
        )

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        domains = self._domains
        samples: list[Signature] = []
        for i in range(count):
            dpath = tuple(domains[:1 + i % max(1, min(len(domains), 3))])
            samples.append((1 + i, dpath))
        return samples


def hide_cost(cost: int, tau: int) -> int:
    """HLP cost hiding: advertise costs rounded up to multiples of τ.

    ``tau = 0`` (or 1) means exact costs.  Hiding never understates a
    cost — ``hide_cost(c, tau) >= c`` — which is what keeps the hidden
    algebra strictly monotonic: an extension still strictly worsens the
    advertised cost.
    """
    if tau <= 1:
        return cost
    return ((cost + tau - 1) // tau) * tau


class HLPTauAlgebra(RoutingAlgebra):
    """Finite cost-hiding algebra — the τ-sweep campaign family.

    Signatures are advertised cost levels ``1..max_cost``; ⊕ adds the
    link weight and *hides* the sum (:func:`hide_cost`), and anything
    beyond the cap is prohibited (φ), bounding Σ.  Lower advertised cost
    is strictly preferred, so the preference relation depends only on
    ``max_cost``: every ``(tau, weights)`` variant drawn by the
    ``tau-sweep`` family encodes the same preference atoms and its own
    monotonicity atoms.

    Deliberately *not* closed-form: Σ is finite and the point of the
    family is to reach the SMT tier (and to be fully batch-admitted), so
    the analyzer proves strict monotonicity from the enumerated tables
    for every variant.
    """

    name = "hlp-tau"

    def __init__(self, tau: int = 0,
                 weights: Sequence[int] = (1, 2, 3),
                 max_cost: int = 14):
        if tau < 0:
            raise ValueError("tau must be >= 0")
        bad = [w for w in weights if w <= 0]
        if bad:
            raise ValueError(f"link weights must be positive, got {bad}")
        # Hiding rounds costs *up*, so the cap must admit the hidden
        # rendering of every one-hop route — otherwise every origination
        # is PHI and scenarios are vacuously empty.
        if any(hide_cost(w, tau) > max_cost for w in weights):
            raise ValueError(
                f"max_cost={max_cost} cannot admit one-hop routes: "
                f"hide_cost(w, tau={tau}) exceeds it for some weight")
        self.tau = tau
        self._weights = tuple(sorted(set(weights)))
        self.max_cost = max_cost
        self.name = f"hlp-tau({tau})"

    # -- operational interface ------------------------------------------------

    def rank_key(self, sig: Signature) -> int:
        return sig

    def oplus(self, label: Label, sig: Signature) -> Signature:
        if sig is PHI:
            return PHI
        hidden = hide_cost(sig + label, self.tau)
        return hidden if hidden <= self.max_cost else PHI

    def origin_signature(self, label: Label) -> Signature:
        hidden = hide_cost(label, self.tau)
        return hidden if hidden <= self.max_cost else PHI

    def labels(self) -> Sequence[Label]:
        return self._weights

    def canonical_token(self):
        """Closed-form canonical identity (see ``campaigns.canonical``).

        ``(tau, weights, max_cost)`` determines every preference
        statement and ⊕ entry this algebra enumerates, so equal tokens
        imply identical constraint systems — which spares the tau-sweep
        campaign family the quadratic table rendering on every draw
        (the per-scenario keying cost was what kept the batch backend
        slower than scalar on this family).
        """
        return (self.tau, self._weights, self.max_cost)

    # -- declarative interface ------------------------------------------------

    def signatures(self) -> Sequence[Signature]:
        """The full cost range, *independent of tau and the weights*.

        Unreachable levels (e.g. non-multiples of τ) are enumerated
        anyway: they cost a few extra preference atoms and keep the
        preference relation identical across the whole sweep.
        """
        return range(1, self.max_cost + 1)

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        return list(self.signatures())[:count]
