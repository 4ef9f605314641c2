"""Library of concrete routing policies from the paper.

Implements every policy the paper uses as a running example or experiment
input (Table I spectrum plus the case studies):

* :class:`ShortestHopCount` — the Sec. II-A warm-up (closed form, infinite Σ);
* :class:`ShortestPath` — generalisation with positive integer link weights
  (the "IGP-cost" row of Table I when given a concrete topology);
* :class:`BandwidthAlgebra` + :func:`widest_shortest` — the widest
  shortest-path composition mentioned in Sec. II-A;
* :func:`gao_rexford_a` / :func:`gao_rexford_b` — the business-relationship
  guidelines of Sec. II-B / IV-C;
* :func:`safe_backup` — a rendering of Gao-Griffin-Rexford backup routing
  (Sec. IV-C "guidelines that ensure safe backup routing");
* :func:`gao_rexford_with_hopcount` — the composed, provably safe policy the
  paper deploys in the Fig. 4 experiment.
"""

from __future__ import annotations

from typing import Sequence

from .base import (
    PHI,
    ClosedFormCertificate,
    Label,
    RoutingAlgebra,
    Signature,
)
from .extended import AlgebraTables, TableAlgebra
from .product import LexicalProduct


class ShortestHopCount(RoutingAlgebra):
    """Shortest hop-count routing (paper Sec. II-A).

    Σ = positive naturals (path length), L = {1}, ⊕ = integer addition,
    ⪯ = ≤.  Σ is infinite, so safety is established by the closed-form
    certificate rather than entry enumeration — mirroring the paper's
    ``(assert (forall (s::Sig) (< s s+1)))``.
    """

    name = "hop-count"

    def rank_key(self, sig: Signature) -> int:
        return sig

    def oplus(self, label: Label, sig: Signature) -> Signature:
        if sig is PHI:
            return PHI
        return label + sig

    def labels(self) -> Sequence[Label]:
        return [1]

    def origin_seed(self) -> Signature:
        return 0

    @property
    def closed_form_monotonicity(self) -> ClosedFormCertificate:
        return ClosedFormCertificate(
            strictly_monotonic=True,
            monotonic=True,
            justification=(
                "(+) adds the strictly positive label 1 to an integer "
                "signature, so s < 1 + s for every s"
            ),
        )

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        return list(range(1, count + 1))


class ShortestPath(RoutingAlgebra):
    """Shortest path with positive integer link weights.

    The "IGP-cost" policy of Table I: preferences are fully determined
    (lower total cost wins) and the label set is the concrete topology's
    weight set.
    """

    name = "shortest-path"

    def __init__(self, weights: Sequence[int] = (1,)):
        bad = [w for w in weights if w <= 0]
        if bad:
            raise ValueError(f"link weights must be positive, got {bad}")
        self._weights = list(dict.fromkeys(weights))

    def rank_key(self, sig: Signature) -> int:
        return sig

    def oplus(self, label: Label, sig: Signature) -> Signature:
        if sig is PHI:
            return PHI
        return label + sig

    def labels(self) -> Sequence[Label]:
        return list(self._weights)

    def origin_seed(self) -> Signature:
        return 0

    @property
    def closed_form_monotonicity(self) -> ClosedFormCertificate:
        return ClosedFormCertificate(
            strictly_monotonic=True,
            monotonic=True,
            justification=(
                "(+) adds a strictly positive weight to an integer signature"
            ),
        )

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        return list(range(1, count + 1))


class BandwidthAlgebra(RoutingAlgebra):
    """Widest-path component: prefer higher bottleneck bandwidth.

    ``⊕(l, s) = min(l, s)`` and wider is better.  This algebra is monotonic
    (extending a path can only narrow it) but **not strictly** monotonic
    (``min(l, s) = s`` whenever ``l >= s``), which is exactly why the paper
    composes it with a strictly monotonic tie-breaker.
    """

    name = "widest-path"

    #: Signature of the empty path: infinite capacity.
    INFINITY = 10 ** 9

    def __init__(self, bandwidths: Sequence[int] = (10, 100, 1000)):
        bad = [b for b in bandwidths if b <= 0]
        if bad:
            raise ValueError(f"bandwidths must be positive, got {bad}")
        self._bandwidths = list(dict.fromkeys(bandwidths))

    def rank_key(self, sig: Signature) -> int:
        return -sig  # wider is better

    def oplus(self, label: Label, sig: Signature) -> Signature:
        if sig is PHI:
            return PHI
        return min(label, sig)

    def labels(self) -> Sequence[Label]:
        return list(self._bandwidths)

    def origin_seed(self) -> Signature:
        return self.INFINITY

    @property
    def closed_form_monotonicity(self) -> ClosedFormCertificate:
        return ClosedFormCertificate(
            strictly_monotonic=False,
            monotonic=True,
            justification=(
                "min(l, s) can never exceed s, so extensions are never "
                "preferred; but min(l, s) = s when l >= s, so not strict"
            ),
        )

    def sample_signatures(self, count: int = 16) -> list[Signature]:
        return sorted(self._bandwidths, reverse=True)[:count]


def widest_shortest(bandwidths: Sequence[int] = (10, 100, 1000)) -> LexicalProduct:
    """Widest shortest-path policy: bandwidth first, hop count as tie-break."""
    return LexicalProduct(BandwidthAlgebra(bandwidths), ShortestHopCount(),
                          name="widest-shortest")


# --------------------------------------------------------------------------
# Gao-Rexford business-relationship guidelines
# --------------------------------------------------------------------------

#: Signature classes: route learned from a Customer / Peer (R) / Provider.
C, R, P = "C", "R", "P"
#: Link label classes: neighbor is my customer / peer / provider.
LC, LR, LP = "c", "r", "p"

_GR_REVERSE = {LC: LP, LP: LC, LR: LR}
#: ⊕P: a route relayed by neighbor v is classified by what v is to me.
_GR_CONCAT = {
    (LC, C): C, (LC, P): C, (LC, R): C,
    (LR, C): R, (LR, P): R, (LR, R): R,
    (LP, C): P, (LP, P): P, (LP, R): P,
}
#: ⊕E: export toward a provider ('p') or peer ('r') only customer routes.
#: (The paper's printed table is indexed by the reverse label; its row 'c'
#: is this row 'p' — the combined ⊕ tables coincide.)
_GR_EXPORT_FILTER = frozenset({
    (LP, P), (LP, R),
    (LR, P), (LR, R),
})
_GR_ORIGINATION = {LC: C, LR: R, LP: P}


def gao_rexford_a() -> TableAlgebra:
    """Gao-Rexford guideline A (paper Sec. II-B).

    Prefer customer routes over peer and provider routes; peer and provider
    routes are equally preferred (``P = R``); no import filtering; export to
    peers/providers only customer routes.

    The algebra is monotonic but **not strictly** monotonic (``c ⊕ C = C``),
    so on its own FSR reports it unsafe; composed with a strictly monotonic
    tie-breaker it is provably safe (Sec. IV-C).
    """
    tables = AlgebraTables(
        labels=[LC, LR, LP],
        signatures=[C, R, P],
        preference={C: 0, R: 1, P: 1},  # C ≺ R, C ≺ P, R = P
        concat=_GR_CONCAT,
        reverse=_GR_REVERSE,
        export_filter=_GR_EXPORT_FILTER,
        origination=_GR_ORIGINATION,
    )
    return TableAlgebra("gao-rexford-a", tables)


def gao_rexford_b() -> TableAlgebra:
    """Gao-Rexford guideline B.

    Guideline B relaxes A: peer routes may be preferred like customer routes,
    but both are strictly preferred over provider routes
    (``C = R ≺ P``).  Export filtering is unchanged.
    """
    tables = AlgebraTables(
        labels=[LC, LR, LP],
        signatures=[C, R, P],
        preference={C: 0, R: 0, P: 1},  # C = R, both ≺ P
        concat=_GR_CONCAT,
        reverse=_GR_REVERSE,
        export_filter=_GR_EXPORT_FILTER,
        origination=_GR_ORIGINATION,
    )
    return TableAlgebra("gao-rexford-b", tables)


def gao_rexford_with_hopcount(guideline: str = "a") -> LexicalProduct:
    """The composed policy deployed in the Fig. 4 experiment.

    Guideline A (monotonic) ⊗ shortest hop-count (strictly monotonic) is
    strictly monotonic by the composition rule, hence provably safe.
    """
    base = gao_rexford_a() if guideline == "a" else gao_rexford_b()
    return LexicalProduct(base, ShortestHopCount(),
                          name=f"{base.name}(x)hop-count")


def safe_backup(levels: int = 3) -> TableAlgebra:
    """Inherently safe backup routing (after Gao-Griffin-Rexford 2001).

    Signatures are avoidance levels ``0..levels-1`` (0 = primary route,
    higher = deeper backup).  A link labelled ``k`` bumps the route's level
    to at least ``k`` **plus one step of strictness**: traversing any link
    strictly increases the level, so the algebra is strictly monotonic and
    safe for any topology.  Routes beyond the maximum level are prohibited.
    """
    if levels < 2:
        raise ValueError("need at least 2 backup levels")
    labels = list(range(levels))
    signatures = list(range(levels))
    concat = {}
    for k in labels:
        for s in signatures:
            bumped = max(k, s + 1)
            if bumped < levels:
                concat[(k, s)] = bumped
    tables = AlgebraTables(
        labels=labels,
        signatures=signatures,
        preference={s: s for s in signatures},  # lower level preferred
        concat=concat,
        reverse={k: k for k in labels},
        origination={k: k for k in labels},
    )
    return TableAlgebra("safe-backup", tables)
