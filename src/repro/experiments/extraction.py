"""SPP extraction from protocol executions (paper Sec. VI-B).

"In the absence of real router configurations, we extract the per-node
rankings from NDlog implementation runs as follows.  We execute the GPV
protocol ... and populate the permitted paths of each router based on its
incoming route advertisements.  These permitted paths are then sorted based
on IGP costs ... to generate per-node rankings."

:func:`extract_spp` turns a logged protocol run into an
:class:`~repro.algebra.spp.SPPInstance` ready for the safety analyzer,
closing the loop between the implementation and analysis halves of FSR.
Its *route-log source* is a GPV or NDlog
:class:`~repro.exec.base.ExecutionSession` whose ``sim.stats.route_log``
was set to ``[]`` between ``prepare`` and ``run``, so that it logged
``(node, dest, sig, path)`` acceptances; a bare
:class:`~repro.protocols.gpv.GPVEngine` serves too.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..algebra.base import RoutingAlgebra
from ..algebra.spp import Path, SPPInstance

#: Ranks a logged (node, signature, path) entry; lower is more preferred.
RankKey = Callable[[str, object, Path], tuple]


class RouteLogSource(Protocol):
    """Anything that executed a protocol and logged accepted routes."""

    algebra: RoutingAlgebra
    network: object
    sim: object


def extract_spp(source: RouteLogSource, destination: str, *,
                rank_key: RankKey | None = None,
                name: str | None = None) -> SPPInstance:
    """Build an SPP instance from the routes a run actually advertised.

    ``rank_key(node, sig, path)`` orders each node's permitted paths; the
    default sorts by the source's algebra's rank key (which for the iBGP
    study means IGP cost to the egress), shorter paths first on ties.  Only routes toward
    ``destination`` are considered; duplicates are collapsed to the first
    observation.
    """
    algebra = source.algebra
    permitted: dict[str, list[Path]] = {}
    sig_of: dict[tuple[str, Path], object] = {}
    for node, dest, sig, path in source.sim.stats.route_log:
        if dest != destination:
            continue
        key = (node, path)
        if key in sig_of:
            continue
        sig_of[key] = sig
        permitted.setdefault(node, []).append(path)

    def order(node: str, paths: list[Path]) -> list[Path]:
        if rank_key is not None:
            return sorted(paths, key=lambda p: rank_key(
                node, sig_of[(node, p)], p))
        return sorted(paths, key=lambda p: (
            algebra.rank_key(sig_of[(node, p)]), len(p), p))

    ranked = {node: order(node, paths) for node, paths in permitted.items()}
    return SPPInstance.build(
        name or f"extracted:{source.network.name}", destination, ranked)
