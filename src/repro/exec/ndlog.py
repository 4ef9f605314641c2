"""Generated-NDlog execution backend.

Compiles the scenario's algebra through :mod:`repro.ndlog.codegen` (the
paper's Sec. V-B translation) and runs the generated GPV program on the
NDlog runtime over the *same* seeded simulator and event schedule as every
other backend — the campaign-scale version of the paper's claim that the
analysis half and the generated implementation agree.

Topology events need GPV-protocol-aware handling on top of the generic
runtime primitives (the runtime knows tables, not BGP sessions):

* **link failure** — delete the ``label`` facts across the dead session,
  drop per-neighbor transport state, then *withdraw* every ``sig`` row
  learned from (or originated over) the vanished neighbor by upserting a
  φ row at the same ``(U, V, D)`` key.  The φ delta flows through the
  normal aggregate/send machinery, so downstream nodes see ordinary φ
  (withdraw) advertisements — exactly the native engine's failure path;
* **metric/policy perturbation** — update the ``label`` facts and replay
  the raw advertisements received over the link (the runtime keeps them
  pre-⊕, mirroring the native engine's ``adj_in``), re-deriving the
  combined signatures under the new label; locally originated one-hop
  routes over the link are re-injected with their new origin signature.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..algebra.base import PHI, origin_or_phi, rank_routes
from ..ndlog.codegen import deploy_gpv
from ..net.simulator import Simulator
from .base import ExecutionBackend, ExecutionOutcome, ExecutionSession

if TYPE_CHECKING:
    from ..campaigns.scenarios import ResolvedEvent, Scenario

#: Column positions of the generated GPV program's relations (the top-k
#: variant appends a rank column to ``sig`` at SIG_RANK).
SIG_NEIGHBOR, SIG_DEST, SIG_SIG, SIG_PATH, SIG_RANK = 1, 2, 3, 4, 5
OPT_DEST, OPT_SIG, OPT_PATH = 1, 2, 3


class NDlogSession(ExecutionSession):
    """A deployed GPV program prepared for one scenario."""

    def __init__(self, scenario: "Scenario", *, seed: int,
                 log_routes: bool):
        self.algebra = scenario.algebra
        self.destinations = list(scenario.destinations)
        self.top_k = getattr(scenario, "top_k", 1)
        self.sim = Simulator(scenario.network, seed=seed)
        self.runtime = deploy_gpv(
            scenario.network, scenario.algebra, self.destinations,
            simulator=self.sim, top_k=self.top_k,
            batch_interval=getattr(scenario, "batch_interval", None))
        self.route_log: list = []
        if log_routes:
            self.runtime.observers.append(self._log_route)

    def _log_route(self, node: str, relation: str, row: tuple) -> None:
        """Mirror the native engine's RIB-in route log off ``sig`` deltas.

        Self-originated rows (neighbor column == node) are skipped: the
        native engine logs *received* advertisements only, and extraction
        (paper Sec. VI-B) is defined over those.
        """
        if (relation == "sig" and row[SIG_SIG] is not PHI
                and row[SIG_NEIGHBOR] != node):
            self.route_log.append(
                (node, row[SIG_DEST], row[SIG_SIG], row[SIG_PATH]))

    # -- events ---------------------------------------------------------------

    def apply_event(self, event: "ResolvedEvent") -> None:
        if event.kind == "hijack":
            # Attacker-destination is never a link — inject the forged
            # origination before any link-existence guard.
            self.inject_route(event.a, event.b, event.label)
            return
        if not self.network.has_link(event.a, event.b):
            return  # already failed (or never materialized)
        if event.kind == "fail":
            self.fail_link(event.a, event.b)
        elif event.kind == "perturb":
            self.perturb_link(event.a, event.b,
                              label_ab=event.label, label_ba=event.label)

    def inject_route(self, node: str, dest: str, label) -> None:
        """Forged origination (hijack): a ``sig`` fact with no link behind it.

        Mirrors the origination replay of :meth:`perturb_link` — the delta
        flows through the generated aggregate/send rules like any other
        locally originated route.
        """
        sig = origin_or_phi(self.algebra, label)
        if sig is PHI:
            return
        forged = (node, node, dest, sig, (node, dest))
        if self.top_k > 1:
            forged += (0,)
        self.runtime.apply_delta(node, "sig", forged)

    def fail_link(self, a: str, b: str) -> None:
        """BGP session failure: withdraw everything learned over (a, b)."""
        runtime = self.runtime
        self.network.remove_link(a, b)
        for node, gone in ((a, b), (b, a)):
            runtime.delete_facts(node, "label",
                                 lambda row: row[1] == gone)
            runtime.drop_neighbor_state(node, gone)
            if self.top_k > 1:
                # Rank slots already advertised toward the vanished
                # neighbor are void (the label join keeps them from ever
                # being re-derived or sent).
                runtime.delete_facts(node, "advBest",
                                     lambda row: row[1] == gone)
            for row in runtime.table_rows(node, "sig"):
                if row[SIG_SIG] is PHI:
                    continue
                learned_from_gone = row[SIG_NEIGHBOR] == gone
                originated_over = (row[SIG_NEIGHBOR] == node
                                   and row[SIG_DEST] == gone)
                if learned_from_gone or originated_over:
                    withdrawal = (node, row[SIG_NEIGHBOR], row[SIG_DEST],
                                  PHI, (node,))
                    if self.top_k > 1:
                        withdrawal += (row[SIG_RANK],)
                    runtime.apply_delta(node, "sig", withdrawal)

    def perturb_link(self, a: str, b: str, *, label_ab=None,
                     label_ba=None) -> None:
        """Re-label the link and re-derive everything received over it."""
        if label_ab is not None:
            self.network.set_label(a, b, label_ab)
        if label_ba is not None:
            self.network.set_label(b, a, label_ba)
        runtime = self.runtime
        for node, src in ((a, b), (b, a)):
            label = self.network.label(node, src)
            if label is None:
                continue
            runtime.install_fact(node, "label", (node, src, label))
            for row in runtime.raw_advertisements(node, src):
                runtime.apply_delta(node, runtime.transport.msg_relation, row)
            if src in self.destinations:
                sig = origin_or_phi(self.algebra, label)
                if sig is not PHI:
                    origination = (node, node, src, sig, (node, src))
                    if self.top_k > 1:
                        origination += (0,)
                    runtime.apply_delta(node, "sig", origination)

    # -- run / snapshot -------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = None) -> ExecutionOutcome:
        reason = self.sim.run(until=until, max_events=max_events)
        return self._outcome(NDlogBackend.name, reason)

    def route_table(self) -> tuple[dict, dict]:
        routes: dict = {}
        sigs: dict = {}
        dests = set(self.destinations)
        for node in self.network.nodes():
            held = {row[OPT_DEST]: row
                    for row in self.runtime.table_rows(node, "localOpt")
                    if row[OPT_SIG] is not PHI}
            for dest in dests:
                if node == dest:
                    continue
                row = held.get(dest)
                routes[(node, dest)] = row[OPT_PATH] if row else None
                sigs[(node, dest)] = row[OPT_SIG] if row else None
        return routes, sigs

    def route_sets(self) -> dict:
        """Ranked candidate pool per pair, capped at k (multipath only).

        Mirrors the native engine's ``known_routes``: all non-φ ``sig``
        rows for the pair, in the shared :func:`rank_routes` order.
        """
        if self.top_k < 2:
            return {}
        sets: dict = {}
        dests = set(self.destinations)
        rank_key = self.algebra.rank_key
        for node in self.network.nodes():
            pools: dict = {}
            for row in self.runtime.table_rows(node, "sig"):
                if row[SIG_DEST] not in dests:
                    continue
                pools.setdefault(row[SIG_DEST], []).append(
                    (row[SIG_SIG], row[SIG_PATH]))
            for dest, pool in pools.items():
                if node == dest:
                    continue
                ranked = rank_routes(pool, lambda route: rank_key(route[0]))
                sets[(node, dest)] = tuple(ranked[:self.top_k])
        return sets


class NDlogBackend(ExecutionBackend):
    """The generated-code path (`ndlog`): algebra → NDlog → runtime."""

    name = "ndlog"

    def prepare(self, scenario: "Scenario", *, seed: int = 0,
                log_routes: bool = False) -> NDlogSession:
        return NDlogSession(scenario, seed=seed, log_routes=log_routes)
