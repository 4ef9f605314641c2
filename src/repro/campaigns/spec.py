"""Declarative scenario specifications and the seeded campaign generator.

A :class:`ScenarioSpec` is a *recipe*, not an object graph: it names a
topology family, an algebra from the policy library, an event schedule and
a seed, and every concrete artifact (the :class:`~repro.net.network.Network`,
the :class:`~repro.algebra.base.RoutingAlgebra`, the failure schedule) is
re-derived deterministically from it.  That makes specs

* **tiny and picklable** — they cross the ``ProcessPoolExecutor`` boundary
  as plain dataclasses;
* **reproducers** — any disagreement the differential oracle finds is
  reported as the spec that provoked it, and re-running that single spec
  re-materializes the identical scenario.

:class:`ScenarioGenerator` draws randomized specs spanning every topology
generator in :mod:`repro.topology` (CAIDA-like, deterministic hierarchies,
Rocketfuel-like intradomain graphs, iBGP reflection hierarchies, HLP
domain hierarchies) and the full algebra library (Gao-Rexford A/B, their
hop-count lexical products, widest-shortest, safe backup,
shortest-path/hop-count, the HLP domain-constrained cost algebra, SPP
gadgets plus seeded *perturbed* gadgets whose rankings are randomly
reshuffled).  The ``multipath`` family re-draws the AS/intradomain shapes
with ``top_k > 1`` — the paper's Sec. VI-D top-k propagation — so the
k-best advertisement machinery is differentially tested too.  Every
family additionally draws ``batch_interval > 0`` for a fraction of its
specs, putting the paper's "batch and propagate every second" transport
mode under the same continuous differential test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

from ..obs.trace import scenario_trace_id

#: Topology families a spec can name.
FAMILIES = ("gadget", "caida", "hierarchy", "rocketfuel", "ibgp", "hlp",
            "multipath", "tau-sweep", "secure-rov", "secure-hijack")

#: Topology shapes the multipath (top-k) family rides on.
MULTIPATH_SHAPES = ("caida", "hierarchy", "rocketfuel")

#: Algebras drawn for the AS-level families (CAIDA-like and hierarchy).
INTERDOMAIN_ALGEBRAS = (
    "gr-a",
    "gr-b",
    "gr-a-hopcount",
    "gr-b-hopcount",
    "safe-backup",
    "widest-shortest",
    "hop-count",
)

#: Algebras drawn for the intradomain (Rocketfuel-like) family.
INTRADOMAIN_ALGEBRAS = ("shortest-path", "hop-count")

#: Base gadgets the gadget family perturbs and replicates.
GADGETS = ("disagree", "bad", "good", "figure3", "figure3-fixed", "chain")

#: Wrapped algebras the secure families draw — finite-vocabulary *and*
#: strictly monotonic bases, so the secured wrapper stays batch-admissible
#: and tier-0 certifiable (plain gr-a/gr-b are monotone-not-strict and
#: would flood the FALSE_POSITIVE bucket).
SECURE_BASE_ALGEBRAS = ("gr-a-hopcount", "gr-b-hopcount", "widest-shortest")

#: How the deployment bitmap is drawn at materialization time.
DEPLOYMENT_MODES = ("none", "random", "top-degree", "full")

#: Workload profiles: event/time budgets and topology size ranges.
PROFILES = ("default", "quick")


@dataclass(frozen=True)
class LinkEventSpec:
    """One scheduled topology event, resolved against the materialized net.

    ``link_index`` indexes the network's deterministically sorted link list
    (modulo its length), so the spec stays valid for any realized topology
    size.  ``kind`` is ``"fail"`` (BGP session failure at ``time``),
    ``"perturb"`` (re-label both directions with ``weight`` — only used by
    integer-labelled families, where any in-vocabulary weight keeps the
    analyzed algebra unchanged), or ``"hijack"`` (a compromised node
    injects a forged origination for the scenario's first destination at
    ``time``; ``attacker_index`` picks the attacker from the sorted
    non-neighbors of that destination, modulo their count, so the spec —
    and therefore the reproducer seed — pins the attacker node).
    """

    time: float
    kind: str
    link_index: int
    weight: int | None = None
    attacker_index: int | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully reproducible scenario: family × algebra × events × seed."""

    scenario_id: int
    family: str
    algebra: str
    seed: int
    until: float
    max_events: int
    params: tuple[tuple[str, Any], ...] = ()
    events: tuple[LinkEventSpec, ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    @property
    def trace_id(self) -> str:
        """The scenario's observability trace ID, minted at spec
        generation as a pure function of ``(family, scenario_id, seed)``
        — so a re-generated spec (resumed campaign, reproducer rerun)
        lands its spans in the same trace."""
        return scenario_trace_id(self.family, self.scenario_id, self.seed)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict rendering used in reproducer reports."""
        return {
            "scenario_id": self.scenario_id,
            "family": self.family,
            "algebra": self.algebra,
            "seed": self.seed,
            "until": self.until,
            "max_events": self.max_events,
            "params": dict(self.params),
            "events": [
                {"time": e.time, "kind": e.kind, "link_index": e.link_index,
                 "weight": e.weight, "attacker_index": e.attacker_index}
                for e in self.events
            ],
        }

    def describe(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.params)
        return (f"#{self.scenario_id} {self.family}/{self.algebra} "
                f"seed={self.seed}"
                + (f" {extras}" if extras else "")
                + (f" events={len(self.events)}" if self.events else ""))

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (reproducer replay).

        JSON turns tuples into lists, so param values are re-tuplified —
        the round-tripped spec materializes the identical scenario and
        renders the identical ``to_dict``.
        """
        params = tuple((key, _tuplify(value))
                       for key, value in (data.get("params") or {}).items())
        events = tuple(
            LinkEventSpec(time=e["time"], kind=e["kind"],
                          link_index=e["link_index"], weight=e.get("weight"),
                          attacker_index=e.get("attacker_index"))
            for e in data.get("events") or ())
        return cls(
            scenario_id=data["scenario_id"],
            family=data["family"],
            algebra=data["algebra"],
            seed=data["seed"],
            until=data["until"],
            max_events=data["max_events"],
            params=params,
            events=events,
        )


def _tuplify(value: Any) -> Any:
    """Undo JSON's tuple → list coercion, recursively."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


class ScenarioGenerator:
    """Seeded randomized scenario source.

    ``generate(count)`` round-robins over the requested families so a
    campaign of any size exercises every layer; scenario ``i`` draws from
    its own ``random.Random`` derived from ``(seed, i)``, so campaigns are
    reproducible and individual scenarios can be re-generated in isolation.
    """

    def __init__(self, seed: int = 0, *,
                 families: Sequence[str] | None = None,
                 profile: str = "default",
                 deployment: str | None = None):
        chosen = tuple(families) if families else FAMILIES
        unknown = [f for f in chosen if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown families {unknown}; "
                             f"choose from {list(FAMILIES)}")
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; "
                             f"choose from {list(PROFILES)}")
        if deployment is not None and deployment not in DEPLOYMENT_MODES:
            raise ValueError(f"unknown deployment mode {deployment!r}; "
                             f"choose from {list(DEPLOYMENT_MODES)}")
        self.seed = seed
        self.families = chosen
        self.profile = profile
        self.quick = profile == "quick"
        #: When set, every secure-family spec uses this deployment mode
        #: instead of drawing one (the CLI's ``--deployment`` sweep knob).
        self.deployment = deployment

    # -- public API ----------------------------------------------------------

    def generate(self, count: int) -> list[ScenarioSpec]:
        return [self.make(i) for i in range(count)]

    def iter_specs(self, count: int) -> Iterator[ScenarioSpec]:
        """Lazily yield the first ``count`` specs of the stream."""
        for i in range(count):
            yield self.make(i)

    def make(self, index: int) -> ScenarioSpec:
        """The ``index``-th scenario of this generator's stream."""
        rng = random.Random(self.seed * 1_000_003 + index)
        family = self.families[index % len(self.families)]
        builder = getattr(self, "_make_" + family.replace("-", "_"))
        return builder(index, rng)

    # -- per-family spec builders -------------------------------------------

    def _make_gadget(self, index: int, rng: random.Random) -> ScenarioSpec:
        gadget = rng.choice(GADGETS)
        params: list[tuple[str, Any]] = [("gadget", gadget)]
        if gadget == "chain":
            params.append(("pairs", rng.randint(1, 4 if self.quick else 8)))
            params.append(("conflict", round(rng.random(), 2)))
        elif gadget in ("disagree", "bad", "good") and rng.random() < 0.4:
            params.append(("copies", rng.randint(2, 3)))
        # Perturbed gadgets: reshuffle some per-node rankings (seeded).
        if rng.random() < 0.5:
            params.append(("perturb", round(rng.uniform(0.2, 0.9), 2)))
        events = self._maybe_failures(rng, count=1)
        params.extend(self._batch_params(rng))
        params.extend(self._adaptive_params(rng, "gadget"))
        return ScenarioSpec(
            scenario_id=index, family="gadget", algebra="spp",
            seed=rng.randrange(2**31), params=tuple(params),
            until=30.0, max_events=8_000 if self.quick else 25_000,
            events=events)

    def _make_caida(self, index: int, rng: random.Random) -> ScenarioSpec:
        algebra = rng.choice(INTERDOMAIN_ALGEBRAS)
        params = (
            ("as_count", rng.randint(8, 14 if self.quick else 28)),
            ("peer_fraction", round(rng.uniform(0.05, 0.3), 2)),
            ("destinations", rng.randint(1, 2)),
        ) + self._batch_params(rng) + self._adaptive_params(rng, "caida")
        return ScenarioSpec(
            scenario_id=index, family="caida", algebra=algebra,
            seed=rng.randrange(2**31), params=params,
            until=60.0, max_events=30_000 if self.quick else 120_000,
            events=self._maybe_failures(rng, count=rng.randint(0, 2)))

    def _make_hierarchy(self, index: int, rng: random.Random) -> ScenarioSpec:
        algebra = rng.choice(INTERDOMAIN_ALGEBRAS)
        params = (
            ("depth", rng.randint(2, 3 if self.quick else 4)),
            ("branching", rng.randint(2, 3)),
            ("max_nodes", 16 if self.quick else 30),
            ("destinations", rng.randint(1, 2)),
        ) + self._batch_params(rng) + self._adaptive_params(rng, "hierarchy")
        return ScenarioSpec(
            scenario_id=index, family="hierarchy", algebra=algebra,
            seed=rng.randrange(2**31), params=params,
            until=60.0, max_events=30_000 if self.quick else 120_000,
            events=self._maybe_failures(rng, count=rng.randint(0, 2)))

    def _make_rocketfuel(self, index: int, rng: random.Random) -> ScenarioSpec:
        algebra = rng.choice(INTRADOMAIN_ALGEBRAS)
        routers = rng.randint(8, 12 if self.quick else 22)
        weights = tuple(sorted(rng.sample(range(1, 21),
                                          rng.randint(2, 4))))
        # rocketfuel_like's base construction (backbone ring + 1-2 uplinks
        # per access router) can need up to 2·routers links before chords.
        params = (
            ("routers", routers),
            ("links", 2 * routers + rng.randint(0, 6)),
            ("weights", weights),
            ("destinations", rng.randint(1, 2)),
        ) + self._batch_params(rng) + self._adaptive_params(rng, "rocketfuel")
        events = list(self._maybe_failures(rng, count=rng.randint(0, 1)))
        if rng.random() < 0.5:
            # Metric perturbation: any weight from the algebra's own
            # vocabulary keeps the safety verdict applicable.
            events.append(LinkEventSpec(
                time=round(rng.uniform(0.1, 0.5), 3), kind="perturb",
                link_index=rng.randrange(64), weight=rng.choice(weights)))
        events.sort(key=lambda e: e.time)
        return ScenarioSpec(
            scenario_id=index, family="rocketfuel", algebra=algebra,
            seed=rng.randrange(2**31), params=params,
            until=60.0, max_events=30_000 if self.quick else 120_000,
            events=tuple(events))

    def _make_hlp(self, index: int, rng: random.Random) -> ScenarioSpec:
        """HLP domain hierarchies (paper Sec. VI-D), three-way comparable.

        Events are family-specific: ``fail`` indexes the sorted
        *cross-domain* link list (cross failures exercise FPV withdrawals
        without ever partitioning a domain's link-state flood), ``perturb``
        indexes the sorted *intra-domain* list with a fresh weight (the
        regime HLP's cost hiding was designed around).
        """
        domains = rng.randint(3, 3 if self.quick else 4)
        nodes_per_domain = rng.randint(4, 5 if self.quick else 6)
        params = (
            ("domains", domains),
            ("nodes_per_domain", nodes_per_domain),
            ("cross_links", rng.randint(domains + 2, 2 * domains + 2)),
            ("destinations", rng.randint(1, 2)),
        ) + self._batch_params(rng)
        events: list[LinkEventSpec] = list(
            self._maybe_failures(rng, count=rng.randint(0, 1)))
        if rng.random() < 0.6:
            events.append(LinkEventSpec(
                time=round(rng.uniform(0.1, 0.5), 3), kind="perturb",
                link_index=rng.randrange(64), weight=rng.randint(1, 10)))
        events.sort(key=lambda e: e.time)
        return ScenarioSpec(
            scenario_id=index, family="hlp", algebra="hlp-cost",
            seed=rng.randrange(2**31), params=params,
            until=60.0, max_events=60_000 if self.quick else 250_000,
            events=tuple(events))

    def _make_multipath(self, index: int, rng: random.Random) -> ScenarioSpec:
        """Top-k GPV scenarios (paper Sec. VI-D's multipath extension).

        Re-draws one of the AS/intradomain shapes, then asks every
        backend to propagate the k-best route set instead of the single
        best — the generated NDlog program compiles to the ranked
        ``a_topK`` variant and must stay differential with the native
        engine's multipath advertisements.
        """
        shape = rng.choice(MULTIPATH_SHAPES)
        base = getattr(self, f"_make_{shape}")(index, rng)
        params = base.params + (("shape", shape),
                                ("top_k", rng.randint(2, 3)))
        return replace(base, family="multipath", params=params)

    #: Cost cap shared by every tau-sweep variant: it bounds the finite
    #: signature set, so all variants encode the *same* preference atoms
    #: while tau and the weight vocabulary vary the monotonicity atoms.
    TAU_SWEEP_MAX_COST = 14
    #: Cost-hiding thresholds the sweep draws from (0 = exact costs).
    TAU_SWEEP_TAUS = (0, 1, 2, 3, 4)

    def _make_tau_sweep(self, index: int, rng: random.Random) -> ScenarioSpec:
        """HLP cost-hiding sweep: the family that reaches tier 2.

        Every spec draws a fresh ``(tau, weights)`` variant of the
        :class:`~repro.algebra.hlp.HLPTauAlgebra` over the same signature
        set: finite and not an SPP instance, so each distinct variant is
        decided by the difference-logic solver, and fully batch-admitted.
        """
        routers = rng.randint(7, 9 if self.quick else 12)
        weights = tuple(sorted(rng.sample(range(1, 7), rng.randint(2, 4))))
        params = (
            ("routers", routers),
            # Clamp to the complete graph: small router draws could
            # otherwise request more links than the topology can hold.
            ("links", min(2 * routers + rng.randint(0, 4),
                          routers * (routers - 1) // 2)),
            ("weights", weights),
            ("tau", rng.choice(self.TAU_SWEEP_TAUS)),
            ("max_cost", self.TAU_SWEEP_MAX_COST),
            ("destinations", 1),
        ) + self._batch_params(rng) + self._adaptive_params(rng, "tau-sweep")
        return ScenarioSpec(
            scenario_id=index, family="tau-sweep", algebra="hlp-tau",
            seed=rng.randrange(2**31), params=params,
            until=60.0, max_events=30_000 if self.quick else 120_000,
            events=self._maybe_failures(rng, count=rng.randint(0, 1)))

    def _make_secure_rov(self, index: int,
                         rng: random.Random) -> ScenarioSpec:
        """Partial-deployment origin/path validation, no attacker.

        The classic differential under a secured algebra: a
        :class:`~repro.algebra.secure.SecureAlgebra` wraps one of the
        strictly monotonic library bases, nodes are deployed per the drawn
        deployment mode, and every backend must still agree on the stable
        state (tier-0 certifies the wrapper compositionally).
        """
        algebra = self._secure_algebra_draw(rng)
        params = (
            ("as_count", rng.randint(8, 12 if self.quick else 20)),
            ("peer_fraction", round(rng.uniform(0.05, 0.3), 2)),
            ("destinations", 1),
            ("roa", rng.random() < 0.7),
        ) + self._deployment_params(rng) + self._batch_params(rng)
        return ScenarioSpec(
            scenario_id=index, family="secure-rov", algebra=algebra,
            seed=rng.randrange(2**31), params=params,
            until=60.0, max_events=30_000 if self.quick else 120_000,
            events=self._maybe_failures(rng, count=rng.randint(0, 1)))

    def _make_secure_hijack(self, index: int,
                            rng: random.Random) -> ScenarioSpec:
        """Prefix hijack under partial validation deployment.

        Rides the secure-rov shape and adds one ``hijack`` event: a node
        drawn from the destination's non-neighbors injects a forged
        origination mid-run.  The oracle then answers "does the hijack
        win at each victim?" on top of the classic differential.
        """
        algebra = self._secure_algebra_draw(rng)
        params = (
            ("as_count", rng.randint(8, 12 if self.quick else 20)),
            ("peer_fraction", round(rng.uniform(0.05, 0.3), 2)),
            ("destinations", 1),
            ("roa", rng.random() < 0.7),
        ) + self._deployment_params(rng) + self._batch_params(rng)
        events = list(self._maybe_failures(rng, count=rng.randint(0, 1)))
        events.append(LinkEventSpec(
            time=round(rng.uniform(0.1, 0.5), 3), kind="hijack",
            link_index=0, attacker_index=rng.randrange(64)))
        events.sort(key=lambda e: e.time)
        return ScenarioSpec(
            scenario_id=index, family="secure-hijack", algebra=algebra,
            seed=rng.randrange(2**31), params=params,
            until=60.0, max_events=30_000 if self.quick else 120_000,
            events=tuple(events))

    def _secure_algebra_draw(self, rng: random.Random) -> str:
        """``<variant>-<mode>:<base>`` — the library's secure naming."""
        base = rng.choice(SECURE_BASE_ALGEBRAS)
        variant = rng.choice(("rov", "bgpsec"))
        mode = rng.choice(("filter", "deprioritize"))
        return f"{variant}-{mode}:{base}"

    def _deployment_params(self, rng: random.Random
                           ) -> tuple[tuple[str, Any], ...]:
        mode = self.deployment or rng.choice(DEPLOYMENT_MODES)
        fraction = {"none": 0.0, "full": 1.0}.get(mode)
        if fraction is None:
            fraction = rng.choice((0.25, 0.5, 0.75))
        return (("deployment", mode), ("deployment_fraction", fraction))

    def _make_ibgp(self, index: int, rng: random.Random) -> ScenarioSpec:
        routers = rng.randint(14, 16 if self.quick else 24)
        params = (
            ("routers", routers),
            ("links", 2 * routers + rng.randint(0, 6)),
            ("levels", rng.randint(2, 3)),
            ("reflector_count", max(4, routers // 3)),
            ("egress_count", 3),
            ("embed_gadget", rng.random() < 0.5),
            # Tight convergence window (until=8s): batch fast when batching.
        ) + self._batch_params(rng, low=0.1, high=0.3)
        return ScenarioSpec(
            scenario_id=index, family="ibgp", algebra="igp-cost",
            seed=rng.randrange(2**31), params=params,
            until=8.0, max_events=20_000 if self.quick else 60_000)

    # -- helpers --------------------------------------------------------------

    #: Probability that a spec runs in periodic-advertisement mode.
    BATCH_PROBABILITY = 0.25

    #: Per-family probability that drawn link failures are biased toward
    #: links on selected best paths (the interesting failures) instead of
    #: uniform — kept < 1 so uniform draws still occur and failures off
    #: the forwarding tree stay under test.
    ADAPTIVE_EVENT_PROBABILITY = {
        "gadget": 0.35,
        "caida": 0.5,
        "hierarchy": 0.5,
        "rocketfuel": 0.5,
        "tau-sweep": 0.5,
    }

    def _adaptive_params(self, rng: random.Random,
                         family: str) -> tuple[tuple[str, Any], ...]:
        """Maybe mark this spec's failures as best-path-biased.

        Resolution happens at materialization time
        (:func:`~repro.campaigns.scenarios.best_path_link_pool`): a cheap
        hop-count shortest-path probe from the scenario's destinations
        selects the links actually carrying best paths, and ``fail``
        events index into that pool instead of the full link list.  The
        ``multipath`` family inherits the draw from the shape builder it
        re-runs.
        """
        probability = self.ADAPTIVE_EVENT_PROBABILITY.get(family, 0.0)
        if rng.random() < probability:
            return (("adaptive_events", True),)
        return ()

    def _batch_params(self, rng: random.Random, *,
                      low: float = 0.2,
                      high: float = 1.0) -> tuple[tuple[str, Any], ...]:
        """Maybe draw a ``batch_interval`` for this spec.

        The paper's deployment mode "batches and propagates routes every
        second"; giving every family a fraction of batched specs keeps the
        periodic-timer transport (MRAI-style, per-node phase-staggered)
        under continuous differential test instead of only in the
        conformance suite.  The ``multipath`` family inherits the draw
        from the shape builder it re-runs.
        """
        if rng.random() < self.BATCH_PROBABILITY:
            return (("batch_interval", round(rng.uniform(low, high), 2)),)
        return ()

    @staticmethod
    def _maybe_failures(rng: random.Random,
                        count: int) -> tuple[LinkEventSpec, ...]:
        """Up to ``count`` link failures at distinct link indices."""
        if count <= 0:
            return ()
        indices = rng.sample(range(64), count)
        return tuple(sorted(
            (LinkEventSpec(time=round(rng.uniform(0.1, 0.5), 3),
                           kind="fail", link_index=i)
             for i in indices),
            key=lambda e: e.time))
