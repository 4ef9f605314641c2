"""Batch-backend equivalence and contract suite.

The vectorized backend trades simulation for a Bellman-Ford fixpoint over
tabulated preference ranks, which is only sound for strictly monotonic,
isotone algebras (see ``repro/exec/batch.py``).  This suite pins both
sides of that bargain: on every scenario the backend *declares* supported
its route tables must be preference-equal to the scalar GPV engine — on
fixed seeds and across a generated spec stream — and the scenarios whose
semantics the shortcut cannot reproduce must be refused by
``supports()`` — for a counted, typed reason — rather than silently
mis-executed.
"""

import collections

import pytest

from repro.campaigns import (
    LinkEventSpec,
    ScenarioGenerator,
    ScenarioSpec,
    materialize,
)
from repro.exec import get_backend, route_mismatches, schedule_events
from repro.exec.base import ExecutionOutcome
from repro.exec.batch import (
    BatchDeclined,
    _kernel_for,
    _scan_topology,
    clear_kernel_cache,
    configure_kernel_store,
    kernel_cache_stats,
    kernel_key_of,
    reset_kernel_cache_stats,
)
from repro.obs import metrics

from batch_helper import BATCH, run_batch


def run_backend(name: str, spec: ScenarioSpec, *, log_routes: bool = False):
    """Materialize, prepare, schedule the spec's events, run (``batch``
    has its own lifecycle: :func:`batch_helper.run_batch`)."""
    if name == "batch":
        return run_batch(spec)
    scenario = materialize(spec)
    session = get_backend(name).prepare(scenario, seed=spec.seed,
                                        log_routes=log_routes)
    schedule_events(session, scenario.events)
    outcome = session.run(until=spec.until, max_events=spec.max_events)
    return session, outcome


def gadget_spec(kind: str, *, seed: int = 3) -> ScenarioSpec:
    return ScenarioSpec(scenario_id=0, family="gadget", algebra="spp",
                        seed=seed, until=30.0, max_events=25_000,
                        params=(("gadget", kind),))


def admit(specs):
    """What ``prepare_batch`` takes: each spec's compiled problem."""
    problems = [BATCH.supports(materialize(spec)) for spec in specs]
    assert all(problems), "fixture drift: spec no longer batch-admitted"
    return problems


def admission_counts() -> collections.Counter:
    """``(family, outcome, reason) -> count`` of the admission series."""
    return collections.Counter({
        tuple(dict(labels)[k] for k in ("family", "outcome", "reason")):
            int(metric.value)
        for labels, metric in metrics.get_registry().family(
            "repro_batch_admission_total").items()})


def batch_spec(scenario_id, family, algebra, seed, params,
               events=()) -> ScenarioSpec:
    return ScenarioSpec(scenario_id=scenario_id, family=family,
                        algebra=algebra, seed=seed, until=60.0,
                        max_events=120_000, params=params, events=events)


#: Fixed-seed scenarios the batch backend supports, spanning every
#: batch-supported algebra family (hop counts, safe backup, additive
#: shortest path, the HLP tau-mode lexical metric) and both event kinds.
BATCH_SPECS = [
    batch_spec(10, "caida", "hop-count", 7,
               params=(("as_count", 14), ("peer_fraction", 0.2),
                       ("destinations", 2)),
               events=(LinkEventSpec(time=0.2, kind="fail", link_index=5),)),
    batch_spec(11, "hierarchy", "safe-backup", 4,
               params=(("depth", 3), ("branching", 2), ("max_nodes", 20),
                       ("destinations", 2)),
               events=(LinkEventSpec(time=0.15, kind="fail", link_index=3),
                       LinkEventSpec(time=0.3, kind="fail", link_index=9))),
    batch_spec(12, "rocketfuel", "shortest-path", 5,
               params=(("routers", 10), ("links", 24), ("weights", (1, 2)),
                       ("destinations", 1)),
               events=(LinkEventSpec(time=0.1, kind="perturb", link_index=7,
                                     weight=2),
                       LinkEventSpec(time=0.3, kind="fail", link_index=7))),
    batch_spec(13, "rocketfuel", "hop-count", 9,
               params=(("routers", 12), ("links", 30), ("weights", (1,)),
                       ("destinations", 2)),
               events=(LinkEventSpec(time=0.2, kind="fail", link_index=11),)),
    batch_spec(14, "tau-sweep", "hlp-tau", 2, params=()),
    # Hole-aware admissions (PR 7): kernels with φ/beyond-horizon holes,
    # relaxed under the monotone (tie-respecting) gate instead of the
    # strict per-row isotonicity check.
    batch_spec(15, "caida", "gr-a-hopcount", 3,
               params=(("as_count", 12), ("peer_fraction", 0.2),
                       ("destinations", 2)),
               events=(LinkEventSpec(time=0.2, kind="fail", link_index=4),)),
    batch_spec(16, "caida", "gr-b-hopcount", 11,
               params=(("as_count", 12), ("peer_fraction", 0.2),
                       ("destinations", 2))),
    batch_spec(17, "caida", "widest-shortest", 3,
               params=(("as_count", 12), ("peer_fraction", 0.2),
                       ("destinations", 2)),
               events=(LinkEventSpec(time=0.25, kind="fail", link_index=6),)),
    # Wide weights drive sums past the closure horizon fast, injecting
    # beyond-horizon holes into an otherwise isotone additive kernel.
    batch_spec(18, "rocketfuel", "shortest-path", 8,
               params=(("routers", 10), ("links", 22), ("weights", (1, 19)),
                       ("destinations", 2))),
]


def caida_hop_count(as_count, *, scenario_id=19):
    """``BATCH_SPECS[0]`` at another size: the same algebra and transfer
    vocabulary (``as_count`` 14 is 7 nodes, 23 is 12)."""
    return batch_spec(scenario_id, "caida", "hop-count", 7,
                      params=(("as_count", as_count), ("peer_fraction", 0.2),
                              ("destinations", 2)),
                      events=BATCH_SPECS[0].events)


def secure_hijack_spec(mode, fraction, *, seed=0):
    """A secure-hijack scenario with an actual forged origination."""
    return ScenarioSpec(
        scenario_id=900 + seed, family="secure-hijack",
        algebra="rov-filter:gr-a-hopcount", seed=seed,
        params=(("as_count", 10), ("peer_fraction", 0.15),
                ("destinations", 1), ("roa", True),
                ("deployment", mode),
                ("deployment_fraction", fraction)),
        until=60.0, max_events=120_000,
        events=(LinkEventSpec(time=0.25, kind="hijack", link_index=0,
                              attacker_index=3),))


#: Secure scenarios with a live forged origination: the deployed
#: (random / full) filter modes tabulate to hazard kernels, so the
#: per-round tie check runs against the scalar ground truth.
SECURE_SPECS = [
    secure_hijack_spec(mode, fraction, seed=seed)
    for mode, fraction in (("none", 0.0), ("random", 0.5), ("full", 1.0))
    for seed in (0, 1)
]


class TestFixedSeedEquivalence:
    """batch == gpv (up to algebra ties) on every supported fixed seed."""

    @pytest.mark.parametrize("spec", BATCH_SPECS + SECURE_SPECS,
                             ids=lambda s: f"{s.family}-{s.algebra}")
    def test_batched_tables_equal_gpv(self, spec):
        assert BATCH.supports(materialize(spec)), \
            "fixture drift: spec no longer batch-supported"
        gpv_session, gpv = run_backend("gpv", spec)
        _batch_session, batch = run_backend("batch", spec)
        assert batch.converged and batch.stop_reason == "quiescent"
        assert batch.backend == "batch"
        assert route_mismatches(gpv_session.algebra, gpv, batch) == []
        # Non-vacuous: the scenario actually routes somewhere.
        assert any(path is not None for path in batch.routes.values())

    def test_generated_stream_equivalence(self):
        """Property check over the campaign generator itself: whatever
        the batch backend claims to support must match GPV."""
        generator = ScenarioGenerator(
            1234, families=("caida", "hierarchy", "rocketfuel", "tau-sweep"),
            profile="quick")
        supported_algebras = set()
        checked = 0
        for spec in generator.iter_specs(40):
            if not BATCH.supports(materialize(spec)):
                continue
            gpv_session, gpv = run_backend("gpv", spec)
            _batch_session, batch = run_backend("batch", spec)
            assert route_mismatches(gpv_session.algebra, gpv, batch) == [], \
                f"batch diverged from gpv on {spec.describe()}"
            supported_algebras.add(spec.algebra)
            checked += 1
        # The property must not pass vacuously: the generator's stream
        # has to keep exercising several batch-supported algebras.
        assert checked >= 5
        assert len(supported_algebras) >= 2


class TestSupports:
    """Unbatchable semantics are declined up front, never mis-executed."""

    @pytest.mark.parametrize("family,algebra,params", [
        # Plain Gao-Rexford draws preference ties: not *strictly*
        # monotonic, so the fixpoint need not be unique.  (Its hopcount
        # refinements *are* strict and ride the monotone relaxation mode
        # — see BATCH_SPECS — but the unrefined algebra stays declined.)
        ("caida", "gr-a", (("as_count", 12), ("peer_fraction", 0.2),
                           ("destinations", 1))),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_untabulable_algebras_are_declined(self, family, algebra, params):
        spec = batch_spec(90, family, algebra, 3, params=params)
        assert not BATCH.supports(materialize(spec))

    def test_path_valued_algebras_are_declined(self):
        assert not BATCH.supports(materialize(gadget_spec("good")))

    def test_multipath_and_subjectless_scenarios_are_declined(self):
        generator = ScenarioGenerator(7, families=("multipath",),
                                      profile="quick")
        spec = next(iter(generator.iter_specs(1)))
        assert not BATCH.supports(materialize(spec))
        generator = ScenarioGenerator(7, families=("ibgp",), profile="quick")
        spec = next(iter(generator.iter_specs(1)))
        assert not BATCH.supports(materialize(spec))

    def test_route_logging_is_refused(self):
        scenario = materialize(BATCH_SPECS[0])
        scenario.log_routes = True
        before = admission_counts()
        assert BATCH.supports(scenario) is None
        assert admission_counts() - before == {
            ("caida", "refused", "route-logging"): 1}

    def test_every_verdict_is_counted_with_its_reason(self, monkeypatch):
        """One series increment per ``supports`` call, and one more per
        member of a group that declines at run time."""
        import repro.exec.batch as batch_mod

        before = admission_counts()
        assert BATCH.supports(materialize(gadget_spec("good"))) is None
        gr_a = batch_spec(90, "caida", "gr-a", 3, params=(
            ("as_count", 12), ("peer_fraction", 0.2), ("destinations", 1)))
        for _ in range(2):  # tabulated, then the cached refusal
            assert BATCH.supports(materialize(gr_a)) is None
        wide = materialize(BATCH_SPECS[0])
        monkeypatch.setattr(batch_mod, "MAX_NODES", 4)
        assert BATCH.supports(wide) is None
        monkeypatch.undo()
        problems = admit([BATCH_SPECS[3], BATCH_SPECS[3], BATCH_SPECS[4]])
        relax = batch_mod._relax_group

        def horizon_bail(group):
            if group[0].scenario.spec.family == "rocketfuel":
                raise BatchDeclined("horizon")
            relax(group)

        monkeypatch.setattr(batch_mod, "_relax_group", horizon_bail)
        outcomes = BATCH.prepare_batch(problems).run()
        assert outcomes[:2] == [None, None] and outcomes[2] is not None
        assert admission_counts() - before == {
            ("gadget", "refused", "path-valued-algebra"): 1,
            ("caida", "refused", "not-strictly-monotonic"): 2,
            ("caida", "refused", "node-budget"): 1,
            ("rocketfuel", "admitted", "none"): 2,
            ("tau-sweep", "admitted", "none"): 1,
            ("rocketfuel", "declined", "horizon"): 2}


class TestBatchedSession:
    """The prepare_batch contract: index-aligned outcomes, mixed kernels."""

    def test_mixed_algebra_batch_matches_per_scenario_gpv(self):
        specs = [BATCH_SPECS[0], BATCH_SPECS[4], BATCH_SPECS[1],
                 BATCH_SPECS[2]]
        session = BATCH.prepare_batch(admit(specs))
        outcomes = session.run()
        assert len(outcomes) == len(specs)
        for spec, outcome in zip(specs, outcomes):
            gpv_session, gpv = run_backend("gpv", spec)
            assert route_mismatches(gpv_session.algebra, gpv, outcome) == []

    def test_duplicate_scenarios_share_a_kernel_and_agree(self):
        spec = BATCH_SPECS[3]
        session = BATCH.prepare_batch(admit([spec, spec]))
        first, second = session.run()
        assert first.routes == second.routes
        assert first.sigs == second.sigs


def network_snapshot(scenario):
    network = scenario.network
    return (sorted(network.nodes()),
            sorted((link.a, link.b, network.label(link.a, link.b),
                    network.label(link.b, link.a))
                   for link in network.links()),
            list(scenario.events))


class TestOnePathContract:
    """What lets the oracle's chunk pass and the scalar primary share
    one materialization, and lets the chunk go unsorted."""

    #: fail, perturb→fail, fail, hijack (a hazard kernel), no events.
    SPECS = [BATCH_SPECS[1], BATCH_SPECS[2], BATCH_SPECS[5],
             SECURE_SPECS[2], BATCH_SPECS[4], BATCH_SPECS[3]]

    def test_run_leaves_its_scenarios_as_materialized(self):
        kinds = {event.kind for spec in self.SPECS for event in spec.events}
        assert kinds == {"fail", "perturb", "hijack"}
        scenarios = [materialize(spec) for spec in self.SPECS]
        outcomes = BATCH.prepare_batch(
            [BATCH.supports(scenario) for scenario in scenarios]).run()
        assert None not in outcomes
        for spec, scenario in zip(self.SPECS, scenarios):
            assert network_snapshot(scenario) == \
                network_snapshot(materialize(spec)), spec.describe()

    def test_a_scenario_serves_the_batch_pass_and_then_gpv(self):
        """The same object, batch first: the scalar run afterwards is
        the run a fresh materialization gives."""
        for spec in self.SPECS:
            scenario = materialize(spec)
            batch, = BATCH.prepare_batch([BATCH.supports(scenario)]).run()
            session = get_backend("gpv").prepare(scenario, seed=spec.seed)
            schedule_events(session, scenario.events)
            gpv = session.run(until=spec.until, max_events=spec.max_events)
            _fresh_session, fresh = run_backend("gpv", spec)
            assert (gpv.routes, gpv.messages) == \
                (fresh.routes, fresh.messages)
            assert route_mismatches(scenario.algebra, gpv, batch) == []

    def test_outcomes_do_not_depend_on_the_input_order(self):
        import itertools
        import random

        # The two 12-node hop-count scenarios (rocketfuel and caida)
        # share one kernel (one relaxation group); every other spec
        # brings its own.
        specs = [BATCH_SPECS[3], caida_hop_count(23), BATCH_SPECS[6]] \
            + self.SPECS[:5]
        assert kernel_key_of(materialize(specs[0])) == \
            kernel_key_of(materialize(specs[1]))
        reference = BATCH.prepare_batch(admit(specs)).run()
        orders = [list(reversed(range(len(specs))))]
        rng = random.Random(5)
        for _ in range(4):
            order = list(range(len(specs)))
            rng.shuffle(order)
            orders.append(order)
        # Every ordering of a same-kernel pair plus a stranger, too.
        orders += [list(order) + list(range(3, len(specs)))
                   for order in itertools.permutations(range(3))]
        for order in orders:
            outcomes = BATCH.prepare_batch(
                admit(specs[i] for i in order)).run()
            for index, outcome in zip(order, outcomes):
                assert (outcome.routes, outcome.sigs) == \
                    (reference[index].routes, reference[index].sigs), \
                    (order, specs[index].describe())


class TestEventSemantics:
    """The folded-in event mask means the same thing as the timeline."""

    def test_no_surviving_route_rides_a_failed_link(self):
        spec = BATCH_SPECS[1]  # hierarchy with two link failures
        scenario, outcome = run_backend("batch", spec)
        failed = {frozenset((event.a, event.b))
                  for event in scenario.events}
        assert len(failed) == 2
        for (node, dest), path in outcome.routes.items():
            if path is None:
                continue
            for u, v in zip(path, path[1:]):
                # The scenario's network stays the starting topology.
                assert scenario.network.has_link(u, v)
                assert frozenset((u, v)) not in failed, (
                    f"{node}->{dest} rides failed link {u}-{v}: {path}")

    def test_event_past_the_horizon_is_ignored(self):
        base = BATCH_SPECS[0]
        late = ScenarioSpec(
            scenario_id=base.scenario_id, family=base.family,
            algebra=base.algebra, seed=base.seed, until=base.until,
            max_events=base.max_events, params=base.params,
            events=base.events + (
                LinkEventSpec(time=base.until + 1.0, kind="fail",
                              link_index=2),))
        _s1, with_late = run_backend("batch", late)
        _s2, without = run_backend("batch", base)
        assert with_late.routes == without.routes

    def test_event_on_missing_link_is_a_noop(self):
        base = BATCH_SPECS[3]
        doubled = ScenarioSpec(
            scenario_id=base.scenario_id, family=base.family,
            algebra=base.algebra, seed=base.seed, until=base.until,
            max_events=base.max_events, params=base.params,
            events=base.events + base.events)  # same failure twice
        _s1, twice = run_backend("batch", doubled)
        _s2, once = run_backend("batch", base)
        assert twice.routes == once.routes


class TestHoleAwareKernels:
    """φ/beyond-horizon holes are explicit, and never invent routes."""

    @staticmethod
    def kernel_of(scenario):
        return _kernel_for(scenario, _scan_topology(scenario))

    def test_admitted_modes(self):
        """The hole-aware gate classifies each admitted family as
        expected: additive metrics stay isotone, the lexical products
        ride the monotone (tie-respecting) relaxation mode."""
        modes = {}
        for spec in BATCH_SPECS:
            kernel = self.kernel_of(materialize(spec))
            assert kernel is not None
            modes[spec.algebra] = kernel.mode
        assert modes["hop-count"] == "isotone"
        assert modes["shortest-path"] == "isotone"
        assert modes["gr-a-hopcount"] == "monotone"
        assert modes["gr-b-hopcount"] == "monotone"
        assert modes["widest-shortest"] == "monotone"

    def test_holey_kernel_never_reports_a_route_gpv_does_not(self):
        """Property: over seeds of the wide-weight shortest-path family
        (sums cross the closure horizon fast, so the kernels carry real
        beyond-horizon holes), every route the batch backend reports must
        also exist — preference-equal — in the scalar ground truth."""
        holes_seen = 0
        for seed in range(4):
            spec = batch_spec(200 + seed, "rocketfuel", "shortest-path",
                              seed,
                              params=(("routers", 10), ("links", 22),
                                      ("weights", (1, 19)),
                                      ("destinations", 2)))
            scenario = materialize(spec)
            kernel = self.kernel_of(scenario)
            assert kernel is not None
            holes_seen += kernel.hole_count
            gpv_session, gpv = run_backend("gpv", spec)
            _bs, batch = run_backend("batch", spec)
            for key, path in batch.routes.items():
                if path is not None:
                    assert gpv.routes.get(key) is not None, (
                        f"batch invented route {key} on seed {seed}")
            assert route_mismatches(gpv_session.algebra, gpv, batch) == []
        # The property must not pass vacuously: the wide weights really
        # have to inject φ/beyond-horizon holes into these kernels.
        assert holes_seen > 0

    def test_monotone_kernels_have_holes(self):
        """The newly admitted lexical products are exactly the holey
        case the sentinel exists for (gr export filters yield φ)."""
        kernel = self.kernel_of(materialize(BATCH_SPECS[5]))
        assert kernel.mode == "monotone"
        assert kernel.hole_count > 0

    def test_partial_run_skips_declined_groups(self, monkeypatch):
        """A run-time decline degrades to None outcomes for its group —
        the one behaviour; anything else propagates."""
        import repro.exec.batch as batch_mod

        def bail(_group):
            raise BatchDeclined("round-budget")

        problems = admit([BATCH_SPECS[0]])
        monkeypatch.setattr(batch_mod, "_relax_group", bail)
        assert BATCH.prepare_batch(problems).run() == [None]
        monkeypatch.setattr(batch_mod, "_relax_group",
                            lambda _group: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            BATCH.prepare_batch(problems).run()

    def test_kernel_cache_stats_track_hits(self):
        reset_kernel_cache_stats()
        spec = BATCH_SPECS[2]
        scn1, scn2 = materialize(spec), materialize(spec)
        key1 = kernel_key_of(scn1)
        assert key1 is not None and key1 == kernel_key_of(scn2)
        self.kernel_of(scn1)
        stats = kernel_cache_stats()
        first_tab = stats["tabulations"]
        # Distinct materialization, same canonical key: process cache hit.
        self.kernel_of(scn2)
        stats = kernel_cache_stats()
        assert stats["tabulations"] == first_tab
        assert stats["cache_hits"] >= 1

    def test_a_hole_touch_declines_the_group(self, monkeypatch):
        """A monotone-mode transient that crosses the closure horizon has
        no answer in the tables: its group declines ``horizon`` at once,
        counted once, and the kernel it read is left as it was built.
        The horizon is forced low so the Jacobi transient is guaranteed
        to touch a hole."""
        import repro.exec.batch as batch_mod

        original = batch_mod._build_kernel
        monkeypatch.setattr(
            batch_mod, "_build_kernel",
            lambda algebra, keys, labels, _depth:
                original(algebra, keys, labels, 3))
        clear_kernel_cache()
        reset_kernel_cache_stats()
        try:
            spec = BATCH_SPECS[5]  # gr-a-hopcount: monotone-mode Jacobi
            problems = admit([spec])
            trans = problems[0].kernel.trans.tobytes()
            before = admission_counts()
            assert BATCH.prepare_batch(problems).run() == [None]
            assert admission_counts() - before == {
                (spec.family, "declined", "horizon"): 1}
            stats = kernel_cache_stats()
            assert stats["runtime_declines"] == 1
            assert stats["tabulations"] == 1
            assert problems[0].kernel.trans.tobytes() == trans
        finally:
            clear_kernel_cache()  # drop the shallow kernel


class TestCacheTiers:
    """The kernel lookup answers in a pinned order — process cache →
    persistent store → tabulation — and each tier owns a disjoint hit
    counter, so exactly one counter moves per lookup."""

    @pytest.fixture(autouse=True)
    def isolated_store(self, tmp_path):
        clear_kernel_cache()
        configure_kernel_store(str(tmp_path / "kernels.sqlite"))
        reset_kernel_cache_stats()
        yield
        configure_kernel_store(None)
        clear_kernel_cache()
        reset_kernel_cache_stats()

    @staticmethod
    def kernel_of(scenario):
        return _kernel_for(scenario, _scan_topology(scenario))

    def test_tier_order_cache_store_tabulate(self):
        def hits():
            stats = kernel_cache_stats()
            return {key: stats[key] for key in (
                "cache_hits", "store_hits", "tabulations")}

        spec = BATCH_SPECS[2]
        scenario = materialize(spec)
        # Every tier cold: the only way to a kernel is tabulation.
        kernel = self.kernel_of(scenario)
        assert hits() == {"cache_hits": 0, "store_hits": 0,
                          "tabulations": 1}
        # The same scenario or a fresh materialization of it: there is
        # no per-instance tier, the process cache answers both.
        assert self.kernel_of(scenario) is kernel
        assert self.kernel_of(materialize(spec)) is kernel
        assert hits() == {"cache_hits": 2, "store_hits": 0,
                          "tabulations": 1}
        # Fresh process lifetime (process cache dropped, store kept):
        # the persistent store serves it; still exactly one tabulation.
        clear_kernel_cache()
        self.kernel_of(materialize(spec))
        assert hits() == {"cache_hits": 2, "store_hits": 1,
                          "tabulations": 1}
        # Admission leaves nothing on the algebra instance to find.
        assert not [name for name in vars(scenario.algebra)
                    if name.startswith("_batch")]

    def test_a_refusal_keeps_its_reason_in_the_cache_not_in_the_store(
            self):
        spec = batch_spec(90, "caida", "gr-a", 3, params=(
            ("as_count", 12), ("peer_fraction", 0.2), ("destinations", 1)))
        before = admission_counts()
        assert BATCH.supports(materialize(spec)) is None
        assert BATCH.supports(materialize(spec)) is None  # process cache
        clear_kernel_cache()
        assert BATCH.supports(materialize(spec)) is None  # NULL store row
        assert kernel_cache_stats()["tabulations"] == 1
        assert admission_counts() - before == {
            ("caida", "refused", "not-strictly-monotonic"): 2,
            ("caida", "refused", "stored-negative"): 1}


class TestClosureDepth:
    """A kernel is tabulated ``nodes − 1`` transfers deep, and that depth
    is part of its key."""

    def test_the_depth_keys_the_kernel_at_every_tier(self, tmp_path):
        clear_kernel_cache()
        configure_kernel_store(str(tmp_path / "kernels.sqlite"))
        reset_kernel_cache_stats()
        try:
            small, large = (materialize(caida_hop_count(as_count))
                            for as_count in (14, 23))
            assert [s.network.node_count() for s in (small, large)] \
                == [7, 12]
            key_small, key_large = kernel_key_of(small), kernel_key_of(large)
            assert key_small[:3] == key_large[:3]  # algebra, vocabulary
            assert (key_small[3], key_large[3]) == (6, 11)

            def depths():
                # Larger topology first: it must not serve the smaller.
                return [_kernel_for(s, _scan_topology(s)).depth
                        for s in (large, small)]

            assert depths() == [11, 6]  # tabulation
            assert depths() == [11, 6]  # process cache
            clear_kernel_cache()
            assert depths() == [11, 6]  # kernel store
            stats = kernel_cache_stats()
            assert (stats["tabulations"], stats["cache_hits"],
                    stats["store_hits"]) == (2, 2, 2)
        finally:
            configure_kernel_store(None)
            clear_kernel_cache()
            reset_kernel_cache_stats()

    def test_topology_depth_answers_as_the_deepest_admitted(
            self, monkeypatch):
        """Property: on generated quick specs the ``nodes − 1`` kernel
        gives the routes and signatures a kernel tabulated
        ``MAX_NODES − 1`` deep gives (run-time declines included), and
        both agree with scalar GPV."""
        import repro.exec.batch as batch_mod

        topology_depth = batch_mod._closure_depth
        generator = ScenarioGenerator(
            5, families=("rocketfuel", "secure-rov", "secure-hijack",
                         "caida"), profile="quick")
        compared = collections.Counter()
        for spec in generator.iter_specs(60):
            if not BATCH.supports(materialize(spec)):
                continue
            _s, shallow = run_batch(spec)
            monkeypatch.setattr(batch_mod, "_closure_depth",
                                lambda _scenario: batch_mod.MAX_NODES - 1)
            _s, deep = run_batch(spec)
            monkeypatch.setattr(batch_mod, "_closure_depth", topology_depth)
            if shallow is None or deep is None:
                assert shallow is deep, spec.describe()
                continue
            assert (shallow.routes, shallow.sigs) == \
                (deep.routes, deep.sigs), spec.describe()
            gpv_session, gpv = run_backend("gpv", spec)
            for outcome in (shallow, deep):
                assert route_mismatches(gpv_session.algebra, gpv,
                                        outcome) == [], spec.describe()
            compared[spec.family] += 1
        assert sum(compared.values()) >= 40
        assert len(compared) == 4


class TestRouteMismatchGuards:
    """Missing signatures degrade to a reported mismatch, not a crash."""

    def test_missing_signature_is_reported_not_raised(self):
        spec = BATCH_SPECS[0]
        gpv_session, gpv = run_backend("gpv", spec)
        _batch_session, batch = run_backend("batch", spec)
        # Make the tables textually unequal, then drop the signature a
        # comparison would need: pre-fix code raised KeyError here.
        key = next(k for k, p in batch.routes.items() if p is not None)
        mutated = ExecutionOutcome(
            backend=batch.backend, converged=batch.converged,
            stop_reason=batch.stop_reason,
            routes={**batch.routes, key: batch.routes[key] + ("bogus",)},
            sigs={k: s for k, s in batch.sigs.items() if k != key})
        mismatches = route_mismatches(gpv_session.algebra, gpv, mutated)
        assert any("signature missing" in m for m in mismatches)
