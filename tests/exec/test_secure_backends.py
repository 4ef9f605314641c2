"""Hijack-event threading through the execution backends.

The forged origination has no link behind it, so every backend needs an
injection path distinct from the fail/perturb machinery; the batch
backend additionally seeds the attacker through the kernel's origin
vocabulary.  Deployed import filtering makes preference-equal
signatures diverge in reachability (the deployment bit gives each
importer its own kernel column); the v2 engine admits those kernels
under the hazard-guarded Jacobi — declining at run time only if a
preference tie between behaviorally distinct routes actually competes —
so deployed filter-mode scenarios run batched, verified batch≡gpv here.
"""

from repro.algebra.secure import hijacked_route
from repro.campaigns import materialize
from repro.campaigns.spec import LinkEventSpec, ScenarioSpec
from repro.exec import get_backend

from batch_helper import run_batch


def hijack_spec(deployment, fraction, *, seed=0):
    return ScenarioSpec(
        scenario_id=0, family="secure-hijack",
        algebra="rov-filter:gr-a-hopcount", seed=seed,
        params=(("as_count", 10), ("peer_fraction", 0.15),
                ("destinations", 1), ("roa", True),
                ("deployment", deployment),
                ("deployment_fraction", fraction)),
        until=60.0, max_events=120_000,
        events=(LinkEventSpec(time=0.25, kind="hijack", link_index=0,
                              attacker_index=3),))


def run_backend(name, spec):
    if name == "batch":
        return run_batch(spec)
    scenario = materialize(spec)
    session = get_backend(name).prepare(scenario, seed=spec.seed)
    outcome = session.run(until=spec.until, max_events=spec.max_events)
    return scenario, outcome


class TestScalarInjection:
    def test_attacker_holds_its_forged_route(self):
        for name in ("gpv", "ndlog"):
            scenario, outcome = run_backend(name, hijack_spec("none", 0.0))
            _sig, path = outcome.routes[(scenario.attacker,
                                         scenario.hijack_dest)]
            assert path == (scenario.attacker, scenario.hijack_dest), name

    def test_victim_sets_match_across_scalar_backends(self):
        spec = hijack_spec("none", 0.0)
        victims = {}
        for name in ("gpv", "ndlog"):
            scenario, outcome = run_backend(name, spec)
            victims[name] = {
                node for (node, dest), route in outcome.routes.items()
                if dest == scenario.hijack_dest and node != scenario.attacker
                and route is not None
                and hijacked_route(route[1], scenario.attacker)}
        assert victims["gpv"] == victims["ndlog"]
        assert victims["gpv"]  # seed 0 at 0% deployment plants a win


class TestBatchSupport:
    def test_undeployed_hijack_scenario_is_batchable(self):
        scenario = materialize(hijack_spec("none", 0.0))
        assert get_backend("batch").supports(scenario)

    def test_deployed_filtering_runs_batched_and_matches_gpv(self):
        # Deployed import filtering acts on the validation state, which
        # preference cannot see: the rank tables stop *statically*
        # respecting ties, but the hazard-guarded Jacobi admits them —
        # the deployment bit is a per-importer kernel column — and the
        # batch fixpoint must stay preference-equal to scalar GPV.
        for mode, fraction in (("random", 0.5), ("full", 1.0)):
            spec = hijack_spec(mode, fraction)
            scenario = materialize(spec)
            assert get_backend("batch").supports(scenario), (mode, fraction)
            _, batch_outcome = run_backend("batch", spec)
            scenario, gpv_outcome = run_backend("gpv", spec)
            algebra = scenario.algebra
            for key, route in gpv_outcome.routes.items():
                other = batch_outcome.routes.get(key)
                if route is None:
                    assert other is None, (mode, fraction, key)
                else:
                    assert other is not None, (mode, fraction, key)
                    assert algebra.preference(
                        route[0], other[0]).name == "EQUAL", \
                        (mode, fraction, key)

    def test_batch_outcome_matches_gpv_on_undeployed_hijack(self):
        spec = hijack_spec("none", 0.0)
        _, batch_outcome = run_backend("batch", spec)
        scenario, gpv_outcome = run_backend("gpv", spec)
        algebra = scenario.algebra
        for key, route in gpv_outcome.routes.items():
            other = batch_outcome.routes.get(key)
            if route is None:
                assert other is None, key
            else:
                assert other is not None, key
                assert algebra.preference(
                    route[0], other[0]).name == "EQUAL", key

    def test_hijack_after_the_horizon_is_inert(self):
        base = hijack_spec("none", 0.0)
        spec = ScenarioSpec(
            scenario_id=0, family="secure-hijack", algebra=base.algebra,
            seed=base.seed, params=base.params, until=base.until,
            max_events=base.max_events,
            events=(LinkEventSpec(time=base.until + 5.0, kind="hijack",
                                  link_index=0, attacker_index=3),))

        def victims(spec):
            scenario, outcome = run_backend("batch", spec)
            return [node for (node, dest), route in outcome.routes.items()
                    if dest == scenario.hijack_dest and route is not None
                    and hijacked_route(route[1], scenario.attacker)]

        assert victims(base)  # the same hijack inside the horizon wins
        assert victims(spec) == []
