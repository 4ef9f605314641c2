"""Backend-conformance suite: the native GPV engine and the generated
NDlog program must be operationally interchangeable.

This is the paper's Theorem 5.1 (the NDlog translation computes the same
routes as the algebra semantics) promoted to a backend contract: on
fixed-seed scenarios with *safe* algebras both backends must converge to
identical best-route tables — including scenarios whose event schedule
fails links and perturbs metrics mid-convergence — and on BAD GADGET both
must diverge.
"""

import pytest

from repro.campaigns import (
    LinkEventSpec,
    ScenarioSpec,
    materialize,
)
from repro.exec import (
    BACKENDS,
    get_backend,
    resolve_backends,
    route_mismatches,
)

from batch_helper import run_batch


def run_backend(name: str, spec: ScenarioSpec, *, log_routes: bool = False):
    """Materialize, prepare, run (``batch`` has its own lifecycle:
    :func:`batch_helper.run_batch`); ``log_routes`` turns route logging
    on for a scenario that does not ask for it."""
    if name == "batch":
        return run_batch(spec)
    scenario = materialize(spec)
    scenario.log_routes = scenario.log_routes or log_routes
    session = get_backend(name).prepare(scenario, seed=spec.seed)
    outcome = session.run(until=spec.until, max_events=spec.max_events)
    return session, outcome


def gadget_spec(kind: str, *, seed: int = 3, events: tuple = (),
                **extra) -> ScenarioSpec:
    params = (("gadget", kind),) + tuple(sorted(extra.items()))
    return ScenarioSpec(scenario_id=0, family="gadget", algebra="spp",
                        seed=seed, until=30.0, max_events=25_000,
                        params=params, events=events)


SAFE_SPECS = [
    gadget_spec("good"),
    gadget_spec("figure3-fixed"),
    # A fully conflicting chain is DISAGREE-unsafe; the conflict-free
    # chain is the provably safe member of the family.
    gadget_spec("chain", conflict=0.0),
    # The paper's periodic-propagation mode, differentially tested.
    gadget_spec("good", batch_interval=0.05),
    ScenarioSpec(scenario_id=1, family="caida", algebra="gr-a", seed=11,
                 until=60.0, max_events=120_000,
                 params=(("as_count", 14), ("peer_fraction", 0.2),
                         ("destinations", 2)),
                 events=(LinkEventSpec(time=0.2, kind="fail",
                                       link_index=5),)),
    ScenarioSpec(scenario_id=2, family="hierarchy", algebra="gr-b-hopcount",
                 seed=4, until=60.0, max_events=120_000,
                 params=(("depth", 3), ("branching", 2), ("max_nodes", 20),
                         ("destinations", 2)),
                 events=(LinkEventSpec(time=0.15, kind="fail", link_index=3),
                         LinkEventSpec(time=0.3, kind="fail",
                                       link_index=9))),
    ScenarioSpec(scenario_id=3, family="rocketfuel", algebra="shortest-path",
                 seed=5, until=60.0, max_events=120_000,
                 params=(("routers", 10), ("links", 24), ("weights", (2, 9)),
                         ("destinations", 1)),
                 events=(LinkEventSpec(time=0.1, kind="perturb",
                                       link_index=7, weight=9),
                         LinkEventSpec(time=0.3, kind="fail",
                                       link_index=7))),
]


class TestRegistry:
    def test_both_backends_are_registered(self):
        assert set(BACKENDS) >= {"gpv", "ndlog", "hlp", "batch"}

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(KeyError, match="rapidnet"):
            get_backend("rapidnet")
        with pytest.raises(ValueError, match="rapidnet"):
            resolve_backends(("gpv", "rapidnet"))

    def test_empty_and_duplicate_backend_lists_are_rejected(self):
        with pytest.raises(ValueError):
            resolve_backends(())
        with pytest.raises(ValueError):
            resolve_backends(("gpv", "gpv"))


class TestSafeConformance:
    """Safe algebras: both backends converge to the same route tables."""

    @pytest.mark.parametrize("spec", SAFE_SPECS,
                             ids=lambda s: f"{s.family}-{s.algebra}")
    def test_identical_tables_on_safe_algebras(self, spec):
        gpv_session, gpv = run_backend("gpv", spec)
        _ndlog_session, ndlog = run_backend("ndlog", spec)
        assert gpv.converged, gpv.stop_reason
        assert ndlog.converged, ndlog.stop_reason
        mismatches = route_mismatches(gpv_session.algebra, gpv, ndlog)
        assert mismatches == []
        # Gadget rankings are total orders per node, so equivalence there
        # means byte-for-byte identical tables, not just equal preference.
        if spec.family == "gadget":
            assert gpv.routes == ndlog.routes

    def test_outcome_accounting_is_populated(self):
        _session, outcome = run_backend("gpv", gadget_spec("good"))
        assert outcome.backend == "gpv"
        assert outcome.messages > 0
        assert outcome.bytes_sent > 0
        assert outcome.routes  # at least the gadget's nodes toward dest
        assert outcome.to_dict()["routes_held"] >= 1


#: Safe specs the vectorized backend also supports (strictly monotonic
#: algebras): the three-way conformance set below.
BATCH_SAFE_SPECS = [
    ScenarioSpec(scenario_id=4, family="caida", algebra="hop-count",
                 seed=7, until=60.0, max_events=120_000,
                 params=(("as_count", 14), ("peer_fraction", 0.2),
                         ("destinations", 2)),
                 events=(LinkEventSpec(time=0.2, kind="fail",
                                       link_index=5),)),
    ScenarioSpec(scenario_id=5, family="hierarchy", algebra="safe-backup",
                 seed=4, until=60.0, max_events=120_000,
                 params=(("depth", 3), ("branching", 2), ("max_nodes", 20),
                         ("destinations", 2)),
                 events=(LinkEventSpec(time=0.15, kind="fail", link_index=3),
                         LinkEventSpec(time=0.3, kind="fail",
                                       link_index=9))),
]


class TestBatchConformance:
    """The fixpoint backend is a full peer on the scenarios it supports:
    its tables must be preference-equal to *both* scalar engines."""

    @pytest.mark.parametrize("spec", BATCH_SAFE_SPECS,
                             ids=lambda s: f"{s.family}-{s.algebra}")
    @pytest.mark.parametrize("reference", ["gpv", "ndlog"])
    def test_batch_tables_match_scalar_engines(self, reference, spec):
        assert get_backend("batch").supports(materialize(spec))
        ref_session, ref = run_backend(reference, spec)
        _batch_session, batch = run_backend("batch", spec)
        assert ref.converged and batch.converged
        assert route_mismatches(ref_session.algebra, ref, batch) == []


class TestUnsafeRegression:
    """BAD GADGET's divergence must reproduce under *both* backends."""

    @pytest.mark.parametrize("backend", ["gpv", "ndlog"])
    def test_bad_gadget_diverges(self, backend):
        _session, outcome = run_backend(backend, gadget_spec("bad"))
        assert not outcome.converged
        assert outcome.stop_reason in ("time-limit", "event-limit")


class TestEventSemantics:
    """Event schedules mean the same thing to every backend."""

    def test_failed_link_routes_are_withdrawn_everywhere(self):
        spec = SAFE_SPECS[5]  # hierarchy with two link failures
        gpv_session, gpv = run_backend("gpv", spec)
        ndlog_session, ndlog = run_backend("ndlog", spec)
        # The failures removed links from both session-owned networks
        # identically.
        assert (sorted(tuple(sorted((l.a, l.b)))
                       for l in gpv_session.network.links())
                == sorted(tuple(sorted((l.a, l.b)))
                          for l in ndlog_session.network.links()))
        # No surviving best path may traverse a failed link.
        for (node, dest), path in ndlog.routes.items():
            if path is None:
                continue
            for u, v in zip(path, path[1:]):
                assert ndlog_session.network.has_link(u, v), (
                    f"{node}->{dest} rides failed link {u}-{v}: {path}")

    def test_event_on_missing_link_is_a_noop(self):
        spec = gadget_spec(
            "good",
            events=(LinkEventSpec(time=0.1, kind="fail", link_index=2),
                    # Same link again: second failure must be ignored.
                    LinkEventSpec(time=0.2, kind="fail", link_index=2)))
        for backend in ("gpv", "ndlog"):
            _session, outcome = run_backend(backend, spec)
            assert outcome.converged

    def test_route_logs_match_for_extraction(self):
        """Both backends can feed the Sec. VI-B extraction workflow."""
        spec = gadget_spec("good")
        gpv_session, _ = run_backend("gpv", spec, log_routes=True)
        ndlog_session, _ = run_backend("ndlog", spec, log_routes=True)
        gpv_accepted = {(n, d, p) for n, d, _s, p in gpv_session.route_log}
        ndlog_accepted = {(n, d, p)
                          for n, d, _s, p in ndlog_session.route_log}
        assert gpv_accepted == ndlog_accepted
        assert gpv_accepted  # non-empty: the log actually recorded routes
