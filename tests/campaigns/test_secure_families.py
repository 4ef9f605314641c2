"""Secure-routing families: generation, deployment bitmaps, hijack
campaigns, the differential verdict, and the report round-trip."""

import pytest

from repro.algebra.secure import HIJACK, SecureAlgebra
from repro.analysis.safety import SafetyAnalyzer
from repro.campaigns import (
    FAMILIES,
    CampaignConfig,
    CampaignRunner,
    ScenarioGenerator,
    evaluate,
    materialize,
)
from repro.campaigns.report import result_from_record, result_record
from repro.campaigns.scenarios import resolve_deployment
from repro.campaigns.spec import (
    DEPLOYMENT_MODES,
    SECURE_BASE_ALGEBRAS,
    LinkEventSpec,
    ScenarioSpec,
)

BACKENDS = ("gpv", "ndlog", "batch")


def hijack_spec(seed, deployment, fraction, *, attacker_index=3,
                algebra="rov-filter:gr-a-hopcount", roa=True):
    return ScenarioSpec(
        scenario_id=0, family="secure-hijack", algebra=algebra, seed=seed,
        params=(("as_count", 10), ("peer_fraction", 0.15),
                ("destinations", 1), ("roa", roa),
                ("deployment", deployment),
                ("deployment_fraction", fraction)),
        until=60.0, max_events=120_000,
        events=(LinkEventSpec(time=0.25, kind="hijack", link_index=0,
                              attacker_index=attacker_index),))


class TestGeneration:
    def test_rotation_includes_secure_families(self):
        assert "secure-rov" in FAMILIES and "secure-hijack" in FAMILIES
        specs = ScenarioGenerator(0).generate(len(FAMILIES))
        assert {s.family for s in specs} >= {"secure-rov", "secure-hijack"}

    def test_secure_specs_draw_wrapped_algebras_and_deployment(self):
        specs = ScenarioGenerator(
            3, families=("secure-rov", "secure-hijack")).generate(16)
        for spec in specs:
            prefix, base = spec.algebra.split(":", 1)
            assert base in SECURE_BASE_ALGEBRAS
            variant, _, mode = prefix.partition("-")
            assert variant in ("rov", "bgpsec")
            assert mode in ("filter", "deprioritize")
            assert spec.param("deployment") in DEPLOYMENT_MODES
            assert 0.0 <= spec.param("deployment_fraction") <= 1.0

    def test_hijack_specs_carry_a_seeded_attacker(self):
        specs = ScenarioGenerator(
            5, families=("secure-hijack",)).generate(8)
        for spec in specs:
            hijacks = [e for e in spec.events if e.kind == "hijack"]
            assert len(hijacks) == 1
            assert hijacks[0].attacker_index is not None

    def test_deployment_override_pins_the_mode(self):
        specs = ScenarioGenerator(
            3, families=("secure-rov",), deployment="full").generate(6)
        assert all(s.param("deployment") == "full" for s in specs)
        with pytest.raises(ValueError):
            ScenarioGenerator(0, deployment="everyone")

    def test_specs_are_deterministic(self):
        families = ("secure-rov", "secure-hijack")
        assert ScenarioGenerator(9, families=families).generate(8) \
            == ScenarioGenerator(9, families=families).generate(8)


class TestSpecRoundTrip:
    """``to_dict``/``from_dict`` must reconstruct the hijack exactly."""

    def test_attacker_event_and_deployment_round_trip(self):
        spec = hijack_spec(4, "random", 0.5, attacker_index=17)
        back = ScenarioSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.events[0].kind == "hijack"
        assert back.events[0].attacker_index == 17
        assert back.param("deployment") == "random"
        assert back.param("deployment_fraction") == 0.5

    def test_generated_secure_specs_round_trip(self):
        for spec in ScenarioGenerator(
                11, families=("secure-rov", "secure-hijack")).generate(10):
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestMaterialization:
    def test_labels_are_lifted_with_the_deployment_bitmap(self):
        spec = hijack_spec(0, "top-degree", 0.5)
        scenario = materialize(spec)
        assert isinstance(scenario.algebra, SecureAlgebra)
        deployed = resolve_deployment(scenario.network, spec)
        assert deployed  # half the nodes deploy
        for link in scenario.network.links():
            for importer, exporter in ((link.a, link.b), (link.b, link.a)):
                bit, _base = link.labels[(importer, exporter)]
                assert bit == (1 if importer in deployed else 0)

    def test_deployment_mode_endpoints(self):
        scenario = materialize(hijack_spec(0, "none", 0.0))
        assert resolve_deployment(scenario.network,
                                  scenario.spec) == set()
        scenario = materialize(hijack_spec(0, "full", 1.0))
        assert resolve_deployment(scenario.network, scenario.spec) \
            == set(scenario.network.nodes())

    def test_random_deployment_is_seed_stable(self):
        spec = hijack_spec(6, "random", 0.5)
        first = resolve_deployment(materialize(spec).network, spec)
        second = resolve_deployment(materialize(spec).network, spec)
        assert first == second

    def test_hijack_resolves_to_a_non_neighbor_attacker(self):
        scenario = materialize(hijack_spec(0, "none", 0.0))
        assert scenario.attacker is not None
        assert scenario.hijack_dest in scenario.destinations
        assert not scenario.network.has_link(scenario.attacker,
                                             scenario.hijack_dest)
        resolved = [e for e in scenario.events if e.kind == "hijack"]
        assert len(resolved) == 1
        assert resolved[0].a == scenario.attacker
        assert resolved[0].label[0] == HIJACK

    def test_secure_rov_scenarios_have_no_attacker(self):
        spec = ScenarioGenerator(1, families=("secure-rov",)).make(0)
        scenario = materialize(spec)
        assert scenario.attacker is None
        assert all(e.kind != "hijack" for e in scenario.events)


class TestAnalysisAdmission:
    def test_secure_wrapper_gets_a_composition_certificate(self):
        scenario = materialize(hijack_spec(0, "none", 0.0))
        report = SafetyAnalyzer().analyze(scenario.algebra)
        assert report.safe
        assert report.method == "composition"
        assert report.strictly_monotonic


class TestDifferentialOracle:
    def test_backends_agree_and_verdict_is_recorded(self):
        result = evaluate(hijack_spec(0, "none", 0.0), BACKENDS)
        assert result.classification == "safe-converged"
        assert not result.is_disagreement
        assert {o.backend for o in result.outcomes} \
            == {"gpv", "ndlog", "batch"}
        hijack = result.hijack
        assert hijack["wins"] is True
        assert hijack["victims"]["gpv"] > 0
        assert hijack["attacker"] and hijack["dest"]

    def test_full_filter_deployment_with_roa_defeats_the_hijack(self):
        result = evaluate(hijack_spec(0, "full", 1.0), BACKENDS)
        assert not result.is_disagreement
        assert result.hijack["wins"] is False
        assert all(count == 0
                   for count in result.hijack["victims"].values())

    def test_victim_count_is_monotone_in_deployment(self):
        counts = []
        for mode, fraction in (("none", 0.0), ("random", 0.5),
                               ("full", 1.0)):
            result = evaluate(hijack_spec(0, mode, fraction), BACKENDS)
            assert not result.is_disagreement
            counts.append(result.hijack["victims"]["gpv"])
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] > 0 and counts[2] == 0

    def test_undeployed_rov_cannot_act_without_a_roa(self):
        # roa=False: forged and legitimate originations both validate
        # "nf", so even full rov deployment filters nothing.
        wins = evaluate(
            hijack_spec(0, "full", 1.0, roa=False), BACKENDS).hijack
        assert wins["victims"]["gpv"] \
            == evaluate(hijack_spec(0, "none", 0.0, roa=False),
                        BACKENDS).hijack["victims"]["gpv"]

    def test_non_hijack_results_carry_no_verdict(self):
        spec = ScenarioGenerator(1, families=("secure-rov",)).make(0)
        assert evaluate(spec, BACKENDS).hijack is None

    def test_hijack_verdict_round_trips_through_the_record(self):
        result = evaluate(hijack_spec(0, "none", 0.0), BACKENDS)
        back = result_from_record(result_record(result))
        assert back.hijack == result.hijack
        assert back.spec == result.spec

    def test_the_hijack_tally_does_not_depend_on_retention(self):
        """The summary counts hijack verdicts as results stream past, so
        a streamed campaign (``keep_results=False``, as every CLI run)
        prints the same line as one that keeps its results."""
        def hijack_line(keep_results: bool) -> str:
            specs = ScenarioGenerator(
                7, families=("secure-hijack",)).iter_specs(12)
            report = CampaignRunner(CampaignConfig(
                keep_results=keep_results)).run(specs)
            lines = [line for line in report.summary().splitlines()
                     if "hijack verdicts:" in line]
            assert len(lines) == 1, report.summary()
            return lines[0]

        assert hijack_line(False) == hijack_line(True)
