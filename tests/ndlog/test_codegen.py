"""Tests for algebra→NDlog code generation (repro.ndlog.codegen)."""

import pytest

from repro.algebra import (
    PHI,
    SPPAlgebra,
    gao_rexford_a,
    gao_rexford_with_hopcount,
    good_gadget,
)
from repro.algebra.library import ShortestHopCount
from repro.ndlog import (
    deploy_gpv,
    generated_source,
    label_facts,
    make_functions,
    network_from_spp,
    origination_facts,
)
from repro.net import Network


class TestGeneratedFunctions:
    @pytest.fixture
    def funcs(self):
        return make_functions(gao_rexford_a())

    def test_f_better_strict(self, funcs):
        assert funcs.get("f_better")("C", "P")
        assert not funcs.get("f_better")("P", "R")

    def test_f_concat_sig(self, funcs):
        assert funcs.get("f_concatSig")("c", "P") == "C"

    def test_f_import_always_true_for_guideline_a(self, funcs):
        assert funcs.get("f_import")("c", "P")

    def test_f_export_filters(self, funcs):
        assert not funcs.get("f_export")("p", "P")
        assert funcs.get("f_export")("c", "P")

    def test_f_combine_loop_check(self, funcs):
        assert funcs.get("f_combine")("c", "C", ("v", "u"), "u") is PHI

    def test_f_combine_normal(self, funcs):
        assert funcs.get("f_combine")("c", "C", ("v", "d"), "u") == "C"

    def test_f_combine_phi_absorbs(self, funcs):
        assert funcs.get("f_combine")("c", PHI, ("v", "d"), "u") is PHI

    def test_f_export_sig_split_horizon(self, funcs):
        # Path ('u','n','d') advertised toward its own next hop 'n' → φ.
        assert funcs.get("f_exportSig")("c", "C", ("u", "n", "d"), "n") is PHI
        assert funcs.get("f_exportSig")("c", "C", ("u", "n", "d"), "x") == "C"

    def test_f_export_sig_filter(self, funcs):
        assert funcs.get("f_exportSig")("p", "P", ("u", "v", "d"), "x") is PHI

    def test_plain_algebra_fallbacks(self):
        funcs = make_functions(ShortestHopCount())
        assert funcs.get("f_concatSig")(1, 3) == 4
        assert funcs.get("f_import")(1, 3)
        assert funcs.get("f_export")(1, 3)

    def test_builtins_present(self, funcs):
        assert funcs.get("f_head")(("a", "b")) == "a"
        assert funcs.get("f_nexthop")(("a", "b")) == "b"
        assert funcs.get("f_contains")(("a", "b"), "b")
        assert funcs.get("f_concatPath")("x", ("a",)) == ("x", "a")

    def test_unknown_function_raises(self, funcs):
        with pytest.raises(KeyError):
            funcs.get("f_nonexistent")


class TestFacts:
    def test_label_facts_per_direction(self):
        net = Network()
        net.add_link("a", "b", label_ab="c", label_ba="p")
        facts = list(label_facts(net))
        assert ("a", ("a", "b", "c")) in facts
        assert ("b", ("b", "a", "p")) in facts

    def test_unlabelled_directions_skipped(self):
        net = Network()
        net.add_link("a", "b", label_ab="c")
        facts = list(label_facts(net))
        assert len(facts) == 1

    def test_origination_facts(self):
        net = Network()
        net.add_link("u", "d", label_ab="c", label_ba="p")
        facts = list(origination_facts(net, gao_rexford_a(), ["d"]))
        assert facts == [("u", ("u", "u", "d", "C", ("u", "d")))]

    def test_origination_skips_phi(self):
        instance = good_gadget()
        net = network_from_spp(instance)
        algebra = SPPAlgebra(instance)
        facts = list(origination_facts(net, algebra, ["0"]))
        sources = {node for node, _row in facts}
        assert sources == {"1", "2", "3"}


class TestDeployment:
    def test_deploy_gpv_runs_composed_policy(self):
        net = Network()
        # d -- u -- v chain: u is d's provider, v is u's provider.
        net.add_link("u", "d", label_ab=("c", 1), label_ba=("p", 1))
        net.add_link("v", "u", label_ab=("c", 1), label_ba=("p", 1))
        runtime = deploy_gpv(net, gao_rexford_with_hopcount(), ["d"])
        assert runtime.sim.run(until=10.0) == "quiescent"
        rows = runtime.table_rows("v", "localOpt")
        assert rows[0][2] == ("C", 2)
        assert rows[0][3] == ("v", "u", "d")


class TestGeneratedSource:
    def test_finite_algebra_rendering(self):
        source = generated_source(gao_rexford_a())
        assert "#def_func f_concatSig" in source
        assert "if (L=='c') && (S=='C') return 'C'" in source
        assert "f_export" in source

    def test_closed_form_rendering(self):
        source = generated_source(ShortestHopCount())
        assert "return L + S" in source
