"""Tests for SPP extraction from runs (repro.experiments.extraction)."""

from repro.algebra import SPPAlgebra, good_gadget, ibgp_figure3_fixed
from repro.analysis import SafetyAnalyzer
from repro.experiments import extract_spp
from repro.ndlog.codegen import network_from_spp
from repro.protocols import GPVEngine


def run_logged(instance, seed=0):
    net = network_from_spp(instance)
    engine = GPVEngine(net, SPPAlgebra(instance), [instance.destination],
                       seed=seed)
    engine.sim.stats.route_log = []
    engine.run(until=30.0, max_events=200_000)
    return engine


class TestExtraction:
    def test_extracted_paths_are_permitted_originals(self):
        instance = good_gadget()
        engine = run_logged(instance)
        extracted = extract_spp(engine, "0")
        for node, paths in extracted.permitted.items():
            for path in paths:
                assert instance.is_permitted(path)

    def test_rankings_respect_algebra_preference(self):
        instance = ibgp_figure3_fixed()
        engine = run_logged(instance)
        extracted = extract_spp(engine, "0")
        algebra = SPPAlgebra(instance)
        for node, paths in extracted.permitted.items():
            for better, worse in zip(paths, paths[1:]):
                assert not algebra.better(worse, better)

    def test_extracted_instance_validates(self):
        engine = run_logged(good_gadget())
        extracted = extract_spp(engine, "0")
        extracted.validate()

    def test_custom_rank_key(self):
        engine = run_logged(good_gadget())
        extracted = extract_spp(
            engine, "0", rank_key=lambda node, sig, path: (len(path), path))
        for node, paths in extracted.permitted.items():
            lengths = [len(p) for p in paths]
            assert lengths == sorted(lengths)

    def test_extraction_feeds_analyzer(self):
        engine = run_logged(ibgp_figure3_fixed())
        extracted = extract_spp(engine, "0")
        report = SafetyAnalyzer().analyze(extracted)
        assert report.safe

    def test_custom_name(self):
        engine = run_logged(good_gadget())
        assert extract_spp(engine, "0", name="mine").name == "mine"
