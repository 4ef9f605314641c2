"""Smoke tests for the figure harnesses (small parameters, fast)."""

import pytest

from repro.experiments import (
    convergence,
    hlp_study,
    ibgp_study,
    bad_gadget_run,
    disagree_sweep,
    figure6_study,
    format_figure6,
    format_runs,
    format_series,
    good_gadget_scaling,
    run_depth,
    threshold_sweep,
    worst_case_bound,
)
from repro.topology import make_ibgp_config, rocketfuel_like


class TestFigure4:
    def test_worst_case_bound(self):
        assert worst_case_bound(10) == 22.0
        assert worst_case_bound(3, batch_interval=0.5) == 4.0

    @pytest.mark.parametrize("depth", [3, 5])
    def test_run_depth_converges_below_bound(self, depth):
        point = run_depth(depth, seed=depth, max_nodes=40)
        assert point.converged
        assert point.depth == depth
        assert 0 < point.convergence_s <= point.worst_case_s

    def test_testbed_profile_tracks_sim(self):
        sim_point = run_depth(4, seed=4, max_nodes=30, profile="sim")
        testbed_point = run_depth(4, seed=4, max_nodes=30, profile="testbed")
        assert testbed_point.converged
        # Phases are batching-dominated, so the curves stay close.
        assert abs(sim_point.convergence_s
                   - testbed_point.convergence_s) <= 2.0

    def test_format_series(self):
        point = run_depth(3, seed=3, max_nodes=30)
        text = format_series([point], label="TEST")
        assert "TEST" in text and "chain" in text


class TestFigure6Small:
    @pytest.fixture(scope="class")
    def results(self):
        return figure6_study(seed=1, domains=3, nodes_per_domain=6,
                             cross_links=8, until=30.0)

    def test_all_converge(self, results):
        assert all(r.converged for r in results)

    def test_mechanism_names(self, results):
        assert [r.mechanism for r in results] == ["PV", "HLP", "HLP-CH"]

    def test_cost_hiding_not_more_expensive(self, results):
        pv, hlp, hlp_ch = results
        assert hlp_ch.per_node_mb <= hlp.per_node_mb + 1e-9

    def test_format(self, results):
        assert "PV" in format_figure6(results)

    def test_threshold_sweep_monotone_messages(self):
        sweep = threshold_sweep(thresholds=(0, 20), seed=1, domains=3,
                                nodes_per_domain=6, cross_links=8)
        assert sweep[0].messages >= sweep[-1].messages


class TestGadgetStudies:
    def test_good_gadget_scaling_grows(self):
        runs = good_gadget_scaling(copies=(1, 4), seed=0)
        assert all(r.converged and r.safe_verdict for r in runs)
        assert runs[1].messages > runs[0].messages

    def test_bad_gadget_diverges(self):
        run = bad_gadget_run(seed=0, until=5.0)
        assert not run.safe_verdict
        assert not run.converged

    def test_disagree_sweep_slows_with_conflict(self):
        runs = disagree_sweep(fractions=(0.0, 1.0), pairs=4, seed=0,
                              until=120.0)
        assert all(r.converged for r in runs)
        assert runs[1].convergence_s >= runs[0].convergence_s

    def test_format_runs(self):
        runs = good_gadget_scaling(copies=(1,), seed=0)
        assert "instance" in format_runs(runs, "title")


class TestBackendConstant:
    """Each harness's ``BACKEND`` is its only engine switch, and the
    generated program draws the same figures as the native engine."""

    @staticmethod
    def _both(monkeypatch, module, run):
        results = {}
        for backend in ("gpv", "ndlog"):
            monkeypatch.setattr(module, "BACKEND", backend)
            results[backend] = run()
        return results["gpv"], results["ndlog"]

    def test_figure4_point(self, monkeypatch):
        gpv, ndlog = self._both(monkeypatch, convergence,
                                lambda: run_depth(4, seed=4, max_nodes=30))
        assert gpv.converged
        assert ndlog == gpv

    def test_figure5_configuration(self, monkeypatch):
        """The scaled-down configuration of ``examples/ibgp_debugging.py``."""
        router_net = rocketfuel_like(30, 60, seed=11)
        config = make_ibgp_config(router_net, seed=11, embed_gadget=True,
                                  levels=3, reflector_count=12,
                                  egress_count=4)
        gpv, ndlog = self._both(
            monkeypatch, ibgp_study,
            lambda: ibgp_study.run_configuration(config, seed=0))
        assert gpv.core_nodes
        for field in ("messages", "total_mb", "convergence_s", "bandwidth",
                      "core_nodes"):
            assert getattr(ndlog, field) == getattr(gpv, field), field

    def test_figure6_path_vector(self, monkeypatch):
        gpv, ndlog = self._both(
            monkeypatch, hlp_study,
            lambda: figure6_study(seed=1, domains=3, nodes_per_domain=6,
                                  cross_links=8, mechanisms=("PV",)))
        assert gpv[0].converged
        assert ndlog == gpv
