"""Tests for SPP instances and their algebra conversion (Sec. III-B)."""

import pytest

from repro.algebra import (
    PHI,
    Pref,
    Rel,
    SPPAlgebra,
    SPPInstance,
    SPPValidationError,
)


@pytest.fixture
def triangle():
    """A small consistent instance: two nodes, one destination."""
    return SPPInstance.build("tri", "0", {
        "1": [("1", "0"), ("1", "2", "0")],
        "2": [("2", "0"), ("2", "1", "0")],
    })


class TestValidation:
    def test_path_must_start_at_node(self):
        with pytest.raises(SPPValidationError, match="does not start"):
            SPPInstance.build("bad", "0", {"1": [("2", "0")]})

    def test_path_must_end_at_destination(self):
        with pytest.raises(SPPValidationError, match="destination"):
            SPPInstance.build("bad", "0", {"1": [("1", "2")]})

    def test_no_loops(self):
        with pytest.raises(SPPValidationError, match="loop"):
            SPPInstance.build("bad", "0", {
                "1": [("1", "2", "1", "0")]})

    def test_no_duplicates(self):
        with pytest.raises(SPPValidationError, match="duplicate"):
            SPPInstance.build("bad", "0", {
                "1": [("1", "0"), ("1", "0")]})

    def test_no_empty_paths(self):
        with pytest.raises(SPPValidationError, match="empty"):
            SPPInstance.build("bad", "0", {"1": [()]})

    def test_missing_edge_detected(self):
        instance = SPPInstance(name="bad", destination="0",
                               edges={frozenset(("1", "0"))},
                               permitted={"1": [("1", "2", "0")]})
        with pytest.raises(SPPValidationError, match="missing edge"):
            instance.validate()


class TestQueries:
    def test_rank_of(self, triangle):
        assert triangle.rank_of(("1", "0")) == 0
        assert triangle.rank_of(("1", "2", "0")) == 1

    def test_is_permitted(self, triangle):
        assert triangle.is_permitted(("1", "2", "0"))
        assert not triangle.is_permitted(("2", "1", "2"))
        assert triangle.is_permitted(("0",))  # trivial path at destination

    def test_path_name_default(self, triangle):
        assert triangle.path_name(("1", "2", "0")) == "120"

    def test_display_name_override(self):
        instance = SPPInstance.build(
            "named", "0", {"a": [("a", "0")]},
            display_names={("a", "0"): "r1"})
        assert instance.path_name(("a", "0")) == "r1"

    def test_all_paths_order(self, triangle):
        assert triangle.all_paths() == [
            ("1", "0"), ("1", "2", "0"), ("2", "0"), ("2", "1", "0")]

    def test_str_renders_rankings(self, triangle):
        assert "1: 10 > 120" in str(triangle)


class TestSPPAlgebra:
    @pytest.fixture
    def algebra(self, triangle):
        return SPPAlgebra(triangle)

    def test_signatures_are_paths(self, algebra, triangle):
        assert algebra.signatures() == triangle.all_paths()

    def test_labels_are_directed_edge_constants(self, algebra):
        labels = algebra.labels()
        assert ("l", "1", "2") in labels
        assert ("l", "2", "1") in labels
        assert len(labels) == 6  # three undirected edges

    def test_oplus_extends_permitted(self, algebra):
        assert algebra.oplus(("l", "1", "2"), ("2", "0")) == ("1", "2", "0")

    def test_oplus_not_permitted_is_phi(self, algebra):
        # (2,1,2,0)-style extensions or unlisted paths are prohibited.
        assert algebra.oplus(("l", "2", "1"), ("1", "2", "0")) is PHI

    def test_oplus_wrong_source_is_phi(self, algebra):
        assert algebra.oplus(("l", "1", "2"), ("1", "0")) is PHI

    def test_oplus_phi_absorbs(self, algebra):
        assert algebra.oplus(("l", "1", "2"), PHI) is PHI

    def test_origin_signature(self, algebra):
        assert algebra.origin_signature(("l", "1", "0")) == ("1", "0")
        assert algebra.origin_signature(("l", "1", "2")) is PHI

    def test_preference_same_node_by_rank(self, algebra):
        assert algebra.preference(("1", "0"), ("1", "2", "0")) is Pref.BETTER

    def test_preference_phi(self, algebra):
        assert algebra.preference(PHI, ("1", "0")) is Pref.WORSE

    def test_preference_statements_are_ranking_chains(self, algebra):
        statements = algebra.preference_statements()
        assert len(statements) == 2  # one per node with two paths
        assert all(s.rel is Rel.STRICT for s in statements)
        origins = {s.origin for s in statements}
        assert origins == {"rank[1]", "rank[2]"}

    def test_mono_entries_require_permitted_tail(self, algebra):
        entries = algebra.mono_entries()
        results = {e.result for e in entries}
        assert results == {("1", "2", "0"), ("2", "1", "0")}

    def test_mono_entry_skips_unpermitted_tail(self):
        # Node 1 may use (1,2,0) even though node 2 does not list (2,0).
        instance = SPPInstance.build("partial", "0", {
            "1": [("1", "2", "0")],
            "2": [("2", "1", "0")],
        })
        entries = SPPAlgebra(instance).mono_entries()
        assert entries == []
