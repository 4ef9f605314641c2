"""Tests for the physical network model (repro.net.network)."""

import pytest

from repro.net import Network


@pytest.fixture
def diamond():
    net = Network("diamond")
    net.add_link("a", "b", weight=1, label_ab="x", label_ba="y")
    net.add_link("b", "d", weight=2)
    net.add_link("a", "c", weight=2)
    net.add_link("c", "d", weight=2)
    return net


def assert_index_agrees_with_links(net: Network) -> None:
    """``link``/``has_link``/``label`` answer from a per-direction index;
    it must describe exactly the links ``links()`` iterates."""
    links = list(net.links())
    ends = {link.ends for link in links}
    assert len(ends) == len(links) == net.link_count()
    for link in links:
        for u, v in ((link.a, link.b), (link.b, link.a)):
            assert net.link(u, v) is link
            assert net.label(u, v) == link.labels.get((u, v))
    for u in net.nodes():
        for v in net.nodes():
            assert net.has_link(u, v) == (frozenset((u, v)) in ends)


class TestConstruction:
    def test_nodes_created_implicitly(self, diamond):
        assert set(diamond.nodes()) == {"a", "b", "c", "d"}

    def test_counts(self, diamond):
        assert diamond.node_count() == 4
        assert diamond.link_count() == 4

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Network().add_link("a", "a")

    def test_node_attrs(self):
        net = Network()
        net.add_node("a", role="backbone")
        assert net.node_attrs("a")["role"] == "backbone"

    def test_replacing_link_keeps_single_adjacency(self):
        net = Network()
        net.add_link("a", "b", weight=1)
        net.add_link("a", "b", weight=9)
        assert net.neighbors("a") == ["b"]
        assert net.link("a", "b").weight == 9

    def test_has_node(self, diamond):
        assert diamond.has_node("a")
        assert not diamond.has_node("zzz")


class TestDirectedIndex:
    def test_after_add_link(self, diamond):
        assert_index_agrees_with_links(diamond)

    def test_after_replacing_link_in_either_orientation(self, diamond):
        old = diamond.link("a", "b")
        diamond.add_link("b", "a", weight=9, label_ab="q")
        assert diamond.link("a", "b") is not old
        assert diamond.link("a", "b").weight == 9
        assert diamond.label("b", "a") == "q"
        assert diamond.label("a", "b") is None
        assert_index_agrees_with_links(diamond)

    def test_after_remove_link_in_either_orientation(self, diamond):
        diamond.remove_link("b", "a")
        assert not diamond.has_link("a", "b")
        assert not diamond.has_link("b", "a")
        with pytest.raises(KeyError):
            diamond.link("b", "a")
        assert_index_agrees_with_links(diamond)
        diamond.add_link("a", "b", label_ab="again")
        assert diamond.label("a", "b") == "again"
        assert_index_agrees_with_links(diamond)

    def test_after_set_label(self, diamond):
        diamond.set_label("d", "b", "z")
        assert diamond.label("d", "b") == "z"
        assert diamond.label("b", "d") is None
        assert_index_agrees_with_links(diamond)

    def test_relabeled_copy_has_its_own_index(self, diamond):
        mapped = diamond.relabeled(lambda lb: lb.upper())
        assert_index_agrees_with_links(mapped)
        assert mapped.label("b", "a") == "Y"
        mapped.remove_link("a", "b")
        assert diamond.has_link("a", "b")
        assert_index_agrees_with_links(diamond)


class TestQueries:
    def test_neighbors(self, diamond):
        assert set(diamond.neighbors("a")) == {"b", "c"}

    def test_link_lookup_both_orders(self, diamond):
        assert diamond.link("a", "b") is diamond.link("b", "a")

    def test_missing_link_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.link("a", "d")

    def test_directed_labels(self, diamond):
        assert diamond.label("a", "b") == "x"
        assert diamond.label("b", "a") == "y"
        assert diamond.label("b", "d") is None

    def test_set_label(self, diamond):
        diamond.set_label("b", "d", "z")
        assert diamond.label("b", "d") == "z"

    def test_link_other(self, diamond):
        link = diamond.link("a", "b")
        assert link.other("a") == "b"
        with pytest.raises(KeyError):
            link.other("zzz")

    def test_transmission_delay(self, diamond):
        link = diamond.link("a", "b")
        assert link.transmission_delay(1250) == pytest.approx(
            1250 * 8 / link.bandwidth_bps)


class TestGraphAlgorithms:
    def test_shortest_path_costs(self, diamond):
        costs = diamond.shortest_path_costs("a")
        assert costs == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_connected(self, diamond):
        assert diamond.connected()
        diamond.add_node("island")
        assert not diamond.connected()
        assert diamond.connected(among=["a", "b", "c", "d"])

    def test_connected_empty(self):
        assert Network().connected()


class TestMutation:
    def test_remove_link(self, diamond):
        diamond.remove_link("a", "b")
        assert not diamond.has_link("a", "b")
        assert "b" not in diamond.neighbors("a")

    def test_remove_missing_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.remove_link("a", "d")

    def test_relabeled(self, diamond):
        mapped = diamond.relabeled(lambda lb: (lb, 1))
        assert mapped.label("a", "b") == ("x", 1)
        assert mapped.label("b", "d") is None
        # Original untouched.
        assert diamond.label("a", "b") == "x"

    def test_relabeled_preserves_structure(self, diamond):
        mapped = diamond.relabeled(lambda lb: lb)
        assert mapped.node_count() == diamond.node_count()
        assert mapped.link_count() == diamond.link_count()
        assert mapped.link("b", "d").weight == 2


class TestCopy:
    """``copy()`` feeds the later scalar backends of one evaluation:
    iteration order is behaviour, and the copy must be independent."""

    @pytest.fixture
    def worn(self):
        """A network whose orders differ from any sorted rebuild."""
        net = Network("worn")
        net.add_node("z", role="stub")
        net.add_link("b", "a", label_ab="ba", label_ba="ab", weight=3,
                     latency_s=0.02, tier=1)
        net.add_link("z", "a", label_ab="za")
        net.add_link("c", "b", label_ba="bc")
        net.add_link("a", "c")
        net.add_link("a", "b", label_ab="AB", weight=5)  # replaced in place
        net.remove_link("z", "a")
        net.add_link("a", "z", label_ba="za2")  # re-added: now last
        net.set_label("a", "c", "late")  # a label added after the fact
        return net

    def test_orders_labels_and_attrs_carry_over(self, worn):
        twin = worn.copy()
        assert twin.name == worn.name
        assert twin.nodes() == worn.nodes()
        assert [twin.node_attrs(n) for n in twin.nodes()] == \
            [worn.node_attrs(n) for n in worn.nodes()]
        assert [twin.neighbors(n) for n in twin.nodes()] == \
            [worn.neighbors(n) for n in worn.nodes()]
        assert [(l.a, l.b) for l in twin.links()] == \
            [(l.a, l.b) for l in worn.links()]
        for mine, theirs in zip(twin.links(), worn.links()):
            assert mine == theirs and mine is not theirs
            assert list(mine.labels.items()) == list(theirs.labels.items())
        assert_index_agrees_with_links(twin)

    def test_the_copy_is_independent(self, worn):
        twin = worn.copy()
        twin.remove_link("a", "b")
        twin.set_label("c", "b", "relabelled")
        twin.node_attrs("z")["role"] = "core"
        twin.link("a", "c").attrs["tier"] = 9
        assert worn.has_link("a", "b") and "b" in worn.neighbors("a")
        assert worn.label("c", "b") is None
        assert worn.node_attrs("z") == {"role": "stub"}
        assert "tier" not in worn.link("a", "c").attrs
        assert_index_agrees_with_links(worn)
        assert_index_agrees_with_links(twin)
