"""Canonical algebra keys: equality exactly when the constraints agree
(up to relabeling for table algebras; by name for SPP instances)."""

import random

import pytest

from repro.algebra import (
    GADGET_ZOO,
    SPPInstance,
    ShortestHopCount,
    ShortestPath,
    bad_gadget,
    disagree,
    disagree_chain,
    gao_rexford_a,
    gao_rexford_b,
    gao_rexford_with_hopcount,
    replicate,
    safe_backup,
)
from repro.algebra.extended import AlgebraTables, TableAlgebra
from repro.campaigns import ScenarioGenerator, canonical_key, evaluate
from repro.obs import metrics


def relabel(algebra: TableAlgebra, rng: random.Random) -> TableAlgebra:
    """A random renaming of every label and signature of ``algebra``."""
    t = algebra.tables
    fresh = [f"x{i}" for i in range(len(t.labels) + len(t.signatures))]
    rng.shuffle(fresh)
    label = dict(zip(t.labels, fresh))
    sig = dict(zip(t.signatures, fresh[len(t.labels):]))
    return TableAlgebra("relabeled", AlgebraTables(
        labels=[label[l] for l in t.labels],
        signatures=[sig[s] for s in t.signatures],
        preference={sig[s]: rank for s, rank in t.preference.items()},
        concat={(label[l], sig[s]): sig.get(out, out)
                for (l, s), out in t.concat.items()},
        reverse={label[l]: label[r] for l, r in t.reverse.items()},
        import_filter=frozenset((label[l], sig[s])
                                for l, s in t.import_filter),
        export_filter=frozenset((label[l], sig[s])
                                for l, s in t.export_filter),
        origination={label[l]: sig[s] for l, s in t.origination.items()},
    ))


def keyed_outcomes() -> dict:
    return {outcome: metrics.counter("repro_canonical_keys_total",
                                     outcome=outcome).value
            for outcome in ("canonical", "raw-symmetric", "raw-size")}


class TestSPPKeys:
    def test_name_is_irrelevant(self):
        original = disagree()
        renamed = SPPInstance.build("completely-different-name",
                                    original.destination,
                                    original.permitted)
        assert canonical_key(original) == canonical_key(renamed)

    def test_structure_changes_the_key(self):
        assert canonical_key(disagree()) != canonical_key(bad_gadget())
        assert canonical_key(bad_gadget()) != \
            canonical_key(replicate(bad_gadget(), 2))

    def test_ranking_order_changes_the_key(self):
        base = disagree()
        flipped = SPPInstance.build(
            base.name, base.destination,
            {node: list(reversed(paths))
             for node, paths in base.permitted.items()})
        assert canonical_key(base) != canonical_key(flipped)


class TestIsomorphismInvariance:
    def test_random_relabelings_share_the_key(self):
        """Relabeled table algebras → identical keys, none of them raw."""
        rng = random.Random(5)
        for algebra in (gao_rexford_a(), safe_backup(4)):
            key = canonical_key(algebra)
            assert key[0] == "table3"
            for _ in range(8):
                assert canonical_key(relabel(algebra, rng)) == key

    def test_twin_labels_fall_back_to_a_raw_key(self):
        """Two labels with identical rows, each the other's reverse:
        refinement cannot tell them apart, so the key is name-faithful
        and counted as ``raw-symmetric``."""
        twins = TableAlgebra("twins", AlgebraTables(
            labels=["a", "b"], signatures=["s", "t"],
            preference={"s": 0, "t": 1},
            concat={("a", "s"): "t", ("b", "s"): "t"},
            reverse={"a": "b", "b": "a"},
            origination={"a": "s", "b": "s"}))
        before = keyed_outcomes()
        assert canonical_key(twins)[0] == "table-raw"
        after = keyed_outcomes()
        assert after["raw-symmetric"] == before["raw-symmetric"] + 1
        assert after["canonical"] == before["canonical"]

    def test_no_collisions_across_the_zoo(self):
        """Non-isomorphic instances → distinct keys (cache soundness)."""
        subjects = [build() for build in GADGET_ZOO.values()]
        subjects += [replicate(disagree(), 2), replicate(disagree(), 3),
                     replicate(bad_gadget(), 2),
                     disagree_chain(3, 0.0), disagree_chain(4, 0.5)]
        seen = {}
        for instance in subjects:
            key = canonical_key(instance)
            assert key not in seen, \
                f"collision: {instance.name} vs {seen.get(key)}"
            seen[key] = instance.name

    def test_keys_stay_reprable_and_parseable(self):
        """The verdict store addresses by repr(); it must round-trip."""
        import ast

        for build in GADGET_ZOO.values():
            key = canonical_key(build())
            assert ast.literal_eval(repr(key)) == key


class TestCorpusKeys:
    """Every table algebra of the benchmark corpora refines to a discrete
    colouring: no name-faithful fallback (``spp-keying`` keys no table at
    all — its SPP subjects are keyed by name)."""

    @pytest.mark.parametrize("families,count,tables", [
        (None, 90, 30),                # `rotation`: the default campaign
        (("gadget", "ibgp"), 24, 0),   # `spp-keying`
    ])
    def test_no_raw_table_keys(self, families, count, tables):
        before = keyed_outcomes()
        for spec in ScenarioGenerator(7, families=families).generate(count):
            assert not evaluate(spec).error
        spent = {outcome: value - before[outcome]
                 for outcome, value in keyed_outcomes().items()}
        assert spent["raw-symmetric"] == spent["raw-size"] == 0
        assert spent["canonical"] >= tables


class TestTableAndProductKeys:
    def test_reconstructed_table_algebra_hits_the_same_key(self):
        assert canonical_key(gao_rexford_a()) == canonical_key(gao_rexford_a())

    def test_distinct_guidelines_differ(self):
        assert canonical_key(gao_rexford_a()) != canonical_key(gao_rexford_b())
        assert canonical_key(safe_backup(3)) != canonical_key(safe_backup(4))

    def test_product_key_is_the_component_pair(self):
        key = canonical_key(gao_rexford_with_hopcount("a"))
        assert key[0] == "product"
        assert key[1] == canonical_key(gao_rexford_a())
        assert canonical_key(gao_rexford_with_hopcount("a")) == key
        assert canonical_key(gao_rexford_with_hopcount("b")) != key


class TestClosedFormKeys:
    def test_same_construction_same_key(self):
        assert canonical_key(ShortestHopCount()) == \
            canonical_key(ShortestHopCount())
        assert canonical_key(ShortestPath((1, 5))) == \
            canonical_key(ShortestPath((5, 1)))  # label *set* is what counts

    def test_vocabulary_changes_the_key(self):
        assert canonical_key(ShortestPath((1, 5))) != \
            canonical_key(ShortestPath((1, 7)))

    def test_keys_are_hashable(self):
        keys = {canonical_key(a) for a in (
            ShortestHopCount(), ShortestPath((1, 2)), gao_rexford_a(),
            gao_rexford_with_hopcount("a"), disagree(), safe_backup(4))}
        assert len(keys) == 6
