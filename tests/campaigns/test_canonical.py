"""Canonical keys: equality exactly when the constraints agree, under
the subject's own names."""

import dataclasses
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
from repro.campaigns import cached_verdict, canonical_key, clear_verdict_cache


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
    """Keys never collide across different subjects, and round-trip."""

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


class TestTableAndProductKeys:
    @pytest.mark.parametrize("build", [gao_rexford_a, lambda: safe_backup(4)],
                             ids=["gr-a", "safe-backup-4"])
    def test_a_relabeled_table_is_a_miss_with_the_same_verdict(self, build):
        """Table keys are name-faithful: a renamed copy gets its own key
        and, being isomorphic, the same verdict."""
        clear_verdict_cache()
        original = build()
        relabeled = relabel(original, random.Random(5))
        assert canonical_key(relabeled) != canonical_key(original)
        safe, method, hit = cached_verdict(original)
        assert not hit
        assert cached_verdict(original) == (safe, method, True)
        assert cached_verdict(relabeled) == (safe, method, False)

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(AlgebraTables)])
    def test_one_entry_of_any_field_changes_the_key(self, field):
        t = gao_rexford_a().tables
        label, sig = t.labels[0], t.signatures[0]
        (step, out), *_ = t.concat.items()

        def other(values, than):
            return next(value for value in values if value != than)

        changed = {
            "labels": {"labels": [*t.labels[:-1], "fresh"]},
            # A signature needs its rank: the renamed one keeps it.
            "signatures": {
                "signatures": ["fresh", *t.signatures[1:]],
                "preference": {("fresh" if s == sig else s): rank
                               for s, rank in t.preference.items()}},
            "preference": {"preference": {**t.preference,
                                          sig: t.preference[sig] + 5}},
            "concat": {"concat": {**t.concat,
                                  step: other(t.signatures, out)}},
            "reverse": {"reverse": {**t.reverse,
                                    label: other(t.labels, t.reverse[label])}},
            "import_filter": {"import_filter": t.import_filter ^ {(label, sig)}},
            "export_filter": {"export_filter": t.export_filter ^ {(label, sig)}},
            "origination": {"origination": {
                **t.origination,
                label: other(t.signatures, t.origination[label])}},
        }[field]
        variant = TableAlgebra("variant", dataclasses.replace(t, **changed))
        assert canonical_key(variant) != canonical_key(gao_rexford_a())

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
