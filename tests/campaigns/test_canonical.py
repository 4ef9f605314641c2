"""Canonical algebra keys: equality exactly when the constraints agree
(up to relabeling, since the isomorphism-invariant v3 keys)."""

import functools
import itertools
import random

import pytest

from repro.algebra import (
    GADGET_ZOO,
    SPPAlgebra,
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
from repro.campaigns import (
    ScenarioGenerator,
    canonical,
    canonical_key,
    evaluate,
    perturb_rankings,
)
from repro.obs import metrics


def relabel(instance: SPPInstance, rng: random.Random) -> SPPInstance:
    """A uniformly random node renaming of ``instance``."""
    nodes = sorted({n for e in instance.edges for n in e} |
                   set(instance.permitted) | {instance.destination})
    fresh = [f"x{i}" for i in range(len(nodes))]
    rng.shuffle(fresh)
    mapping = dict(zip(nodes, fresh))
    permitted = {mapping[n]: [tuple(mapping[m] for m in path)
                              for path in paths]
                 for n, paths in instance.permitted.items()}
    return SPPInstance.build(
        "relabeled", mapping[instance.destination], permitted,
        extra_edges=[tuple(sorted(mapping[m] for m in e))
                     for e in instance.edges])


class TestSPPKeys:
    def test_name_is_irrelevant(self):
        original = disagree()
        renamed = SPPInstance.build("completely-different-name",
                                    original.destination,
                                    original.permitted)
        assert canonical_key(original) == canonical_key(renamed)

    def test_algebra_wrapper_shares_the_instance_key(self):
        instance = disagree()
        assert canonical_key(instance) == canonical_key(SPPAlgebra(instance))

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
        """Isomorphic instances → identical keys, across the whole zoo."""
        rng = random.Random(5)
        subjects = [build() for build in GADGET_ZOO.values()]
        subjects += [replicate(disagree(), 3), replicate(bad_gadget(), 2),
                     disagree_chain(6, 0.5), disagree_chain(8, 1.0)]
        for kind in ("disagree", "figure3", "bad"):
            subjects.append(
                perturb_rankings(GADGET_ZOO[kind](), 0.9, rng))
        for instance in subjects:
            key = canonical_key(instance)
            for _ in range(8):
                assert canonical_key(relabel(instance, rng)) == key, \
                    instance.name

    def test_no_collisions_across_the_zoo(self):
        """Non-isomorphic instances → distinct keys (cache soundness)."""
        rng = random.Random(9)
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

    def test_cross_family_isomorphs_unify(self):
        """A fully conflicted chain IS k replicated DISAGREEs — the
        canonical key sees through the different constructors."""
        assert canonical_key(disagree_chain(2, 1.0)) == \
            canonical_key(replicate(disagree(), 2))
        assert canonical_key(disagree_chain(2, 1.0)) != \
            canonical_key(disagree_chain(2, 0.0))

    def test_symmetric_perturbations_collapse(self):
        """disagree perturbed at node 1 ≅ perturbed at node 2."""
        base = disagree()
        flipped_one = SPPInstance.build(
            "p1", base.destination,
            {"1": list(reversed(base.permitted["1"])),
             "2": base.permitted["2"]})
        flipped_two = SPPInstance.build(
            "p2", base.destination,
            {"1": base.permitted["1"],
             "2": list(reversed(base.permitted["2"]))})
        assert canonical_key(flipped_one) == canonical_key(flipped_two)
        assert canonical_key(flipped_one) != canonical_key(base)

    def test_component_permutation_collapses(self):
        """Copies of a gadget are interchangeable across the shared dest."""
        rng = random.Random(2)
        base = replicate(disagree(), 2)
        # Perturb copy #0 in one instance, copy #1 in the other.
        one = perturb_rankings(base, 0.0, rng)
        one.permitted["1#0"] = list(reversed(one.permitted["1#0"]))
        two = perturb_rankings(base, 0.0, rng)
        two.permitted["1#1"] = list(reversed(two.permitted["1#1"]))
        assert canonical_key(one) == canonical_key(two)

    def test_keys_stay_reprable_and_parseable(self):
        """The verdict store addresses by repr(); it must round-trip."""
        import ast

        for build in GADGET_ZOO.values():
            key = canonical_key(build())
            assert ast.literal_eval(repr(key)) == key


def twin_fan(hubs: int, twins: int) -> SPPInstance:
    """``twins`` interchangeable leaves under each of ``hubs`` hubs on a
    ring — the shape of an iBGP extraction (route-reflector clients): the
    leaves of one hub are twins and the hubs rotate, so the automorphism
    group has order ``hubs * twins! ** hubs`` inside a single component."""
    permitted = {}
    for h in range(hubs):
        hub, successor = f"h{h}", f"h{(h + 1) % hubs}"
        permitted[hub] = [(hub, "d")]
        if hubs > 1:
            permitted[hub].append((hub, successor, "d"))
        for t in range(twins):
            leaf = f"h{h}t{t}"
            permitted[leaf] = [(leaf, hub, "d")]
    return SPPInstance.build(f"fan-{hubs}x{twins}", "d", permitted)


def random_component(rng: random.Random, size: int) -> SPPInstance:
    """A random connected SPP (one component) over ``size`` non-destination
    nodes: a random spanning tree plus chords, a few ranked simple paths
    per node."""
    nodes = [f"n{i}" for i in range(size)]
    neighbors = {node: set() for node in nodes + ["d"]}

    def link(a, b):
        neighbors[a].add(b)
        neighbors[b].add(a)

    for i, node in enumerate(nodes[1:], start=1):
        link(node, nodes[rng.randrange(i)])
    for _ in range(rng.randrange(size)):
        link(*rng.sample(nodes, 2))
    for node in rng.sample(nodes, rng.randint(1, size)):
        link(node, "d")
    permitted = {}
    for node in nodes:
        paths = set()
        for _ in range(rng.randint(1, 3)):
            path = [node]
            while path[-1] != "d" and len(path) <= size:
                onward = sorted(neighbors[path[-1]] - set(path))
                if not onward:
                    break
                path.append("d" if "d" in onward and rng.random() < 0.5
                            else rng.choice(onward))
            if path[-1] == "d":
                paths.add(tuple(path))
        if paths:
            permitted[node] = rng.sample(sorted(paths), len(paths))
    return SPPInstance.build(
        "random", "d", permitted,
        extra_edges=[(a, b) for a in nodes for b in neighbors[a] if a < b])


class TestSearch:
    """The individualization search itself: global orbit pruning must
    return exactly what the unpruned search tree would."""

    @pytest.fixture
    def against_exhaustive(self, monkeypatch):
        """Run every search twice: as is, and with every leaf rendering
        made unique (a serial number appended), so that no two leaves
        ever compare equal, no automorphism is recorded and nothing is
        pruned — the same engine, exhaustively."""
        pruned = canonical.canonical_render
        searches = []

        def checked(elements, initial, signature, render):
            serial = itertools.count()
            exhaustive = pruned(
                elements, initial, signature,
                lambda index: (render(index), next(serial)),
                branch_limit=10 ** 6)
            result = pruned(elements, initial, signature, render)
            assert result == exhaustive[0]
            searches.append(len(elements))
            return result

        monkeypatch.setattr(canonical, "canonical_render", checked)
        return searches

    def test_pruned_minimum_is_the_exhaustive_minimum_on_random_spps(
            self, against_exhaustive):
        rng = random.Random(13)
        for _ in range(150):
            assert canonical_key(
                random_component(rng, rng.randint(2, 7)))[0] == "spp3"
        assert len(against_exhaustive) >= 150

    @pytest.mark.parametrize("hubs,twins", [(1, 4), (2, 2), (2, 3), (3, 2)])
    def test_pruned_minimum_is_the_exhaustive_minimum_on_twin_fans(
            self, against_exhaustive, hubs, twins):
        """Twin swaps under one hub abound here, and most of them move
        some node's individualized prefix (the refinement is strong enough
        on these that misusing one does not change the minimum — the
        weak-signature test below is the one that catches that)."""
        rng = random.Random(hubs * 10 + twins)
        fan = twin_fan(hubs, twins)
        # Break part of the symmetry too: perturbed fans have leaves that
        # look alike to the refinement but are not interchangeable.
        for instance in (fan, perturb_rankings(fan, 0.5, rng),
                         relabel(fan, rng)):
            assert canonical_key(instance)[0] == "spp3"
        assert against_exhaustive

    def test_pruning_uses_only_automorphisms_that_fix_the_prefix(self):
        """With a signature that refines nothing the search tree is every
        ordering of the elements, cells are far coarser than orbits, and a
        recorded automorphism applied below a node whose prefix it moves
        skips subtrees that are *not* images of explored ones: dropping
        the prefix filter returns a non-minimal rendering on ~7 % of the
        5-vertex graphs (the SPP signatures refine too well to show it)."""
        rng = random.Random(17)
        vertices = list(range(5))
        pairs = list(itertools.combinations(vertices, 2))
        for _ in range(200):
            edges = [pair for pair in pairs if rng.random() < 0.5]

            def render(index):
                return tuple(sorted(tuple(sorted((index[a], index[b])))
                                    for a, b in edges))

            def search(render_fn):
                return canonical.canonical_render(
                    vertices, dict.fromkeys(vertices, 0),
                    lambda vertex, colors: 0, render_fn)

            serial = itertools.count()
            exhaustive = search(lambda index: (render(index), next(serial)))
            assert search(render) == exhaustive[0] == min(
                render(dict(zip(order, vertices)))
                for order in itertools.permutations(vertices))

    def test_twin_fan_canonicalizes_within_a_pinned_branch_count(
            self, monkeypatch):
        """3 hubs x 4 twins: 2^depth under sibling-local orbit merging
        (the whole 2048-branch budget, then ``spp-raw``); global orbit
        pruning needs about a hundred branches."""
        monkeypatch.setattr(
            canonical, "canonical_render",
            functools.partial(canonical.canonical_render, branch_limit=128))
        rng = random.Random(3)
        fan = twin_fan(3, 4)
        key = canonical_key(fan)
        assert key[0] == "spp3"
        for _ in range(20):
            assert canonical_key(relabel(fan, rng)) == key

    def test_budget_burn_falls_back_and_is_counted(self, monkeypatch):
        monkeypatch.setattr(
            canonical, "canonical_render",
            functools.partial(canonical.canonical_render, branch_limit=3))
        burned = metrics.counter("repro_canonical_keys_total",
                                 kind="spp", outcome="raw-budget")
        keyed = metrics.counter("repro_canonical_keys_total",
                                kind="spp", outcome="canonical")
        before = burned.value, keyed.value
        assert canonical_key(twin_fan(3, 4))[0] == "spp-raw"
        assert canonical_key(disagree())[0] == "spp3"
        assert (burned.value, keyed.value) == (before[0] + 1, before[1] + 1)

    def test_rebuilding_an_instance_from_its_key_round_trips(self):
        """Equal keys ⇒ isomorphic subjects, executably: an ``spp3`` key is
        a complete rendering, so the instance rebuilt from it alone has
        the same key."""
        rng = random.Random(21)
        subjects = [build() for build in GADGET_ZOO.values()]
        subjects += [replicate(bad_gadget(), 2), disagree_chain(5, 0.5),
                     twin_fan(2, 3), random_component(rng, 6)]
        for instance in subjects:
            tag, components = key = canonical_key(instance)
            assert tag == "spp3"
            permitted, edges = {}, []
            for c, (destination, rankings, rendered_edges) in \
                    enumerate(components):
                def name(position):
                    return "d" if position == destination \
                        else f"c{c}n{position}"
                for node, paths in rankings:
                    permitted[name(node)] = [tuple(map(name, path))
                                             for path in paths]
                edges += [tuple(map(name, edge)) for edge in rendered_edges]
            rebuilt = SPPInstance.build("rebuilt", "d", permitted,
                                        extra_edges=edges)
            assert canonical_key(rebuilt) == key, instance.name


class TestCorpusKeysWithinBudget:
    """The benchmark corpora key canonically: no search burns its budget
    (before global orbit pruning 7 of 90 and 9 of 24 did, every one an
    iBGP extraction)."""

    @pytest.mark.parametrize("families,count", [
        (None, 90),                 # `rotation`: the default campaign
        (("gadget", "ibgp"), 24),   # `spp-keying`
    ])
    def test_no_budget_fallbacks(self, families, count):
        outcomes = ("canonical", "raw-budget", "raw-size")

        def keyed():
            return {(kind, outcome): metrics.counter(
                        "repro_canonical_keys_total",
                        kind=kind, outcome=outcome).value
                    for kind in ("spp", "table") for outcome in outcomes}

        before = keyed()
        for spec in ScenarioGenerator(7, families=families).generate(count):
            assert not evaluate(spec).error
        spent = {series: value - before[series]
                 for series, value in keyed().items()}
        assert spent["spp", "raw-budget"] == spent["table", "raw-budget"] == 0
        assert spent["spp", "canonical"] >= count // 10  # the extractions


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
