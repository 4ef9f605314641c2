"""Canonicalization of analysis subjects for verdict memoization.

The safety verdict of an algebra is independent of the topology it runs on
and of incidental naming, so a campaign that draws hundreds of scenarios
from a handful of policies should pay for each distinct constraint system
exactly once per worker.  :func:`canonical_key` maps an analysis subject
to a hashable key that is equal precisely when the generated constraint
systems are equal *up to renaming*:

* **SPP instances** — a canonical relabeling of the nodes is computed by
  iterative color refinement (paths, rankings and adjacency refine the
  node colors) with individualization tie-breaking (the members of the
  first non-singleton color class are individualized in turn and the
  lexicographically least rendering wins), so ``disagree`` perturbed at
  node ``1`` and the same gadget perturbed at node ``2`` — isomorphic
  under swapping the two nodes — share one key and one solve.  Every
  automorphism the search discovers is recorded once and prunes every
  later node whose individualized prefix it fixes (nauty-style orbit
  pruning), which keeps the interchangeable route-reflector clients of
  iBGP-extracted instances at tens of branches instead of 2^depth;
* **table algebras** — labels and signatures are canonically renamed by
  the same refinement engine over the algebra's relational structure
  (ordinal preference ranks, ⊕ entries, filters, reversals,
  originations), so relabeled-but-identical policies coincide;
* **lexical products** — the pair of component keys (the composition rule
  only looks at components);
* **closed-form algebras** — class plus label vocabulary plus certificate
  (their analysis is the certificate spot-check).

Soundness note: canonical keys *are* complete renderings of the structure
under the canonical ordering — equal keys imply isomorphic subjects, so a
cache hit can never cross two systems with different verdicts.  That holds
for a complete rendering under *any* ordering, which is why the ``spp3`` /
``table3`` tags outlived the change of search: a key stored by an earlier
search order is still a faithful rendering, it merely stops being hit.
When an instance is too large (or too symmetric) to canonicalize within
budget, the key falls back to a name-faithful rendering under a distinct
tag: correctness is kept, only cross-relabeling hits are forgone — and
``repro_canonical_keys_total{kind,outcome}`` counts every such fallback
(``raw-budget`` / ``raw-size``) next to the ``canonical`` keys, so a search
that burns its budget is never mistaken for a key nobody repeated.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from ..algebra.base import PHI, RoutingAlgebra
from ..algebra.extended import TableAlgebra
from ..algebra.product import LexicalProduct
from ..algebra.secure import SecureAlgebra
from ..algebra.spp import SPPAlgebra, SPPInstance
from ..obs import metrics as _obs_metrics

Key = Hashable

#: Instances with more nodes than this skip canonicalization entirely.
CANONICALIZATION_NODE_LIMIT = 64
#: Individualization branches explored before giving up on an instance.
CANONICALIZATION_BRANCH_LIMIT = 2048

#: How each enumerated subject was keyed: canonically, or by the
#: name-faithful fallback after burning the branch budget / exceeding the
#: node limit (those keys can never be hit across a relabeling).
_KEYS = {
    (kind, outcome): _obs_metrics.counter(
        "repro_canonical_keys_total", kind=kind, outcome=outcome)
    for kind in ("spp", "table")
    for outcome in ("canonical", "raw-budget", "raw-size")
}
#: Individualization branches spent per search (one per SPP component or
#: table algebra), budget burns included.
_BRANCHES = _obs_metrics.histogram(
    "repro_canonical_branches",
    buckets=tuple(2 ** i for i in range(12)))


def canonical_key(subject: RoutingAlgebra | SPPInstance) -> Key:
    """A hashable, relabeling-invariant identity for the subject."""
    # Parametric algebra families can short-circuit the (quadratic)
    # enumerated rendering with a closed-form identity token: two
    # instances with equal tokens must generate identical constraint
    # systems (the token is the full parameter vector, type-tagged).
    # This is what lets kernel/verdict caches key a tau-sweep draw in
    # microseconds instead of re-rendering its preference tables.
    token = getattr(subject, "canonical_token", None)
    if callable(token):
        return ("token", type(subject).__name__, token())
    if isinstance(subject, SPPInstance):
        return _spp_key(subject)
    if isinstance(subject, SPPAlgebra):
        return _spp_key(subject.instance)
    if isinstance(subject, LexicalProduct):
        return ("product",
                canonical_key(subject.first),
                canonical_key(subject.second))
    if isinstance(subject, SecureAlgebra):
        return ("secure", subject.variant, subject.mode, subject.roa,
                canonical_key(subject.base))
    if isinstance(subject, TableAlgebra):
        return _table_key(subject)
    if not subject.is_finite:
        certificate = subject.closed_form_monotonicity
        return ("closed", type(subject).__name__,
                _sorted_tuple(subject.labels()),
                None if certificate is None else
                (certificate.strictly_monotonic, certificate.monotonic))
    # Generic finite algebra: the enumerated statements and entries ARE the
    # constraint system, so key on them directly.
    return ("finite", type(subject).__name__,
            tuple(str(s) for s in subject.preference_statements()),
            tuple(str(e) for e in subject.mono_entries()))


# -- the individualization-refinement engine ---------------------------------


def _densify(elements: Sequence, colors: dict, key=None) -> dict:
    """Re-map color keys to dense integers in ``key`` order (native order
    by default; ``repr`` for the mixed-type initial colors)."""
    order = {color: i for i, color in
             enumerate(sorted({colors[e] for e in elements}, key=key))}
    return {e: order[colors[e]] for e in elements}


def _orbits(seeds: list, permutations: list[dict]) -> set:
    """Union of the orbits of ``seeds`` under the group the permutations
    generate (each permutation maps only the elements it moves)."""
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        element = frontier.pop()
        for permutation in permutations:
            image = permutation.get(element, element)
            if image not in reached:
                reached.add(image)
                frontier.append(image)
    return reached


def canonical_render(
    elements: Sequence,
    initial_colors: dict,
    signature_fn: Callable[[Any, dict], Any],
    render_fn: Callable[[dict], tuple],
    branch_limit: int = CANONICALIZATION_BRANCH_LIMIT,
) -> tuple | None:
    """Minimum rendering of a finite structure over canonical orderings.

    Classic individualization-refinement: colors are refined to a fixpoint
    with ``signature_fn`` (which must describe an element *only* through
    the colors of its relational context, never through its name, and
    whose values must be mutually orderable among same-colored elements —
    refined colors are dense ints, so signatures sort natively); when a
    color class remains non-singleton, its members are individualized in
    turn and the lexicographically least fully-discrete rendering wins.

    One global automorphism list prunes the search.  Whenever a subtree's
    best leaf renders equal to the best leaf of its explored siblings, the
    element permutation between the two orderings is an automorphism of
    the structure and is recorded once, for the whole search.  At every
    node, the recorded automorphisms that fix the node's individualized
    prefix pointwise map the node's subtrees onto each other, so a
    candidate in the orbit of an explored candidate is skipped: its
    subtree holds the same renderings.  (A permutation that moves a prefix
    element maps the node elsewhere in the tree and says nothing about its
    children — hence the filter.)  This is what keeps interchangeable
    twins — k route-reflector clients under one hub, replicated gadgets —
    polynomial where sibling-local merging was 2^depth.

    Returns None when the branch budget is exhausted: a partially explored
    minimum is *not* canonical, so the whole computation is abandoned and
    callers fall back to a name-faithful key.
    """
    budget = branch_limit
    #: Discovered automorphisms, each as {element: image} over the
    #: elements it moves.
    automorphisms: list[dict] = []

    def refine(colors: dict) -> dict:
        while True:
            sigs = {e: (colors[e], signature_fn(e, colors))
                    for e in elements}
            refined = _densify(elements, sigs)
            if len(set(refined.values())) == len(set(colors.values())):
                return refined
            colors = refined

    def explore(colors: dict, prefix: tuple) -> tuple[tuple, dict] | None:
        """Return ``(rendering, discrete_index)`` or None on budget burn."""
        nonlocal budget
        colors = refine(colors)
        classes: dict[int, list] = {}
        for element in elements:
            classes.setdefault(colors[element], []).append(element)
        target = None
        for color in sorted(classes):
            if len(classes[color]) > 1:
                target = classes[color]
                break
        if target is None:
            return render_fn(colors), colors  # discrete: colors are 0..n-1
        best: tuple[tuple, dict] | None = None
        explored: list = []
        fixing: list[dict] = []  # automorphisms fixing the prefix pointwise
        folded = 0
        for candidate in target:
            fixing += [g for g in automorphisms[folded:]
                       if g.keys().isdisjoint(prefix)]
            folded = len(automorphisms)
            if candidate in _orbits(explored, fixing):
                continue  # its subtree is the image of an explored one
            if budget <= 0:
                return None
            budget -= 1
            explored.append(candidate)
            branched = dict(colors)
            branched[candidate] = len(elements)  # fresh unique color
            outcome = explore(branched, prefix + (candidate,))
            if outcome is None:
                return None
            rendering, index = outcome
            if best is None or rendering < best[0]:
                best = outcome
            elif rendering == best[0]:
                # Equal renderings from two orderings: the permutation
                # between them is an automorphism.
                element_at = {position: e for e, position in index.items()}
                automorphisms.append(
                    {e: element_at[position]
                     for e, position in best[1].items()
                     if element_at[position] != e})
        return best

    outcome = explore(_densify(elements, initial_colors, key=repr), ())
    _BRANCHES.observe(branch_limit - budget)
    return None if outcome is None else outcome[0]


# -- SPP instances ------------------------------------------------------------


def _spp_key(instance: SPPInstance) -> Key:
    """Canonical key of an SPP instance.

    The instance is first decomposed into the connected components of its
    destination-removed graph: every permitted path lives inside one
    component (its non-destination nodes form a connected chain), so the
    instance is a disjoint union of components sharing only the
    destination, and any isomorphism is a permutation of isomorphic
    components composed with within-component isomorphisms.  The key is
    therefore the sorted multiset of per-component canonical renderings —
    which turns the huge automorphism groups of replicated/chained
    gadgets (factorial in the copy count) into cheap small-component
    canonicalizations.
    """
    outcome = "canonical"
    renderings = []
    for component in _spp_components(instance):
        if len(component) + 1 > CANONICALIZATION_NODE_LIMIT:
            outcome = "raw-size"
            break
        rendering = _spp_component_render(instance, component)
        if rendering is None:
            outcome = "raw-budget"
            break
        renderings.append(rendering)
    _KEYS["spp", outcome].inc()
    if outcome == "canonical":
        return ("spp3", tuple(sorted(renderings, key=repr)))
    return ("spp-raw", instance.destination, _spp_raw_rankings(instance),
            _sorted_tuple(tuple(sorted(edge)) for edge in instance.edges))


def _spp_raw_rankings(instance: SPPInstance) -> tuple:
    return tuple((node, tuple(instance.permitted[node]))
                 for node in sorted(instance.permitted))


def _spp_components(instance: SPPInstance) -> list[list[str]]:
    """Connected components of the graph with the destination removed."""
    destination = instance.destination
    adjacency: dict[str, list[str]] = {}
    for node in instance.nodes():
        if node != destination:
            adjacency[node] = []
    for edge in instance.edges:
        pair = sorted(edge)
        if len(pair) < 2 or destination in pair:
            continue
        a, b = pair
        adjacency[a].append(b)
        adjacency[b].append(a)
    components: list[list[str]] = []
    seen: set[str] = set()
    for start in adjacency:
        if start in seen:
            continue
        stack, component = [start], []
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(component)
    return components


def _spp_component_render(instance: SPPInstance,
                          component: list[str]) -> tuple | None:
    """Canonical rendering of one component (destination included)."""
    destination = instance.destination
    members = set(component) | {destination}
    nodes = sorted(members)
    permitted = {node: instance.permitted[node] for node in component
                 if node in instance.permitted}
    edges = [tuple(sorted(edge)) for edge in instance.edges
             if set(edge) <= members]

    adjacency: dict[str, list[str]] = {node: [] for node in nodes}
    for a, b in edges:
        if a != b:
            adjacency[a].append(b)
            adjacency[b].append(a)

    initial = {
        node: ("dest",) if node == destination else
        ("node", len(permitted.get(node, ())),
         tuple(len(p) for p in permitted.get(node, ())),
         len(adjacency[node]))
        for node in nodes
    }

    def signature(node: str, colors: dict) -> tuple:
        ranked = tuple(tuple(colors[m] for m in path)
                       for path in permitted.get(node, ()))
        neighborhood = tuple(sorted(colors[nb] for nb in adjacency[node]))
        return (ranked, neighborhood)

    def render(index: dict) -> tuple:
        rankings = tuple(sorted(
            (index[node], tuple(tuple(index[m] for m in path)
                                for path in paths))
            for node, paths in permitted.items()))
        rendered_edges = tuple(sorted(
            tuple(sorted(index[n] for n in edge)) for edge in edges))
        return (index[destination], rankings, rendered_edges)

    return canonical_render(nodes, initial, signature, render)


# -- table algebras ------------------------------------------------------------


def _table_key(algebra: TableAlgebra) -> Key:
    t = algebra.tables
    if len(set(t.labels)) + len(set(t.signatures)) \
            > CANONICALIZATION_NODE_LIMIT:
        outcome = "raw-size"
    else:
        rendering = _table_canonical_render(algebra)
        outcome = "canonical" if rendering is not None else "raw-budget"
    _KEYS["table", outcome].inc()
    if outcome == "canonical":
        return ("table3",) + rendering
    return (
        "table-raw",
        _sorted_tuple(t.labels),
        _sorted_tuple(t.signatures),
        _sorted_tuple(t.preference.items()),
        _sorted_tuple(t.concat.items()),
        _sorted_tuple(t.import_filter),
        _sorted_tuple(t.export_filter),
        _sorted_tuple(t.reverse.items()),
        _sorted_tuple(t.origination.items()),
    )


def _table_canonical_render(algebra: TableAlgebra) -> tuple | None:
    t = algebra.tables
    labels = list(dict.fromkeys(t.labels))
    signatures = list(dict.fromkeys(t.signatures))

    label_set, signature_set = set(labels), set(signatures)

    # Ordinal preference ranks: only the relative order (and ties) matter
    # for the generated constraints, never the literal rank values.
    rank_order = {rank: i for i, rank in
                  enumerate(sorted({t.preference[s] for s in signatures}))}
    ordinal = {s: rank_order[t.preference[s]] for s in signatures}

    concat = [((label, sig), out) for (label, sig), out in t.concat.items()
              if out is not PHI and label in label_set
              and sig in signature_set]
    by_label: dict = {l: [] for l in labels}
    by_input: dict = {s: [] for s in signatures}
    by_output: dict = {s: [] for s in signatures}
    for (label, sig), out in concat:
        by_label[label].append((sig, out))
        by_input[sig].append((label, out))
        if out in by_output:
            by_output[out].append((label, sig))
    imports: dict = {l: [] for l in labels}
    exports: dict = {l: [] for l in labels}
    imported_at: dict = {s: [] for s in signatures}
    exported_at: dict = {s: [] for s in signatures}
    for label, sig in t.import_filter:
        if label in imports and sig in imported_at:
            imports[label].append(sig)
            imported_at[sig].append(label)
    for label, sig in t.export_filter:
        if label in exports and sig in exported_at:
            exports[label].append(sig)
            exported_at[sig].append(label)
    originated: dict = {s: [] for s in signatures}
    for label, sig in t.origination.items():
        if sig in originated:
            originated[sig].append(label)

    elements = [("L", l) for l in labels] + [("S", s) for s in signatures]
    initial = {}
    for l in labels:
        initial[("L", l)] = ("L", len(by_label[l]), len(imports[l]),
                             len(exports[l]))
    for s in signatures:
        initial[("S", s)] = ("S", ordinal[s])

    def color_of(colors, kind, value):
        return colors[(kind, value)]

    def signature_fn(element, colors):
        kind, value = element
        if kind == "L":
            reverse_color = color_of(colors, "L", t.reverse[value]) \
                if value in t.reverse else -1
            origination_color = (
                color_of(colors, "S", t.origination[value])
                if value in t.origination and
                t.origination[value] in signature_set else -1)
            return (
                tuple(sorted((color_of(colors, "S", s),
                              color_of(colors, "S", out))
                             for s, out in by_label[value])),
                reverse_color,
                tuple(sorted(color_of(colors, "S", s)
                             for s in imports[value])),
                tuple(sorted(color_of(colors, "S", s)
                             for s in exports[value])),
                origination_color,
            )
        return (
            tuple(sorted((color_of(colors, "L", l),
                          color_of(colors, "S", out))
                         for l, out in by_input[value])),
            tuple(sorted((color_of(colors, "L", l),
                          color_of(colors, "S", s))
                         for l, s in by_output[value])),
            tuple(sorted(color_of(colors, "L", l)
                         for l in imported_at[value])),
            tuple(sorted(color_of(colors, "L", l)
                         for l in exported_at[value])),
            tuple(sorted(color_of(colors, "L", l)
                         for l in originated[value])),
        )

    def render(index: dict) -> tuple:
        return (
            len(labels),
            tuple(sorted((index[("S", s)], ordinal[s]) for s in signatures)),
            tuple(sorted((index[("L", l)], index[("S", s)],
                          index[("S", out)]) for (l, s), out in concat)),
            tuple(sorted((index[("L", l)], index[("L", t.reverse[l])])
                         for l in labels if l in t.reverse)),
            tuple(sorted((index[("L", l)], index[("S", s)])
                         for l in labels for s in imports[l])),
            tuple(sorted((index[("L", l)], index[("S", s)])
                         for l in labels for s in exports[l])),
            tuple(sorted((index[("L", l)], index[("S", t.origination[l])])
                         for l in labels
                         if l in t.origination
                         and t.origination[l] in signature_set)),
        )

    return canonical_render(elements, initial, signature_fn, render)


def _sorted_tuple(items: Any) -> tuple:
    # Mixed label/signature types (ints, strs, tuples) are not mutually
    # orderable; repr gives a stable total order without constraining types.
    return tuple(sorted(items, key=repr))
