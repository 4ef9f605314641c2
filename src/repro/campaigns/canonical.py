"""Canonicalization of analysis subjects for verdict memoization.

The safety verdict of an algebra is independent of the topology it runs on
and of incidental naming, so a campaign that draws hundreds of scenarios
from a handful of policies should pay for each distinct constraint system
exactly once per worker.  :func:`canonical_key` maps an analysis subject
to a hashable key that is equal only when the generated constraint
systems are equal:

* **SPP instances** — a name-faithful rendering (destination, ranked
  paths per node, sorted edges), so only a repeat drawn under the same
  node names is a hit.  A relabeling-invariant key cost over ten times the
  dispute-digraph analysis it could skip on the iBGP extractions
  (``campaigns/README.md`` has the numbers); this one costs less than
  the solves it saves;
* **table algebras** — labels and signatures are canonically renamed by
  color refinement over the algebra's relational structure (ordinal
  preference ranks, ⊕ entries, filters, reversals, originations), so
  relabeled-but-identical policies coincide;
* **lexical products** — the pair of component keys (the composition rule
  only looks at components);
* **closed-form algebras** — class plus label vocabulary plus certificate
  (their analysis is the certificate spot-check).

Soundness note: every key is a complete rendering of the structure under
some ordering — equal keys imply isomorphic subjects, so a cache hit can
never cross two systems with different verdicts.  A table whose
refinement leaves indistinguishable twins, or that is too large to
refine, falls back to a name-faithful ``table-raw`` rendering:
correctness is kept, only cross-relabeling hits are forgone — and
``repro_canonical_keys_total{outcome}`` counts every such fallback
(``raw-symmetric`` / ``raw-size``) next to the ``canonical`` keys.  Every
library table refines to a discrete coloring.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from ..algebra.base import PHI, RoutingAlgebra
from ..algebra.extended import TableAlgebra
from ..algebra.product import LexicalProduct
from ..algebra.secure import SecureAlgebra
from ..algebra.spp import SPPInstance
from ..obs import metrics as _obs_metrics

Key = Hashable

#: Tables with more labels plus signatures than this skip refinement.
CANONICALIZATION_NODE_LIMIT = 64

#: How each table algebra was keyed: canonically, or by the name-faithful
#: fallback when refinement leaves twins / the table exceeds the node
#: limit (those keys can never be hit across a relabeling).
_KEYS = {
    outcome: _obs_metrics.counter("repro_canonical_keys_total",
                                  outcome=outcome)
    for outcome in ("canonical", "raw-symmetric", "raw-size")
}


def canonical_key(subject: RoutingAlgebra | SPPInstance) -> Key:
    """A hashable identity for the subject's constraint system."""
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


# -- color refinement ---------------------------------------------------------


def _densify(elements: Sequence, colors: dict, key=None) -> dict:
    """Re-map color keys to dense integers in ``key`` order (native order
    by default; ``repr`` for the mixed-type initial colors)."""
    order = {color: i for i, color in
             enumerate(sorted({colors[e] for e in elements}, key=key))}
    return {e: order[colors[e]] for e in elements}


def canonical_render(
    elements: Sequence,
    initial_colors: dict,
    signature_fn: Callable[[Any, dict], Any],
    render_fn: Callable[[dict], tuple],
) -> tuple | None:
    """Rendering of a finite structure under its color-refined ordering.

    Colors are refined to a fixpoint with ``signature_fn``, which must
    describe an element *only* through the colors of its relational
    context, never through its name, and whose values must be mutually
    orderable among same-colored elements (refined colors are dense ints,
    so signatures sort natively).  When the fixpoint is discrete, the
    colors number the elements ``0..n-1`` canonically and
    ``render_fn(colors)`` is the rendering.  Otherwise some elements are
    indistinguishable to refinement — interchangeable twins, or a symmetry
    it cannot break — and the result is None: callers fall back to a
    name-faithful key.
    """
    colors = _densify(elements, initial_colors, key=repr)
    while True:
        refined = _densify(elements, {
            e: (colors[e], signature_fn(e, colors)) for e in elements})
        if len(set(refined.values())) == len(set(colors.values())):
            break
        colors = refined
    if len(set(refined.values())) < len(elements):
        return None
    return render_fn(refined)


# -- SPP instances ------------------------------------------------------------


def _spp_key(instance: SPPInstance) -> Key:
    """Name-faithful key: destination, ranked paths per node, edges."""
    return ("spp-raw", instance.destination,
            tuple((node, tuple(instance.permitted[node]))
                  for node in sorted(instance.permitted)),
            _sorted_tuple(tuple(sorted(edge)) for edge in instance.edges))


# -- table algebras ------------------------------------------------------------


def _table_key(algebra: TableAlgebra) -> Key:
    t = algebra.tables
    if len(set(t.labels)) + len(set(t.signatures)) \
            > CANONICALIZATION_NODE_LIMIT:
        outcome = "raw-size"
    else:
        rendering = _table_canonical_render(algebra)
        outcome = "canonical" if rendering is not None else "raw-symmetric"
    _KEYS[outcome].inc()
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
