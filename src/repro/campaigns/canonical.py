"""Keys of analysis subjects for verdict memoization and batch kernels.

The safety verdict of an algebra is independent of the topology it runs on,
so a campaign that draws hundreds of scenarios from a handful of policies
should pay for each distinct constraint system exactly once per worker.
:func:`canonical_key` maps an analysis subject to a hashable, name-faithful
rendering of the constraint system it generates:

* **SPP instances** — destination, ranked paths per node, sorted edges;
* **table algebras** — every field of the tables (``table-raw``): labels,
  signatures, preference ranks, ⊕ entries, filters, reversals and
  originations, under their own names;
* **lexical products** and **secure algebras** — the component keys (the
  composition rule only looks at components);
* **closed-form algebras** — class plus label vocabulary plus certificate
  (their analysis is the certificate spot-check);
* any other finite algebra — its enumerated preference statements and
  monotonicity entries.

Soundness note: every key renders the whole subject under its own names,
so equal keys mean equal subjects, and a cache hit can serve neither a
verdict nor a batch kernel (whose signatures are the algebra's own) to a
different system.  A relabeled copy of a subject is a miss that gets the
same verdict.  On the generated corpora a relabeling-invariant key bought
no extra sharing (``campaigns/README.md``).
"""

from __future__ import annotations

from typing import Any, Hashable

from ..algebra.base import RoutingAlgebra
from ..algebra.extended import TableAlgebra
from ..algebra.product import LexicalProduct
from ..algebra.secure import SecureAlgebra
from ..algebra.spp import SPPInstance

Key = Hashable


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
        return ("spp-raw", subject.destination,
                tuple((node, tuple(subject.permitted[node]))
                      for node in sorted(subject.permitted)),
                _sorted_tuple(tuple(sorted(edge)) for edge in subject.edges))
    if isinstance(subject, LexicalProduct):
        return ("product",
                canonical_key(subject.first),
                canonical_key(subject.second))
    if isinstance(subject, SecureAlgebra):
        return ("secure", subject.variant, subject.mode, subject.roa,
                canonical_key(subject.base))
    if isinstance(subject, TableAlgebra):
        t = subject.tables
        return ("table-raw",
                _sorted_tuple(t.labels),
                _sorted_tuple(t.signatures),
                _sorted_tuple(t.preference.items()),
                _sorted_tuple(t.concat.items()),
                _sorted_tuple(t.import_filter),
                _sorted_tuple(t.export_filter),
                _sorted_tuple(t.reverse.items()),
                _sorted_tuple(t.origination.items()))
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


def _sorted_tuple(items: Any) -> tuple:
    # Mixed label/signature types (ints, strs, tuples) are not mutually
    # orderable; repr gives a stable total order without constraining types.
    return tuple(sorted(items, key=repr))
